"""Property tests for the tracing interval algebra and the trace tree."""

import typing as t

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import AnalysisError
from repro.tracing.collector import (Span, TraceCollector, _merge,
                                     _subtract, _union_length)

intervals = st.lists(
    st.tuples(st.floats(min_value=0, max_value=100),
              st.floats(min_value=0, max_value=100)).map(
        lambda pair: (min(pair), max(pair))),
    max_size=15,
).map(lambda xs: [(s, e) for s, e in xs if e > s])


@settings(max_examples=200, deadline=None)
@given(xs=intervals)
def test_merge_produces_disjoint_sorted(xs):
    merged = _merge(xs)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    for start, end in merged:
        assert start < end


@settings(max_examples=200, deadline=None)
@given(xs=intervals)
def test_union_length_invariant_under_merge(xs):
    assert abs(_union_length(xs) - _union_length(_merge(xs))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(xs=intervals)
def test_union_length_bounded_by_span(xs):
    if not xs:
        return
    lo = min(s for s, __ in xs)
    hi = max(e for __, e in xs)
    assert _union_length(xs) <= (hi - lo) + 1e-9


@settings(max_examples=200, deadline=None)
@given(base_start=st.floats(min_value=0, max_value=50),
       length=st.floats(min_value=0.1, max_value=50),
       holes=intervals)
def test_subtract_partitions_the_base(base_start, length, holes):
    """|base| == |base - holes| + |base ∩ holes|."""
    base = (base_start, base_start + length)
    remainder = _subtract(base, holes)
    clipped = [(max(s, base[0]), min(e, base[1])) for s, e in holes]
    clipped = [(s, e) for s, e in clipped if e > s]
    assert abs((length - _union_length(remainder))
               - _union_length(clipped)) < 1e-6
    # Remainder intervals lie inside the base and avoid every hole.
    for start, end in remainder:
        assert base[0] - 1e-9 <= start < end <= base[1] + 1e-9
        midpoint = (start + end) / 2
        for hole_start, hole_end in clipped:
            assert not hole_start < midpoint < hole_end


@settings(max_examples=100, deadline=None)
@given(holes=intervals)
def test_subtract_with_covering_hole_is_empty(holes):
    base = (10.0, 20.0)
    assert _subtract(base, [(0.0, 100.0)] + holes) == []


def test_subtract_edge_cases():
    assert _subtract((0.0, 10.0), []) == [(0.0, 10.0)]
    assert _subtract((0.0, 10.0), [(2.0, 3.0)]) == [(0.0, 2.0), (3.0, 10.0)]
    assert _subtract((0.0, 10.0), [(0.0, 5.0)]) == [(5.0, 10.0)]
    assert _subtract((0.0, 10.0), [(5.0, 10.0)]) == [(0.0, 5.0)]
    assert _subtract((0.0, 10.0), [(-5.0, 0.0)]) == [(0.0, 10.0)]
    assert _subtract((0.0, 10.0), [(10.0, 15.0)]) == [(0.0, 10.0)]


# ---------------------------------------------------------------------------
# Trace-tree queries against a dict-of-lists oracle
# ---------------------------------------------------------------------------

class Row(t.NamedTuple):
    request_id: int
    parent_id: int | None
    service: str
    endpoint: str
    instance_id: int | None
    created: float
    enqueued: float
    started: float
    completed: float


class TreeOracle:
    """The trace tree as a dict of child lists plus a root list.

    Children are keyed by parent request id and kept in append order, so
    rows sharing an id share their children and a row whose parent id
    has no row (an orphan) hangs off no root.
    """

    def __init__(self, rows: t.Iterable[Row] = ()):
        self.rows: list[Row] = []
        self.roots: list[int] = []
        self.children: dict[int, list[int]] = {}
        for row in rows:
            self.append(row)

    def append(self, row: Row) -> None:
        index = len(self.rows)
        self.rows.append(row)
        if row.parent_id is None:
            self.roots.append(index)
        else:
            self.children.setdefault(row.parent_id, []).append(index)

    def kids(self, index: int) -> list[int]:
        return self.children.get(self.rows[index].request_id, [])

    def trace(self, root: int) -> list[int]:
        result = [root]
        frontier = [root]
        while frontier:
            kids = self.kids(frontier.pop())
            result.extend(kids)
            frontier.extend(kids)
        return result

    def exclusive(self, index: int) -> list[tuple[float, float]]:
        row = self.rows[index]
        holes = [(self.rows[kid].created, self.rows[kid].completed)
                 for kid in self.kids(index)]
        return _subtract((row.created, row.completed), holes)

    def roots_of(self, endpoint: str | None) -> list[int]:
        return [root for root in self.roots
                if endpoint is None or self.rows[root].endpoint == endpoint]

    def breakdown(self, endpoint: str | None) -> dict[str, float]:
        """Per root, each service's union of exclusive intervals."""
        roots = self.roots_of(endpoint)
        totals: dict[str, float] = {}
        for root in roots:
            per_service: dict[str, list[tuple[float, float]]] = {}
            for index in self.trace(root):
                intervals = self.exclusive(index)
                if intervals:
                    per_service.setdefault(
                        self.rows[index].service, []).extend(intervals)
            for service, intervals in per_service.items():
                totals[service] = (totals.get(service, 0.0)
                                   + _union_length(intervals))
        return {service: total / len(roots)
                for service, total in totals.items()}

    def mean_root_latency(self, endpoint: str | None) -> float:
        roots = self.roots_of(endpoint)
        return sum(self.rows[root].completed - self.rows[root].created
                   for root in roots) / len(roots)

    def chrome_trace(self, limit_roots: int | None) -> list[dict]:
        events = []
        for root in self.roots[:limit_roots]:
            for index in self.trace(root):
                row = self.rows[index]
                events.append({
                    "name": f"{row.service}/{row.endpoint}",
                    "cat": row.service,
                    "ph": "X",
                    "ts": row.created * 1e6,
                    "dur": (row.completed - row.created) * 1e6,
                    "pid": row.service,
                    "tid": row.instance_id or 0,
                    "args": {
                        "request_id": row.request_id,
                        "parent_id": row.parent_id,
                        "queue_ms": (row.started - row.enqueued) * 1e3,
                        "root_id": self.rows[root].request_id,
                    },
                })
        return events


@st.composite
def span_rows(draw, max_rows: int = 10) -> list[Row]:
    """Rows over a small id range, so ids repeat and parents go missing.

    A parent id is always below the row's own id, which keeps every
    id-keyed walk finite even when ids repeat.
    """
    rows = []
    for __ in range(draw(st.integers(0, max_rows))):
        request_id = draw(st.integers(0, 12))
        parent_id = (draw(st.none() | st.integers(0, request_id - 1))
                     if request_id else None)
        created = draw(st.integers(0, 40)) / 4
        completed = created + draw(st.integers(0, 20)) / 4
        started = draw(st.floats(created, completed))
        rows.append(Row(request_id, parent_id,
                        draw(st.sampled_from(["web", "auth", "db"])),
                        draw(st.sampled_from(["home", "cart"])),
                        draw(st.none() | st.integers(0, 3)),
                        created, created, started, completed))
    return rows


def add_rows(collector: TraceCollector, rows: t.Iterable[Row]) -> None:
    for row in rows:
        collector.add_span(*row)


def assert_matches(collector: TraceCollector, oracle: TreeOracle) -> None:
    table = collector.table
    assert len(collector) == len(oracle.rows)
    assert collector.roots == [Span(table, root) for root in oracle.roots]
    for index in range(len(oracle.rows)):
        span = Span(table, index)
        assert collector.children_of(span) == [
            Span(table, kid) for kid in oracle.kids(index)]
        assert collector.exclusive_intervals(span) == oracle.exclusive(index)
    for root in oracle.roots:
        assert collector.trace_of(Span(table, root)) == [
            Span(table, index) for index in oracle.trace(root)]
    for endpoint in (None, "home", "cart"):
        if not oracle.roots_of(endpoint):
            with pytest.raises(AnalysisError):
                collector.breakdown(endpoint)
            with pytest.raises(AnalysisError):
                collector.mean_root_latency(endpoint)
            continue
        breakdown = collector.breakdown(endpoint)
        expected = oracle.breakdown(endpoint)
        assert list(breakdown) == list(expected)
        assert breakdown == pytest.approx(expected, abs=1e-9)
        assert (collector.mean_root_latency(endpoint)
                == oracle.mean_root_latency(endpoint))
    for limit in (None, 1):
        assert (collector.to_chrome_trace(limit_roots=limit)
                == oracle.chrome_trace(limit))
    assert repr(collector) == (f"<TraceCollector {len(oracle.rows)} spans, "
                               f"{len(oracle.roots)} roots>")


def rewired(rows: list[Row]) -> list[Row]:
    """The same rows with every parent link changed: children become
    roots, roots hang off the id below their own."""
    return [row._replace(parent_id=(
        None if row.parent_id is not None or row.request_id == 0
        else row.request_id - 1)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(span_rows(), min_size=1, max_size=4))
def test_tree_queries_match_the_oracle_across_appends_and_clear(batches):
    collector = TraceCollector()
    oracle = TreeOracle()
    # Query between appends: a tree derived before an append must not
    # answer after it.
    for rows in batches:
        add_rows(collector, rows)
        for row in rows:
            oracle.append(row)
        assert_matches(collector, oracle)
    # clear() then as many rows again, wired differently: the row count
    # alone would match the tree derived before the clear.
    rows = rewired(oracle.rows)
    collector.reset()
    add_rows(collector, rows)
    assert_matches(collector, TreeOracle(rows))


@settings(max_examples=100, deadline=None)
@given(shards=st.lists(span_rows(), min_size=1, max_size=3))
def test_tree_queries_match_the_oracle_on_merged_tables(shards):
    payloads = []
    relocated = []
    offset = 0
    for rows in shards:
        shard = TraceCollector()
        add_rows(shard, rows)
        payloads.append(shard.table.to_payload())
        relocated.extend(row._replace(
            request_id=row.request_id + offset,
            parent_id=(None if row.parent_id is None
                       else row.parent_id + offset)) for row in rows)
        if rows:
            offset += max(row.request_id for row in rows) + 1
    merged = TraceCollector.merged(payloads)
    oracle = TreeOracle(relocated)
    assert_matches(merged, oracle)
    # The merged table keeps recording like any other.
    extra = [Row(offset, relocated[0].request_id if relocated else None,
                 "db", "home", None, 1.0, 1.0, 1.5, 2.0)]
    add_rows(merged, extra)
    oracle.append(extra[0])
    assert_matches(merged, oracle)
