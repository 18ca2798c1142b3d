"""Span collection and latency decomposition.

Spans are stored columnar: a :class:`SpanTable` keeps one growable numpy
column per field (three int64 ids, two uint32 interned service/endpoint
codes, four float64 timestamps), so recording a hop costs 64 bytes of
columns (plus the columns' doubling slack) and no Python object.  The
call tree is not stored: roots and children are derived from the
``parent_id`` and ``request_id`` columns when a query first asks for
them, and that index (about three Python ints per row) is cached until
the row count changes.  :class:`Span` survives as a lazy row view over
the table, and the E11 decomposition aggregates with one argsort-based
sweep over all exclusive intervals instead of per-root dict-of-list
merging.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro._errors import AnalysisError
from repro.metrics.columns import Column, StringInterner

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.services.request import Request


class SpanTable:
    """Columnar storage for completed request hops.

    Parallel columns, one row per hop; ``parent_id`` and ``instance_id``
    use ``-1`` for "none" so the columns stay dense int64.  Rows are in
    completion order.
    """

    __slots__ = ("request_id", "parent_id", "instance_id",
                 "service_code", "endpoint_code",
                 "created", "enqueued", "started", "completed",
                 "services", "endpoints", "_tree")

    def __init__(self):
        self.request_id = Column(np.int64)
        self.parent_id = Column(np.int64)
        self.instance_id = Column(np.int64)
        self.service_code = Column(np.uint32)
        self.endpoint_code = Column(np.uint32)
        self.created = Column(np.float64)
        self.enqueued = Column(np.float64)
        self.started = Column(np.float64)
        self.completed = Column(np.float64)
        self.services = StringInterner()
        self.endpoints = StringInterner()
        self._tree: _SpanTree | None = None

    def __len__(self) -> int:
        return len(self.request_id)

    def append(self, request_id: int, parent_id: int | None,
               service: str, endpoint: str, instance_id: int | None,
               created_at: float, enqueued_at: float,
               started_at: float, completed_at: float) -> int:
        """Add one hop; returns its row index."""
        row = len(self.request_id)
        self.request_id.append(request_id)
        self.parent_id.append(-1 if parent_id is None else parent_id)
        self.instance_id.append(-1 if instance_id is None else instance_id)
        self.service_code.append(self.services.encode(service))
        self.endpoint_code.append(self.endpoints.encode(endpoint))
        self.created.append(created_at)
        self.enqueued.append(enqueued_at)
        self.started.append(started_at)
        self.completed.append(completed_at)
        return row

    def clear(self) -> None:
        """Drop all rows (interned names are kept)."""
        for column in (self.request_id, self.parent_id, self.instance_id,
                       self.service_code, self.endpoint_code,
                       self.created, self.enqueued, self.started,
                       self.completed):
            column.clear()
        # The tree cache is keyed on the row count alone, which a clear
        # followed by as many appends would match again.
        self._tree = None

    def _tree_index(self) -> "_SpanTree":
        """Roots and child rows, derived from the id columns.

        Built on first use and kept until the row count changes, so a
        query pays for one argsort however many lookups it makes.
        """
        tree = self._tree
        if tree is None or tree.rows != len(self.request_id):
            tree = self._tree = _SpanTree(self.request_id.as_array(),
                                          self.parent_id.as_array())
        return tree

    def to_payload(self) -> dict:
        """JSON-native columnar dump (codes + vocabularies, not strings).

        Sharded runs ship each shard's spans across the process boundary
        in this form; :meth:`from_payload` restores a table and
        :meth:`merged` folds several into one.
        """
        return {
            "request_id": self.request_id.as_array().tolist(),
            "parent_id": self.parent_id.as_array().tolist(),
            "instance_id": self.instance_id.as_array().tolist(),
            "service_code": self.service_code.as_array().tolist(),
            "endpoint_code": self.endpoint_code.as_array().tolist(),
            "created": self.created.as_array().tolist(),
            "enqueued": self.enqueued.as_array().tolist(),
            "started": self.started.as_array().tolist(),
            "completed": self.completed.as_array().tolist(),
            "services": self.services.names,
            "endpoints": self.endpoints.names,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SpanTable":
        """Inverse of :meth:`to_payload`."""
        table = cls()
        table.extend_from_payload(payload)
        return table

    def extend_from_payload(self, payload: dict,
                            id_offset: int = 0) -> None:
        """Append another table's rows, shifting ids by ``id_offset``.

        Request ids are process-local counters, so tables produced by
        different shard processes collide; the offset relocates each
        incoming table into a disjoint id range (``-1`` "no parent"
        stays ``-1``).  Rows go through :meth:`append` one by one, so
        names are interned in the order the rows use them.
        """
        services = payload["services"]
        endpoints = payload["endpoints"]
        for (request_id, parent_id, instance_id, service_code,
             endpoint_code, created, enqueued, started,
             completed) in zip(
                payload["request_id"], payload["parent_id"],
                payload["instance_id"], payload["service_code"],
                payload["endpoint_code"], payload["created"],
                payload["enqueued"], payload["started"],
                payload["completed"]):
            self.append(request_id + id_offset,
                        None if parent_id < 0 else parent_id + id_offset,
                        services[service_code], endpoints[endpoint_code],
                        None if instance_id < 0 else instance_id,
                        created, enqueued, started, completed)

    def parent_rows(self) -> np.ndarray:
        """Row index of each span's parent span, ``-1`` when absent.

        Vectorized: one argsort over the request-id column plus a
        searchsorted of the parent ids into it — no per-row dict
        lookups.  A parent id that never completed (and so has no row)
        maps to ``-1`` like a true root.
        """
        ids = self.request_id.as_array()
        parents = self.parent_id.as_array()
        result = np.full(len(ids), -1, dtype=np.int64)
        mask = parents >= 0
        if not mask.any():
            return result
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        pos = np.searchsorted(sorted_ids, parents[mask])
        pos = np.minimum(pos, len(ids) - 1)
        candidates = order[pos]
        found = ids[candidates] == parents[mask]
        rows = np.flatnonzero(mask)
        result[rows[found]] = candidates[found]
        return result

    def service_edges(self) -> list[tuple[int, int]]:
        """Unique observed call-graph edges as service-code pairs.

        Each edge is ``(caller_code, callee_code)`` derived from the
        parent links — the measured topology the cascade analyzer walks,
        rather than an assumed one.  Sorted for determinism.
        """
        parent_row = self.parent_rows()
        mask = parent_row >= 0
        if not mask.any():
            return []
        codes = self.service_code.as_array().astype(np.int64)
        callers = codes[parent_row[mask]]
        callees = codes[mask]
        keys = np.unique((callers << 32) | callees)
        return [(int(key >> 32), int(key & 0xFFFFFFFF)) for key in keys]

    @classmethod
    def merged(cls, payloads: t.Sequence[dict]) -> "SpanTable":
        """One table from several :meth:`to_payload` dumps, in order.

        Each dump is relocated past the previous ones' highest request
        id, so spans from independent shard processes keep distinct ids
        and parent links stay internally consistent per dump.
        """
        table = cls()
        offset = 0
        for payload in payloads:
            table.extend_from_payload(payload, id_offset=offset)
            ids = payload["request_id"]
            if ids:
                offset += max(ids) + 1
        return table


class _SpanTree:
    """The call forest of a :class:`SpanTable`, derived from two columns.

    Roots are the rows with ``parent_id < 0``.  The children of a row are
    the rows whose ``parent_id`` equals its request id, so they stay keyed
    by request id: rows sharing an id share their children, and a row
    whose parent id has no row (an orphan) is reached from no root.  Both
    keep row (completion) order.  The index is plain lists, so a tree walk
    only slices them.
    """

    __slots__ = ("rows", "roots", "_order", "_lo", "_hi")

    def __init__(self, request_ids: np.ndarray, parent_ids: np.ndarray):
        #: Row count the index was built at (the cache key).
        self.rows = len(request_ids)
        #: Rows of parentless spans, in row order.
        self.roots: list[int] = np.flatnonzero(parent_ids < 0).tolist()
        # A stable sort keeps siblings in row order; a row's children are
        # the run of its request id among the sorted parent ids.
        order = np.argsort(parent_ids, kind="stable")
        sorted_parents = parent_ids[order]
        self._order: list[int] = order.tolist()
        self._lo: list[int] = np.searchsorted(
            sorted_parents, request_ids, side="left").tolist()
        self._hi: list[int] = np.searchsorted(
            sorted_parents, request_ids, side="right").tolist()

    def children(self, row: int) -> list[int]:
        """Rows whose parent id is ``row``'s request id, in row order."""
        return self._order[self._lo[row]:self._hi[row]]

    def trace(self, root: int) -> list[int]:
        """``root`` and every row below it, each after its parent."""
        order, lo, hi = self._order, self._lo, self._hi
        result = [root]
        frontier = [root]
        while frontier:
            row = frontier.pop()
            kids = order[lo[row]:hi[row]]
            result.extend(kids)
            frontier.extend(kids)
        return result


class Span:
    """One completed request hop — a lazy view over a table row."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: SpanTable, row: int):
        self._table = table
        self._row = row

    @property
    def request_id(self) -> int:
        return int(self._table.request_id.as_array()[self._row])

    @property
    def parent_id(self) -> int | None:
        value = int(self._table.parent_id.as_array()[self._row])
        return None if value < 0 else value

    @property
    def service(self) -> str:
        return self._table.services.decode(
            int(self._table.service_code.as_array()[self._row]))

    @property
    def endpoint(self) -> str:
        return self._table.endpoints.decode(
            int(self._table.endpoint_code.as_array()[self._row]))

    @property
    def instance_id(self) -> int | None:
        value = int(self._table.instance_id.as_array()[self._row])
        return None if value < 0 else value

    @property
    def created_at(self) -> float:
        """Caller issued the request."""
        return float(self._table.created.as_array()[self._row])

    @property
    def enqueued_at(self) -> float:
        """Arrived at the replica queue."""
        return float(self._table.enqueued.as_array()[self._row])

    @property
    def started_at(self) -> float:
        """A worker picked it up."""
        return float(self._table.started.as_array()[self._row])

    @property
    def completed_at(self) -> float:
        """Handler finished."""
        return float(self._table.completed.as_array()[self._row])

    @property
    def duration(self) -> float:
        """Caller-visible time excluding the return network hop."""
        return self.completed_at - self.created_at

    @property
    def queue_time(self) -> float:
        """Time from replica arrival to worker pickup."""
        return self.started_at - self.enqueued_at

    @property
    def service_time(self) -> float:
        """Time inside the handler (own CPU + downstream waits)."""
        return self.completed_at - self.started_at

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Span) and other._table is self._table
                and other._row == self._row)

    def __hash__(self) -> int:
        return hash((id(self._table), self._row))

    def __repr__(self) -> str:
        return (f"<Span {self.service}/{self.endpoint} "
                f"request={self.request_id} row={self._row}>")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    return sum(end - start for start, end in _merge(intervals))


def _merge(intervals: list[tuple[float, float]]
           ) -> list[tuple[float, float]]:
    """Merge possibly overlapping intervals into disjoint sorted ones."""
    if not intervals:
        return []
    # Exclusive-interval pipelines emit ascending starts already; one
    # order-check pass beats re-sorting a sorted list on every call.
    if any(a > b for a, b in zip(intervals, intervals[1:])):
        intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start > last_end:
            merged.append((start, end))
        else:
            merged[-1] = (last_start, max(last_end, end))
    return merged


def _subtract(base: tuple[float, float],
              holes: list[tuple[float, float]]
              ) -> list[tuple[float, float]]:
    """``base`` minus the union of ``holes`` as disjoint intervals."""
    start, end = base
    result: list[tuple[float, float]] = []
    cursor = start
    for hole_start, hole_end in _merge(holes):
        hole_start = max(hole_start, start)
        hole_end = min(hole_end, end)
        if hole_end <= cursor:
            continue
        if hole_start > cursor:
            result.append((cursor, min(hole_start, end)))
        cursor = max(cursor, hole_end)
        if cursor >= end:
            break
    if cursor < end:
        result.append((cursor, end))
    return [(s, e) for s, e in result if e > s]


class TraceCollector:
    """Collects spans and answers latency-decomposition queries."""

    def __init__(self):
        self._table = SpanTable()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def table(self) -> SpanTable:
        """The columnar backing store (read-only access for analysis)."""
        return self._table

    def record(self, request: "Request") -> None:
        """Turn a completed request into a span (called by instances)."""
        if (request.enqueued_at is None or request.started_at is None
                or request.completed_at is None):
            raise AnalysisError(
                f"request {request!r} is missing timestamps")
        parent_id = (request.parent.request_id
                     if request.parent is not None else None)
        self._table.append(request.request_id, parent_id,
                           request.service_name, request.endpoint,
                           request.instance_id, request.created_at,
                           request.enqueued_at, request.started_at,
                           request.completed_at)

    def add_span(self, request_id: int, parent_id: int | None = None,
                 service: str = "svc", endpoint: str = "op",
                 instance_id: int | None = None,
                 created_at: float = 0.0, enqueued_at: float = 0.0,
                 started_at: float = 0.0,
                 completed_at: float = 1.0) -> Span:
        """Inject one span directly (tests, importers, synthetic traces).

        Ids must be non-negative, as the simulator's request counter is:
        the table stores a missing parent as ``-1``.
        """
        if request_id < 0 or (parent_id is not None and parent_id < 0):
            raise AnalysisError(
                f"span ids must be non-negative: request {request_id}, "
                f"parent {parent_id}")
        row = self._table.append(request_id, parent_id, service, endpoint,
                                 instance_id, created_at, enqueued_at,
                                 started_at, completed_at)
        return Span(self._table, row)

    def reset(self) -> None:
        """Drop all spans (end of warmup)."""
        self._table.clear()

    @classmethod
    def merged(cls, payloads: t.Sequence[dict]) -> "TraceCollector":
        """A collector over the merge of several shard span dumps.

        Accepts :meth:`SpanTable.to_payload` dicts in shard order; the
        merged table relocates each shard's request ids into a disjoint
        range so the usual queries (roots, breakdown, chrome export)
        work on the union.
        """
        collector = cls()
        collector._table = SpanTable.merged(payloads)
        return collector

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def roots(self) -> list[Span]:
        """User-facing spans (no parent), in completion order."""
        table = self._table
        return [Span(table, row) for row in table._tree_index().roots]

    def children_of(self, span: Span) -> list[Span]:
        """Direct downstream spans of one span."""
        table = self._table
        kids = table._tree_index().children(span._row)
        return [Span(table, row) for row in kids]

    def trace_of(self, root: Span) -> list[Span]:
        """The whole call tree below (and including) ``root``."""
        table = self._table
        rows = table._tree_index().trace(root._row)
        return [Span(table, row) for row in rows]

    def exclusive_intervals(self, span: Span) -> list[tuple[float, float]]:
        """The span's window minus its children's windows.

        What remains is when this hop itself was the reason the caller
        waited (own queueing + own CPU), not a downstream call.
        """
        table = self._table
        created = table.created.as_array()
        completed = table.completed.as_array()
        holes = [(float(created[child]), float(completed[child]))
                 for child in table._tree_index().children(span._row)]
        return _subtract((span.created_at, span.completed_at), holes)

    def exclusive_time(self, span: Span) -> float:
        """Total length of :meth:`exclusive_intervals`."""
        return _union_length(self.exclusive_intervals(span))

    def _filtered_root_rows(self, endpoint: str | None) -> list[int]:
        table = self._table
        root_rows = table._tree_index().roots
        if endpoint is None:
            return list(root_rows)  # a copy: the cached index stays put
        code = table.endpoints.code_if_known(endpoint)
        if code is None:
            return []
        roots = np.asarray(root_rows, dtype=np.int64)
        mask = table.endpoint_code.as_array()[roots] == code
        return [int(row) for row in roots[mask]]

    def breakdown(self, endpoint: str | None = None) -> dict[str, float]:
        """Mean per-service critical-path seconds per user request.

        For each traced user request, a service's contribution is the
        *union* of its spans' exclusive intervals — two parallel calls to
        the same service that overlap in time count once, because the
        caller only waited through that wall-clock window once.
        Restricted to roots of one ``endpoint`` when given.  Values sum
        to ≈ the mean end-to-end latency (slightly more when *different*
        services overlap in parallel: each is on the critical path).

        Aggregation is a single argsort-based sweep: every span's
        exclusive intervals are gathered once, lexsorted by
        ``(service, root, start)``, and union lengths accumulate in one
        linear pass over the sorted arrays — no per-root dict-of-list
        churn.
        """
        table = self._table
        root_rows = self._filtered_root_rows(endpoint)
        if not root_rows:
            raise AnalysisError(
                "no traced roots" + (f" for endpoint {endpoint!r}"
                                     if endpoint else ""))
        tree = table._tree_index()
        service_codes = table.service_code.as_array()
        created = table.created.as_array().tolist()
        completed = table.completed.as_array().tolist()

        starts: list[float] = []
        ends: list[float] = []
        services: list[int] = []
        root_ordinals: list[int] = []
        first_seen: list[int] = []  # service codes in first-contribution order
        seen: set[int] = set()
        for ordinal, root_row in enumerate(root_rows):
            for row in tree.trace(root_row):
                holes = [(created[child], completed[child])
                         for child in tree.children(row)]
                intervals = _subtract((created[row], completed[row]), holes)
                if not intervals:
                    continue
                code = int(service_codes[row])
                if code not in seen:
                    seen.add(code)
                    first_seen.append(code)
                for start, end in intervals:
                    starts.append(start)
                    ends.append(end)
                    services.append(code)
                    root_ordinals.append(ordinal)

        start_arr = np.asarray(starts)
        order = np.lexsort((start_arr,
                            np.asarray(root_ordinals, dtype=np.int64),
                            np.asarray(services, dtype=np.int64)))
        s_sorted = start_arr[order].tolist()
        e_sorted = np.asarray(ends)[order].tolist()
        svc_sorted = np.asarray(services, dtype=np.int64)[order].tolist()
        root_sorted = np.asarray(root_ordinals,
                                 dtype=np.int64)[order].tolist()

        totals: dict[int, float] = {}
        prev_key: tuple[int, int] | None = None
        seg_start = seg_end = 0.0
        acc = 0.0
        for start, end, code, ordinal in zip(s_sorted, e_sorted,
                                             svc_sorted, root_sorted):
            key = (code, ordinal)
            if key != prev_key:
                if prev_key is not None:
                    totals[prev_key[0]] = (totals.get(prev_key[0], 0.0)
                                           + acc + (seg_end - seg_start))
                prev_key = key
                seg_start, seg_end = start, end
                acc = 0.0
            elif start > seg_end:
                acc += seg_end - seg_start
                seg_start, seg_end = start, end
            elif end > seg_end:
                seg_end = end
        if prev_key is not None:
            totals[prev_key[0]] = (totals.get(prev_key[0], 0.0)
                                   + acc + (seg_end - seg_start))
        n = len(root_rows)
        # Emit in first-contribution order, matching the insertion order
        # the per-root accumulation used to produce.
        return {table.services.decode(code): totals[code] / n
                for code in first_seen if code in totals}

    def mean_root_latency(self, endpoint: str | None = None) -> float:
        """Mean end-to-end duration of traced user requests."""
        root_rows = self._filtered_root_rows(endpoint)
        if not root_rows:
            raise AnalysisError("no traced roots")
        rows = np.asarray(root_rows, dtype=np.int64)
        table = self._table
        durations = (table.completed.as_array()[rows]
                     - table.created.as_array()[rows])
        return sum(durations.tolist()) / len(root_rows)

    def to_chrome_trace(self, limit_roots: int | None = None) -> list[dict]:
        """Export spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto, Speedscope).

        Each service maps to a process row, each replica to a thread row;
        spans become complete ("X") events with microsecond timestamps.
        ``limit_roots`` caps the export to the first N user requests'
        trees (traces of long runs are large).
        """
        roots = self.roots if limit_roots is None \
            else self.roots[:limit_roots]
        events: list[dict] = []
        for root in roots:
            for span in self.trace_of(root):
                events.append({
                    "name": f"{span.service}/{span.endpoint}",
                    "cat": span.service,
                    "ph": "X",
                    "ts": span.created_at * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.service,
                    "tid": (span.instance_id
                            if span.instance_id is not None else 0),
                    "args": {
                        "request_id": span.request_id,
                        "parent_id": span.parent_id,
                        "queue_ms": span.queue_time * 1e3,
                        "root_id": root.request_id,
                    },
                })
        return events

    def __repr__(self) -> str:
        roots = np.count_nonzero(self._table.parent_id.as_array() < 0)
        return f"<TraceCollector {len(self._table)} spans, {roots} roots>"
