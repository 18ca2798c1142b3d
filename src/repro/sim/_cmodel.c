/* Compiled model layer for repro: scheduler core + worker machines.
 *
 * Two hand-written CPython objects that mirror the pure-Python model
 * hot path bit for bit:
 *
 * - SchedCore executes repro.cpu.scheduler.CpuScheduler's burst
 *   lifecycle (submit placement, idle-CPU scoring, run queues, work
 *   stealing, SMT sibling re-rate, completion accounting) over raw C
 *   arrays, calling back into Python only where the reference does —
 *   the perf model's hooks, kernel scheduling, handle cancellation,
 *   and the burst's `done` completion — in exactly the reference's
 *   order.  CompiledCpuScheduler owns one and delegates to it.  `done`
 *   succeeds with None, so a finished burst and its event hold no
 *   reference cycle and refcounting frees them.
 *
 * - CWorker is repro.services.instance._WorkerMachine in C: one
 *   replica worker that registers itself as the event callback for
 *   whatever it waits on and drives the endpoint handler generator
 *   with send/throw, chaining through already-processed events inline.
 *
 * Both consume the kernel's shared insertion counter identically to
 * their Python references on every path, so golden digests are
 * byte-for-byte unchanged (the determinism contract pinned by
 * tests/golden).  Rare paths — yield-protocol violations, expired or
 * failed requests, escalations — call the shared Python helpers
 * rather than duplicating their logic.
 *
 * Like _ckernel.c, the module is inert until configure() hands it the
 * Python-side types and helpers; repro.sim.kernel.model_module() calls
 * configure() immediately after import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>   /* PyMemberDef layout (pre-3.12 headers) */
#include <stdint.h>

#if PY_VERSION_HEX < 0x030A0000
#  error "repro.sim._cmodel requires Python 3.10+ (PyIter_Send)"
#endif

/* Keep in sync with repro.cpu.scheduler._MIN_RATE. */
#define MIN_RATE 1e-9

/* ------------------------------------------------------------------ */
/* Module state (configured once by repro.sim.kernel)                  */
/* ------------------------------------------------------------------ */

typedef struct {
    int configured;
    PyObject *event_type;      /* repro.sim.events.Event */
    PyObject *pending;         /* repro.sim.events._PENDING */
    PyObject *sim_error;       /* repro._errors.SimulationError */
    PyObject *sim_type;        /* repro.sim.engine.Simulator */
    PyObject *burst_type;      /* repro.cpu.burst.CpuBurst */
    PyObject *group_type;      /* repro.cpu.burst.TaskGroup */
    PyObject *request_type;    /* repro.services.request.Request */
    PyObject *instance_type;   /* repro.services.instance.ServiceInstance */
    PyObject *context_type;    /* repro.services.instance.ServiceContext */
    PyObject *protocol_error;  /* instance._worker_protocol_error */
    PyObject *sched_error;     /* repro._errors.SchedulingError */
    PyObject *memmodel_type;   /* repro.memory.system.MemorySystemModel */
    PyObject *str_throw, *str_succeed, *str_fail, *str_cancel;
    PyObject *str_value, *str_get, *str_resolve, *str_respond;
    PyObject *str_tracer, *str_record, *str_handler;
    PyObject *str_sim, *str_rpc;
    PyObject *str_epoch, *str_mem_load, *str_total, *str_intensity;
    /* Slot offsets (stable across subclasses). */
    Py_ssize_t ev_sim, ev_callbacks, ev_value, ev_ok, ev_defused,
               ev_qcounter;
    Py_ssize_t sim_now, sim_push_ready;
    Py_ssize_t b_demand, b_group, b_done, b_submitted, b_started,
               b_finished, b_cpu_index, b_wall;
    Py_ssize_t g_group_id, g_profile, g_cpu_time, g_last_ccx, g_completed;
    Py_ssize_t rq_endpoint, rq_done, rq_started, rq_completed, rq_deadline;
    Py_ssize_t in_deployment, in_spec, in_queue, in_outstanding,
               in_completed, in_pause, in_group, in_demand_factor;
} ModelState;

static ModelState M;

static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t offset)
{
    return *(PyObject **)((char *)obj + offset);
}

static inline void
slot_store(PyObject *obj, Py_ssize_t offset, PyObject *value)
{
    PyObject **slot = (PyObject **)((char *)obj + offset);
    PyObject *old = *slot;
    Py_INCREF(value);
    *slot = value;
    Py_XDECREF(old);
}

/* Truthiness of _ok/_defused (True/False/None in this codebase). */
static inline int
truthy(PyObject *obj)
{
    if (obj == Py_True)
        return 1;
    if (obj == Py_False || obj == Py_None || obj == NULL)
        return 0;
    int r = PyObject_IsTrue(obj);
    if (r < 0) {
        PyErr_Clear();
        return 0;
    }
    return r;
}

/* value of a float-bearing slot; -1.0 with error set on failure. */
static inline double
as_double(PyObject *obj)
{
    if (PyFloat_CheckExact(obj))
        return PyFloat_AS_DOUBLE(obj);
    return PyFloat_AsDouble(obj);
}

/* slot += delta for PyLong-bearing counter slots. */
static int
slot_add_long(PyObject *obj, Py_ssize_t offset, long delta)
{
    PyObject *cur = slot_get(obj, offset);
    long long v = PyLong_AsLongLong(cur);
    if (v == -1 && PyErr_Occurred())
        return -1;
    PyObject *next = PyLong_FromLongLong(v + delta);
    if (next == NULL)
        return -1;
    slot_store(obj, offset, next);
    Py_DECREF(next);
    return 0;
}

/* slot += delta for float-bearing accumulator slots. */
static int
slot_add_double(PyObject *obj, Py_ssize_t offset, double delta)
{
    double v = as_double(slot_get(obj, offset));
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *next = PyFloat_FromDouble(v + delta);
    if (next == NULL)
        return -1;
    slot_store(obj, offset, next);
    Py_DECREF(next);
    return 0;
}

/* `Event(sim).fail(exc)` — deferred escalation on the next slot. */
static int
escalate(PyObject *sim, PyObject *exc)
{
    PyObject *event = PyObject_CallOneArg(M.event_type, sim);
    if (event == NULL)
        return -1;
    PyObject *res = PyObject_CallMethodOneArg(event, M.str_fail, exc);
    Py_DECREF(event);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* done.succeed(value), inlined for exact Event / exact Simulator. */
static int
trigger_succeed(PyObject *done, PyObject *value)
{
    if (Py_TYPE(done) != (PyTypeObject *)M.event_type) {
        PyObject *res = PyObject_CallMethodOneArg(done, M.str_succeed,
                                                  value);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    if (slot_get(done, M.ev_value) != M.pending) {
        PyObject *msg = PyUnicode_FromFormat(
            "%R has already been triggered", done);
        if (msg != NULL) {
            PyErr_SetObject(M.sim_error, msg);
            Py_DECREF(msg);
        }
        return -1;
    }
    slot_store(done, M.ev_ok, Py_True);
    slot_store(done, M.ev_value, value);
    PyObject *esim = slot_get(done, M.ev_sim);
    if (esim == NULL) {
        PyErr_SetString(PyExc_AttributeError, "sim");
        return -1;
    }
    PyObject *push = (Py_TYPE(esim) == (PyTypeObject *)M.sim_type)
        ? slot_get(esim, M.sim_push_ready) : NULL;
    PyObject *res;
    if (push != NULL)
        res = PyObject_CallOneArg(push, done);
    else {
        res = PyObject_GetAttrString(esim, "_push_ready");
        if (res != NULL) {
            PyObject *bound = res;
            res = PyObject_CallOneArg(bound, done);
            Py_DECREF(bound);
        }
    }
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* A fresh pending Event on `sim`, equivalent to `Event(sim)` for the
 * exact Event type but without entering the interpreter. */
static PyObject *
make_event(PyObject *sim)
{
    PyTypeObject *type = (PyTypeObject *)M.event_type;
    PyObject *event = type->tp_alloc(type, 0);
    if (event == NULL)
        return NULL;
    PyObject *callbacks = PyList_New(0);
    if (callbacks == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    Py_INCREF(sim);
    *(PyObject **)((char *)event + M.ev_sim) = sim;
    *(PyObject **)((char *)event + M.ev_callbacks) = callbacks;
    Py_INCREF(M.pending);
    *(PyObject **)((char *)event + M.ev_value) = M.pending;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)event + M.ev_ok) = Py_None;
    Py_INCREF(Py_False);
    *(PyObject **)((char *)event + M.ev_defused) = Py_False;
    PyObject *zero = PyLong_FromLong(0);
    if (zero == NULL) {
        Py_DECREF(event);
        return NULL;
    }
    *(PyObject **)((char *)event + M.ev_qcounter) = zero;
    return event;
}

/* ------------------------------------------------------------------ */
/* SchedCore: the CPU scheduler's burst lifecycle                      */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *burst;       /* strong; NULL when the CPU is not running */
    PyObject *handle;      /* strong; the pending completion entry */
    double rate;
    double segment_start;
    double remaining;
    double start_time;     /* burst.started_at, as a double */
} CRun;

typedef struct {
    PyObject **buf;        /* ring of strong burst references */
    Py_ssize_t head, len, cap;   /* cap is a power of two (or 0) */
} CQueue;

typedef struct {
    int *allowed;          /* ascending online CPU ids of the mask */
    int n_allowed;
    uint64_t *mask;        /* bitmask over CPU ids, nwords words */
} GroupInfo;

typedef struct SchedCoreObject {
    PyObject_HEAD
    PyObject *sim;             /* Simulator */
    PyObject *kschedule;       /* bound kernel.schedule */
    PyObject *perf_model;
    PyObject *perf_cpi;        /* bound perf hooks, looked up once */
    PyObject *perf_on_start;
    PyObject *perf_on_complete;
    PyObject *perf_breakdown;  /* bound breakdown (fast perf path only) */
    PyObject *infl_cache;      /* the model's _inflation_cache dict */
    PyObject *register_cb;     /* bound wrapper._core_register */
    PyObject *groups;          /* dict: TaskGroup -> PyLong gid */
    PyObject **cpus;           /* [n] strong Cpu objects */
    PyObject **complete_cbs;   /* [n] strong CCompleteCB */
    PyObject **cpu_longs;      /* [n] cached PyLong(i) */
    PyObject **ccx_longs;      /* [n] cached PyLong(ccx_of[i]) */
    PyObject **ccx_objs;       /* [n] cached cpu.ccx.index */
    PyObject **node_objs;      /* [n] cached cpu.node.index */
    CRun *run;                 /* [n] */
    CQueue *queues;            /* [n] */
    int *depths;               /* [n] mirrors queues[i].len */
    char *idle;                /* [n] */
    char *online;              /* [n] */
    int *sibling;              /* [n]; -1 = no SMT sibling */
    int *core_of;              /* [n] */
    int *ccx_of;               /* [n] */
    int *busy_threads;         /* [n_cores] */
    double *busy_time;         /* [n] */
    double *freq_factor;       /* [total_cores + 1] */
    uint64_t **steal_mask;     /* [n] x nwords eligibility bits */
    GroupInfo *ginfo;
    Py_ssize_t n_groups, ginfo_cap;
    Py_ssize_t idle_count;
    double smt_factor[2];
    double bw_capacity, bw_weight;
    long long dispatched, stolen;
    int n, n_cores, total_cores, active_cores, nwords;
    int fast_perf;             /* perf_model is exactly MemorySystemModel
                                  with no counter sink: hooks inlined */
    int has_capacity;          /* bandwidth congestion model enabled */
} SchedCoreObject;

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    SchedCoreObject *core;     /* strong (collected via GC) */
    int cpu;
} CCompleteCBObject;

static PyTypeObject SchedCore_Type;
static PyTypeObject CCompleteCB_Type;

static int core_complete(SchedCoreObject *c, int cpu);

/* ---- queue ring ---- */

static int
cq_push(CQueue *q, PyObject *burst)
{
    if (q->len == q->cap) {
        Py_ssize_t ncap = q->cap ? q->cap * 2 : 8;
        PyObject **nbuf = PyMem_New(PyObject *, ncap);
        if (nbuf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < q->len; i++)
            nbuf[i] = q->buf[(q->head + i) & (q->cap - 1)];
        PyMem_Free(q->buf);
        q->buf = nbuf;
        q->cap = ncap;
        q->head = 0;
    }
    Py_INCREF(burst);
    q->buf[(q->head + q->len) & (q->cap - 1)] = burst;
    q->len++;
    return 0;
}

/* Pop the oldest burst; ownership transferred to the caller. */
static PyObject *
cq_popleft(CQueue *q)
{
    PyObject *burst = q->buf[q->head];
    q->buf[q->head] = NULL;
    q->head = (q->head + 1) & (q->cap - 1);
    q->len--;
    return burst;
}

/* Remove the burst at `pos` (deque `del q[pos]` semantics); ownership
 * of the removed reference is transferred to the caller. */
static PyObject *
cq_remove_at(CQueue *q, Py_ssize_t pos)
{
    Py_ssize_t mask = q->cap - 1;
    PyObject *burst = q->buf[(q->head + pos) & mask];
    for (Py_ssize_t i = pos; i < q->len - 1; i++)
        q->buf[(q->head + i) & mask] = q->buf[(q->head + i + 1) & mask];
    q->buf[(q->head + q->len - 1) & mask] = NULL;
    q->len--;
    return burst;
}

/* ---- group registry ---- */

static GroupInfo *
core_group(SchedCoreObject *c, PyObject *group)
{
    PyObject *gid = PyDict_GetItemWithError(c->groups, group);
    if (gid != NULL)
        return &c->ginfo[PyLong_AS_LONG(gid)];
    if (PyErr_Occurred())
        return NULL;
    /* First submission of this group: the wrapper's registration
     * callback resolves (and validates) the allowed-CPU tuple through
     * the reference _allowed_for, keeping both layers coherent. */
    PyObject *ids = PyObject_CallOneArg(c->register_cb, group);
    if (ids == NULL)
        return NULL;
    PyObject *fast = PySequence_Fast(ids, "allowed ids must be a sequence");
    Py_DECREF(ids);
    if (fast == NULL)
        return NULL;
    Py_ssize_t n_allowed = PySequence_Fast_GET_SIZE(fast);
    if (c->n_groups == c->ginfo_cap) {
        Py_ssize_t ncap = c->ginfo_cap ? c->ginfo_cap * 2 : 8;
        GroupInfo *ng = PyMem_Resize(c->ginfo, GroupInfo, ncap);
        if (ng == NULL) {
            Py_DECREF(fast);
            PyErr_NoMemory();
            return NULL;
        }
        c->ginfo = ng;
        c->ginfo_cap = ncap;
    }
    GroupInfo *info = &c->ginfo[c->n_groups];
    info->allowed = PyMem_New(int, n_allowed > 0 ? n_allowed : 1);
    info->mask = PyMem_New(uint64_t, c->nwords);
    if (info->allowed == NULL || info->mask == NULL) {
        PyMem_Free(info->allowed);
        PyMem_Free(info->mask);
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    memset(info->mask, 0, c->nwords * sizeof(uint64_t));
    info->n_allowed = (int)n_allowed;
    for (Py_ssize_t i = 0; i < n_allowed; i++) {
        long cpu = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if ((cpu == -1 && PyErr_Occurred()) || cpu < 0 || cpu >= c->n) {
            PyMem_Free(info->allowed);
            PyMem_Free(info->mask);
            Py_DECREF(fast);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "allowed CPU id out of range");
            return NULL;
        }
        info->allowed[i] = (int)cpu;
        info->mask[cpu >> 6] |= (uint64_t)1 << (cpu & 63);
    }
    Py_DECREF(fast);
    /* Mirror _allowed_for's steal-eligibility update: every CPU in the
     * mask may steal any burst queued on any CPU of the mask. */
    for (Py_ssize_t i = 0; i < n_allowed; i++) {
        uint64_t *row = c->steal_mask[info->allowed[i]];
        for (int w = 0; w < c->nwords; w++)
            row[w] |= info->mask[w];
    }
    gid = PyLong_FromSsize_t(c->n_groups);
    if (gid == NULL || PyDict_SetItem(c->groups, group, gid) < 0) {
        Py_XDECREF(gid);
        PyMem_Free(info->allowed);
        PyMem_Free(info->mask);
        return NULL;
    }
    Py_DECREF(gid);
    c->n_groups++;
    return info;
}

/* ---- execution ---- */

/* MemorySystemModel.cpi_inflation inlined: epoch-stamped cache of the
 * static breakdown plus the optional bandwidth congestion term.  The
 * cache dict and its (epoch, static) tuples are shared with the Python
 * method, so mixing callers stays coherent. */
static double
fast_cpi(SchedCoreObject *c, PyObject *burst, int cpu, int *error)
{
    PyObject *model = c->perf_model;
    PyObject *group = slot_get(burst, M.b_group);
    long long gid = PyLong_AsLongLong(slot_get(group, M.g_group_id));
    if (gid == -1 && PyErr_Occurred())
        goto fail;
    PyObject *epoch_obj = PyObject_GetAttr(model, M.str_epoch);
    if (epoch_obj == NULL)
        goto fail;
    PyObject *key = PyLong_FromLongLong((gid << 20) | cpu);
    if (key == NULL) {
        Py_DECREF(epoch_obj);
        goto fail;
    }
    PyObject *cached = PyDict_GetItemWithError(c->infl_cache, key);
    double static_infl;
    int hit = 0;
    if (cached != NULL && PyTuple_CheckExact(cached)
        && PyTuple_GET_SIZE(cached) == 2) {
        int same = PyObject_RichCompareBool(
            PyTuple_GET_ITEM(cached, 0), epoch_obj, Py_EQ);
        if (same < 0) {
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        if (same) {
            static_infl = as_double(PyTuple_GET_ITEM(cached, 1));
            hit = 1;
        }
    }
    else if (cached == NULL && PyErr_Occurred()) {
        Py_DECREF(key);
        Py_DECREF(epoch_obj);
        goto fail;
    }
    if (!hit) {
        PyObject *argv[3] = {group, c->ccx_objs[cpu], c->node_objs[cpu]};
        PyObject *breakdown =
            PyObject_Vectorcall(c->perf_breakdown, argv, 3, NULL);
        if (breakdown == NULL) {
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        PyObject *total = PyObject_GetAttr(breakdown, M.str_total);
        Py_DECREF(breakdown);
        if (total == NULL) {
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        PyObject *entry = PyTuple_Pack(2, epoch_obj, total);
        if (entry == NULL || PyDict_SetItem(c->infl_cache, key, entry) < 0) {
            Py_XDECREF(entry);
            Py_DECREF(total);
            Py_DECREF(key);
            Py_DECREF(epoch_obj);
            goto fail;
        }
        Py_DECREF(entry);
        static_infl = as_double(total);
        Py_DECREF(total);
    }
    Py_DECREF(key);
    Py_DECREF(epoch_obj);
    if (static_infl == -1.0 && PyErr_Occurred())
        goto fail;
    PyObject *profile = slot_get(group, M.g_profile);
    if (profile == NULL || profile == Py_None || !c->has_capacity)
        return static_infl;
    PyObject *load = PyObject_GetAttr(model, M.str_mem_load);
    if (load == NULL)
        goto fail;
    double mem_load = as_double(load);
    Py_DECREF(load);
    PyObject *inten = PyObject_GetAttr(profile, M.str_intensity);
    if (inten == NULL)
        goto fail;
    double intensity = as_double(inten);
    Py_DECREF(inten);
    if (PyErr_Occurred())
        goto fail;
    double overload = (mem_load - c->bw_capacity) / c->bw_capacity;
    if (overload < 0.0)
        overload = 0.0;
    return static_infl + c->bw_weight * intensity * overload;
fail:
    *error = 1;
    return 0.0;
}

/* MemorySystemModel.on_burst_start/complete inlined (no counter sink):
 * the running memory-intensity load stays canonical on the model. */
static int
fast_mem_load_delta(SchedCoreObject *c, PyObject *burst, double sign)
{
    PyObject *group = slot_get(burst, M.b_group);
    PyObject *profile = slot_get(group, M.g_profile);
    if (profile == NULL || profile == Py_None)
        return 0;
    PyObject *load = PyObject_GetAttr(c->perf_model, M.str_mem_load);
    if (load == NULL)
        return -1;
    double v = as_double(load);
    Py_DECREF(load);
    PyObject *inten = PyObject_GetAttr(profile, M.str_intensity);
    if (inten == NULL)
        return -1;
    double intensity = as_double(inten);
    Py_DECREF(inten);
    if (PyErr_Occurred())
        return -1;
    PyObject *next = PyFloat_FromDouble(v + sign * intensity);
    if (next == NULL)
        return -1;
    int rv = PyObject_SetAttr(c->perf_model, M.str_mem_load, next);
    Py_DECREF(next);
    return rv;
}

/* CpuScheduler._rate: frequency boost x SMT factor / CPI inflation. */
static double
core_rate(SchedCoreObject *c, PyObject *burst, int cpu, int *error)
{
    int sib = c->sibling[cpu];
    int sibling_busy = (sib >= 0 && c->run[sib].burst != NULL);
    double inflation;
    if (c->fast_perf) {
        inflation = fast_cpi(c, burst, cpu, error);
        if (*error)
            return 0.0;
    }
    else {
        PyObject *argv[2] = {burst, c->cpus[cpu]};
        PyObject *res = PyObject_Vectorcall(c->perf_cpi, argv, 2, NULL);
        if (res == NULL) {
            *error = 1;
            return 0.0;
        }
        inflation = as_double(res);
        Py_DECREF(res);
        if (inflation == -1.0 && PyErr_Occurred()) {
            *error = 1;
            return 0.0;
        }
    }
    if (inflation < 1.0)
        inflation = 1.0;
    double rate = c->freq_factor[c->active_cores]
        * c->smt_factor[sibling_busy] / inflation;
    return rate > MIN_RATE ? rate : MIN_RATE;
}

static int core_re_rate_sibling(SchedCoreObject *c, int cpu);

/* CpuScheduler._start. */
static int
core_start(SchedCoreObject *c, int cpu, PyObject *burst, int rerate_sibling)
{
    PyObject *now_obj = slot_get(c->sim, M.sim_now);
    double now = as_double(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    slot_store(burst, M.b_started, now_obj);
    slot_store(burst, M.b_cpu_index, c->cpu_longs[cpu]);
    if (c->idle[cpu]) {
        c->idle[cpu] = 0;
        c->idle_count--;
    }
    int core = c->core_of[cpu];
    if (++c->busy_threads[core] == 1)
        c->active_cores++;
    if (c->fast_perf) {
        if (fast_mem_load_delta(c, burst, 1.0) < 0)
            return -1;
    }
    else {
        PyObject *argv[2] = {burst, c->cpus[cpu]};
        PyObject *res = PyObject_Vectorcall(c->perf_on_start, argv, 2,
                                            NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    int error = 0;
    double rate = core_rate(c, burst, cpu, &error);
    if (error)
        return -1;
    double demand = as_double(slot_get(burst, M.b_demand));
    if (demand == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *when = PyFloat_FromDouble(now + demand / rate);
    if (when == NULL)
        return -1;
    PyObject *kargv[2] = {when, c->complete_cbs[cpu]};
    PyObject *handle = PyObject_Vectorcall(c->kschedule, kargv, 2, NULL);
    Py_DECREF(when);
    if (handle == NULL)
        return -1;
    CRun *r = &c->run[cpu];
    Py_INCREF(burst);
    r->burst = burst;
    r->handle = handle;          /* ownership transferred */
    r->rate = rate;
    r->segment_start = now;
    r->remaining = demand;
    r->start_time = now;
    c->dispatched++;
    if (rerate_sibling)
        return core_re_rate_sibling(c, cpu);
    return 0;
}

/* CpuScheduler._re_rate_sibling. */
static int
core_re_rate_sibling(SchedCoreObject *c, int cpu)
{
    int sib = c->sibling[cpu];
    if (sib < 0)
        return 0;
    CRun *r = &c->run[sib];
    if (r->burst == NULL)
        return 0;
    double now = as_double(slot_get(c->sim, M.sim_now));
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    double elapsed = now - r->segment_start;
    double remaining = r->remaining - elapsed * r->rate;
    r->remaining = remaining > 0.0 ? remaining : 0.0;
    c->busy_time[sib] += elapsed;
    r->segment_start = now;
    PyObject *res = PyObject_CallMethodNoArgs(r->handle, M.str_cancel);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    int error = 0;
    double rate = core_rate(c, r->burst, sib, &error);
    if (error)
        return -1;
    r->rate = rate;
    PyObject *when = PyFloat_FromDouble(now + r->remaining / rate);
    if (when == NULL)
        return -1;
    PyObject *kargv[2] = {when, c->complete_cbs[sib]};
    PyObject *handle = PyObject_Vectorcall(c->kschedule, kargv, 2, NULL);
    Py_DECREF(when);
    if (handle == NULL)
        return -1;
    Py_SETREF(r->handle, handle);
    return 0;
}

/* CpuScheduler._steal_from: oldest burst on `victim` allowing `cpu`. */
static PyObject *
core_steal_from(SchedCoreObject *c, int victim, int cpu)
{
    CQueue *q = &c->queues[victim];
    Py_ssize_t mask = q->cap - 1;
    for (Py_ssize_t pos = 0; pos < q->len; pos++) {
        PyObject *burst = q->buf[(q->head + pos) & mask];
        PyObject *group = slot_get(burst, M.b_group);
        GroupInfo *info = core_group(c, group);
        if (info == NULL)
            return NULL;    /* registration error; PyErr set */
        if (info->mask[cpu >> 6] & ((uint64_t)1 << (cpu & 63))) {
            PyObject *taken = cq_remove_at(q, pos);
            c->depths[victim]--;
            return taken;
        }
    }
    return Py_None;   /* borrowed sentinel: no eligible burst */
}

static int
cmp_victim(const void *a, const void *b)
{
    /* sorted((-depth, v)): deeper first, lower id on ties. */
    const int *va = (const int *)a, *vb = (const int *)b;
    if (va[1] != vb[1])
        return vb[1] - va[1];
    return va[0] - vb[0];
}

/* CpuScheduler._steal_for: deepest eligible queue, then the sorted
 * fallback order.  Returns a new reference, Py_None (borrowed) when
 * nothing is stealable, NULL on error. */
static PyObject *
core_steal_for(SchedCoreObject *c, int cpu)
{
    const uint64_t *row = c->steal_mask[cpu];
    int best = -1, bestd = 0;
    for (int v = 0; v < c->n; v++) {
        if (!(row[v >> 6] & ((uint64_t)1 << (v & 63))))
            continue;
        int d = c->depths[v];
        if (d > bestd) {
            bestd = d;
            best = v;
        }
    }
    if (best < 0)
        return Py_None;
    PyObject *stolen = core_steal_from(c, best, cpu);
    if (stolen != Py_None)
        return stolen;    /* burst or NULL (error) */
    /* The deepest queue held no eligible burst: walk every nonempty
     * eligible victim by (depth desc, id asc), skipping `best`. */
    int *order = PyMem_New(int, 2 * c->n);
    if (order == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    int count = 0;
    for (int v = 0; v < c->n; v++) {
        if (!(row[v >> 6] & ((uint64_t)1 << (v & 63))))
            continue;
        if (c->depths[v] > 0) {
            order[2 * count] = v;
            order[2 * count + 1] = c->depths[v];
            count++;
        }
    }
    qsort(order, count, 2 * sizeof(int), cmp_victim);
    for (int i = 0; i < count; i++) {
        int victim = order[2 * i];
        if (victim == best)
            continue;
        stolen = core_steal_from(c, victim, cpu);
        if (stolen != Py_None) {
            PyMem_Free(order);
            return stolen;
        }
    }
    PyMem_Free(order);
    return Py_None;
}

/* CpuScheduler._dispatch_next. */
static int
core_dispatch_next(SchedCoreObject *c, int cpu)
{
    CQueue *q = &c->queues[cpu];
    if (q->len) {
        PyObject *burst = cq_popleft(q);
        c->depths[cpu]--;
        int rv = core_start(c, cpu, burst, 0);
        Py_DECREF(burst);
        return rv;
    }
    PyObject *stolen = core_steal_for(c, cpu);
    if (stolen == NULL)
        return -1;
    if (stolen != Py_None) {
        c->stolen++;
        int rv = core_start(c, cpu, stolen, 0);
        Py_DECREF(stolen);
        return rv;
    }
    c->idle[cpu] = 1;
    c->idle_count++;
    return 0;
}

/* CpuScheduler._complete (scheduled per-CPU via CCompleteCB). */
static int
core_complete(SchedCoreObject *c, int cpu)
{
    CRun *r = &c->run[cpu];
    if (r->burst == NULL) {
        PyErr_SetString(PyExc_AssertionError,
                        "completion fired on idle CPU");
        return -1;
    }
    PyObject *now_obj = slot_get(c->sim, M.sim_now);
    double now = as_double(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *burst = r->burst;      /* take over the run's reference */
    PyObject *handle = r->handle;
    double start_time = r->start_time;
    c->busy_time[cpu] += now - r->segment_start;
    r->burst = NULL;
    r->handle = NULL;
    Py_DECREF(handle);               /* already fired; just release */
    int core = c->core_of[cpu];
    if (--c->busy_threads[core] == 0)
        c->active_cores--;

    int rv = -1;
    slot_store(burst, M.b_finished, now_obj);
    double wall = now - start_time;
    PyObject *wall_obj = PyFloat_FromDouble(wall);
    if (wall_obj == NULL)
        goto done;
    slot_store(burst, M.b_wall, wall_obj);
    PyObject *group = slot_get(burst, M.b_group);
    if (slot_add_double(group, M.g_cpu_time, wall) < 0) {
        Py_DECREF(wall_obj);
        goto done;
    }
    slot_store(group, M.g_last_ccx, c->ccx_longs[cpu]);
    if (slot_add_long(group, M.g_completed, 1) < 0) {
        Py_DECREF(wall_obj);
        goto done;
    }
    if (c->fast_perf) {
        Py_DECREF(wall_obj);
        if (fast_mem_load_delta(c, burst, -1.0) < 0)
            goto done;
    }
    else {
        PyObject *argv[3] = {burst, c->cpus[cpu], wall_obj};
        PyObject *res = PyObject_Vectorcall(c->perf_on_complete, argv, 3,
                                            NULL);
        Py_DECREF(wall_obj);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    if (core_dispatch_next(c, cpu) < 0)
        goto done;
    if (core_re_rate_sibling(c, cpu) < 0)
        goto done;
    /* None, not the burst: see CpuScheduler._complete. */
    rv = trigger_succeed(slot_get(burst, M.b_done), Py_None);
done:
    Py_DECREF(burst);
    return rv;
}

/* CpuScheduler._pick_idle_cpu: lowest id among the minimal
 * (whole-core-idle, ccx-local) scores over the allowed idle CPUs. */
static int
core_pick_idle(SchedCoreObject *c, GroupInfo *info, int last_ccx)
{
    int best = -1, best_score = 4;
    const int *allowed = info->allowed;
    int n_allowed = info->n_allowed;
    for (int i = 0; i < n_allowed; i++) {
        int cpu = allowed[i];
        if (!c->idle[cpu])
            continue;
        int sib = c->sibling[cpu];
        int whole = (sib >= 0 && c->run[sib].burst != NULL) ? 1 : 0;
        int local = (last_ccx >= 0 && c->ccx_of[cpu] == last_ccx) ? 0 : 1;
        int score = whole * 2 + local;
        if (score < best_score) {
            best = cpu;
            best_score = score;
            if (score == 0)
                break;
        }
    }
    return best;
}

/* CpuScheduler.submit. */
static int
core_submit(SchedCoreObject *c, PyObject *burst)
{
    PyObject *group = slot_get(burst, M.b_group);
    if (group == NULL) {
        PyErr_SetString(PyExc_AttributeError, "group");
        return -1;
    }
    GroupInfo *info = core_group(c, group);
    if (info == NULL)
        return -1;
    slot_store(burst, M.b_submitted, slot_get(c->sim, M.sim_now));
    if (c->idle_count > 0) {
        PyObject *ccx = slot_get(group, M.g_last_ccx);
        int last_ccx = (ccx == Py_None || ccx == NULL)
            ? -1 : (int)PyLong_AsLong(ccx);
        if (last_ccx == -1 && PyErr_Occurred())
            return -1;
        int cpu = core_pick_idle(c, info, last_ccx);
        if (cpu >= 0)
            return core_start(c, cpu, burst, 1);
    }
    /* Shortest allowed queue, lowest id on ties (first occurrence of
     * the minimum over the ascending mask — all three reference
     * branches reduce to this one scan). */
    const int *allowed = info->allowed;
    int target = allowed[0];
    int shortest = c->depths[target];
    if (shortest) {
        for (int i = 1; i < info->n_allowed; i++) {
            int depth = c->depths[allowed[i]];
            if (depth < shortest) {
                shortest = depth;
                target = allowed[i];
                if (!depth)
                    break;
            }
        }
    }
    if (cq_push(&c->queues[target], burst) < 0)
        return -1;
    c->depths[target]++;
    return 0;
}

static PyObject *
SchedCore_submit(SchedCoreObject *c, PyObject *burst)
{
    if (core_submit(c, burst) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ServiceContext.submit_demand's hot core: scale the demand by the
 * replica's factor, build the burst and its completion event without
 * entering the interpreter, and submit — returning the done event. */
static PyObject *
SchedCore_submit_demand(SchedCoreObject *c, PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "submit_demand(instance, demand) takes 2 arguments");
        return NULL;
    }
    PyObject *instance = args[0], *demand = args[1];
    if (!PyObject_TypeCheck(instance, (PyTypeObject *)M.instance_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "submit_demand() expects a ServiceInstance");
        return NULL;
    }
    PyObject *factor = slot_get(instance, M.in_demand_factor);
    PyObject *group = slot_get(instance, M.in_group);
    if (factor == NULL || group == NULL) {
        PyErr_SetString(PyExc_AttributeError, "demand_factor");
        return NULL;
    }
    PyObject *scaled;
    if (PyFloat_CheckExact(demand) && PyFloat_CheckExact(factor))
        scaled = PyFloat_FromDouble(PyFloat_AS_DOUBLE(demand)
                                    * PyFloat_AS_DOUBLE(factor));
    else
        scaled = PyNumber_Multiply(demand, factor);
    if (scaled == NULL)
        return NULL;
    double value = as_double(scaled);
    if (value == -1.0 && PyErr_Occurred()) {
        Py_DECREF(scaled);
        return NULL;
    }
    if (value < 0.0) {
        /* CpuBurst.__init__'s validation, message included. */
        PyObject *msg = PyUnicode_FromFormat("negative CPU demand: %S",
                                             scaled);
        if (msg != NULL) {
            PyErr_SetObject(M.sched_error, msg);
            Py_DECREF(msg);
        }
        Py_DECREF(scaled);
        return NULL;
    }
    PyObject *done = make_event(c->sim);
    if (done == NULL) {
        Py_DECREF(scaled);
        return NULL;
    }
    PyTypeObject *burst_type = (PyTypeObject *)M.burst_type;
    PyObject *burst = burst_type->tp_alloc(burst_type, 0);
    if (burst == NULL) {
        Py_DECREF(scaled);
        Py_DECREF(done);
        return NULL;
    }
    PyObject *wall = PyFloat_FromDouble(0.0);
    if (wall == NULL) {
        Py_DECREF(scaled);
        Py_DECREF(done);
        Py_DECREF(burst);
        return NULL;
    }
    /* Mirror CpuBurst.__init__'s slot assignments exactly. */
    *(PyObject **)((char *)burst + M.b_demand) = scaled;
    Py_INCREF(group);
    *(PyObject **)((char *)burst + M.b_group) = group;
    Py_INCREF(done);
    *(PyObject **)((char *)burst + M.b_done) = done;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_submitted) = Py_None;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_started) = Py_None;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_finished) = Py_None;
    Py_INCREF(Py_None);
    *(PyObject **)((char *)burst + M.b_cpu_index) = Py_None;
    *(PyObject **)((char *)burst + M.b_wall) = wall;
    int rv = core_submit(c, burst);
    Py_DECREF(burst);
    if (rv < 0) {
        Py_DECREF(done);
        return NULL;
    }
    return done;
}

static PyObject *
SchedCore_busy_time(SchedCoreObject *c, PyObject *arg)
{
    long cpu = PyLong_AsLong(arg);
    if (cpu == -1 && PyErr_Occurred())
        return NULL;
    if (cpu < 0 || cpu >= c->n) {
        PyErr_SetString(PyExc_IndexError, "cpu index out of range");
        return NULL;
    }
    double total = c->busy_time[cpu];
    CRun *r = &c->run[cpu];
    if (r->burst != NULL) {
        double now = as_double(slot_get(c->sim, M.sim_now));
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
        total += now - r->segment_start;
    }
    return PyFloat_FromDouble(total);
}

static PyObject *
SchedCore_queue_depth(SchedCoreObject *c, PyObject *Py_UNUSED(ignored))
{
    long long total = 0;
    for (int i = 0; i < c->n; i++)
        total += c->depths[i];
    return PyLong_FromLongLong(total);
}

static PyObject *
SchedCore_is_idle(SchedCoreObject *c, PyObject *arg)
{
    long cpu = PyLong_AsLong(arg);
    if (cpu == -1 && PyErr_Occurred())
        return NULL;
    if (cpu < 0 || cpu >= c->n)
        Py_RETURN_FALSE;
    return PyBool_FromLong(c->idle[cpu]);
}

static PyObject *
SchedCore_bursts_dispatched(SchedCoreObject *c, PyObject *Py_UNUSED(ig))
{
    return PyLong_FromLongLong(c->dispatched);
}

static PyObject *
SchedCore_bursts_stolen(SchedCoreObject *c, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(c->stolen);
}

static PyObject *
SchedCore_stats(SchedCoreObject *c, PyObject *Py_UNUSED(ignored))
{
    int running = 0;
    long long queued = 0;
    for (int i = 0; i < c->n; i++) {
        if (c->run[i].burst != NULL)
            running++;
        queued += c->depths[i];
    }
    return Py_BuildValue("(iLn)", running, queued, c->idle_count);
}

/* ---- construction / teardown ---- */

static int
load_int_list(PyObject *wrapper, const char *name, int **out, int n,
              int none_value)
{
    PyObject *seq = PyObject_GetAttrString(wrapper, name);
    if (seq == NULL)
        return -1;
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_DECREF(seq);
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s has unexpected length", name);
        return -1;
    }
    int *arr = PyMem_New(int, n > 0 ? n : 1);
    if (arr == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    for (int i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        if (item == Py_None)
            arr[i] = none_value;
        else {
            long v = PyLong_AsLong(item);
            if (v == -1 && PyErr_Occurred()) {
                PyMem_Free(arr);
                Py_DECREF(fast);
                return -1;
            }
            arr[i] = (int)v;
        }
    }
    Py_DECREF(fast);
    *out = arr;
    return 0;
}

static void
SchedCore_dealloc(SchedCoreObject *c)
{
    PyObject_GC_UnTrack(c);
    Py_XDECREF(c->sim);
    Py_XDECREF(c->kschedule);
    Py_XDECREF(c->perf_model);
    Py_XDECREF(c->perf_cpi);
    Py_XDECREF(c->perf_on_start);
    Py_XDECREF(c->perf_on_complete);
    Py_XDECREF(c->perf_breakdown);
    Py_XDECREF(c->infl_cache);
    Py_XDECREF(c->register_cb);
    Py_XDECREF(c->groups);
    for (int i = 0; i < c->n; i++) {
        if (c->cpus != NULL)
            Py_XDECREF(c->cpus[i]);
        if (c->complete_cbs != NULL)
            Py_XDECREF(c->complete_cbs[i]);
        if (c->cpu_longs != NULL)
            Py_XDECREF(c->cpu_longs[i]);
        if (c->ccx_longs != NULL)
            Py_XDECREF(c->ccx_longs[i]);
        if (c->ccx_objs != NULL)
            Py_XDECREF(c->ccx_objs[i]);
        if (c->node_objs != NULL)
            Py_XDECREF(c->node_objs[i]);
        if (c->run != NULL) {
            Py_XDECREF(c->run[i].burst);
            Py_XDECREF(c->run[i].handle);
        }
        if (c->queues != NULL) {
            CQueue *q = &c->queues[i];
            for (Py_ssize_t j = 0; j < q->len; j++)
                Py_XDECREF(q->buf[(q->head + j) & (q->cap - 1)]);
            PyMem_Free(q->buf);
        }
        if (c->steal_mask != NULL)
            PyMem_Free(c->steal_mask[i]);
    }
    for (Py_ssize_t g = 0; g < c->n_groups; g++) {
        PyMem_Free(c->ginfo[g].allowed);
        PyMem_Free(c->ginfo[g].mask);
    }
    PyMem_Free(c->ginfo);
    PyMem_Free(c->cpus);
    PyMem_Free(c->complete_cbs);
    PyMem_Free(c->cpu_longs);
    PyMem_Free(c->ccx_longs);
    PyMem_Free(c->ccx_objs);
    PyMem_Free(c->node_objs);
    PyMem_Free(c->run);
    PyMem_Free(c->queues);
    PyMem_Free(c->depths);
    PyMem_Free(c->idle);
    PyMem_Free(c->online);
    PyMem_Free(c->sibling);
    PyMem_Free(c->core_of);
    PyMem_Free(c->ccx_of);
    PyMem_Free(c->busy_threads);
    PyMem_Free(c->busy_time);
    PyMem_Free(c->freq_factor);
    PyMem_Free(c->steal_mask);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static int
SchedCore_traverse(SchedCoreObject *c, visitproc visit, void *arg)
{
    Py_VISIT(c->sim);
    Py_VISIT(c->kschedule);
    Py_VISIT(c->perf_model);
    Py_VISIT(c->perf_cpi);
    Py_VISIT(c->perf_on_start);
    Py_VISIT(c->perf_on_complete);
    Py_VISIT(c->perf_breakdown);
    Py_VISIT(c->infl_cache);
    Py_VISIT(c->register_cb);
    Py_VISIT(c->groups);
    for (int i = 0; i < c->n; i++) {
        if (c->cpus != NULL)
            Py_VISIT(c->cpus[i]);
        if (c->complete_cbs != NULL)
            Py_VISIT(c->complete_cbs[i]);
        if (c->run != NULL) {
            Py_VISIT(c->run[i].burst);
            Py_VISIT(c->run[i].handle);
        }
        if (c->queues != NULL) {
            CQueue *q = &c->queues[i];
            for (Py_ssize_t j = 0; j < q->len; j++)
                Py_VISIT(q->buf[(q->head + j) & (q->cap - 1)]);
        }
    }
    return 0;
}

static int
SchedCore_clear_impl(SchedCoreObject *c)
{
    Py_CLEAR(c->kschedule);
    Py_CLEAR(c->perf_cpi);
    Py_CLEAR(c->perf_on_start);
    Py_CLEAR(c->perf_on_complete);
    Py_CLEAR(c->perf_breakdown);
    Py_CLEAR(c->infl_cache);
    Py_CLEAR(c->register_cb);
    Py_CLEAR(c->groups);
    for (int i = 0; i < c->n; i++) {
        if (c->complete_cbs != NULL)
            Py_CLEAR(c->complete_cbs[i]);
        if (c->run != NULL) {
            Py_CLEAR(c->run[i].burst);
            Py_CLEAR(c->run[i].handle);
        }
        if (c->queues != NULL) {
            CQueue *q = &c->queues[i];
            for (Py_ssize_t j = 0; j < q->len; j++)
                Py_CLEAR(q->buf[(q->head + j) & (q->cap - 1)]);
            q->len = 0;
            q->head = 0;
        }
    }
    return 0;
}

static PyObject *CCompleteCB_new_for(SchedCoreObject *core, int cpu);

static PyObject *
SchedCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *wrapper;
    if (!M.configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro.sim._cmodel.configure() has not been called");
        return NULL;
    }
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "SchedCore() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O", &wrapper))
        return NULL;
    SchedCoreObject *c = (SchedCoreObject *)type->tp_alloc(type, 0);
    if (c == NULL)
        return NULL;
    c->sim = PyObject_GetAttrString(wrapper, "sim");
    c->kschedule = PyObject_GetAttrString(wrapper, "_kschedule");
    c->perf_model = PyObject_GetAttrString(wrapper, "perf_model");
    c->register_cb = PyObject_GetAttrString(wrapper, "_core_register");
    c->groups = PyDict_New();
    if (c->sim == NULL || c->kschedule == NULL || c->perf_model == NULL
        || c->register_cb == NULL || c->groups == NULL)
        goto fail;
    /* The perf hooks are bound once: the model is fixed for the
     * scheduler's lifetime (the deployment constructs both together). */
    c->perf_cpi = PyObject_GetAttrString(c->perf_model, "cpi_inflation");
    c->perf_on_start = PyObject_GetAttrString(c->perf_model,
                                              "on_burst_start");
    c->perf_on_complete = PyObject_GetAttrString(c->perf_model,
                                                 "on_burst_complete");
    if (c->perf_cpi == NULL || c->perf_on_start == NULL
        || c->perf_on_complete == NULL)
        goto fail;

    PyObject *cpus_list = PyObject_GetAttrString(wrapper, "_cpus");
    if (cpus_list == NULL)
        goto fail;
    PyObject *fast = PySequence_Fast(cpus_list, "_cpus must be a sequence");
    Py_DECREF(cpus_list);
    if (fast == NULL)
        goto fail;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n < 1 || n > 1 << 20) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "unreasonable CPU count");
        goto fail;
    }
    c->n = (int)n;
    c->nwords = (c->n + 63) / 64;
    c->cpus = PyMem_New(PyObject *, n);
    c->complete_cbs = PyMem_New(PyObject *, n);
    c->cpu_longs = PyMem_New(PyObject *, n);
    c->ccx_longs = PyMem_New(PyObject *, n);
    c->ccx_objs = PyMem_New(PyObject *, n);
    c->node_objs = PyMem_New(PyObject *, n);
    c->run = PyMem_New(CRun, n);
    c->queues = PyMem_New(CQueue, n);
    c->depths = PyMem_New(int, n);
    c->idle = PyMem_New(char, n);
    c->online = PyMem_New(char, n);
    c->busy_time = PyMem_New(double, n);
    c->steal_mask = PyMem_New(uint64_t *, n);
    if (c->cpus == NULL || c->complete_cbs == NULL || c->cpu_longs == NULL
        || c->ccx_longs == NULL || c->ccx_objs == NULL
        || c->node_objs == NULL || c->run == NULL || c->queues == NULL
        || c->depths == NULL || c->idle == NULL || c->online == NULL
        || c->busy_time == NULL || c->steal_mask == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        c->cpus[i] = NULL;
        c->complete_cbs[i] = NULL;
        c->cpu_longs[i] = NULL;
        c->ccx_longs[i] = NULL;
        c->ccx_objs[i] = NULL;
        c->node_objs[i] = NULL;
        c->run[i].burst = NULL;
        c->run[i].handle = NULL;
        c->queues[i].buf = NULL;
        c->queues[i].head = c->queues[i].len = c->queues[i].cap = 0;
        c->depths[i] = 0;
        c->idle[i] = 0;
        c->online[i] = 0;
        c->busy_time[i] = 0.0;
        c->steal_mask[i] = NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *cpu = PySequence_Fast_GET_ITEM(fast, i);
        Py_INCREF(cpu);
        c->cpus[i] = cpu;
        c->cpu_longs[i] = PyLong_FromSsize_t(i);
        c->steal_mask[i] = PyMem_New(uint64_t, c->nwords);
        if (c->cpu_longs[i] == NULL || c->steal_mask[i] == NULL) {
            Py_DECREF(fast);
            if (!PyErr_Occurred())
                PyErr_NoMemory();
            goto fail;
        }
        memset(c->steal_mask[i], 0, c->nwords * sizeof(uint64_t));
    }
    Py_DECREF(fast);

    if (load_int_list(wrapper, "_sibling_index", &c->sibling, c->n, -1) < 0
        || load_int_list(wrapper, "_core_index", &c->core_of, c->n, -1) < 0
        || load_int_list(wrapper, "_ccx_index", &c->ccx_of, c->n, -1) < 0)
        goto fail;
    for (int i = 0; i < c->n; i++) {
        c->ccx_longs[i] = PyLong_FromLong(c->ccx_of[i]);
        if (c->ccx_longs[i] == NULL)
            goto fail;
    }

    PyObject *tc = PyObject_GetAttrString(wrapper, "total_cores");
    if (tc == NULL)
        goto fail;
    c->total_cores = (int)PyLong_AsLong(tc);
    Py_DECREF(tc);
    if (c->total_cores == -1 && PyErr_Occurred())
        goto fail;
    PyObject *btl = PyObject_GetAttrString(wrapper,
                                           "_busy_threads_per_core");
    if (btl == NULL)
        goto fail;
    Py_ssize_t n_cores = PySequence_Size(btl);
    Py_DECREF(btl);
    if (n_cores < 0)
        goto fail;
    c->n_cores = (int)n_cores;
    c->busy_threads = PyMem_New(int, c->n_cores > 0 ? c->n_cores : 1);
    if (c->busy_threads == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(c->busy_threads, 0, c->n_cores * sizeof(int));

    PyObject *freq = PyObject_GetAttrString(wrapper, "_freq_factor");
    if (freq == NULL)
        goto fail;
    PyObject *ffast = PySequence_Fast(freq, "_freq_factor");
    Py_DECREF(freq);
    if (ffast == NULL)
        goto fail;
    Py_ssize_t n_freq = PySequence_Fast_GET_SIZE(ffast);
    if (n_freq != c->total_cores + 1) {
        Py_DECREF(ffast);
        PyErr_SetString(PyExc_ValueError,
                        "_freq_factor length != total_cores + 1");
        goto fail;
    }
    c->freq_factor = PyMem_New(double, n_freq);
    if (c->freq_factor == NULL) {
        Py_DECREF(ffast);
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n_freq; i++) {
        c->freq_factor[i] =
            as_double(PySequence_Fast_GET_ITEM(ffast, i));
        if (c->freq_factor[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(ffast);
            goto fail;
        }
    }
    Py_DECREF(ffast);

    PyObject *smt = PyObject_GetAttrString(wrapper, "_smt_factor");
    if (smt == NULL)
        goto fail;
    int bad_smt = (!PyTuple_Check(smt) || PyTuple_GET_SIZE(smt) != 2);
    if (!bad_smt) {
        c->smt_factor[0] = as_double(PyTuple_GET_ITEM(smt, 0));
        c->smt_factor[1] = as_double(PyTuple_GET_ITEM(smt, 1));
    }
    Py_DECREF(smt);
    if (bad_smt) {
        PyErr_SetString(PyExc_ValueError, "_smt_factor must be a 2-tuple");
        goto fail;
    }
    if (PyErr_Occurred())
        goto fail;

    PyObject *online = PyObject_GetAttrString(wrapper, "_online_ids");
    if (online == NULL)
        goto fail;
    PyObject *ofast = PySequence_Fast(online, "_online_ids");
    Py_DECREF(online);
    if (ofast == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(ofast); i++) {
        long cpu = PyLong_AsLong(PySequence_Fast_GET_ITEM(ofast, i));
        if ((cpu == -1 && PyErr_Occurred()) || cpu < 0 || cpu >= c->n) {
            Py_DECREF(ofast);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "online CPU id out of range");
            goto fail;
        }
        c->online[cpu] = 1;
        c->idle[cpu] = 1;
        c->idle_count++;
    }
    Py_DECREF(ofast);

    /* Inline the perf hooks when the model is exactly MemorySystemModel
     * with no counter sink (the overwhelmingly common configuration);
     * anything else — subclasses, protocol implementations, hardware
     * counter collection — goes through the bound Python hooks. */
    if (M.memmodel_type != NULL
        && Py_TYPE(c->perf_model) == (PyTypeObject *)M.memmodel_type) {
        PyObject *sink = PyObject_GetAttrString(c->perf_model,
                                                "counter_sink");
        if (sink == NULL)
            goto fail;
        int plain = (sink == Py_None);
        Py_DECREF(sink);
        if (plain) {
            c->perf_breakdown = PyObject_GetAttrString(c->perf_model,
                                                       "breakdown");
            c->infl_cache = PyObject_GetAttrString(c->perf_model,
                                                   "_inflation_cache");
            if (c->perf_breakdown == NULL || c->infl_cache == NULL)
                goto fail;
            if (!PyDict_Check(c->infl_cache)) {
                PyErr_SetString(PyExc_TypeError,
                                "_inflation_cache must be a dict");
                goto fail;
            }
            PyObject *config = PyObject_GetAttrString(c->perf_model,
                                                      "config");
            if (config == NULL)
                goto fail;
            PyObject *cap = PyObject_GetAttrString(config,
                                                   "bandwidth_capacity");
            PyObject *weight = PyObject_GetAttrString(config,
                                                      "bandwidth_weight");
            Py_DECREF(config);
            if (cap == NULL || weight == NULL) {
                Py_XDECREF(cap);
                Py_XDECREF(weight);
                goto fail;
            }
            if (cap != Py_None) {
                c->has_capacity = 1;
                c->bw_capacity = as_double(cap);
            }
            c->bw_weight = as_double(weight);
            Py_DECREF(cap);
            Py_DECREF(weight);
            if (PyErr_Occurred())
                goto fail;
            for (int i = 0; i < c->n; i++) {
                PyObject *ccx = PyObject_GetAttrString(c->cpus[i], "ccx");
                if (ccx == NULL)
                    goto fail;
                c->ccx_objs[i] = PyObject_GetAttrString(ccx, "index");
                Py_DECREF(ccx);
                if (c->ccx_objs[i] == NULL)
                    goto fail;
                PyObject *node = PyObject_GetAttrString(c->cpus[i],
                                                        "node");
                if (node == NULL)
                    goto fail;
                c->node_objs[i] = PyObject_GetAttrString(node, "index");
                Py_DECREF(node);
                if (c->node_objs[i] == NULL)
                    goto fail;
            }
            c->fast_perf = 1;
        }
    }
    for (int i = 0; i < c->n; i++) {
        c->complete_cbs[i] = CCompleteCB_new_for(c, i);
        if (c->complete_cbs[i] == NULL)
            goto fail;
    }
    return (PyObject *)c;
fail:
    Py_DECREF(c);
    return NULL;
}

static PyMethodDef SchedCore_methods[] = {
    {"submit", (PyCFunction)SchedCore_submit, METH_O,
     "Make a burst runnable (CpuScheduler.submit)."},
    {"submit_demand", (PyCFunction)SchedCore_submit_demand, METH_FASTCALL,
     "submit_demand(instance, demand) -> Event\n"
     "Scale, wrap and submit one CPU demand (ServiceContext fast path)."},
    {"busy_time", (PyCFunction)SchedCore_busy_time, METH_O,
     "Accumulated busy time of one logical CPU."},
    {"queue_depth", (PyCFunction)SchedCore_queue_depth, METH_NOARGS,
     "Bursts currently waiting in run queues."},
    {"is_idle", (PyCFunction)SchedCore_is_idle, METH_O,
     "True when the CPU is online and not executing."},
    {"bursts_dispatched", (PyCFunction)SchedCore_bursts_dispatched,
     METH_NOARGS, "Total bursts started."},
    {"bursts_stolen", (PyCFunction)SchedCore_bursts_stolen, METH_NOARGS,
     "Total bursts obtained via work stealing."},
    {"stats", (PyCFunction)SchedCore_stats, METH_NOARGS,
     "(running, queued, idle) counts for repr()."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SchedCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.SchedCore",
    .tp_basicsize = sizeof(SchedCoreObject),
    .tp_dealloc = (destructor)SchedCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C core of CompiledCpuScheduler (see repro.cpu.scheduler).",
    .tp_traverse = (traverseproc)SchedCore_traverse,
    .tp_clear = (inquiry)SchedCore_clear_impl,
    .tp_methods = SchedCore_methods,
    .tp_new = SchedCore_new,
};

/* ---- the per-CPU completion callable ---- */

static PyObject *
CCompleteCB_vectorcall(PyObject *self, PyObject *const *Py_UNUSED(args),
                       size_t nargsf, PyObject *kwnames)
{
    CCompleteCBObject *cb = (CCompleteCBObject *)self;
    if (PyVectorcall_NARGS(nargsf) != 0
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "completion callback takes no arguments");
        return NULL;
    }
    if (core_complete(cb->core, cb->cpu) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
CCompleteCB_dealloc(CCompleteCBObject *cb)
{
    PyObject_GC_UnTrack(cb);
    Py_XDECREF(cb->core);
    Py_TYPE(cb)->tp_free((PyObject *)cb);
}

static int
CCompleteCB_traverse(CCompleteCBObject *cb, visitproc visit, void *arg)
{
    Py_VISIT(cb->core);
    return 0;
}

static int
CCompleteCB_clear(CCompleteCBObject *cb)
{
    Py_CLEAR(cb->core);
    return 0;
}

static PyTypeObject CCompleteCB_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.CCompleteCB",
    .tp_basicsize = sizeof(CCompleteCBObject),
    .tp_dealloc = (destructor)CCompleteCB_dealloc,
    .tp_vectorcall_offset = offsetof(CCompleteCBObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Scheduled completion callback for one logical CPU.",
    .tp_traverse = (traverseproc)CCompleteCB_traverse,
    .tp_clear = (inquiry)CCompleteCB_clear,
};

static PyObject *
CCompleteCB_new_for(SchedCoreObject *core, int cpu)
{
    CCompleteCBObject *cb =
        PyObject_GC_New(CCompleteCBObject, &CCompleteCB_Type);
    if (cb == NULL)
        return NULL;
    cb->vectorcall = CCompleteCB_vectorcall;
    Py_INCREF(core);
    cb->core = core;
    cb->cpu = cpu;
    PyObject_GC_Track(cb);
    return (PyObject *)cb;
}

/* ------------------------------------------------------------------ */
/* CWorker: one replica worker as a C state machine                    */
/* ------------------------------------------------------------------ */

/* Keep in sync with repro.services.instance._BOOT.._RUN. */
enum { W_BOOT = 0, W_GET = 1, W_PAUSE = 2, W_RUN = 3 };

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *instance;     /* ServiceInstance */
    PyObject *deployment;
    PyObject *sim;
    PyObject *rpc_respond;  /* bound rpc.respond */
    PyObject *resolve;      /* bound spec.resolve */
    PyObject *queue_get;    /* bound queue.get */
    PyObject *request;      /* in-flight request, per state */
    PyObject *handler;      /* endpoint handler generator while W_RUN */
    int state;
} CWorkerObject;

static PyTypeObject CWorker_Type;

static int worker_begin(CWorkerObject *w, PyObject *request);
static int worker_drive(CWorkerObject *w, PyObject *value, int failed);

/* self.state = _GET; self.queue.get().callbacks.append(self) */
static int
worker_next_get(CWorkerObject *w)
{
    w->state = W_GET;
    PyObject *event = PyObject_CallNoArgs(w->queue_get);
    if (event == NULL)
        return -1;
    PyObject *callbacks = slot_get(event, M.ev_callbacks);
    int rv;
    if (callbacks == NULL || !PyList_Check(callbacks)) {
        PyErr_SetString(PyExc_SystemError,
                        "store get event has no callback list");
        rv = -1;
    }
    else
        rv = PyList_Append(callbacks, (PyObject *)w);
    Py_DECREF(event);
    return rv;
}

/* instance._fail_request(request, exc) + next queue get. */
static int
worker_fail_request(CWorkerObject *w, PyObject *request, PyObject *exc,
                    int then_get)
{
    PyObject *res = PyObject_CallMethod(w->instance, "_fail_request", "OO",
                                        request, exc);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return then_get ? worker_next_get(w) : 0;
}

/* The drive loop hit a yield-protocol violation: clear state and hand
 * off to the shared Python helper (throw in, park forever). */
static int
worker_protocol_error(CWorkerObject *w, PyObject *message)
{
    PyObject *request = w->request;
    PyObject *handler = w->handler;
    w->request = NULL;
    w->handler = NULL;
    PyObject *res = PyObject_CallFunctionObjArgs(
        M.protocol_error, w->instance, handler, request, message, NULL);
    Py_XDECREF(request);
    Py_XDECREF(handler);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Fetch the pending exception normalized, with traceback attached.
 * Returns a new reference to the exception instance. */
static PyObject *
fetch_exception(void)
{
    PyObject *type, *val, *tb;
    PyErr_Fetch(&type, &val, &tb);
    if (type == NULL) {
        PyErr_SetString(PyExc_SystemError,
                        "error return without exception set");
        return NULL;
    }
    PyErr_NormalizeException(&type, &val, &tb);
    if (tb != NULL && val != NULL)
        PyException_SetTraceback(val, tb);
    Py_XDECREF(type);
    Py_XDECREF(tb);
    return val;
}

/* Completion bookkeeping + respond + next get (machine._finish). */
static int
worker_finish(CWorkerObject *w, PyObject *response)
{
    PyObject *request = w->request;
    w->request = NULL;
    Py_CLEAR(w->handler);
    int rv = -1;
    slot_store(request, M.rq_completed, slot_get(w->sim, M.sim_now));
    if (slot_add_long(w->instance, M.in_completed, 1) < 0)
        goto done;
    if (slot_add_long(w->instance, M.in_outstanding, -1) < 0)
        goto done;
    PyObject *tracer = PyObject_GetAttr(w->deployment, M.str_tracer);
    if (tracer == NULL)
        goto done;
    if (tracer != Py_None) {
        PyObject *res = PyObject_CallMethodOneArg(tracer, M.str_record,
                                                  request);
        if (res == NULL) {
            Py_DECREF(tracer);
            goto done;
        }
        Py_DECREF(res);
    }
    Py_DECREF(tracer);
    PyObject *done_ev = slot_get(request, M.rq_done);
    PyObject *argv[2] = {done_ev, response};
    PyObject *res = PyObject_Vectorcall(w->rpc_respond, argv, 2, NULL);
    if (res == NULL)
        goto done;
    Py_DECREF(res);
    rv = worker_next_get(w);
done:
    Py_DECREF(request);
    return rv;
}

/* machine._drive: pump the endpoint handler generator. */
static int
worker_drive(CWorkerObject *w, PyObject *value, int failed)
{
    PyObject *handler = w->handler;
    Py_INCREF(handler);
    Py_XINCREF(value);
    int rv = 0;
    for (;;) {
        PyObject *target = NULL;
        if (failed) {
            target = PyObject_CallMethodOneArg(handler, M.str_throw, value);
            Py_CLEAR(value);
            if (target == NULL)
                goto handler_raised;
        }
        else {
            PySendResult sr = PyIter_Send(handler, value ? value : Py_None,
                                          &target);
            Py_CLEAR(value);
            if (sr == PYGEN_RETURN) {
                rv = worker_finish(w, target);
                Py_DECREF(target);
                break;
            }
            if (sr == PYGEN_ERROR)
                goto handler_raised;
        }
        /* The handler yielded `target`. */
        if (!PyObject_TypeCheck(target, (PyTypeObject *)M.event_type)) {
            PyObject *msg = PyUnicode_FromFormat(
                "process yielded a non-event: %R", target);
            Py_DECREF(target);
            rv = msg ? worker_protocol_error(w, msg) : -1;
            Py_XDECREF(msg);
            break;
        }
        if (slot_get(target, M.ev_sim) != w->sim) {
            Py_DECREF(target);
            PyObject *msg = PyUnicode_FromString(
                "yielded event belongs to another simulator");
            rv = msg ? worker_protocol_error(w, msg) : -1;
            Py_XDECREF(msg);
            break;
        }
        PyObject *callbacks = slot_get(target, M.ev_callbacks);
        if (callbacks == NULL || callbacks == Py_None) {
            /* Already processed: resume inline. */
            if (truthy(slot_get(target, M.ev_ok)))
                failed = 0;
            else {
                slot_store(target, M.ev_defused, Py_True);
                failed = 1;
            }
            value = slot_get(target, M.ev_value);
            Py_XINCREF(value);
            Py_DECREF(target);
            continue;
        }
        if (!PyList_Check(callbacks)) {
            Py_DECREF(target);
            PyErr_SetString(PyExc_TypeError,
                            "event callbacks must be a list");
            rv = -1;
            break;
        }
        rv = PyList_Append(callbacks, (PyObject *)w);
        Py_DECREF(target);
        break;

    handler_raised:
        if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
            PyObject *exc = fetch_exception();
            if (exc == NULL) {
                rv = -1;
                break;
            }
            PyObject *stop_value = PyObject_GetAttr(exc, M.str_value);
            Py_DECREF(exc);
            if (stop_value == NULL) {
                rv = -1;
                break;
            }
            rv = worker_finish(w, stop_value);
            Py_DECREF(stop_value);
            break;
        }
        PyObject *exc = fetch_exception();
        if (exc == NULL) {
            rv = -1;
            break;
        }
        if (PyObject_IsInstance(exc, PyExc_Exception) > 0) {
            /* Handler bug or modelled failure. */
            PyObject *request = w->request;
            w->request = NULL;
            Py_CLEAR(w->handler);
            rv = worker_fail_request(w, request, exc, 1);
            Py_XDECREF(request);
            Py_DECREF(exc);
            break;
        }
        /* BaseException: escalate on the next processing slot. */
        Py_CLEAR(w->handler);
        Py_CLEAR(w->request);
        rv = escalate(w->sim, exc);
        Py_DECREF(exc);
        break;
    }
    Py_DECREF(handler);
    return rv;
}

/* machine._begin: pause gate -> deadline -> handler construction. */
static int
worker_begin(CWorkerObject *w, PyObject *request)
{
    /* `request` is owned by the caller throughout. */
    for (;;) {
        PyObject *pause = slot_get(w->instance, M.in_pause);
        if (pause == NULL || pause == Py_None)
            break;
        PyObject *callbacks = slot_get(pause, M.ev_callbacks);
        if (callbacks == NULL || callbacks == Py_None) {
            /* Already processed: a failed gate escalates, a succeeded
             * one re-checks the gate. */
            if (!truthy(slot_get(pause, M.ev_ok))) {
                slot_store(pause, M.ev_defused, Py_True);
                PyObject *exc = slot_get(pause, M.ev_value);
                return escalate(w->sim, exc ? exc : Py_None);
            }
            continue;
        }
        if (!PyList_Check(callbacks)) {
            PyErr_SetString(PyExc_TypeError,
                            "event callbacks must be a list");
            return -1;
        }
        Py_INCREF(request);
        Py_XSETREF(w->request, request);
        w->state = W_PAUSE;
        return PyList_Append(callbacks, (PyObject *)w);
    }
    PyObject *now_obj = slot_get(w->sim, M.sim_now);
    slot_store(request, M.rq_started, now_obj);
    PyObject *deadline = slot_get(request, M.rq_deadline);
    if (deadline != NULL && deadline != Py_None) {
        double now = as_double(now_obj);
        double dl = as_double(deadline);
        if (PyErr_Occurred())
            return -1;
        if (now >= dl) {
            PyObject *res = PyObject_CallMethod(
                w->instance, "_expire_request", "O", request);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
            return worker_next_get(w);
        }
    }
    PyObject *context = NULL, *endpoint_spec = NULL;
    PyObject *handler_fn = NULL, *handler = NULL;
    context = PyObject_CallFunctionObjArgs(M.context_type, w->instance,
                                           request, NULL);
    if (context == NULL)
        goto construction_failed;
    endpoint_spec = PyObject_CallOneArg(
        w->resolve, slot_get(request, M.rq_endpoint));
    if (endpoint_spec == NULL)
        goto construction_failed;
    handler_fn = PyObject_GetAttr(endpoint_spec, M.str_handler);
    if (handler_fn == NULL)
        goto construction_failed;
    handler = PyObject_CallOneArg(handler_fn, context);
    if (handler == NULL)
        goto construction_failed;
    Py_DECREF(context);
    Py_DECREF(endpoint_spec);
    Py_DECREF(handler_fn);
    Py_INCREF(request);
    Py_XSETREF(w->request, request);
    w->handler = handler;
    w->state = W_RUN;
    return worker_drive(w, NULL, 0);

construction_failed:
    Py_XDECREF(context);
    Py_XDECREF(endpoint_spec);
    Py_XDECREF(handler_fn);
    /* except Exception -> fail the request; BaseException propagates
     * (exactly the reference's try/except Exception). */
    {
        PyObject *exc = fetch_exception();
        if (exc == NULL)
            return -1;
        int is_exc = PyObject_IsInstance(exc, PyExc_Exception);
        if (is_exc <= 0) {
            if (is_exc == 0)
                PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
            Py_DECREF(exc);
            return -1;
        }
        int rv = worker_fail_request(w, request, exc, 1);
        Py_DECREF(exc);
        return rv;
    }
}

/* machine.__call__(event): the event-callback entry point. */
static PyObject *
CWorker_vectorcall(PyObject *self, PyObject *const *args, size_t nargsf,
                   PyObject *kwnames)
{
    CWorkerObject *w = (CWorkerObject *)self;
    if (PyVectorcall_NARGS(nargsf) != 1
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "worker machine expects exactly one event");
        return NULL;
    }
    PyObject *event = args[0];
    int rv;
    int state = w->state;
    if (state == W_RUN) {
        PyObject *value = slot_get(event, M.ev_value);
        if (truthy(slot_get(event, M.ev_ok)))
            rv = worker_drive(w, value, 0);
        else {
            slot_store(event, M.ev_defused, Py_True);
            rv = worker_drive(w, value, 1);
        }
    }
    else if (!truthy(slot_get(event, M.ev_ok))) {
        /* Failed wake with no handler frame: defuse and escalate. */
        slot_store(event, M.ev_defused, Py_True);
        PyObject *exc = slot_get(event, M.ev_value);
        rv = escalate(w->sim, exc ? exc : Py_None);
    }
    else if (state == W_GET) {
        PyObject *request = slot_get(event, M.ev_value);
        Py_XINCREF(request);
        rv = request ? worker_begin(w, request) : -1;
        Py_XDECREF(request);
    }
    else if (state == W_PAUSE) {
        PyObject *request = w->request;
        w->request = NULL;
        rv = request ? worker_begin(w, request) : -1;
        if (request == NULL)
            PyErr_SetString(PyExc_SystemError,
                            "paused worker lost its request");
        Py_XDECREF(request);
    }
    else    /* W_BOOT */
        rv = worker_next_get(w);
    if (rv < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
CWorker_dealloc(CWorkerObject *w)
{
    PyObject_GC_UnTrack(w);
    Py_XDECREF(w->instance);
    Py_XDECREF(w->deployment);
    Py_XDECREF(w->sim);
    Py_XDECREF(w->rpc_respond);
    Py_XDECREF(w->resolve);
    Py_XDECREF(w->queue_get);
    Py_XDECREF(w->request);
    Py_XDECREF(w->handler);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

static int
CWorker_traverse(CWorkerObject *w, visitproc visit, void *arg)
{
    Py_VISIT(w->instance);
    Py_VISIT(w->deployment);
    Py_VISIT(w->sim);
    Py_VISIT(w->rpc_respond);
    Py_VISIT(w->resolve);
    Py_VISIT(w->queue_get);
    Py_VISIT(w->request);
    Py_VISIT(w->handler);
    return 0;
}

static int
CWorker_clear_impl(CWorkerObject *w)
{
    Py_CLEAR(w->instance);
    Py_CLEAR(w->deployment);
    Py_CLEAR(w->rpc_respond);
    Py_CLEAR(w->resolve);
    Py_CLEAR(w->queue_get);
    Py_CLEAR(w->request);
    Py_CLEAR(w->handler);
    return 0;
}

static PyObject *
CWorker_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *instance;
    if (!M.configured) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro.sim._cmodel.configure() has not been called");
        return NULL;
    }
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "CWorker() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O", &instance))
        return NULL;
    CWorkerObject *w = (CWorkerObject *)type->tp_alloc(type, 0);
    if (w == NULL)
        return NULL;
    w->vectorcall = CWorker_vectorcall;
    w->state = W_BOOT;
    Py_INCREF(instance);
    w->instance = instance;
    PyObject *deployment = slot_get(instance, M.in_deployment);
    if (deployment == NULL) {
        PyErr_SetString(PyExc_AttributeError, "deployment");
        goto fail;
    }
    Py_INCREF(deployment);
    w->deployment = deployment;
    w->sim = PyObject_GetAttr(deployment, M.str_sim);
    if (w->sim == NULL)
        goto fail;
    PyObject *rpc = PyObject_GetAttr(deployment, M.str_rpc);
    if (rpc == NULL)
        goto fail;
    w->rpc_respond = PyObject_GetAttr(rpc, M.str_respond);
    Py_DECREF(rpc);
    if (w->rpc_respond == NULL)
        goto fail;
    PyObject *spec = slot_get(instance, M.in_spec);
    if (spec == NULL) {
        PyErr_SetString(PyExc_AttributeError, "spec");
        goto fail;
    }
    w->resolve = PyObject_GetAttr(spec, M.str_resolve);
    if (w->resolve == NULL)
        goto fail;
    PyObject *queue = slot_get(instance, M.in_queue);
    if (queue == NULL) {
        PyErr_SetString(PyExc_AttributeError, "queue");
        goto fail;
    }
    w->queue_get = PyObject_GetAttr(queue, M.str_get);
    if (w->queue_get == NULL)
        goto fail;
    /* Same bootstrap pattern (and counter consumption) as the Python
     * machine and Process: first run on the next processing slot. */
    PyObject *bootstrap = PyObject_CallOneArg(M.event_type, w->sim);
    if (bootstrap == NULL)
        goto fail;
    PyObject *callbacks = slot_get(bootstrap, M.ev_callbacks);
    if (callbacks == NULL || !PyList_Check(callbacks)
        || PyList_Append(callbacks, (PyObject *)w) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_SystemError,
                            "fresh event has no callback list");
        Py_DECREF(bootstrap);
        goto fail;
    }
    PyObject *res = PyObject_CallMethodNoArgs(bootstrap, M.str_succeed);
    Py_DECREF(bootstrap);
    if (res == NULL)
        goto fail;
    Py_DECREF(res);
    return (PyObject *)w;
fail:
    Py_DECREF(w);
    return NULL;
}

static PyTypeObject CWorker_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cmodel.CWorker",
    .tp_basicsize = sizeof(CWorkerObject),
    .tp_dealloc = (destructor)CWorker_dealloc,
    .tp_vectorcall_offset = offsetof(CWorkerObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Compiled replica worker machine "
              "(see repro.services.instance._WorkerMachine).",
    .tp_traverse = (traverseproc)CWorker_traverse,
    .tp_clear = (inquiry)CWorker_clear_impl,
    .tp_new = CWorker_new,
};

/* ------------------------------------------------------------------ */
/* Module configuration                                                */
/* ------------------------------------------------------------------ */

static Py_ssize_t
member_offset(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%.200s.%s is not a slot member descriptor",
                     ((PyTypeObject *)type)->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    Py_ssize_t offset = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return offset;
}

static PyObject *
cmodel_configure(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *event_type, *pending, *sim_error, *sim_type;
    PyObject *burst_type, *group_type, *request_type, *instance_type;
    PyObject *context_type, *protocol_error, *sched_error, *memmodel_type;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOO", &event_type, &pending,
                          &sim_error, &sim_type, &burst_type, &group_type,
                          &request_type, &instance_type, &context_type,
                          &protocol_error, &sched_error, &memmodel_type))
        return NULL;
    if (!PyType_Check(event_type) || !PyType_Check(sim_type)
        || !PyType_Check(burst_type) || !PyType_Check(group_type)
        || !PyType_Check(request_type) || !PyType_Check(instance_type)
        || !PyType_Check(context_type) || !PyType_Check(memmodel_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "configure() expects (Event, _PENDING, "
                        "SimulationError, Simulator, CpuBurst, TaskGroup, "
                        "Request, ServiceInstance, ServiceContext, "
                        "_worker_protocol_error, SchedulingError, "
                        "MemorySystemModel)");
        return NULL;
    }

    Py_ssize_t ev_sim = member_offset(event_type, "sim");
    Py_ssize_t ev_callbacks = member_offset(event_type, "callbacks");
    Py_ssize_t ev_value = member_offset(event_type, "_value");
    Py_ssize_t ev_ok = member_offset(event_type, "_ok");
    Py_ssize_t ev_defused = member_offset(event_type, "_defused");
    Py_ssize_t ev_qcounter = member_offset(event_type, "_qcounter");
    Py_ssize_t sim_now = member_offset(sim_type, "now");
    Py_ssize_t sim_push_ready = member_offset(sim_type, "_push_ready");
    Py_ssize_t b_demand = member_offset(burst_type, "demand");
    Py_ssize_t b_group = member_offset(burst_type, "group");
    Py_ssize_t b_done = member_offset(burst_type, "done");
    Py_ssize_t b_submitted = member_offset(burst_type, "submitted_at");
    Py_ssize_t b_started = member_offset(burst_type, "started_at");
    Py_ssize_t b_finished = member_offset(burst_type, "finished_at");
    Py_ssize_t b_cpu_index = member_offset(burst_type, "cpu_index");
    Py_ssize_t b_wall = member_offset(burst_type, "wall_time");
    Py_ssize_t g_group_id = member_offset(group_type, "group_id");
    Py_ssize_t g_profile = member_offset(group_type, "profile");
    Py_ssize_t g_cpu_time = member_offset(group_type, "cpu_time");
    Py_ssize_t g_last_ccx = member_offset(group_type, "last_ccx");
    Py_ssize_t g_completed = member_offset(group_type, "bursts_completed");
    Py_ssize_t rq_endpoint = member_offset(request_type, "endpoint");
    Py_ssize_t rq_done = member_offset(request_type, "done");
    Py_ssize_t rq_started = member_offset(request_type, "started_at");
    Py_ssize_t rq_completed = member_offset(request_type, "completed_at");
    Py_ssize_t rq_deadline = member_offset(request_type, "deadline");
    Py_ssize_t in_deployment = member_offset(instance_type, "deployment");
    Py_ssize_t in_spec = member_offset(instance_type, "spec");
    Py_ssize_t in_queue = member_offset(instance_type, "queue");
    Py_ssize_t in_outstanding = member_offset(instance_type, "outstanding");
    Py_ssize_t in_completed = member_offset(instance_type, "completed");
    Py_ssize_t in_pause = member_offset(instance_type, "_pause");
    Py_ssize_t in_group = member_offset(instance_type, "group");
    Py_ssize_t in_demand_factor = member_offset(instance_type,
                                                "demand_factor");
    if (ev_sim < 0 || ev_callbacks < 0 || ev_value < 0 || ev_ok < 0
        || ev_defused < 0 || ev_qcounter < 0 || sim_now < 0
        || sim_push_ready < 0
        || b_demand < 0 || b_group < 0 || b_done < 0 || b_submitted < 0
        || b_started < 0 || b_finished < 0 || b_cpu_index < 0 || b_wall < 0
        || g_group_id < 0 || g_profile < 0
        || g_cpu_time < 0 || g_last_ccx < 0 || g_completed < 0
        || rq_endpoint < 0 || rq_done < 0 || rq_started < 0
        || rq_completed < 0 || rq_deadline < 0 || in_deployment < 0
        || in_spec < 0 || in_queue < 0 || in_outstanding < 0
        || in_completed < 0 || in_pause < 0 || in_group < 0
        || in_demand_factor < 0)
        return NULL;

    if (M.str_throw == NULL) {
        M.str_throw = PyUnicode_InternFromString("throw");
        M.str_succeed = PyUnicode_InternFromString("succeed");
        M.str_fail = PyUnicode_InternFromString("fail");
        M.str_cancel = PyUnicode_InternFromString("cancel");
        M.str_value = PyUnicode_InternFromString("value");
        M.str_get = PyUnicode_InternFromString("get");
        M.str_resolve = PyUnicode_InternFromString("resolve");
        M.str_respond = PyUnicode_InternFromString("respond");
        M.str_tracer = PyUnicode_InternFromString("tracer");
        M.str_record = PyUnicode_InternFromString("record");
        M.str_handler = PyUnicode_InternFromString("handler");
        M.str_sim = PyUnicode_InternFromString("sim");
        M.str_rpc = PyUnicode_InternFromString("rpc");
        M.str_epoch = PyUnicode_InternFromString("_epoch");
        M.str_mem_load = PyUnicode_InternFromString("_running_mem_load");
        M.str_total = PyUnicode_InternFromString("total");
        M.str_intensity = PyUnicode_InternFromString("mem_intensity");
        if (M.str_throw == NULL || M.str_succeed == NULL
            || M.str_fail == NULL || M.str_cancel == NULL
            || M.str_value == NULL || M.str_get == NULL
            || M.str_resolve == NULL || M.str_respond == NULL
            || M.str_tracer == NULL || M.str_record == NULL
            || M.str_handler == NULL || M.str_sim == NULL
            || M.str_rpc == NULL || M.str_epoch == NULL
            || M.str_mem_load == NULL || M.str_total == NULL
            || M.str_intensity == NULL)
            return NULL;
    }

    Py_INCREF(event_type);
    Py_XSETREF(M.event_type, event_type);
    Py_INCREF(pending);
    Py_XSETREF(M.pending, pending);
    Py_INCREF(sim_error);
    Py_XSETREF(M.sim_error, sim_error);
    Py_INCREF(sim_type);
    Py_XSETREF(M.sim_type, sim_type);
    Py_INCREF(burst_type);
    Py_XSETREF(M.burst_type, burst_type);
    Py_INCREF(group_type);
    Py_XSETREF(M.group_type, group_type);
    Py_INCREF(request_type);
    Py_XSETREF(M.request_type, request_type);
    Py_INCREF(instance_type);
    Py_XSETREF(M.instance_type, instance_type);
    Py_INCREF(context_type);
    Py_XSETREF(M.context_type, context_type);
    Py_INCREF(protocol_error);
    Py_XSETREF(M.protocol_error, protocol_error);
    Py_INCREF(sched_error);
    Py_XSETREF(M.sched_error, sched_error);
    Py_INCREF(memmodel_type);
    Py_XSETREF(M.memmodel_type, memmodel_type);

    M.ev_sim = ev_sim;
    M.ev_callbacks = ev_callbacks;
    M.ev_value = ev_value;
    M.ev_ok = ev_ok;
    M.ev_defused = ev_defused;
    M.ev_qcounter = ev_qcounter;
    M.sim_now = sim_now;
    M.sim_push_ready = sim_push_ready;
    M.b_demand = b_demand;
    M.b_group = b_group;
    M.b_done = b_done;
    M.b_submitted = b_submitted;
    M.b_started = b_started;
    M.b_finished = b_finished;
    M.b_cpu_index = b_cpu_index;
    M.b_wall = b_wall;
    M.g_group_id = g_group_id;
    M.g_profile = g_profile;
    M.g_cpu_time = g_cpu_time;
    M.g_last_ccx = g_last_ccx;
    M.g_completed = g_completed;
    M.rq_endpoint = rq_endpoint;
    M.rq_done = rq_done;
    M.rq_started = rq_started;
    M.rq_completed = rq_completed;
    M.rq_deadline = rq_deadline;
    M.in_deployment = in_deployment;
    M.in_spec = in_spec;
    M.in_queue = in_queue;
    M.in_outstanding = in_outstanding;
    M.in_completed = in_completed;
    M.in_pause = in_pause;
    M.in_group = in_group;
    M.in_demand_factor = in_demand_factor;
    M.configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef cmodel_functions[] = {
    {"configure", cmodel_configure, METH_VARARGS,
     "configure(Event, _PENDING, SimulationError, Simulator, CpuBurst, "
     "TaskGroup, Request, ServiceInstance, ServiceContext, "
     "_worker_protocol_error)\n"
     "Wire the model layer to the Python-side simulation classes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cmodel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._cmodel",
    .m_doc = "Compiled model layer: scheduler core + worker machines.",
    .m_size = -1,
    .m_methods = cmodel_functions,
};

PyMODINIT_FUNC
PyInit__cmodel(void)
{
    if (PyType_Ready(&SchedCore_Type) < 0)
        return NULL;
    if (PyType_Ready(&CCompleteCB_Type) < 0)
        return NULL;
    if (PyType_Ready(&CWorker_Type) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&cmodel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&SchedCore_Type);
    if (PyModule_AddObject(module, "SchedCore",
                           (PyObject *)&SchedCore_Type) < 0) {
        Py_DECREF(&SchedCore_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&CWorker_Type);
    if (PyModule_AddObject(module, "CWorker",
                           (PyObject *)&CWorker_Type) < 0) {
        Py_DECREF(&CWorker_Type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
