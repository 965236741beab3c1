/* fastcore: compiled twins of the simulator's measured hot loops.
 *
 * Every kernel in this module re-implements one Python hot loop from
 * repro.simulator.ratealloc / repro.simulator.session with the SAME
 * IEEE-754 double operations in the SAME order, so results are bitwise
 * identical to the pure-Python rows path (asserted by the fuzz firewall,
 * tests/test_fuzz_equivalence.py).  The bit-identity contract rests on:
 *
 *   - CPython floats are C doubles; +, -, *, / and comparisons map 1:1
 *     onto the hardware ops CPython itself performs.
 *   - The build must NOT use -ffast-math, and must disable floating-point
 *     expression contraction (-ffp-contract=off) so no fused
 *     multiply-adds change intermediate roundings (see setup.py).
 *   - Python's `min(xs)` / `xs.index(m)` tie-break (first index achieving
 *     the minimum) is reproduced by a single scan updating on strict `<`.
 *
 * Memory-layout contract: FlowTable numeric columns and the PortLedger
 * capacity/usage tables are array('d') / array('q') buffers (see
 * repro.simulator.state / repro.simulator.fabric); kernels address them
 * through the buffer protocol as contiguous C arrays.  A row's path is
 * (src, dst, link_a, link_b), the last two the core links of a multi-tier
 * topology (-1 = none), indexing the ledger's per-link tables, which a
 * LinkLedger extends past the host ports; the allocator kernels walk it
 * with LinkLedger's commit/fill arithmetic on either fabric.  Object columns
 * (finish_time / start_time with their None sentinels) stay Python lists
 * and are read via Py_None identity checks, exactly like the Python
 * rows path.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* Mirrors repro.simulator.fabric._CAPACITY_TOLERANCE. */
static const double CAP_TOL = 1.0 + 1e-9;

/* CapacityViolationError, registered from repro._fastcore at import time
 * (a C extension cannot import repro.errors without a cycle). */
static PyObject *capacity_error = NULL;

/* ---- buffer plumbing --------------------------------------------------- */

#define MAX_BUFS 12

typedef struct {
    Py_buffer v[MAX_BUFS];
    int n;
} bufs;

static void
bufs_release(bufs *B)
{
    while (B->n > 0)
        PyBuffer_Release(&B->v[--B->n]);
}

/* Acquire a contiguous writable buffer of 8-byte items: fmt 'd' for
 * array('d'), fmt 'q' for array('q') (accepting 'l' on LP64 platforms). */
static void *
bufs_get(bufs *B, PyObject *o, char fmt, Py_ssize_t *len, const char *name)
{
    if (B->n >= MAX_BUFS) {
        PyErr_SetString(PyExc_SystemError, "fastcore: buffer slots exhausted");
        return NULL;
    }
    Py_buffer *view = &B->v[B->n];
    if (PyObject_GetBuffer(o, view, PyBUF_CONTIG | PyBUF_FORMAT) < 0)
        return NULL;
    B->n++;
    char f = view->format ? view->format[0] : '\0';
    int ok = (view->itemsize == 8)
             && (fmt == 'd' ? f == 'd' : (f == 'q' || f == 'l'));
    if (!ok) {
        PyErr_Format(PyExc_TypeError,
                     "fastcore: %s must be a contiguous array('%c') buffer",
                     name, fmt);
        return NULL;
    }
    if (len)
        *len = view->len / 8;
    return view->buf;
}

/* ---- small helpers ----------------------------------------------------- */

static int
raise_capacity(int64_t port, double allocated, double cap)
{
    if (capacity_error == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "fastcore: CapacityViolationError not registered");
        return -1;
    }
    char buf[32];
    snprintf(buf, sizeof buf, "%lld", (long long)port);
    PyObject *args = Py_BuildValue("(sdd)", buf, allocated, cap);
    if (args == NULL)
        return -1;
    PyErr_SetObject(capacity_error, args);
    Py_DECREF(args);
    return -1;
}

static int
set_add_port(PyObject *set, int64_t port)
{
    PyObject *o = PyLong_FromLongLong((long long)port);
    if (o == NULL)
        return -1;
    int r = PySet_Add(set, o);
    Py_DECREF(o);
    return r;
}

static Py_ssize_t
as_row(PyObject *o, Py_ssize_t cap, const char *what)
{
    Py_ssize_t i = PyLong_AsSsize_t(o);
    if (i == -1 && PyErr_Occurred())
        return -1;
    if (i < 0 || i >= cap) {
        PyErr_Format(PyExc_IndexError,
                     "fastcore: %s row %zd out of range [0, %zd)",
                     what, i, cap);
        return -1;
    }
    return i;
}

/* Links on one flow's path: sender port, receiver port and up to two core
 * links (FlowTable.link_a / link_b, -1 = none). */
#define MAX_PATH 4

/* The four path columns of a FlowTable, acquired as one unit. */
typedef struct {
    int64_t *src, *dst, *la, *lb;
    Py_ssize_t n; /* rows in every column */
} pathcols;

static int
pathcols_get(bufs *B, pathcols *P, PyObject *src_o, PyObject *dst_o,
             PyObject *la_o, PyObject *lb_o)
{
    Py_ssize_t n2, n3, n4;
    P->src = bufs_get(B, src_o, 'q', &P->n, "table.src");
    P->dst = P->src ? bufs_get(B, dst_o, 'q', &n2, "table.dst") : NULL;
    P->la = P->dst ? bufs_get(B, la_o, 'q', &n3, "table.link_a") : NULL;
    P->lb = P->la ? bufs_get(B, lb_o, 'q', &n4, "table.link_b") : NULL;
    if (P->lb == NULL)
        return -1;
    if (n2 != P->n || n3 != P->n || n4 != P->n) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: table path columns differ in length");
        return -1;
    }
    return 0;
}

/* Row i's path in walk order (src, dst, then core links) into path[];
 * unused slots are -1.  Returns the number of links (2..4), or -1 with
 * IndexError set when a link lies outside [0, nlinks).  Big-switch rows
 * (no core links) take the first branch, whose cost is one extra column
 * read over the port-only loops. */
static inline int
row_path(const pathcols *P, Py_ssize_t i, Py_ssize_t nlinks,
         int64_t path[MAX_PATH])
{
    int np = 2;
    path[0] = P->src[i];
    path[1] = P->dst[i];
    path[2] = P->la[i];
    path[3] = -1;
    if (path[2] >= 0) {
        np = 3;
        path[3] = P->lb[i];
        if (path[3] >= 0)
            np = 4;
    }
    for (int s = 0; s < np; s++) {
        /* one unsigned compare covers both bounds (links are never
         * negative here: src/dst are ids, -1 ends the core links) */
        if ((uint64_t)path[s] >= (uint64_t)nlinks) {
            PyErr_Format(PyExc_IndexError,
                         "fastcore: link %lld out of range [0, %zd)",
                         (long long)path[s], nlinks);
            return -1;
        }
    }
    return np;
}

/* LinkLedger.commit over one path (same op order: per link touch, check,
 * clamp; -1 ends the path).  Caller guarantees rate > 0 and in-range
 * links. */
static int
commit_path(double *lcap, double *lused, PyObject *touched,
            const int64_t path[MAX_PATH], double rate)
{
    for (int s = 0; s < MAX_PATH && path[s] >= 0; s++) {
        int64_t link = path[s];
        if (set_add_port(touched, link) < 0)
            return -1;
        double cap = lcap[link];
        double new_used = lused[link] + rate;
        if (new_used > cap * CAP_TOL)
            return raise_capacity(link, new_used, cap);
        lused[link] = new_used < cap ? new_used : cap;
    }
    return 0;
}

/* Materialise the running set (a row-keyed dict) as parallel (key object,
 * row index) arrays.  Key references are borrowed from the dict entries.
 * Rows are bounds-checked against cap. */
static Py_ssize_t
gather_rows(PyObject *running, Py_ssize_t cap,
            PyObject ***keys_out, Py_ssize_t **rows_out)
{
    if (!PyDict_Check(running)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: running set must be a dict");
        return -1;
    }
    Py_ssize_t n = PyDict_GET_SIZE(running);
    PyObject **keys = PyMem_New(PyObject *, n > 0 ? n : 1);
    Py_ssize_t *rows = PyMem_New(Py_ssize_t, n > 0 ? n : 1);
    if (keys == NULL || rows == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_ssize_t pos = 0, k = 0;
    PyObject *key, *val;
    while (PyDict_Next(running, &pos, &key, &val)) {
        Py_ssize_t i = as_row(key, cap, "running");
        if (i < 0)
            goto fail;
        keys[k] = key;
        rows[k] = i;
        k++;
    }
    *keys_out = keys;
    *rows_out = rows;
    return k;

fail:
    PyMem_Free(keys);
    PyMem_Free(rows);
    return -1;
}

/* ======================================================================
 * Rate-allocator kernels (repro.simulator.ratealloc *_rows twins)
 * ====================================================================== */

/* mmf_fill(active, src, dst, link_a, link_b, lcap, lused, touched,
 *          rate_cap, commit) -> list[float]
 *
 * The fill/commit core of max_min_fair_rows_raw.  `active` is the
 * already-filtered list of unfinished rows; rate_cap is None or a float
 * > 0 (the <= 0 early-out happens in the wrapper, as in Python). */
static PyObject *
mmf_fill(PyObject *self, PyObject *args)
{
    PyObject *active, *src_o, *dst_o, *la_o, *lb_o, *lcap_o, *lused_o;
    PyObject *touched, *rate_cap_o;
    int do_commit;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOp", &active, &src_o, &dst_o,
                          &la_o, &lb_o, &lcap_o, &lused_o, &touched,
                          &rate_cap_o, &do_commit))
        return NULL;
    if (!PyList_Check(active)) {
        PyErr_SetString(PyExc_TypeError, "fastcore: active must be a list");
        return NULL;
    }
    int has_cap = rate_cap_o != Py_None;
    double rate_cap = 0.0;
    if (has_cap) {
        rate_cap = PyFloat_AsDouble(rate_cap_o);
        if (rate_cap == -1.0 && PyErr_Occurred())
            return NULL;
    }

    bufs B = {.n = 0};
    pathcols P;
    PyObject *result = NULL;
    int64_t *rows = NULL;
    Py_ssize_t *link_pos = NULL, *pidx = NULL;
    Py_ssize_t *live = NULL, *moff = NULL, *mem = NULL;
    double *residual = NULL, *shares = NULL, *rate_of = NULL;
    char *frozen = NULL, *plen = NULL;

    Py_ssize_t nlinks;
    double *lcap = NULL, *lused = NULL;
    if (pathcols_get(&B, &P, src_o, dst_o, la_o, lb_o) == 0) {
        lcap = bufs_get(&B, lcap_o, 'd', &nlinks, "capacity_list");
        lused = lcap ? bufs_get(&B, lused_o, 'd', NULL, "used_list") : NULL;
    }
    if (lused == NULL)
        goto done;

    Py_ssize_t n = PyList_GET_SIZE(active);
    Py_ssize_t n1 = n > 0 ? n : 1;
    rows = PyMem_New(int64_t, n1);
    link_pos = PyMem_New(Py_ssize_t, nlinks > 0 ? nlinks : 1);
    pidx = PyMem_New(Py_ssize_t, MAX_PATH * n1);
    plen = PyMem_New(char, n1);
    live = PyMem_New(Py_ssize_t, MAX_PATH * n1);
    moff = PyMem_New(Py_ssize_t, MAX_PATH * n1 + 1);
    mem = PyMem_New(Py_ssize_t, MAX_PATH * n1);
    residual = PyMem_New(double, MAX_PATH * n1);
    shares = PyMem_New(double, MAX_PATH * n1);
    rate_of = PyMem_New(double, n1);
    frozen = PyMem_New(char, n1);
    if (!rows || !link_pos || !pidx || !plen || !live || !moff || !mem
        || !residual || !shares || !rate_of || !frozen) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < nlinks; j++)
        link_pos[j] = -1;
    memset(frozen, 0, (size_t)n1);

    /* Pass 1: dense link indices in first-seen order (per flow: src, dst,
     * core links), per-link flow counts, residual snapshot. */
    Py_ssize_t ndense = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = as_row(PyList_GET_ITEM(active, k), P.n, "active");
        if (i < 0)
            goto done;
        rows[k] = (int64_t)i;
        int64_t path[MAX_PATH];
        int np = row_path(&P, i, nlinks, path);
        if (np < 0)
            goto done;
        plen[k] = (char)np;
        for (int s = 0; s < np; s++) {
            int64_t link = path[s];
            Py_ssize_t j = link_pos[link];
            if (j < 0) {
                j = link_pos[link] = ndense++;
                double r = lcap[link] - lused[link];
                residual[j] = r >= 0.0 ? r : 0.0;
                live[j] = 1;
            }
            else {
                live[j] += 1;
            }
            pidx[MAX_PATH * k + s] = j;
        }
        rate_of[k] = 0.0;
    }

    /* Pass 2: member lists (CSR).  Per-link append order matches the
     * Python build: ascending flow position (a path never repeats a
     * link). */
    moff[0] = 0;
    for (Py_ssize_t j = 0; j < ndense; j++)
        moff[j + 1] = moff[j] + live[j];
    {
        Py_ssize_t *cursor = PyMem_New(Py_ssize_t, ndense > 0 ? ndense : 1);
        if (cursor == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        for (Py_ssize_t j = 0; j < ndense; j++)
            cursor[j] = moff[j];
        for (Py_ssize_t k = 0; k < n; k++)
            for (int s = 0; s < plen[k]; s++)
                mem[cursor[pidx[MAX_PATH * k + s]]++] = k;
        PyMem_Free(cursor);
    }

    for (Py_ssize_t j = 0; j < ndense; j++)
        shares[j] = residual[j] / (double)live[j];

    /* Progressive fill.  A single strict-`<` scan finds both min(shares)
     * and its first index — Python's min() + list.index() tie-break. */
    Py_ssize_t remaining = n;
    while (remaining) {
        double best_share = INFINITY;
        Py_ssize_t best_j = -1;
        for (Py_ssize_t j = 0; j < ndense; j++) {
            if (shares[j] < best_share) {
                best_share = shares[j];
                best_j = j;
            }
        }
        if (best_j < 0 || best_share == INFINITY)
            break;

        if (has_cap && rate_cap < best_share) {
            for (Py_ssize_t k = 0; k < n; k++)
                if (!frozen[k])
                    rate_of[k] = rate_cap;
            break;
        }

        for (Py_ssize_t m = moff[best_j]; m < moff[best_j + 1]; m++) {
            Py_ssize_t k = mem[m];
            if (frozen[k])
                continue;
            frozen[k] = 1;
            rate_of[k] = best_share;
            for (int s = 0; s < plen[k]; s++) {
                Py_ssize_t j = pidx[MAX_PATH * k + s];
                double nr = residual[j] - best_share;
                nr = nr >= 0.0 ? nr : 0.0;
                residual[j] = nr;
                Py_ssize_t lv = --live[j];
                shares[j] = lv ? nr / (double)lv : INFINITY;
            }
            remaining--;
        }
    }

    if (do_commit) {
        for (Py_ssize_t k = 0; k < n; k++) {
            double rate = rate_of[k];
            if (rate > 0.0) {
                int64_t path[MAX_PATH];
                row_path(&P, rows[k], nlinks, path);
                if (commit_path(lcap, lused, touched, path, rate) < 0)
                    goto done;
            }
        }
    }

    result = PyList_New(n);
    if (result == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *f = PyFloat_FromDouble(rate_of[k]);
        if (f == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, k, f);
    }

done:
    PyMem_Free(rows);
    PyMem_Free(link_pos);
    PyMem_Free(pidx);
    PyMem_Free(plen);
    PyMem_Free(live);
    PyMem_Free(moff);
    PyMem_Free(mem);
    PyMem_Free(residual);
    PyMem_Free(shares);
    PyMem_Free(rate_of);
    PyMem_Free(frozen);
    bufs_release(&B);
    return result;
}

/* ======================================================================
 * Session kernels (repro.simulator.session inner-loop twins)
 * ====================================================================== */

/* advance_running(running, vol, bs, rt, dt) -> None
 *   The branchless byte-accounting fast path of _advance_to. */
static PyObject *
advance_running(PyObject *self, PyObject *args)
{
    PyObject *running, *vol_o, *bs_o, *rt_o;
    double dt;
    if (!PyArg_ParseTuple(args, "OOOOd", &running, &vol_o, &bs_o, &rt_o,
                          &dt))
        return NULL;

    bufs B = {.n = 0};
    Py_ssize_t ncols;
    double *vol = bufs_get(&B, vol_o, 'd', &ncols, "table.volume");
    double *bs = vol ? bufs_get(&B, bs_o, 'd', NULL, "table.bytes_sent")
                     : NULL;
    double *rt = bs ? bufs_get(&B, rt_o, 'd', NULL, "table.rate") : NULL;
    if (rt == NULL) {
        bufs_release(&B);
        return NULL;
    }

    PyObject **keys;
    Py_ssize_t *rows;
    Py_ssize_t n = gather_rows(running, ncols, &keys, &rows);
    if (n < 0) {
        bufs_release(&B);
        return NULL;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = rows[k];
        double sent = bs[i] + rt[i] * dt;
        double volume = vol[i];
        bs[i] = sent < volume ? sent : volume;
    }
    PyMem_Free(keys);
    PyMem_Free(rows);
    bufs_release(&B);
    Py_RETURN_NONE;
}

/* advance_collect(running, vol, bs, rt, ft, dt, eps, out) -> None
 *   The candidate-collecting byte-accounting path of _advance_to.  Rows
 *   whose completion predicate fires are appended to `out`. */
static PyObject *
advance_collect(PyObject *self, PyObject *args)
{
    PyObject *running, *vol_o, *bs_o, *rt_o, *ft, *out;
    double dt, eps;
    if (!PyArg_ParseTuple(args, "OOOOOddO", &running, &vol_o, &bs_o, &rt_o,
                          &ft, &dt, &eps, &out))
        return NULL;
    if (!PyList_CheckExact(ft) || !PyList_Check(out)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time/out must be lists");
        return NULL;
    }

    bufs B = {.n = 0};
    Py_ssize_t ncols;
    double *vol = bufs_get(&B, vol_o, 'd', &ncols, "table.volume");
    double *bs = vol ? bufs_get(&B, bs_o, 'd', NULL, "table.bytes_sent")
                     : NULL;
    double *rt = bs ? bufs_get(&B, rt_o, 'd', NULL, "table.rate") : NULL;
    if (rt == NULL || PyList_GET_SIZE(ft) < ncols) {
        if (rt != NULL)
            PyErr_SetString(PyExc_ValueError,
                            "fastcore: finish_time shorter than columns");
        bufs_release(&B);
        return NULL;
    }

    PyObject **keys;
    Py_ssize_t *rows;
    Py_ssize_t n = gather_rows(running, ncols, &keys, &rows);
    if (n < 0) {
        bufs_release(&B);
        return NULL;
    }
    int err = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = rows[k];
        double rate = rt[i];
        if (rate > 0.0 && PyList_GET_ITEM(ft, i) == Py_None) {
            double volume = vol[i];
            double sent = bs[i] + rate * dt;
            if (sent > volume)
                sent = volume;
            bs[i] = sent;
            double remaining = volume - sent;
            if (remaining <= eps || remaining <= rate * 1e-8) {
                if (PyList_Append(out, keys[k]) < 0) {
                    err = 1;
                    break;
                }
            }
        }
    }
    PyMem_Free(keys);
    PyMem_Free(rows);
    bufs_release(&B);
    if (err)
        return NULL;
    Py_RETURN_NONE;
}

/* scan_candidates(running, vol, bs, rt, ft, eps) -> list[int]
 *   The zero-width-step completion scan of _process_completions. */
static PyObject *
scan_candidates(PyObject *self, PyObject *args)
{
    PyObject *running, *vol_o, *bs_o, *rt_o, *ft;
    double eps;
    if (!PyArg_ParseTuple(args, "OOOOOd", &running, &vol_o, &bs_o, &rt_o,
                          &ft, &eps))
        return NULL;
    if (!PyList_CheckExact(ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }

    bufs B = {.n = 0};
    Py_ssize_t ncols;
    double *vol = bufs_get(&B, vol_o, 'd', &ncols, "table.volume");
    double *bs = vol ? bufs_get(&B, bs_o, 'd', NULL, "table.bytes_sent")
                     : NULL;
    double *rt = bs ? bufs_get(&B, rt_o, 'd', NULL, "table.rate") : NULL;
    if (rt == NULL || PyList_GET_SIZE(ft) < ncols) {
        if (rt != NULL)
            PyErr_SetString(PyExc_ValueError,
                            "fastcore: finish_time shorter than columns");
        bufs_release(&B);
        return NULL;
    }

    PyObject **keys;
    Py_ssize_t *rows;
    Py_ssize_t n = gather_rows(running, ncols, &keys, &rows);
    if (n < 0) {
        bufs_release(&B);
        return NULL;
    }
    PyObject *raw = PyList_New(0);
    if (raw == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = rows[k];
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        double remaining = vol[i] - bs[i];
        if (remaining <= eps
            || (rt[i] > 0.0 && remaining <= rt[i] * 1e-8)) {
            if (PyList_Append(raw, keys[k]) < 0) {
                Py_CLEAR(raw);
                goto done;
            }
        }
    }
done:
    PyMem_Free(keys);
    PyMem_Free(rows);
    bufs_release(&B);
    return raw;
}

/* scan_completions(running, vol, bs, rt, ft, eps, now)
 *   -> (next_completion_or_None, no_completion_before)
 *   The completion scan of _earliest_completion. */
static PyObject *
scan_completions(PyObject *self, PyObject *args)
{
    PyObject *running, *vol_o, *bs_o, *rt_o, *ft;
    double eps, now;
    if (!PyArg_ParseTuple(args, "OOOOOdd", &running, &vol_o, &bs_o, &rt_o,
                          &ft, &eps, &now))
        return NULL;
    if (!PyList_CheckExact(ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }

    bufs B = {.n = 0};
    Py_ssize_t ncols;
    double *vol = bufs_get(&B, vol_o, 'd', &ncols, "table.volume");
    double *bs = vol ? bufs_get(&B, bs_o, 'd', NULL, "table.bytes_sent")
                     : NULL;
    double *rt = bs ? bufs_get(&B, rt_o, 'd', NULL, "table.rate") : NULL;
    if (rt == NULL || PyList_GET_SIZE(ft) < ncols) {
        if (rt != NULL)
            PyErr_SetString(PyExc_ValueError,
                            "fastcore: finish_time shorter than columns");
        bufs_release(&B);
        return NULL;
    }

    PyObject **keys;
    Py_ssize_t *rows;
    Py_ssize_t n = gather_rows(running, ncols, &keys, &rows);
    if (n < 0) {
        bufs_release(&B);
        return NULL;
    }

    PyObject *result = NULL;
    double best = INFINITY, pred_min = INFINITY;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = rows[k];
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        double remaining = vol[i] - bs[i];
        double rate = rt[i];
        if (remaining <= eps || (rate > 0.0 && remaining <= rate * 1e-8)) {
            result = Py_BuildValue("(dd)", now, now);
            goto done;
        }
        if (rate > 0.0) {
            double ttc = remaining / rate;
            if (ttc < best)
                best = ttc;
            double s8 = rate * 1e-8;
            double slack = eps > s8 ? eps : s8;
            double pred = (remaining - slack) / rate;
            if (pred < pred_min)
                pred_min = pred;
        }
    }
    {
        double ncb = isfinite(pred_min)
                         ? now + pred_min - fabs(pred_min) * 1e-12 - 1e-15
                         : INFINITY;
        if (isfinite(best))
            result = Py_BuildValue("(dd)", now + best, ncb);
        else
            result = Py_BuildValue("(Od)", Py_None, ncb);
    }
done:
    PyMem_Free(keys);
    PyMem_Free(rows);
    bufs_release(&B);
    return result;
}

/* diff_changed(new, prev) -> list[(flow_id, rate)]
 *   Entries of `new` whose rate differs from `prev` (additions included),
 *   in `new`'s insertion order — the changed-entry probe of _apply_diff. */
static PyObject *
diff_changed(PyObject *self, PyObject *args)
{
    PyObject *new, *prev;
    if (!PyArg_ParseTuple(args, "OO", &new, &prev))
        return NULL;
    if (!PyDict_Check(new) || !PyDict_Check(prev)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: rate maps must be dicts");
        return NULL;
    }
    PyObject *changed = PyList_New(0);
    if (changed == NULL)
        return NULL;
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    while (PyDict_Next(new, &pos, &k, &v)) {
        PyObject *pv = PyDict_GetItemWithError(prev, k);
        int ne;
        if (pv == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(changed);
                return NULL;
            }
            ne = 1; /* prev_get() -> None, never equal to a float rate */
        }
        else if (PyFloat_CheckExact(pv) && PyFloat_CheckExact(v)) {
            ne = PyFloat_AS_DOUBLE(pv) != PyFloat_AS_DOUBLE(v);
        }
        else {
            ne = PyObject_RichCompareBool(pv, v, Py_NE);
            if (ne < 0) {
                Py_DECREF(changed);
                return NULL;
            }
        }
        if (ne) {
            PyObject *item = PyTuple_Pack(2, k, v);
            if (item == NULL || PyList_Append(changed, item) < 0) {
                Py_XDECREF(item);
                Py_DECREF(changed);
                return NULL;
            }
            Py_DECREF(item);
        }
    }
    return changed;
}

/* Decrement counts[cid]; delete the key at zero.  Mirrors the Python
 * `left = counts[cid] - 1` (KeyError on a missing key preserved). */
static int
counts_dec(PyObject *counts, int64_t cid)
{
    PyObject *key = PyLong_FromLongLong((long long)cid);
    if (key == NULL)
        return -1;
    PyObject *cur = PyDict_GetItemWithError(counts, key);
    if (cur == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, key);
        Py_DECREF(key);
        return -1;
    }
    long long left = PyLong_AsLongLong(cur) - 1;
    if (left == -2 && PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    int r;
    if (left > 0) {
        PyObject *nv = PyLong_FromLongLong(left);
        r = nv ? PyDict_SetItem(counts, key, nv) : -1;
        Py_XDECREF(nv);
    }
    else {
        r = PyDict_DelItem(counts, key);
    }
    Py_DECREF(key);
    return r;
}

static int
counts_inc(PyObject *counts, int64_t cid)
{
    PyObject *key = PyLong_FromLongLong((long long)cid);
    if (key == NULL)
        return -1;
    PyObject *cur = PyDict_GetItemWithError(counts, key);
    if (cur == NULL && PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    long long v = 0;
    if (cur != NULL) {
        v = PyLong_AsLongLong(cur);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
    }
    PyObject *nv = PyLong_FromLongLong(v + 1);
    int r = nv ? PyDict_SetItem(counts, key, nv) : -1;
    Py_XDECREF(nv);
    Py_DECREF(key);
    return r;
}

static int
dict_pop_discard(PyObject *d, PyObject *key)
{
    int has = PyDict_Contains(d, key);
    if (has < 0)
        return -1;
    if (has)
        return PyDict_DelItem(d, key);
    return 0;
}

/* rate *= efficiency.get(flow_id, 1.0): the straggler scaling of both
 * apply paths.  -1 with an exception set on failure. */
static int
scale_by_efficiency(PyObject *efficiency, int64_t flow_id, double *rate)
{
    PyObject *f = PyLong_FromLongLong((long long)flow_id);
    if (f == NULL)
        return -1;
    PyObject *eff = PyDict_GetItemWithError(efficiency, f);
    Py_DECREF(f);
    double e = 1.0;
    if (eff != NULL) {
        e = PyFloat_AsDouble(eff);
        if (e == -1.0 && PyErr_Occurred())
            return -1;
    }
    else if (PyErr_Occurred()) {
        return -1;
    }
    *rate *= e;
    return 0;
}

/* apply_diff(dropped, changed, new, row_of, fid, cid, ft, rt, st, avail,
 *            running, counts, gated, efficiency, now)
 *   -> members_changed: bool
 *   The rate-application core of _apply_diff: zero dropped flows, then
 *   re-evaluate changed + availability-gated flows, maintaining the
 *   running set, per-coflow counts, gated membership and start times
 *   exactly as the Python loop does. */
static PyObject *
apply_diff(PyObject *self, PyObject *args)
{
    PyObject *dropped, *changed, *new, *row_of, *fid_o, *cid_o, *ft;
    PyObject *rt_o, *st, *avail_o, *running, *counts, *gated, *efficiency;
    double now;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOOd", &dropped, &changed,
                          &new, &row_of, &fid_o, &cid_o, &ft, &rt_o, &st,
                          &avail_o, &running, &counts, &gated, &efficiency,
                          &now))
        return NULL;
    if (!PyList_CheckExact(ft) || !PyList_CheckExact(st)
        || !PyList_Check(changed) || !PyDict_Check(row_of)
        || !PyDict_Check(new) || !PyDict_Check(running)
        || !PyDict_Check(counts) || !PyDict_Check(gated)
        || !PyDict_Check(efficiency)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: bad container types for apply_diff");
        return NULL;
    }

    bufs B = {.n = 0};
    Py_ssize_t ncols;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &ncols, "table.flow_id");
    int64_t *cid = fid ? bufs_get(&B, cid_o, 'q', NULL, "table.coflow_id")
                       : NULL;
    double *rt = cid ? bufs_get(&B, rt_o, 'd', NULL, "table.rate") : NULL;
    double *avail = rt ? bufs_get(&B, avail_o, 'd', NULL,
                                  "table.available_time")
                       : NULL;
    if (avail == NULL || PyList_GET_SIZE(ft) < ncols
        || PyList_GET_SIZE(st) < ncols) {
        if (avail != NULL)
            PyErr_SetString(PyExc_ValueError,
                            "fastcore: object columns shorter than table");
        bufs_release(&B);
        return NULL;
    }

    int members_changed = 0;
    PyObject *result = NULL;
    PyObject *iter = NULL;
    PyObject **gated_pairs = NULL; /* owned (fid, rate) pairs, flat */
    Py_ssize_t n_gated = 0;

    /* ---- dropped flows: zero their rate, leave the running set -------- */
    iter = PyObject_GetIter(dropped);
    if (iter == NULL)
        goto done;
    PyObject *dropped_fid;
    while ((dropped_fid = PyIter_Next(iter)) != NULL) {
        PyObject *i_obj = PyDict_GetItemWithError(row_of, dropped_fid);
        Py_DECREF(dropped_fid);
        if (i_obj == NULL) {
            if (PyErr_Occurred())
                goto done;
            continue; /* evicted with its finished coflow */
        }
        Py_ssize_t i = as_row(i_obj, ncols, "row_of");
        if (i < 0)
            goto done;
        if (PyList_GET_ITEM(ft, i) == Py_None && rt[i] != 0.0)
            rt[i] = 0.0;
        int member = PyDict_Contains(running, i_obj);
        if (member < 0)
            goto done;
        if (member) {
            if (PyDict_DelItem(running, i_obj) < 0)
                goto done;
            members_changed = 1;
            if (counts_dec(counts, cid[i]) < 0)
                goto done;
        }
        if (PyDict_GET_SIZE(gated) > 0 && dict_pop_discard(gated, i_obj) < 0)
            goto done;
    }
    Py_CLEAR(iter);
    if (PyErr_Occurred())
        goto done;

    /* ---- snapshot availability-gated flows (taken before the changed
     *      pass mutates `gated`, as in the Python twin) ---------------- */
    if (PyDict_GET_SIZE(gated) > 0) {
        Py_ssize_t ng = PyDict_GET_SIZE(gated);
        gated_pairs = PyMem_New(PyObject *, 2 * ng);
        if (gated_pairs == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        Py_ssize_t pos = 0;
        PyObject *key, *val;
        while (PyDict_Next(gated, &pos, &key, &val)) {
            Py_ssize_t i = as_row(key, ncols, "gated");
            if (i < 0)
                goto done;
            PyObject *f = PyLong_FromLongLong((long long)fid[i]);
            if (f == NULL)
                goto done;
            PyObject *r = PyDict_GetItemWithError(new, f);
            if (r == NULL) {
                if (PyErr_Occurred()) {
                    Py_DECREF(f);
                    goto done;
                }
                r = PyFloat_FromDouble(0.0);
                if (r == NULL) {
                    Py_DECREF(f);
                    goto done;
                }
            }
            else {
                Py_INCREF(r);
            }
            gated_pairs[2 * n_gated] = f;
            gated_pairs[2 * n_gated + 1] = r;
            n_gated++;
        }
    }

    /* ---- changed + gated pairs ---------------------------------------- */
    Py_ssize_t n_changed = PyList_GET_SIZE(changed);
    for (Py_ssize_t c = 0; c < n_changed + n_gated; c++) {
        PyObject *fid_obj, *rate_obj;
        if (c < n_changed) {
            PyObject *item = PyList_GET_ITEM(changed, c);
            if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 2) {
                PyErr_SetString(PyExc_TypeError,
                                "fastcore: changed items must be pairs");
                goto done;
            }
            fid_obj = PyTuple_GET_ITEM(item, 0);
            rate_obj = PyTuple_GET_ITEM(item, 1);
        }
        else {
            fid_obj = gated_pairs[2 * (c - n_changed)];
            rate_obj = gated_pairs[2 * (c - n_changed) + 1];
        }
        PyObject *i_obj = PyDict_GetItemWithError(row_of, fid_obj);
        if (i_obj == NULL) {
            if (PyErr_Occurred())
                goto done;
            continue; /* evicted with its finished coflow */
        }
        Py_ssize_t i = as_row(i_obj, ncols, "row_of");
        if (i < 0)
            goto done;
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        double rate = PyFloat_AsDouble(rate_obj);
        if (rate == -1.0 && PyErr_Occurred())
            goto done;
        if (rate > 0.0) {
            if (avail[i] > now) {
                rate = 0.0;
                if (PyDict_SetItem(gated, i_obj, Py_None) < 0)
                    goto done;
            }
            else {
                if (PyDict_GET_SIZE(gated) > 0
                    && dict_pop_discard(gated, i_obj) < 0)
                    goto done;
                if (PyDict_GET_SIZE(efficiency) > 0
                    && scale_by_efficiency(efficiency, fid[i], &rate) < 0)
                    goto done;
            }
        }
        if (rate <= 0.0)
            rate = 0.0;
        if (rate != rt[i]) {
            rt[i] = rate;
            if (rate > 0.0) {
                int member = PyDict_Contains(running, i_obj);
                if (member < 0)
                    goto done;
                if (!member) {
                    if (PyDict_SetItem(running, i_obj, Py_None) < 0)
                        goto done;
                    members_changed = 1;
                    if (counts_inc(counts, cid[i]) < 0)
                        goto done;
                }
                if (PyList_GET_ITEM(st, i) == Py_None) {
                    PyObject *t = PyFloat_FromDouble(now);
                    if (t == NULL)
                        goto done;
                    PyList_SetItem(st, i, t); /* steals t, drops None */
                }
            }
            else {
                int member = PyDict_Contains(running, i_obj);
                if (member < 0)
                    goto done;
                if (member) {
                    if (PyDict_DelItem(running, i_obj) < 0)
                        goto done;
                    members_changed = 1;
                    if (counts_dec(counts, cid[i]) < 0)
                        goto done;
                }
            }
        }
    }
    result = PyBool_FromLong(members_changed);

done:
    Py_XDECREF(iter);
    for (Py_ssize_t g = 0; g < 2 * n_gated; g++)
        Py_DECREF(gated_pairs[g]);
    PyMem_Free(gated_pairs);
    bufs_release(&B);
    return result;
}

/* rates.get(flow_id, 0.0) with a fresh Python-int key; -1.0 with an
 * exception set on failure (real rates are never negative, so the caller
 * can use the error indicator directly after PyErr_Occurred()). */
static double
rates_get(PyObject *rates, int64_t flow_id, int *err)
{
    PyObject *key = PyLong_FromLongLong((long long)flow_id);
    if (key == NULL) {
        *err = 1;
        return 0.0;
    }
    PyObject *v = PyDict_GetItemWithError(rates, key);
    Py_DECREF(key);
    if (v == NULL) {
        if (PyErr_Occurred())
            *err = 1;
        return 0.0;
    }
    double r = PyFloat_CheckExact(v) ? PyFloat_AS_DOUBLE(v)
                                     : PyFloat_AsDouble(v);
    if (r == -1.0 && PyErr_Occurred())
        *err = 1;
    return r;
}

/* apply_full_collect(row_lists, rates, fid, ft, rt, avail, gated,
 *                    efficiency, now) -> (rows, rated)
 *   The collect step of _apply_full_epoch (twin of session._collect_full):
 *   walk one row sequence per active coflow, in order, skipping finished
 *   rows.  Rows whose raw rate is positive but whose data is not yet
 *   available go into `gated` and get rate 0; available rows are scaled
 *   by their efficiency.  Rows left with a positive rate are returned with
 *   that rate, in walk order; every other row gets rate 0. */
static PyObject *
apply_full_collect(PyObject *self, PyObject *args)
{
    PyObject *row_lists, *rates, *fid_o, *ft, *rt_o, *avail_o, *gated,
             *efficiency;
    double now;
    if (!PyArg_ParseTuple(args, "OOOOOOOOd", &row_lists, &rates, &fid_o,
                          &ft, &rt_o, &avail_o, &gated, &efficiency, &now))
        return NULL;
    if (!PyDict_Check(rates) || !PyList_CheckExact(ft)
        || !PyDict_Check(gated) || !PyDict_Check(efficiency)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: bad container types for "
                        "apply_full_collect");
        return NULL;
    }

    bufs B = {.n = 0};
    PyObject *result = NULL, *outer = NULL, *inner = NULL;
    PyObject *rows = NULL, *rated = NULL;
    Py_ssize_t ncols, n2, n3;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &ncols, "table.flow_id");
    double *rt = fid ? bufs_get(&B, rt_o, 'd', &n2, "table.rate") : NULL;
    double *avail = rt ? bufs_get(&B, avail_o, 'd', &n3,
                                  "table.available_time")
                       : NULL;
    if (avail == NULL)
        goto done;
    if (n2 != ncols || n3 != ncols || PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: apply_full_collect column mismatch");
        goto done;
    }
    outer = PySequence_Fast(row_lists,
                            "fastcore: row lists must be a sequence");
    rows = PyList_New(0);
    rated = PyList_New(0);
    if (outer == NULL || rows == NULL || rated == NULL)
        goto done;
    Py_ssize_t nl = PySequence_Fast_GET_SIZE(outer);
    for (Py_ssize_t l = 0; l < nl; l++) {
        inner = PySequence_Fast(PySequence_Fast_GET_ITEM(outer, l),
                                "fastcore: rows must be a sequence");
        if (inner == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(inner);
        PyObject **items = PySequence_Fast_ITEMS(inner);
        for (Py_ssize_t k = 0; k < n; k++) {
            PyObject *i_obj = items[k];
            Py_ssize_t i = as_row(i_obj, ncols, "pending");
            if (i < 0)
                goto done;
            if (PyList_GET_ITEM(ft, i) != Py_None)
                continue;
            int err = 0;
            double rate = rates_get(rates, fid[i], &err);
            if (err)
                goto done;
            if (rate > 0.0) {
                if (avail[i] > now) {
                    rate = 0.0;
                    if (PyDict_SetItem(gated, i_obj, Py_None) < 0)
                        goto done;
                }
                else if (PyDict_GET_SIZE(efficiency) > 0
                         && scale_by_efficiency(efficiency, fid[i],
                                                &rate) < 0)
                    goto done;
            }
            if (rate > 0.0) {
                PyObject *r = PyFloat_FromDouble(rate);
                if (r == NULL)
                    goto done;
                int bad = PyList_Append(rows, i_obj) < 0
                          || PyList_Append(rated, r) < 0;
                Py_DECREF(r);
                if (bad)
                    goto done;
            }
            else {
                rt[i] = 0.0;
            }
        }
        Py_CLEAR(inner);
    }
    result = PyTuple_Pack(2, rows, rated);

done:
    Py_XDECREF(inner);
    Py_XDECREF(outer);
    Py_XDECREF(rows);
    Py_XDECREF(rated);
    bufs_release(&B);
    return result;
}

/* apply_full_commit(rows, rated, cid, rt, st, running, counts, now)
 *   -> None
 *   The commit step of _apply_full_epoch (twin of session._commit_full):
 *   write each row's rate (non-positive and NaN rates as 0.0) and add the
 *   rows left running to `running` and `counts` in pair order, stamping
 *   first start times. */
static PyObject *
apply_full_commit(PyObject *self, PyObject *args)
{
    PyObject *rows_in, *rated_in, *cid_o, *rt_o, *st, *running, *counts;
    double now;
    if (!PyArg_ParseTuple(args, "OOOOOOOd", &rows_in, &rated_in, &cid_o,
                          &rt_o, &st, &running, &counts, &now))
        return NULL;
    if (!PyList_CheckExact(st) || !PyDict_Check(running)
        || !PyDict_Check(counts)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: bad container types for "
                        "apply_full_commit");
        return NULL;
    }

    bufs B = {.n = 0};
    PyObject *result = NULL, *rows = NULL, *rated = NULL;
    Py_ssize_t ncols, n2;
    int64_t *cid = bufs_get(&B, cid_o, 'q', &ncols, "table.coflow_id");
    double *rt = cid ? bufs_get(&B, rt_o, 'd', &n2, "table.rate") : NULL;
    if (rt == NULL)
        goto done;
    if (n2 != ncols || PyList_GET_SIZE(st) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: apply_full_commit column mismatch");
        goto done;
    }
    rows = PySequence_Fast(rows_in, "fastcore: rows must be a sequence");
    rated = rows ? PySequence_Fast(rated_in,
                                   "fastcore: rates must be a sequence")
                 : NULL;
    if (rated == NULL)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(rows);
    if (PySequence_Fast_GET_SIZE(rated) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: apply_full_commit needs one rate per row");
        goto done;
    }
    PyObject **ritems = PySequence_Fast_ITEMS(rows);
    PyObject **vitems = PySequence_Fast_ITEMS(rated);
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *i_obj = ritems[k];
        Py_ssize_t i = as_row(i_obj, ncols, "commit");
        if (i < 0)
            goto done;
        double rate = PyFloat_AsDouble(vitems[k]);
        if (rate == -1.0 && PyErr_Occurred())
            goto done;
        if (!(rate > 0.0))
            rate = 0.0;
        rt[i] = rate;
        if (rate > 0.0) {
            if (PyDict_SetItem(running, i_obj, Py_None) < 0)
                goto done;
            if (counts_inc(counts, cid[i]) < 0)
                goto done;
            if (PyList_GET_ITEM(st, i) == Py_None) {
                PyObject *t = PyFloat_FromDouble(now);
                if (t == NULL)
                    goto done;
                PyList_SetItem(st, i, t); /* steals t, drops None */
            }
        }
    }
    result = Py_None;
    Py_INCREF(result);

done:
    Py_XDECREF(rows);
    Py_XDECREF(rated);
    bufs_release(&B);
    return result;
}

/* ---- Aalo round kernel ------------------------------------------------- */

/* rates[flow_id] = rates.get(flow_id, 0.0) + rate, with a Python-int key. */
static int
rate_accum(PyObject *rates, int64_t flow_id, double rate)
{
    PyObject *key = PyLong_FromLongLong((long long)flow_id);
    if (key == NULL)
        return -1;
    double base = 0.0;
    PyObject *prev = PyDict_GetItemWithError(rates, key);
    if (prev != NULL) {
        base = PyFloat_CheckExact(prev) ? PyFloat_AS_DOUBLE(prev)
                                        : PyFloat_AsDouble(prev);
        if (base == -1.0 && PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    PyObject *val = PyFloat_FromDouble(base + rate);
    if (val == NULL) {
        Py_DECREF(key);
        return -1;
    }
    int r = PyDict_SetItem(rates, key, val);
    Py_DECREF(key);
    Py_DECREF(val);
    return r;
}

/* aalo_ports(coflow_runs, weights, src, dst, link_a, link_b, fid, cid,
 *            lcap, lused, touched, rates, scheduled)
 *
 * Compiled twin of AaloScheduler._schedule_rows' bucket-and-serve core:
 * flatten the (queue, rows) coflow runs — already in (queue, FIFO) order
 * with each coflow's rows in flow-id order — into per-sender sequences
 * (CSR over the sender ports, preserving global order, which is exactly
 * the defaultdict-append order of the Python path), then serve every
 * non-empty port in ascending order with the weighted-share pass and the
 * work-conservation spill pass of _allocate_port_rows (the spill is the
 * share pass with an infinite budget per run).  Grant arithmetic over the
 * whole path (receiver, then core links), clamps, the cross-port
 * dead-receiver memo, grant order (hence rates dict insertion order) and
 * the early sender-exhausted bailout are all replicated exactly; see
 * _allocate_port_rows for the rationale of the deferred lused[port]
 * write-back. */
static PyObject *
aalo_ports(PyObject *self, PyObject *args)
{
    PyObject *runs_in, *weights, *src_o, *dst_o, *la_o, *lb_o, *fid_o,
             *cid_o, *lcap_o, *lused_o, *touched, *rates, *scheduled;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOO", &runs_in, &weights,
                          &src_o, &dst_o, &la_o, &lb_o, &fid_o, &cid_o,
                          &lcap_o, &lused_o, &touched, &rates, &scheduled))
        return NULL;

    bufs B = {0};
    pathcols P;
    PyObject *result = NULL;
    PyObject *runs_fast = NULL;
    PyObject *wfast = NULL;
    PyObject **row_fasts = NULL;
    int *run_queue = NULL;
    Py_ssize_t *g_row = NULL, *off = NULL, *cur = NULL, *p_row = NULL;
    int *g_queue = NULL, *p_queue = NULL;
    double *wq = NULL;
    char *dead = NULL;
    Py_ssize_t nruns = 0;

    Py_ssize_t n3, n4, nports, nused;
    if (pathcols_get(&B, &P, src_o, dst_o, la_o, lb_o) < 0)
        goto done;
    Py_ssize_t ncols = P.n;
    int64_t *src = P.src;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &n3, "flow_id");
    int64_t *cid = fid ? bufs_get(&B, cid_o, 'q', &n4, "coflow_id") : NULL;
    double *lcap = cid ? bufs_get(&B, lcap_o, 'd', &nports, "capacity")
                       : NULL;
    double *lused = lcap ? bufs_get(&B, lused_o, 'd', &nused, "used") : NULL;
    if (lused == NULL)
        goto done;
    if (n3 != ncols || n4 != ncols || nused != nports) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: aalo_ports column/ledger length mismatch");
        goto done;
    }

    wfast = PySequence_Fast(weights,
                            "fastcore: queue weights must be a sequence");
    if (wfast == NULL)
        goto done;
    Py_ssize_t nq = PySequence_Fast_GET_SIZE(wfast);
    wq = PyMem_New(double, nq > 0 ? nq : 1);
    if (wq == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < nq; i++) {
        wq[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(wfast, i));
        if (wq[i] == -1.0 && PyErr_Occurred())
            goto done;
    }

    runs_fast = PySequence_Fast(runs_in,
                                "fastcore: coflow runs must be a sequence");
    if (runs_fast == NULL)
        goto done;
    nruns = PySequence_Fast_GET_SIZE(runs_fast);
    row_fasts = PyMem_New(PyObject *, nruns > 0 ? nruns : 1);
    run_queue = PyMem_New(int, nruns > 0 ? nruns : 1);
    if (row_fasts == NULL || run_queue == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t r = 0; r < nruns; r++)
        row_fasts[r] = NULL;
    Py_ssize_t total = 0;
    for (Py_ssize_t r = 0; r < nruns; r++) {
        PyObject *item = PySequence_Fast_GET_ITEM(runs_fast, r);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "fastcore: coflow run must be (queue, rows)");
            goto done;
        }
        long q = PyLong_AsLong(PyTuple_GET_ITEM(item, 0));
        if (q == -1 && PyErr_Occurred())
            goto done;
        if (q < 0 || q >= nq) {
            PyErr_Format(PyExc_IndexError,
                         "fastcore: queue %ld out of range [0, %zd)",
                         q, nq);
            goto done;
        }
        run_queue[r] = (int)q;
        row_fasts[r] = PySequence_Fast(PyTuple_GET_ITEM(item, 1),
                                       "fastcore: rows must be a sequence");
        if (row_fasts[r] == NULL)
            goto done;
        total += PySequence_Fast_GET_SIZE(row_fasts[r]);
    }

    g_row = PyMem_New(Py_ssize_t, total > 0 ? total : 1);
    g_queue = PyMem_New(int, total > 0 ? total : 1);
    off = PyMem_New(Py_ssize_t, nports + 1);
    cur = PyMem_New(Py_ssize_t, nports > 0 ? nports : 1);
    p_row = PyMem_New(Py_ssize_t, total > 0 ? total : 1);
    p_queue = PyMem_New(int, total > 0 ? total : 1);
    dead = PyMem_New(char, nports > 0 ? nports : 1);
    if (g_row == NULL || g_queue == NULL || off == NULL || cur == NULL
        || p_row == NULL || p_queue == NULL || dead == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memset(dead, 0, (size_t)(nports > 0 ? nports : 1));
    for (Py_ssize_t p = 0; p <= nports; p++)
        off[p] = 0;

    Py_ssize_t N = 0;
    for (Py_ssize_t r = 0; r < nruns; r++) {
        Py_ssize_t nr = PySequence_Fast_GET_SIZE(row_fasts[r]);
        PyObject **items = PySequence_Fast_ITEMS(row_fasts[r]);
        for (Py_ssize_t k = 0; k < nr; k++) {
            Py_ssize_t i = as_row(items[k], ncols, "aalo");
            if (i < 0)
                goto done;
            int64_t s = src[i];
            if (s < 0 || s >= nports) {
                PyErr_Format(PyExc_IndexError,
                             "fastcore: sender port %lld out of range",
                             (long long)s);
                goto done;
            }
            g_row[N] = i;
            g_queue[N] = run_queue[r];
            off[s + 1]++;
            N++;
        }
    }
    for (Py_ssize_t p = 0; p < nports; p++) {
        off[p + 1] += off[p];
        cur[p] = off[p];
    }
    for (Py_ssize_t k = 0; k < N; k++) {
        int64_t s = src[g_row[k]];
        Py_ssize_t idx = cur[s]++;
        p_row[idx] = g_row[k];
        p_queue[idx] = g_queue[k];
    }

    for (Py_ssize_t p = 0; p < nports; p++) {
        Py_ssize_t lo = off[p], hi = off[p + 1];
        if (lo == hi)
            continue;
        double cap_src = lcap[p];
        double used_src = lused[p];
        double port_capacity = cap_src - used_src;
        if (port_capacity <= 0.0)
            continue;
        /* total_weight: one addend per run, in run order. */
        double tw = 0.0;
        for (Py_ssize_t k = lo; k < hi; ) {
            int q = p_queue[k];
            tw += wq[q];
            do
                k++;
            while (k < hi && p_queue[k] == q);
        }

        /* Pass 0: each occupied queue spends its weighted share, FIFO.
         * Pass 1 (work conservation): spill in strict priority+FIFO —
         * the same walk with an infinite budget per run. */
        for (int pass = 0; pass < 2; pass++) {
            for (Py_ssize_t k = lo; k < hi; ) {
                int q = p_queue[k];
                Py_ssize_t end = k;
                do
                    end++;
                while (end < hi && p_queue[end] == q);
                double budget = pass == 0 ? port_capacity * wq[q] / tw
                                          : INFINITY;
                for (; k < end; k++) {
                    if (budget <= 0.0)
                        break;
                    double rate = cap_src - used_src;
                    if (rate <= 0.0) {      /* sender port exhausted */
                        lused[p] = used_src;
                        goto next_port;
                    }
                    int64_t path[MAX_PATH];
                    if (row_path(&P, p_row[k], nports, path) < 0)
                        goto done;
                    int64_t d = path[1];
                    if (dead[d])
                        continue;
                    double cap_dst = lcap[d];
                    for (int s = 1; s < MAX_PATH && path[s] >= 0; s++) {
                        double other = lcap[path[s]] - lused[path[s]];
                        if (other < rate)
                            rate = other;
                    }
                    if (budget < rate)
                        rate = budget;
                    if (rate <= 0.0) {
                        /* only an exhausted receiver is memoised */
                        if (cap_dst - lused[d] <= 0.0)
                            dead[d] = 1;
                        continue;
                    }
                    double nu = used_src + rate;
                    used_src = nu < cap_src ? nu : cap_src;
                    if (set_add_port(touched, (int64_t)p) < 0)
                        goto done;
                    for (int s = 1; s < MAX_PATH && path[s] >= 0; s++) {
                        int64_t link = path[s];
                        double link_cap = lcap[link];
                        nu = lused[link] + rate;
                        lused[link] = nu < link_cap ? nu : link_cap;
                        if (set_add_port(touched, link) < 0)
                            goto done;
                    }
                    budget -= rate;
                    if (rate_accum(rates, fid[p_row[k]], rate) < 0)
                        goto done;
                    if (set_add_port(scheduled, cid[p_row[k]]) < 0)
                        goto done;
                }
                k = end;
            }
        }
        lused[p] = used_src;
    next_port:;
    }

    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(dead);
    PyMem_Free(p_queue);
    PyMem_Free(p_row);
    PyMem_Free(cur);
    PyMem_Free(off);
    PyMem_Free(g_queue);
    PyMem_Free(g_row);
    PyMem_Free(wq);
    PyMem_Free(run_queue);
    if (row_fasts != NULL)
        for (Py_ssize_t r = 0; r < nruns; r++)
            Py_XDECREF(row_fasts[r]);
    PyMem_Free(row_fasts);
    Py_XDECREF(runs_fast);
    Py_XDECREF(wfast);
    bufs_release(&B);
    return result;
}

/* ---- scheduling-round kernels ------------------------------------------ */

/* A growable array of row indices. */
typedef struct {
    Py_ssize_t *v;
    Py_ssize_t n, cap;
} rowvec;

static int
rowvec_reserve(rowvec *R, Py_ssize_t extra)
{
    if (R->n + extra <= R->cap)
        return 0;
    Py_ssize_t cap = R->cap > 0 ? R->cap : 64;
    while (cap < R->n + extra)
        cap *= 2;
    Py_ssize_t *v = PyMem_Realloc(R->v, (size_t)cap * sizeof(Py_ssize_t));
    if (v == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    R->v = v;
    R->cap = cap;
    return 0;
}

/* One call of saath_round or madd_round: its arguments, the buffers behind
 * them and per-link scratch.  `count` is all zero between coflows; an
 * admission step that sets entries resets them through `links`, the list
 * of the links it set, in first-seen order. */
typedef struct round_ctx round_ctx;

/* Admit one coflow over its schedulable rows `sched`: on success store
 * each granted rate in rates[fid], commit it on the row's path, add the
 * coflow to `scheduled` and return 1; return 0 to leave the rows to the
 * work-conservation fill, -1 on error. */
typedef int (*admit_fn)(round_ctx *R, const Py_ssize_t *sched, Py_ssize_t m);

struct round_ctx {
    /* arguments (vol_o and bs_o stay NULL for saath_round) */
    PyObject *runs, *ft, *avail_o, *vol_o, *bs_o, *src_o, *dst_o, *la_o,
             *lb_o, *fid_o, *cid_o, *lcap_o, *lused_o, *touched, *rates,
             *scheduled, *conserved;
    double now, min_rate;
    int respect, work_conservation;
    /* the buffers behind them */
    pathcols P;
    double *avail, *vol, *bs, *lcap, *lused;
    int64_t *fid, *cid;
    Py_ssize_t nlinks;
    /* per-link scratch */
    Py_ssize_t *count;
    int64_t *links;
    double *lbytes;
};

static int
store_rate(PyObject *rates, int64_t flow_id, PyObject *rate)
{
    PyObject *key = PyLong_FromLongLong((long long)flow_id);
    int r = key ? PyDict_SetItem(rates, key, rate) : -1;
    Py_XDECREF(key);
    return r;
}

/* The work-conservation fill of greedy_residual_rates_rows.  Walk `rows`
 * (already bounds-checked) in order, skipping finished ones, and grant
 * each the smallest residual along its path, committed on every path
 * link.  Links seen exhausted are memoised: residuals only shrink within
 * the walk, so a row crossing one would get the zero-rate no-op anyway.
 * Each positive grant is stored in rates[fid] and the row's coflow id
 * joins `conserved`. */
static int
greedy_fill(round_ctx *R, const Py_ssize_t *rows, Py_ssize_t n)
{
    Py_ssize_t nlinks = R->nlinks;
    double *lcap = R->lcap, *lused = R->lused;
    char *dead = PyMem_New(char, nlinks > 0 ? nlinks : 1);
    if (dead == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(dead, 0, (size_t)(nlinks > 0 ? nlinks : 1));
    int rc = -1;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = rows[k];
        if (PyList_GET_ITEM(R->ft, i) != Py_None)
            continue;
        int64_t path[MAX_PATH];
        int np = row_path(&R->P, i, nlinks, path);
        if (np < 0)
            goto done;
        double rate = INFINITY;
        int s;
        for (s = 0; s < np; s++) {
            int64_t link = path[s];
            if (dead[link])
                break;
            double other = lcap[link] - lused[link];
            if (other < rate)
                rate = other;
        }
        if (s < np)
            continue; /* crosses an exhausted link: a zero-rate no-op */
        if (rate > 0.0) {
            for (s = 0; s < np; s++) {
                lused[path[s]] += rate;
                if (set_add_port(R->touched, path[s]) < 0)
                    goto done;
            }
            PyObject *val = PyFloat_FromDouble(rate);
            int r = val ? store_rate(R->rates, R->fid[i], val) : -1;
            Py_XDECREF(val);
            if (r < 0 || set_add_port(R->conserved, R->cid[i]) < 0)
                goto done;
        }
        else {
            for (s = 0; s < np; s++)
                if (lcap[path[s]] - lused[path[s]] <= 0.0)
                    dead[path[s]] = 1;
        }
    }
    rc = 0;
done:
    PyMem_Free(dead);
    return rc;
}

/* Saath's all-or-none admission and D2 equal rate
 * (SaathScheduler._admissible_rows, then equal_rate_for_coflow_rows).
 * Admission needs capacity - used >= min_rate on every link of every row's
 * path.  The rate is the minimum over the links of the unfinished rows'
 * paths of max(capacity - used, 0) / count, where count is the number of
 * unfinished rows crossing the link.  On a finite positive rate every
 * unfinished row gets it. */
static int
saath_admit(round_ctx *R, const Py_ssize_t *sched, Py_ssize_t m)
{
    double *lcap = R->lcap, *lused = R->lused;
    Py_ssize_t *count = R->count;
    int64_t path[MAX_PATH];
    for (Py_ssize_t k = 0; k < m; k++) {
        int np = row_path(&R->P, sched[k], R->nlinks, path);
        if (np < 0)
            return -1;
        for (int s = 0; s < np; s++)
            if (lcap[path[s]] - lused[path[s]] < R->min_rate)
                return 0;
    }

    Py_ssize_t nl = 0, first = -1;
    for (Py_ssize_t k = 0; k < m; k++) {
        if (PyList_GET_ITEM(R->ft, sched[k]) != Py_None)
            continue;
        if (first < 0)
            first = sched[k];
        int np = row_path(&R->P, sched[k], R->nlinks, path);
        for (int s = 0; s < np; s++)
            if (count[path[s]]++ == 0)
                R->links[nl++] = path[s];
    }
    /* the min over the same set of caps is the same float in any order */
    double rate = INFINITY;
    for (Py_ssize_t o = 0; o < nl; o++) {
        int64_t link = R->links[o];
        double r = lcap[link] - lused[link];
        double cap = (r >= 0.0 ? r : 0.0) / (double)count[link];
        if (cap < rate)
            rate = cap;
        count[link] = 0;
    }
    if (first < 0 || !isfinite(rate) || rate <= 0.0)
        return 0;

    PyObject *rate_obj = PyFloat_FromDouble(rate);
    if (rate_obj == NULL)
        return -1;
    int rc = -1;
    for (Py_ssize_t k = 0; k < m; k++) {
        Py_ssize_t i = sched[k];
        if (PyList_GET_ITEM(R->ft, i) != Py_None)
            continue;
        if (store_rate(R->rates, R->fid[i], rate_obj) < 0)
            goto done;
        row_path(&R->P, i, R->nlinks, path);
        if (commit_path(lcap, lused, R->touched, path, rate) < 0)
            goto done;
    }
    rc = set_add_port(R->scheduled, R->cid[first]) < 0 ? -1 : 1;
done:
    Py_DECREF(rate_obj);
    return rc;
}

/* MADD (madd_rates_rows): over the unfinished rows with volume -
 * bytes_sent > 0, sum those bytes per path link in first-seen order; Γ is
 * the largest bytes / (capacity - used), and each row gets remaining / Γ.
 * A link with capacity - used <= 0, Γ <= 0 or no such row leaves the
 * coflow out. */
static int
madd_admit(round_ctx *R, const Py_ssize_t *sched, Py_ssize_t m)
{
    double *lcap = R->lcap, *lused = R->lused, *lbytes = R->lbytes;
    Py_ssize_t *count = R->count;
    int64_t path[MAX_PATH];
    Py_ssize_t nl = 0, first = -1;
    for (Py_ssize_t k = 0; k < m; k++) {
        Py_ssize_t i = sched[k];
        if (PyList_GET_ITEM(R->ft, i) != Py_None)
            continue;
        double remaining = R->vol[i] - R->bs[i];
        if (remaining <= 0.0)
            continue;
        if (first < 0)
            first = i;
        int np = row_path(&R->P, i, R->nlinks, path);
        if (np < 0)
            return -1;
        for (int s = 0; s < np; s++) {
            int64_t link = path[s];
            if (count[link]++ == 0) {
                R->links[nl++] = link;
                lbytes[link] = remaining;
            }
            else {
                lbytes[link] += remaining;
            }
        }
    }
    double gamma = 0.0;
    int blocked = 0;
    for (Py_ssize_t o = 0; o < nl; o++) {
        int64_t link = R->links[o];
        count[link] = 0;
        double residual = lcap[link] - lused[link];
        if (residual <= 0.0) {
            blocked = 1;
            continue;
        }
        double share = lbytes[link] / residual;
        if (share > gamma)
            gamma = share;
    }
    if (first < 0 || blocked || gamma <= 0.0)
        return 0;

    for (Py_ssize_t k = 0; k < m; k++) {
        Py_ssize_t i = sched[k];
        if (PyList_GET_ITEM(R->ft, i) != Py_None)
            continue;
        double remaining = R->vol[i] - R->bs[i];
        if (remaining <= 0.0)
            continue;
        double rate = remaining / gamma;
        PyObject *val = PyFloat_FromDouble(rate);
        int r = val ? store_rate(R->rates, R->fid[i], val) : -1;
        Py_XDECREF(val);
        if (r < 0)
            return -1;
        row_path(&R->P, i, R->nlinks, path);
        if (commit_path(lcap, lused, R->touched, path, rate) < 0)
            return -1;
    }
    return set_add_port(R->scheduled, R->cid[first]) < 0 ? -1 : 1;
}

/* The round shared by saath_round and madd_round.  R->runs holds each
 * coflow's pending rows, in scheduling order.  A row is schedulable when
 * its data is available (available_time <= now), or always when
 * respect_availability is off: the set ClusterState.schedulable_rows
 * returns.  Each coflow with schedulable rows goes through `admit`; with
 * work conservation on, the rows of every coflow it leaves out are then
 * filled, in that order, by greedy_fill.  So `rates` fills coflow by
 * coflow in scheduling order, then with the fill's grants in row order,
 * as in Python. */
static PyObject *
run_round(round_ctx *R, admit_fn admit)
{
    if (!PyList_CheckExact(R->ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }
    bufs B = {0};
    PyObject *result = NULL, *runs = NULL;
    /* Each coflow's schedulable rows are appended here; an admitted
     * coflow's are dropped again, so the left-out rows stay in order. */
    rowvec missed = {0};

    if (pathcols_get(&B, &R->P, R->src_o, R->dst_o, R->la_o, R->lb_o) < 0)
        goto done;
    Py_ssize_t ncols = R->P.n, n5, n6, n7, nused, n8 = ncols, n9 = ncols;
    R->avail = bufs_get(&B, R->avail_o, 'd', &n5, "available_time");
    R->fid = R->avail ? bufs_get(&B, R->fid_o, 'q', &n6, "flow_id") : NULL;
    R->cid = R->fid ? bufs_get(&B, R->cid_o, 'q', &n7, "coflow_id") : NULL;
    R->lcap = R->cid ? bufs_get(&B, R->lcap_o, 'd', &R->nlinks,
                                "capacity_list") : NULL;
    R->lused = R->lcap ? bufs_get(&B, R->lused_o, 'd', &nused, "used_list")
                       : NULL;
    if (R->lused == NULL)
        goto done;
    if (R->vol_o != NULL) {
        R->vol = bufs_get(&B, R->vol_o, 'd', &n8, "volume");
        R->bs = R->vol ? bufs_get(&B, R->bs_o, 'd', &n9, "bytes_sent") : NULL;
        if (R->bs == NULL)
            goto done;
    }
    if (n5 != ncols || n6 != ncols || n7 != ncols || n8 != ncols
        || n9 != ncols || nused != R->nlinks
        || PyList_GET_SIZE(R->ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: round column/ledger length mismatch");
        goto done;
    }
    Py_ssize_t nl1 = R->nlinks > 0 ? R->nlinks : 1;
    R->count = PyMem_New(Py_ssize_t, nl1);
    R->links = PyMem_New(int64_t, nl1);
    R->lbytes = PyMem_New(double, nl1);
    if (!R->count || !R->links || !R->lbytes) {
        PyErr_NoMemory();
        goto done;
    }
    memset(R->count, 0, (size_t)nl1 * sizeof(Py_ssize_t));

    runs = PySequence_Fast(R->runs, "fastcore: coflow rows must be a sequence");
    if (runs == NULL)
        goto done;
    Py_ssize_t nruns = PySequence_Fast_GET_SIZE(runs);
    for (Py_ssize_t r = 0; r < nruns; r++) {
        PyObject *fast = PySequence_Fast(PySequence_Fast_GET_ITEM(runs, r),
                                         "fastcore: rows must be a sequence");
        if (fast == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        PyObject **items = PySequence_Fast_ITEMS(fast);
        if (rowvec_reserve(&missed, n) < 0) {
            Py_DECREF(fast);
            goto done;
        }
        Py_ssize_t start = missed.n;
        for (Py_ssize_t k = 0; k < n; k++) {
            Py_ssize_t i = as_row(items[k], ncols, "round");
            if (i < 0) {
                Py_DECREF(fast);
                goto done;
            }
            if (!R->respect || R->avail[i] <= R->now)
                missed.v[missed.n++] = i;
        }
        Py_DECREF(fast);
        Py_ssize_t m = missed.n - start;
        if (m == 0)
            continue;
        int st = admit(R, missed.v + start, m);
        if (st < 0)
            goto done;
        if (st == 1)
            missed.n = start;
    }
    if (R->work_conservation && missed.n > 0
        && greedy_fill(R, missed.v, missed.n) < 0)
        goto done;
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(R->lbytes);
    PyMem_Free(R->links);
    PyMem_Free(R->count);
    PyMem_Free(missed.v);
    Py_XDECREF(runs);
    bufs_release(&B);
    return result;
}

/* saath_round(coflow_rows, now, respect_availability, min_rate,
 *             work_conservation, ft, avail, src, dst, link_a, link_b, fid,
 *             cid, lcap, lused, touched, rates, scheduled,
 *             work_conserved) -> None
 *
 * Compiled twin of SaathScheduler._round_rows: run_round with Saath's
 * admission, work conservation per its switch. */
static PyObject *
saath_round(PyObject *self, PyObject *args)
{
    round_ctx R = {0};
    if (!PyArg_ParseTuple(args, "OdpdpOOOOOOOOOOOOOO", &R.runs, &R.now,
                          &R.respect, &R.min_rate, &R.work_conservation,
                          &R.ft, &R.avail_o, &R.src_o, &R.dst_o, &R.la_o,
                          &R.lb_o, &R.fid_o, &R.cid_o, &R.lcap_o, &R.lused_o,
                          &R.touched, &R.rates, &R.scheduled, &R.conserved))
        return NULL;
    return run_round(&R, saath_admit);
}

/* madd_round(coflow_rows, now, respect_availability, ft, avail, vol, bs,
 *            src, dst, link_a, link_b, fid, cid, lcap, lused, touched,
 *            rates, scheduled, work_conserved) -> None
 *
 * Compiled twin of repro.schedulers.varys.madd_round, the round of every
 * clairvoyant policy: run_round with MADD admission, then the greedy
 * backfill. */
static PyObject *
madd_round(PyObject *self, PyObject *args)
{
    round_ctx R = {.work_conservation = 1};
    if (!PyArg_ParseTuple(args, "OdpOOOOOOOOOOOOOOOO", &R.runs, &R.now,
                          &R.respect, &R.ft, &R.avail_o, &R.vol_o, &R.bs_o,
                          &R.src_o, &R.dst_o, &R.la_o, &R.lb_o, &R.fid_o,
                          &R.cid_o, &R.lcap_o, &R.lused_o, &R.touched,
                          &R.rates, &R.scheduled, &R.conserved))
        return NULL;
    return run_round(&R, madd_admit);
}

/* sebf_gammas(row_lists, ft, vol, bs, src, dst, lcap) -> list[float]
 *
 * VarysSebfScheduler._compute_gamma of each coflow: per port, the sum of
 * max(volume - bytes_sent, 0) over the unfinished rows, in row order from
 * 0.0; Γ is the largest load / capacity over the ports in first-seen order
 * (inf where capacity <= 0), or 0.0 for a coflow with no unfinished row. */
static PyObject *
sebf_gammas(PyObject *self, PyObject *args)
{
    PyObject *lists_in, *ft, *vol_o, *bs_o, *src_o, *dst_o, *lcap_o;
    if (!PyArg_ParseTuple(args, "OOOOOOO", &lists_in, &ft, &vol_o, &bs_o,
                          &src_o, &dst_o, &lcap_o))
        return NULL;
    if (!PyList_CheckExact(ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }

    bufs B = {0};
    PyObject *result = NULL, *lists = NULL, *out = NULL;
    double *load = NULL;
    int64_t *ports = NULL;
    char *seen = NULL;
    Py_ssize_t ncols, n2, n3, n4, nports;
    double *vol = bufs_get(&B, vol_o, 'd', &ncols, "volume");
    double *bs = vol ? bufs_get(&B, bs_o, 'd', &n2, "bytes_sent") : NULL;
    int64_t *src = bs ? bufs_get(&B, src_o, 'q', &n3, "src") : NULL;
    int64_t *dst = src ? bufs_get(&B, dst_o, 'q', &n4, "dst") : NULL;
    double *lcap = dst ? bufs_get(&B, lcap_o, 'd', &nports, "capacity_list")
                       : NULL;
    if (lcap == NULL)
        goto done;
    if (n2 != ncols || n3 != ncols || n4 != ncols
        || PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: sebf_gammas column mismatch");
        goto done;
    }
    Py_ssize_t np1 = nports > 0 ? nports : 1;
    load = PyMem_New(double, np1);
    ports = PyMem_New(int64_t, np1);
    seen = PyMem_New(char, np1);
    if (!load || !ports || !seen) {
        PyErr_NoMemory();
        goto done;
    }
    memset(seen, 0, (size_t)np1);
    lists = PySequence_Fast(lists_in, "fastcore: row lists must be a sequence");
    if (lists == NULL)
        goto done;
    Py_ssize_t nlists = PySequence_Fast_GET_SIZE(lists);
    out = PyList_New(nlists);
    if (out == NULL)
        goto done;
    for (Py_ssize_t c = 0; c < nlists; c++) {
        PyObject *fast = PySequence_Fast(PySequence_Fast_GET_ITEM(lists, c),
                                         "fastcore: rows must be a sequence");
        if (fast == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        PyObject **items = PySequence_Fast_ITEMS(fast);
        Py_ssize_t nseen = 0;
        for (Py_ssize_t k = 0; k < n; k++) {
            Py_ssize_t i = as_row(items[k], ncols, "gamma");
            if (i < 0) {
                Py_DECREF(fast);
                goto done;
            }
            if (PyList_GET_ITEM(ft, i) != Py_None)
                continue;
            double remaining = vol[i] - bs[i];
            if (remaining < 0.0)
                remaining = 0.0;
            int64_t pair[2] = {src[i], dst[i]};
            for (int s = 0; s < 2; s++) {
                int64_t p = pair[s];
                if ((uint64_t)p >= (uint64_t)nports) {
                    Py_DECREF(fast);
                    PyErr_Format(PyExc_IndexError,
                                 "fastcore: port %lld out of range [0, %zd)",
                                 (long long)p, nports);
                    goto done;
                }
                if (!seen[p]) {
                    seen[p] = 1;
                    ports[nseen++] = p;
                    load[p] = 0.0;
                }
                load[p] += remaining;
            }
        }
        Py_DECREF(fast);
        double gamma = 0.0;
        for (Py_ssize_t o = 0; o < nseen; o++) {
            int64_t p = ports[o];
            seen[p] = 0;
            double share = lcap[p] > 0.0 ? load[p] / lcap[p] : INFINITY;
            if (share > gamma)
                gamma = share;
        }
        PyObject *v = PyFloat_FromDouble(gamma);
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(out, c, v);
    }
    result = out;
    out = NULL;

done:
    Py_XDECREF(out);
    Py_XDECREF(lists);
    PyMem_Free(load);
    PyMem_Free(ports);
    PyMem_Free(seen);
    bufs_release(&B);
    return result;
}

/* ---- queue-transition and positive-rate helpers ------------------------ */

/* total_rate_rows(rows, fid, ft, rates) -> float
 *
 * QueueTracker.next_transition_time's "total" row branch: the summed rate
 * of the coflow's unfinished rows, in row order (same addition order as
 * the Python listcomp+sum). */
static PyObject *
total_rate_rows(PyObject *self, PyObject *args)
{
    PyObject *rows_in, *fid_o, *ft, *rates;
    if (!PyArg_ParseTuple(args, "OOOO", &rows_in, &fid_o, &ft, &rates))
        return NULL;

    bufs B = {0};
    PyObject *result = NULL, *fast = NULL;
    Py_ssize_t ncols;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &ncols, "flow_id");
    if (fid == NULL)
        goto done;
    if (!PyList_Check(ft) || PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list spanning "
                        "the table columns");
        goto done;
    }
    fast = PySequence_Fast(rows_in, "fastcore: rows must be a sequence");
    if (fast == NULL)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    double acc = 0.0;
    int err = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = as_row(items[k], ncols, "transition");
        if (i < 0)
            goto done;
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        acc += rates_get(rates, fid[i], &err);
        if (err)
            goto done;
    }
    result = PyFloat_FromDouble(acc);

done:
    Py_XDECREF(fast);
    bufs_release(&B);
    return result;
}

/* per_flow_transitions(pairs, fid, ft, vol, bs, rates) -> float
 *
 * The earliest per-flow threshold crossing over several coflows, each given
 * as a (rows, per_flow_hi) pair: the minimum over the pairs of
 * QueueTracker.next_transition_time's "perflow" row scan, seconds until
 * the first flow crosses per_flow_hi (inf when none will).  Same scan
 * order and comparisons as the Python loop; an immediate transition (0.0)
 * ends the whole scan, since no crossing comes earlier. */
static PyObject *
per_flow_transitions(PyObject *self, PyObject *args)
{
    PyObject *pairs_in, *fid_o, *ft, *vol_o, *bs_o, *rates;
    if (!PyArg_ParseTuple(args, "OOOOOO", &pairs_in, &fid_o, &ft, &vol_o,
                          &bs_o, &rates))
        return NULL;

    bufs B = {0};
    PyObject *result = NULL, *pairs = NULL;
    Py_ssize_t ncols, n2, n3;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &ncols, "flow_id");
    double *vol = fid ? bufs_get(&B, vol_o, 'd', &n2, "volume") : NULL;
    double *bs = vol ? bufs_get(&B, bs_o, 'd', &n3, "bytes_sent") : NULL;
    if (bs == NULL)
        goto done;
    if (n2 != ncols || n3 != ncols
        || !PyList_Check(ft) || PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: per_flow_transitions column mismatch");
        goto done;
    }
    pairs = PySequence_Fast(pairs_in, "fastcore: pairs must be a sequence");
    if (pairs == NULL)
        goto done;
    Py_ssize_t npairs = PySequence_Fast_GET_SIZE(pairs);
    double best = Py_HUGE_VAL;
    int err = 0;
    for (Py_ssize_t p = 0; p < npairs; p++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(pairs, p);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "fastcore: pair must be (rows, per_flow_hi)");
            goto done;
        }
        double hi = PyFloat_AsDouble(PyTuple_GET_ITEM(pair, 1));
        if (hi == -1.0 && PyErr_Occurred())
            goto done;
        PyObject *fast = PySequence_Fast(PyTuple_GET_ITEM(pair, 0),
                                         "fastcore: rows must be a sequence");
        if (fast == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        PyObject **items = PySequence_Fast_ITEMS(fast);
        for (Py_ssize_t k = 0; k < n; k++) {
            Py_ssize_t i = as_row(items[k], ncols, "transition");
            if (i < 0) {
                Py_DECREF(fast);
                goto done;
            }
            if (PyList_GET_ITEM(ft, i) != Py_None)
                continue;
            double rate = rates_get(rates, fid[i], &err);
            if (err) {
                Py_DECREF(fast);
                goto done;
            }
            if (rate <= 0.0)
                continue;
            double reachable = vol[i] < hi ? vol[i] : hi;
            if (reachable <= bs[i]) {
                if (bs[i] >= hi) {
                    Py_DECREF(fast);
                    result = PyFloat_FromDouble(0.0);
                    goto done;
                }
                continue;
            }
            if (hi <= vol[i]) {
                double cand = (hi - bs[i]) / rate;
                if (cand < best)
                    best = cand;
            }
        }
        Py_DECREF(fast);
    }
    result = PyFloat_FromDouble(best);

done:
    Py_XDECREF(pairs);
    bufs_release(&B);
    return result;
}

/* max_bytes_sent(row_lists, bs) -> list[float]
 *
 * Saath's queue metric m_c (D3) of each coflow: max(bytes_sent) over all
 * of its rows, finished ones included, or 0.0 for none (the row branch of
 * CoFlow.max_flow_bytes_sent; the same `>` scan keeps the first maximal
 * value, as Python's max does). */
static PyObject *
max_bytes_sent(PyObject *self, PyObject *args)
{
    PyObject *lists_in, *bs_o;
    if (!PyArg_ParseTuple(args, "OO", &lists_in, &bs_o))
        return NULL;

    bufs B = {0};
    PyObject *result = NULL, *lists = NULL, *out = NULL;
    Py_ssize_t ncols;
    double *bs = bufs_get(&B, bs_o, 'd', &ncols, "bytes_sent");
    if (bs == NULL)
        goto done;
    lists = PySequence_Fast(lists_in, "fastcore: row lists must be a sequence");
    if (lists == NULL)
        goto done;
    Py_ssize_t nlists = PySequence_Fast_GET_SIZE(lists);
    out = PyList_New(nlists);
    if (out == NULL)
        goto done;
    for (Py_ssize_t c = 0; c < nlists; c++) {
        PyObject *fast = PySequence_Fast(PySequence_Fast_GET_ITEM(lists, c),
                                         "fastcore: rows must be a sequence");
        if (fast == NULL)
            goto done;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        PyObject **items = PySequence_Fast_ITEMS(fast);
        double m = 0.0;
        for (Py_ssize_t k = 0; k < n; k++) {
            Py_ssize_t i = as_row(items[k], ncols, "metric");
            if (i < 0) {
                Py_DECREF(fast);
                goto done;
            }
            if (k == 0 || bs[i] > m)
                m = bs[i];
        }
        Py_DECREF(fast);
        PyObject *v = PyFloat_FromDouble(m);
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(out, c, v);
    }
    result = out;
    out = NULL;

done:
    Py_XDECREF(out);
    Py_XDECREF(lists);
    bufs_release(&B);
    return result;
}

/* positive_rows(active, rate_of, fid, cid, rates, scheduled) -> None
 *
 * UcTcpScheduler.schedule's positive-rate gather: for every (row, rate)
 * pair with rate > 0, store the *same* rate object under the row's
 * flow id and mark its coflow scheduled, in pair order (so dict/set
 * insertion order matches the Python zip loop exactly). */
static PyObject *
positive_rows(PyObject *self, PyObject *args)
{
    PyObject *active_in, *rate_in, *fid_o, *cid_o, *rates, *scheduled;
    if (!PyArg_ParseTuple(args, "OOOOOO", &active_in, &rate_in,
                          &fid_o, &cid_o, &rates, &scheduled))
        return NULL;

    bufs B = {0};
    PyObject *result = NULL, *afast = NULL, *rfast = NULL;
    Py_ssize_t ncols, n2;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &ncols, "flow_id");
    int64_t *cid = bufs_get(&B, cid_o, 'q', &n2, "coflow_id");
    if (fid == NULL || cid == NULL)
        goto done;
    if (n2 != ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: positive_rows column mismatch");
        goto done;
    }
    afast = PySequence_Fast(active_in, "fastcore: active must be a sequence");
    rfast = PySequence_Fast(rate_in, "fastcore: rates must be a sequence");
    if (afast == NULL || rfast == NULL)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(afast);
    Py_ssize_t nr = PySequence_Fast_GET_SIZE(rfast);
    if (nr < n)            /* zip() stops at the shorter side */
        n = nr;
    PyObject **arows = PySequence_Fast_ITEMS(afast);
    PyObject **rvals = PySequence_Fast_ITEMS(rfast);
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *robj = rvals[k];
        double rate = PyFloat_CheckExact(robj) ? PyFloat_AS_DOUBLE(robj)
                                               : PyFloat_AsDouble(robj);
        if (rate == -1.0 && PyErr_Occurred())
            goto done;
        if (!(rate > 0.0))
            continue;
        Py_ssize_t i = as_row(arows[k], ncols, "positive");
        if (i < 0)
            goto done;
        PyObject *key = PyLong_FromLongLong((long long)fid[i]);
        if (key == NULL)
            goto done;
        int r = PyDict_SetItem(rates, key, robj);
        Py_DECREF(key);
        if (r < 0)
            goto done;
        if (set_add_port(scheduled, cid[i]) < 0)
            goto done;
    }
    result = Py_None;
    Py_INCREF(result);

done:
    Py_XDECREF(afast);
    Py_XDECREF(rfast);
    bufs_release(&B);
    return result;
}

/* ---- module ------------------------------------------------------------ */

static PyObject *
set_capacity_error(PyObject *self, PyObject *arg)
{
    if (!PyType_Check(arg)) {
        PyErr_SetString(PyExc_TypeError, "expected an exception class");
        return NULL;
    }
    Py_XDECREF(capacity_error);
    Py_INCREF(arg);
    capacity_error = arg;
    Py_RETURN_NONE;
}

static PyMethodDef fastcore_methods[] = {
    {"set_capacity_error", set_capacity_error, METH_O,
     "Register repro.errors.CapacityViolationError for ledger commits."},
    {"mmf_fill", mmf_fill, METH_VARARGS,
     "Progressive-fill core of max_min_fair_rows_raw."},
    {"advance_running", advance_running, METH_VARARGS,
     "Branchless byte-accounting fast path of _advance_to."},
    {"advance_collect", advance_collect, METH_VARARGS,
     "Candidate-collecting byte accounting of _advance_to."},
    {"scan_candidates", scan_candidates, METH_VARARGS,
     "Zero-width-step completion scan of _process_completions."},
    {"scan_completions", scan_completions, METH_VARARGS,
     "Completion scan of _earliest_completion."},
    {"diff_changed", diff_changed, METH_VARARGS,
     "Changed-entry probe of _apply_diff."},
    {"apply_diff", apply_diff, METH_VARARGS,
     "Rate-application core of _apply_diff."},
    {"apply_full_collect", apply_full_collect, METH_VARARGS,
     "Collect step of _apply_full_epoch."},
    {"apply_full_commit", apply_full_commit, METH_VARARGS,
     "Commit step of _apply_full_epoch."},
    {"aalo_ports", aalo_ports, METH_VARARGS,
     "Bucket-and-serve round core of AaloScheduler._schedule_rows."},
    {"saath_round", saath_round, METH_VARARGS,
     "Admission, D2 rates and work conservation of SaathScheduler.schedule."},
    {"madd_round", madd_round, METH_VARARGS,
     "MADD admission and greedy backfill of the clairvoyant policies."},
    {"sebf_gammas", sebf_gammas, METH_VARARGS,
     "Per-coflow SEBF bottleneck time of VarysSebfScheduler.schedule."},
    {"total_rate_rows", total_rate_rows, METH_VARARGS,
     "Summed-live-rate core of next_transition_time (total metric)."},
    {"per_flow_transitions", per_flow_transitions, METH_VARARGS,
     "Earliest threshold crossing over coflows (perflow metric)."},
    {"max_bytes_sent", max_bytes_sent, METH_VARARGS,
     "Per-coflow max bytes_sent, Saath's queue metric."},
    {"positive_rows", positive_rows, METH_VARARGS,
     "Positive-rate gather of UcTcpScheduler.schedule's row path."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    "repro._fastcore._core",
    "Compiled twins of the simulator hot loops (bit-identical to the\n"
    "pure-Python rows path; see repro._fastcore).",
    -1,
    fastcore_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModule_Create(&fastcore_module);
}
