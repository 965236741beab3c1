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

/* madd_rows(rows, ft, vol, bs, src, dst, link_a, link_b, fid, lcap, lused,
 *           touched) -> dict[int, float]    (madd_rates_rows twin) */
static PyObject *
madd_rows(PyObject *self, PyObject *args)
{
    PyObject *rows_o, *ft, *vol_o, *bs_o, *src_o, *dst_o, *la_o, *lb_o;
    PyObject *fid_o, *lcap_o, *lused_o, *touched;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOO", &rows_o, &ft, &vol_o,
                          &bs_o, &src_o, &dst_o, &la_o, &lb_o, &fid_o,
                          &lcap_o, &lused_o, &touched))
        return NULL;
    if (!PyList_CheckExact(ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }

    bufs B = {.n = 0};
    pathcols P;
    PyObject *fast = NULL, *rates = NULL;
    Py_ssize_t *todo = NULL;
    double *left = NULL, *lbytes = NULL;
    int64_t *order = NULL;
    char *seen = NULL;

    Py_ssize_t nlinks;
    double *vol = NULL, *bs = NULL, *lcap = NULL, *lused = NULL;
    int64_t *fid = NULL;
    if (pathcols_get(&B, &P, src_o, dst_o, la_o, lb_o) == 0) {
        vol = bufs_get(&B, vol_o, 'd', NULL, "table.volume");
        bs = vol ? bufs_get(&B, bs_o, 'd', NULL, "table.bytes_sent") : NULL;
        fid = bs ? bufs_get(&B, fid_o, 'q', NULL, "table.flow_id") : NULL;
        lcap = fid ? bufs_get(&B, lcap_o, 'd', &nlinks, "capacity_list")
                   : NULL;
        lused = lcap ? bufs_get(&B, lused_o, 'd', NULL, "used_list") : NULL;
    }
    if (lused == NULL)
        goto fail;
    Py_ssize_t ncols = P.n;

    fast = PySequence_Fast(rows_o, "fastcore: rows must be a sequence");
    if (fast == NULL)
        goto fail;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);

    todo = PyMem_New(Py_ssize_t, n > 0 ? n : 1);
    left = PyMem_New(double, n > 0 ? n : 1);
    lbytes = PyMem_New(double, nlinks > 0 ? nlinks : 1);
    order = PyMem_New(int64_t, n > 0 ? MAX_PATH * n : 1);
    seen = PyMem_New(char, nlinks > 0 ? nlinks : 1);
    if (!todo || !left || !lbytes || !order || !seen) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(seen, 0, (size_t)(nlinks > 0 ? nlinks : 1));

    /* Fused liveness filter + per-link byte aggregation, in row order. */
    Py_ssize_t nt = 0, no = 0;
    if (PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: finish_time shorter than table columns");
        goto fail;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = as_row(items[k], ncols, "rows");
        if (i < 0)
            goto fail;
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        double remaining = vol[i] - bs[i];
        if (remaining <= 0.0)
            continue;
        todo[nt] = i;
        left[nt] = remaining;
        nt++;
        int64_t path[MAX_PATH];
        int np = row_path(&P, i, nlinks, path);
        if (np < 0)
            goto fail;
        for (int s = 0; s < np; s++) {
            int64_t link = path[s];
            if (!seen[link]) {
                seen[link] = 1;
                order[no++] = link;
                lbytes[link] = remaining;
            }
            else {
                lbytes[link] += remaining;
            }
        }
    }
    if (nt == 0) {
        rates = PyDict_New();
        goto done;
    }

    double gamma = 0.0;
    for (Py_ssize_t o = 0; o < no; o++) {
        int64_t link = order[o];
        double residual = lcap[link] - lused[link];
        if (residual <= 0.0) {
            rates = PyDict_New();
            goto done;
        }
        double share = lbytes[link] / residual;
        if (share > gamma)
            gamma = share;
    }
    if (gamma <= 0.0) {
        rates = PyDict_New();
        goto done;
    }

    /* Rate build + inlined path commit, in todo order (the Python fused
     * loop: dict store, then the path commit). */
    rates = PyDict_New();
    if (rates == NULL)
        goto fail;
    for (Py_ssize_t t = 0; t < nt; t++) {
        Py_ssize_t i = todo[t];
        double rate = left[t] / gamma;
        PyObject *key = PyLong_FromLongLong((long long)fid[i]);
        PyObject *val = key ? PyFloat_FromDouble(rate) : NULL;
        int r = val ? PyDict_SetItem(rates, key, val) : -1;
        Py_XDECREF(key);
        Py_XDECREF(val);
        if (r < 0)
            goto fail;
        int64_t path[MAX_PATH];
        row_path(&P, i, nlinks, path);
        if (commit_path(lcap, lused, touched, path, rate) < 0)
            goto fail;
    }
    goto done;

fail:
    Py_CLEAR(rates);
done:
    PyMem_Free(todo);
    PyMem_Free(left);
    PyMem_Free(lbytes);
    PyMem_Free(order);
    PyMem_Free(seen);
    Py_XDECREF(fast);
    bufs_release(&B);
    return rates;
}

/* equal_rate_rows(rows, ft, src, dst, link_a, link_b, fid, lcap, lused,
 *                 touched, port_counts) -> dict[int, float]
 *   (equal_rate_for_coflow_rows twin; port_counts is a dict or None) */
static PyObject *
equal_rate_rows(PyObject *self, PyObject *args)
{
    PyObject *rows_o, *ft, *src_o, *dst_o, *la_o, *lb_o, *fid_o;
    PyObject *lcap_o, *lused_o, *touched, *port_counts;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOO", &rows_o, &ft, &src_o,
                          &dst_o, &la_o, &lb_o, &fid_o, &lcap_o, &lused_o,
                          &touched, &port_counts))
        return NULL;
    if (!PyList_CheckExact(ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }
    if (port_counts != Py_None && !PyDict_Check(port_counts)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: port_counts must be a dict or None");
        return NULL;
    }

    bufs B = {.n = 0};
    pathcols P;
    PyObject *fast = NULL, *rates = NULL;
    Py_ssize_t *todo = NULL;
    int64_t *counts = NULL, *order = NULL;

    Py_ssize_t nlinks;
    int64_t *fid = NULL;
    double *lcap = NULL, *lused = NULL;
    if (pathcols_get(&B, &P, src_o, dst_o, la_o, lb_o) == 0) {
        fid = bufs_get(&B, fid_o, 'q', NULL, "table.flow_id");
        lcap = fid ? bufs_get(&B, lcap_o, 'd', &nlinks, "capacity_list")
                   : NULL;
        lused = lcap ? bufs_get(&B, lused_o, 'd', NULL, "used_list") : NULL;
    }
    if (lused == NULL)
        goto fail;
    Py_ssize_t ncols = P.n;
    if (PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: finish_time shorter than table columns");
        goto fail;
    }

    fast = PySequence_Fast(rows_o, "fastcore: rows must be a sequence");
    if (fast == NULL)
        goto fail;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);

    todo = PyMem_New(Py_ssize_t, n > 0 ? n : 1);
    if (todo == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_ssize_t nt = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = as_row(items[k], ncols, "rows");
        if (i < 0)
            goto fail;
        if (PyList_GET_ITEM(ft, i) == Py_None)
            todo[nt++] = i;
    }
    if (nt == 0) {
        rates = PyDict_New();
        goto done;
    }

    /* rate = min over the coflow's links of residual / count; the min over
     * the same set of caps is the same float in any visiting order. */
    double rate = INFINITY;
    if (port_counts != Py_None) {
        Py_ssize_t pos = 0;
        PyObject *k, *v;
        while (PyDict_Next(port_counts, &pos, &k, &v)) {
            long long link = PyLong_AsLongLong(k);
            if (link == -1 && PyErr_Occurred())
                goto fail;
            long long count = PyLong_AsLongLong(v);
            if (count == -1 && PyErr_Occurred())
                goto fail;
            if (link < 0 || link >= nlinks) {
                PyErr_Format(PyExc_IndexError,
                             "fastcore: link %lld out of range", link);
                goto fail;
            }
            double r = lcap[link] - lused[link];
            double cap = (r >= 0.0 ? r : 0.0) / (double)count;
            if (cap < rate)
                rate = cap;
        }
    }
    else {
        counts = PyMem_New(int64_t, nlinks > 0 ? nlinks : 1);
        order = PyMem_New(int64_t, MAX_PATH * nt);
        if (counts == NULL || order == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        memset(counts, 0, (size_t)(nlinks > 0 ? nlinks : 1)
                              * sizeof(int64_t));
        Py_ssize_t no = 0;
        for (Py_ssize_t t = 0; t < nt; t++) {
            int64_t path[MAX_PATH];
            int np = row_path(&P, todo[t], nlinks, path);
            if (np < 0)
                goto fail;
            for (int s = 0; s < np; s++)
                if (counts[path[s]]++ == 0)
                    order[no++] = path[s];
        }
        for (Py_ssize_t o = 0; o < no; o++) {
            int64_t link = order[o];
            /* ledger.residual() == max(cap - used, 0.0) */
            double r = lcap[link] - lused[link];
            double cap = (r >= 0.0 ? r : 0.0) / (double)counts[link];
            if (cap < rate)
                rate = cap;
        }
    }
    if (!isfinite(rate) || rate <= 0.0) {
        rates = PyDict_New();
        goto done;
    }

    rates = PyDict_New();
    if (rates == NULL)
        goto fail;
    PyObject *rate_obj = PyFloat_FromDouble(rate);
    if (rate_obj == NULL)
        goto fail;
    for (Py_ssize_t t = 0; t < nt; t++) {
        Py_ssize_t i = todo[t];
        PyObject *key = PyLong_FromLongLong((long long)fid[i]);
        int r = key ? PyDict_SetItem(rates, key, rate_obj) : -1;
        Py_XDECREF(key);
        int64_t path[MAX_PATH];
        if (r < 0 || row_path(&P, i, nlinks, path) < 0
            || commit_path(lcap, lused, touched, path, rate) < 0) {
            Py_DECREF(rate_obj);
            goto fail;
        }
    }
    Py_DECREF(rate_obj);
    goto done;

fail:
    Py_CLEAR(rates);
done:
    PyMem_Free(todo);
    PyMem_Free(counts);
    PyMem_Free(order);
    Py_XDECREF(fast);
    bufs_release(&B);
    return rates;
}

/* greedy_rows(rows, ft, fid, src, dst, link_a, link_b, lcap, lused,
 *             touched) -> dict[int, float]
 *   (greedy_residual_rates_rows twin) */
static PyObject *
greedy_rows(PyObject *self, PyObject *args)
{
    PyObject *rows_o, *ft, *fid_o, *src_o, *dst_o, *la_o, *lb_o;
    PyObject *lcap_o, *lused_o, *touched;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOO", &rows_o, &ft, &fid_o, &src_o,
                          &dst_o, &la_o, &lb_o, &lcap_o, &lused_o,
                          &touched))
        return NULL;
    if (!PyList_CheckExact(ft)) {
        PyErr_SetString(PyExc_TypeError,
                        "fastcore: finish_time must be a list");
        return NULL;
    }

    bufs B = {.n = 0};
    pathcols P;
    PyObject *fast = NULL, *rates = NULL;
    char *dead = NULL;

    Py_ssize_t nlinks;
    int64_t *fid = NULL;
    double *lcap = NULL, *lused = NULL;
    if (pathcols_get(&B, &P, src_o, dst_o, la_o, lb_o) == 0) {
        fid = bufs_get(&B, fid_o, 'q', NULL, "table.flow_id");
        lcap = fid ? bufs_get(&B, lcap_o, 'd', &nlinks, "capacity_list")
                   : NULL;
        lused = lcap ? bufs_get(&B, lused_o, 'd', NULL, "used_list") : NULL;
    }
    if (lused == NULL)
        goto fail;
    Py_ssize_t ncols = P.n;
    if (PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: finish_time shorter than table columns");
        goto fail;
    }

    fast = PySequence_Fast(rows_o, "fastcore: rows must be a sequence");
    if (fast == NULL)
        goto fail;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);

    dead = PyMem_New(char, nlinks > 0 ? nlinks : 1);
    if (dead == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(dead, 0, (size_t)(nlinks > 0 ? nlinks : 1));

    rates = PyDict_New();
    if (rates == NULL)
        goto fail;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = as_row(items[k], ncols, "rows");
        if (i < 0)
            goto fail;
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        int64_t path[MAX_PATH];
        int np = row_path(&P, i, nlinks, path);
        if (np < 0)
            goto fail;
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
                if (set_add_port(touched, path[s]) < 0)
                    goto fail;
            }
            PyObject *key = PyLong_FromLongLong((long long)fid[i]);
            PyObject *val = key ? PyFloat_FromDouble(rate) : NULL;
            int r = val ? PyDict_SetItem(rates, key, val) : -1;
            Py_XDECREF(key);
            Py_XDECREF(val);
            if (r < 0)
                goto fail;
        }
        else {
            for (s = 0; s < np; s++)
                if (lcap[path[s]] - lused[path[s]] <= 0.0)
                    dead[path[s]] = 1;
        }
    }
    goto done;

fail:
    Py_CLEAR(rates);
done:
    PyMem_Free(dead);
    Py_XDECREF(fast);
    bufs_release(&B);
    return rates;
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
                if (PyDict_GET_SIZE(efficiency) > 0) {
                    PyObject *f = PyLong_FromLongLong((long long)fid[i]);
                    if (f == NULL)
                        goto done;
                    PyObject *eff = PyDict_GetItemWithError(efficiency, f);
                    Py_DECREF(f);
                    if (eff == NULL) {
                        if (PyErr_Occurred())
                            goto done;
                        rate *= 1.0;
                    }
                    else {
                        double e = PyFloat_AsDouble(eff);
                        if (e == -1.0 && PyErr_Occurred())
                            goto done;
                        rate *= e;
                    }
                }
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

/* ---- queue-transition and positive-rate helpers ------------------------ */

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

/* per_flow_transition(rows, fid, ft, vol, bs, rates, per_flow_hi) -> float
 *
 * QueueTracker.next_transition_time's "perflow" row branch: seconds until
 * the first flow crosses per_flow_hi (0.0 for an immediate transition,
 * inf when none will).  Same scan order, comparisons and early return as
 * the Python loop. */
static PyObject *
per_flow_transition(PyObject *self, PyObject *args)
{
    PyObject *rows_in, *fid_o, *ft, *vol_o, *bs_o, *rates;
    double per_flow_hi;
    if (!PyArg_ParseTuple(args, "OOOOOOd", &rows_in, &fid_o, &ft,
                          &vol_o, &bs_o, &rates, &per_flow_hi))
        return NULL;

    bufs B = {0};
    PyObject *result = NULL, *fast = NULL;
    Py_ssize_t ncols, n2, n3;
    int64_t *fid = bufs_get(&B, fid_o, 'q', &ncols, "flow_id");
    double *vol = bufs_get(&B, vol_o, 'd', &n2, "volume");
    double *bs = bufs_get(&B, bs_o, 'd', &n3, "bytes_sent");
    if (fid == NULL || vol == NULL || bs == NULL)
        goto done;
    if (n2 != ncols || n3 != ncols
        || !PyList_Check(ft) || PyList_GET_SIZE(ft) < ncols) {
        PyErr_SetString(PyExc_ValueError,
                        "fastcore: per_flow_transition column mismatch");
        goto done;
    }
    fast = PySequence_Fast(rows_in, "fastcore: rows must be a sequence");
    if (fast == NULL)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    double best = Py_HUGE_VAL;
    int err = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_ssize_t i = as_row(items[k], ncols, "transition");
        if (i < 0)
            goto done;
        if (PyList_GET_ITEM(ft, i) != Py_None)
            continue;
        double rate = rates_get(rates, fid[i], &err);
        if (err)
            goto done;
        if (rate <= 0.0)
            continue;
        double reachable = vol[i] < per_flow_hi ? vol[i] : per_flow_hi;
        if (reachable <= bs[i]) {
            if (bs[i] >= per_flow_hi) {
                result = PyFloat_FromDouble(0.0);
                goto done;
            }
            continue;
        }
        if (per_flow_hi <= vol[i]) {
            double cand = (per_flow_hi - bs[i]) / rate;
            if (cand < best)
                best = cand;
        }
    }
    result = PyFloat_FromDouble(best);

done:
    Py_XDECREF(fast);
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
    {"madd_rows", madd_rows, METH_VARARGS,
     "Fused single-pass core of madd_rates_rows."},
    {"equal_rate_rows", equal_rate_rows, METH_VARARGS,
     "Equal-rate core of equal_rate_for_coflow_rows."},
    {"greedy_rows", greedy_rows, METH_VARARGS,
     "Work-conservation fill core of greedy_residual_rates_rows."},
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
    {"aalo_ports", aalo_ports, METH_VARARGS,
     "Bucket-and-serve round core of AaloScheduler._schedule_rows."},
    {"total_rate_rows", total_rate_rows, METH_VARARGS,
     "Summed-live-rate core of next_transition_time (total metric)."},
    {"per_flow_transition", per_flow_transition, METH_VARARGS,
     "Threshold-crossing scan of next_transition_time (perflow metric)."},
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
