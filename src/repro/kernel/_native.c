/* The compiled join backend: C twins of the repro.kernel.joins walkers.
 *
 * This extension operates on the *same* Python data structures the pure
 * python walkers use — the KernelState's inverted index (a dict mapping
 * (column, value-id) 2-tuples to lists of int-row tuples), its row set
 * and dense scan list, and the caller's register list — so a process
 * can switch backends at any point without rebuilding state, and the
 * differential suites can hold both backends to identical semantics on
 * shared instances.  The speedup comes from evaluating the step
 * programs without interpreter dispatch: registers live in a C array
 * for the duration of a walk (written back to the Python list only when
 * a caller must read a witness out of them), step components are packed
 * once per cached plan into flat int arrays (pack_steps, held by the
 * side cache in repro.kernel.joins), and the probe/bind/check candidate
 * loop runs as straight C.
 *
 * Semantics contract (enforced by the parametrized differential
 * suites): every walker here mirrors its python twin in
 * repro.kernel.joins line for line — smallest-bucket probe selection,
 * single-probe no-verify fast path, all-bound membership fast path,
 * bind-then-check order, dedup on the first n_universal registers, the
 * extend walk's skip of delta rows at old_only steps, the violation
 * walk's conclusion probe, and the retraction walk's image-shrinks
 * switch to pure existence.  Any change to the step semantics must land
 * in both backends (see the NOTE in joins.py).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ------------------------------------------------------------------ */
/* Packed step programs                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    int n_probes;        /* (column, slot) pairs, already bound        */
    int n_verify;        /* == n_probes when n_probes > 1, else 0      */
    int n_binds;         /* first occurrences: write regs[slot]        */
    int n_checks;        /* repeats within the atom: compare           */
    int membership;      /* all probes: one set-membership test        */
    int old_only;        /* extend walk: skip rows of the delta set    */
    long *probe_cols;
    long *probe_slots;
    long *bind_cols;
    long *bind_slots;
    long *check_cols;
    long *check_slots;
} NStep;

typedef struct {
    int n_steps;
    NStep *steps;
    long *block;         /* one allocation backing every int array     */
} NSteps;

static const char *STEPS_CAPSULE_NAME = "repro.kernel._native.steps";

static void
steps_capsule_free(PyObject *capsule)
{
    NSteps *ns = (NSteps *)PyCapsule_GetPointer(capsule, STEPS_CAPSULE_NAME);
    if (ns != NULL) {
        PyMem_Free(ns->block);
        PyMem_Free(ns->steps);
        PyMem_Free(ns);
    }
}

/* Copy one ((col, slot), ...) tuple into the packed block. */
static int
pack_pairs(PyObject *pairs, long *cols, long *slots, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *pair = PySequence_GetItem(pairs, i);
        if (pair == NULL)
            return -1;
        PyObject *col = PySequence_GetItem(pair, 0);
        PyObject *slot = PySequence_GetItem(pair, 1);
        Py_DECREF(pair);
        if (col == NULL || slot == NULL) {
            Py_XDECREF(col);
            Py_XDECREF(slot);
            return -1;
        }
        cols[i] = PyLong_AsLong(col);
        slots[i] = PyLong_AsLong(slot);
        Py_DECREF(col);
        Py_DECREF(slot);
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* pack_steps(spec) -> capsule
 *
 * spec is a sequence of (probes, binds, checks, old_only) quadruples,
 * the first three a tuple of (column, slot) int pairs each and the last
 * a bool — exactly the AtomStep fields.  The derived fast-path fields
 * (membership, verify) are recomputed here under the same rules as
 * AtomStep.__init__.
 */
static PyObject *
native_pack_steps(PyObject *self, PyObject *spec)
{
    PyObject *seq = PySequence_Fast(spec, "pack_steps expects a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n_steps = PySequence_Fast_GET_SIZE(seq);

    NSteps *ns = PyMem_Malloc(sizeof(NSteps));
    NStep *steps = PyMem_Calloc((size_t)(n_steps ? n_steps : 1), sizeof(NStep));
    if (ns == NULL || steps == NULL) {
        PyMem_Free(ns);
        PyMem_Free(steps);
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    ns->n_steps = (int)n_steps;
    ns->steps = steps;
    ns->block = NULL;

    /* First pass: count ints so one block holds every array. */
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < n_steps; i++) {
        PyObject *spec_step = PySequence_Fast_GET_ITEM(seq, i);
        for (int part = 0; part < 3; part++) {
            PyObject *pairs = PySequence_GetItem(spec_step, part);
            if (pairs == NULL)
                goto fail;
            Py_ssize_t n = PySequence_Size(pairs);
            Py_DECREF(pairs);
            if (n < 0)
                goto fail;
            total += 2 * n;
        }
    }
    ns->block = PyMem_Malloc((size_t)(total ? total : 1) * sizeof(long));
    if (ns->block == NULL) {
        PyErr_NoMemory();
        goto fail;
    }

    long *cursor = ns->block;
    for (Py_ssize_t i = 0; i < n_steps; i++) {
        PyObject *spec_step = PySequence_Fast_GET_ITEM(seq, i);
        NStep *st = &steps[i];
        PyObject *old_only = PySequence_GetItem(spec_step, 3);
        if (old_only == NULL)
            goto fail;
        st->old_only = PyObject_IsTrue(old_only);
        Py_DECREF(old_only);
        if (st->old_only < 0)
            goto fail;
        PyObject *probes = PySequence_GetItem(spec_step, 0);
        PyObject *binds = PySequence_GetItem(spec_step, 1);
        PyObject *checks = PySequence_GetItem(spec_step, 2);
        if (probes == NULL || binds == NULL || checks == NULL) {
            Py_XDECREF(probes);
            Py_XDECREF(binds);
            Py_XDECREF(checks);
            goto fail;
        }
        Py_ssize_t np = PySequence_Size(probes);
        Py_ssize_t nb = PySequence_Size(binds);
        Py_ssize_t nc = PySequence_Size(checks);
        if (np < 0 || nb < 0 || nc < 0) {
            Py_DECREF(probes);
            Py_DECREF(binds);
            Py_DECREF(checks);
            goto fail;
        }
        st->n_probes = (int)np;
        st->n_binds = (int)nb;
        st->n_checks = (int)nc;
        st->membership = (nb == 0 && nc == 0);
        st->n_verify = np > 1 ? (int)np : 0;
        st->probe_cols = cursor; cursor += np;
        st->probe_slots = cursor; cursor += np;
        st->bind_cols = cursor; cursor += nb;
        st->bind_slots = cursor; cursor += nb;
        st->check_cols = cursor; cursor += nc;
        st->check_slots = cursor; cursor += nc;
        int bad = pack_pairs(probes, st->probe_cols, st->probe_slots, np)
               || pack_pairs(binds, st->bind_cols, st->bind_slots, nb)
               || pack_pairs(checks, st->check_cols, st->check_slots, nc);
        Py_DECREF(probes);
        Py_DECREF(binds);
        Py_DECREF(checks);
        if (bad)
            goto fail;
    }
    Py_DECREF(seq);
    PyObject *capsule = PyCapsule_New(ns, STEPS_CAPSULE_NAME, steps_capsule_free);
    if (capsule == NULL)
        goto fail_nocapsule;
    return capsule;

fail:
    Py_DECREF(seq);
fail_nocapsule:
    PyMem_Free(ns->block);
    PyMem_Free(ns->steps);
    PyMem_Free(ns);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Walk machinery                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *index;     /* dict: (column, vid) -> list of int rows    */
    PyObject *irows;     /* set of int-row tuples                      */
    PyObject *rows_list; /* dense scan list of int-row tuples          */
    long *regs;
    Py_ssize_t n_regs;
    PyObject *delta;     /* extend walk: the round's delta row set,
                          * NULL when empty (old_only prunes nothing) */
} WalkCtx;

/* The (column, vid) index key. */
static PyObject *
make_key(long column, long vid)
{
    PyObject *key = PyTuple_New(2);
    if (key == NULL)
        return NULL;
    PyObject *a = PyLong_FromLong(column);
    PyObject *b = PyLong_FromLong(vid);
    if (a == NULL || b == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(b);
        Py_DECREF(key);
        return NULL;
    }
    PyTuple_SET_ITEM(key, 0, a);
    PyTuple_SET_ITEM(key, 1, b);
    return key;
}

/* The membership-probe row tuple (regs projected onto probe slots). */
static PyObject *
make_probe_row(const NStep *st, const long *regs)
{
    PyObject *row = PyTuple_New(st->n_probes);
    if (row == NULL)
        return NULL;
    for (int i = 0; i < st->n_probes; i++) {
        PyObject *v = PyLong_FromLong(regs[st->probe_slots[i]]);
        if (v == NULL) {
            Py_DECREF(row);
            return NULL;
        }
        PyTuple_SET_ITEM(row, i, v);
    }
    return row;
}

/* Smallest index bucket over the step's probes; Py_None when a probe
 * has no bucket (walk fails), NULL on error.  Borrowed reference
 * otherwise (buckets are owned by the index dict, stable during a
 * walk: the walkers never mutate state). */
static PyObject *
smallest_bucket(const NStep *st, const WalkCtx *ctx)
{
    PyObject *best = NULL;
    Py_ssize_t best_len = 0;
    for (int i = 0; i < st->n_probes; i++) {
        PyObject *key = make_key(st->probe_cols[i], ctx->regs[st->probe_slots[i]]);
        if (key == NULL)
            return NULL;
        PyObject *bucket = PyDict_GetItemWithError(ctx->index, key);
        Py_DECREF(key);
        if (bucket == NULL) {
            if (PyErr_Occurred())
                return NULL;
            Py_RETURN_NONE;
        }
        Py_ssize_t len = PyList_GET_SIZE(bucket);
        if (len == 0)
            Py_RETURN_NONE;
        if (best == NULL || len < best_len) {
            best = bucket;
            best_len = len;
        }
    }
    return best;
}

/* One candidate row against the step: verify probes, apply binds,
 * apply checks.  Returns 1 when the row matches (binds written). */
static inline int
step_candidate(const NStep *st, long *regs, PyObject *irow)
{
    for (int i = 0; i < st->n_verify; i++) {
        PyObject *cell = PyTuple_GET_ITEM(irow, st->probe_cols[i]);
        if (PyLong_AsLong(cell) != regs[st->probe_slots[i]])
            return 0;
    }
    for (int i = 0; i < st->n_binds; i++) {
        PyObject *cell = PyTuple_GET_ITEM(irow, st->bind_cols[i]);
        regs[st->bind_slots[i]] = PyLong_AsLong(cell);
    }
    for (int i = 0; i < st->n_checks; i++) {
        PyObject *cell = PyTuple_GET_ITEM(irow, st->check_cols[i]);
        if (PyLong_AsLong(cell) != regs[st->check_slots[i]])
            return 0;
    }
    return 1;
}

/* has_extension: 1 found (regs hold the witness), 0 not, -1 error. */
static int
walk_has_extension(const NSteps *ns, int depth, WalkCtx *ctx)
{
    if (depth == ns->n_steps)
        return 1;
    const NStep *st = &ns->steps[depth];
    if (st->membership) {
        PyObject *row = make_probe_row(st, ctx->regs);
        if (row == NULL)
            return -1;
        int present = PySet_Contains(ctx->irows, row);
        Py_DECREF(row);
        if (present < 0)
            return -1;
        return present ? walk_has_extension(ns, depth + 1, ctx) : 0;
    }
    PyObject *best;
    if (st->n_probes) {
        best = smallest_bucket(st, ctx);
        if (best == NULL)
            return -1;
        if (best == Py_None) {
            Py_DECREF(best);
            return 0;
        }
    }
    else {
        best = ctx->rows_list;
    }
    Py_ssize_t n = PyList_GET_SIZE(best);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *irow = PyList_GET_ITEM(best, i);
        if (!step_candidate(st, ctx->regs, irow))
            continue;
        int found = walk_has_extension(ns, depth + 1, ctx);
        if (found)
            return found; /* 1 or -1 */
    }
    return 0;
}

/* 1 when an old_only step must skip irow (a delta row), 0 when it may
 * match it, -1 on error. */
static inline int
skips_delta(const NStep *st, const WalkCtx *ctx, PyObject *irow)
{
    if (!st->old_only || ctx->delta == NULL)
        return 0;
    return PySet_Contains(ctx->delta, irow);
}

/* extend_matches: 0 ok, -1 error.  Completed matches are deduplicated
 * on the first n_universal registers and appended to out; old_only
 * steps skip the rows of ctx->delta. */
static int
walk_extend(const NSteps *ns, int depth, WalkCtx *ctx, Py_ssize_t n_universal,
            PyObject *seen, PyObject *out)
{
    if (depth == ns->n_steps) {
        PyObject *key = PyTuple_New(n_universal);
        if (key == NULL)
            return -1;
        for (Py_ssize_t i = 0; i < n_universal; i++) {
            PyObject *v = PyLong_FromLong(ctx->regs[i]);
            if (v == NULL) {
                Py_DECREF(key);
                return -1;
            }
            PyTuple_SET_ITEM(key, i, v);
        }
        int present = PySet_Contains(seen, key);
        if (present < 0 ||
            (!present && (PySet_Add(seen, key) < 0 ||
                          PyList_Append(out, key) < 0))) {
            Py_DECREF(key);
            return -1;
        }
        Py_DECREF(key);
        return 0;
    }
    const NStep *st = &ns->steps[depth];
    if (st->membership) {
        PyObject *row = make_probe_row(st, ctx->regs);
        if (row == NULL)
            return -1;
        int present = PySet_Contains(ctx->irows, row);
        if (present > 0) {
            int skip = skips_delta(st, ctx, row);
            present = skip < 0 ? -1 : !skip;
        }
        Py_DECREF(row);
        if (present < 0)
            return -1;
        if (present)
            return walk_extend(ns, depth + 1, ctx, n_universal, seen, out);
        return 0;
    }
    PyObject *best;
    if (st->n_probes) {
        best = smallest_bucket(st, ctx);
        if (best == NULL)
            return -1;
        if (best == Py_None) {
            Py_DECREF(best);
            return 0;
        }
    }
    else {
        best = ctx->rows_list;
    }
    Py_ssize_t n = PyList_GET_SIZE(best);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *irow = PyList_GET_ITEM(best, i);
        if (!step_candidate(st, ctx->regs, irow))
            continue;
        int skip = skips_delta(st, ctx, irow);
        if (skip < 0)
            return -1;
        if (skip)
            continue;
        if (walk_extend(ns, depth + 1, ctx, n_universal, seen, out) < 0)
            return -1;
    }
    return 0;
}

/* violation_walk: 1 violated (regs hold the witness), 0 holds, -1 error. */
static int
walk_violation(const NSteps *ns, int depth, WalkCtx *ctx, const NSteps *activity)
{
    if (depth == ns->n_steps) {
        /* Complete antecedent match: violated iff the conclusion atoms
         * have no extension (the precompiled trigger-activity probe). */
        int found = walk_has_extension(activity, 0, ctx);
        if (found < 0)
            return -1;
        return !found;
    }
    const NStep *st = &ns->steps[depth];
    if (st->membership) {
        PyObject *row = make_probe_row(st, ctx->regs);
        if (row == NULL)
            return -1;
        int present = PySet_Contains(ctx->irows, row);
        Py_DECREF(row);
        if (present < 0)
            return -1;
        return present ? walk_violation(ns, depth + 1, ctx, activity) : 0;
    }
    PyObject *best;
    if (st->n_probes) {
        best = smallest_bucket(st, ctx);
        if (best == NULL)
            return -1;
        if (best == Py_None) {
            Py_DECREF(best);
            return 0;
        }
    }
    else {
        best = ctx->rows_list;
    }
    Py_ssize_t n = PyList_GET_SIZE(best);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *irow = PyList_GET_ITEM(best, i);
        if (!step_candidate(st, ctx->regs, irow))
            continue;
        int violated = walk_violation(ns, depth + 1, ctx, activity);
        if (violated)
            return violated; /* 1 or -1 */
    }
    return 0;
}

/* retraction_walk: 1 proper retraction found (regs hold the witness),
 * 0 not, -1 error.  `used` is the image-row set; a repeated image row
 * proves row-non-injectivity, after which only existence is needed. */
static int
walk_retraction(const NSteps *ns, int depth, WalkCtx *ctx, PyObject *used)
{
    if (depth == ns->n_steps)
        return 0; /* complete, but row-injective: not a proper retraction */
    const NStep *st = &ns->steps[depth];
    if (st->membership) {
        PyObject *row = make_probe_row(st, ctx->regs);
        if (row == NULL)
            return -1;
        int present = PySet_Contains(ctx->irows, row);
        if (present < 0) {
            Py_DECREF(row);
            return -1;
        }
        if (!present) {
            Py_DECREF(row);
            return 0;
        }
        int repeated = PySet_Contains(used, row);
        if (repeated < 0) {
            Py_DECREF(row);
            return -1;
        }
        if (repeated) {
            Py_DECREF(row);
            return walk_has_extension(ns, depth + 1, ctx);
        }
        if (PySet_Add(used, row) < 0) {
            Py_DECREF(row);
            return -1;
        }
        int found = walk_retraction(ns, depth + 1, ctx, used);
        if (found != -1 && PySet_Discard(used, row) < 0)
            found = -1;
        Py_DECREF(row);
        return found;
    }
    PyObject *best;
    if (st->n_probes) {
        best = smallest_bucket(st, ctx);
        if (best == NULL)
            return -1;
        if (best == Py_None) {
            Py_DECREF(best);
            return 0;
        }
    }
    else {
        best = ctx->rows_list;
    }
    Py_ssize_t n = PyList_GET_SIZE(best);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *irow = PyList_GET_ITEM(best, i);
        if (!step_candidate(st, ctx->regs, irow))
            continue;
        int repeated = PySet_Contains(used, irow);
        if (repeated < 0)
            return -1;
        if (repeated) {
            int found = walk_has_extension(ns, depth + 1, ctx);
            if (found)
                return found; /* 1 or -1 */
            continue;
        }
        if (PySet_Add(used, irow) < 0)
            return -1;
        int found = walk_retraction(ns, depth + 1, ctx, used);
        if (found != -1 && PySet_Discard(used, irow) < 0)
            found = -1;
        if (found)
            return found; /* 1 or -1 */
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Entry-point plumbing                                               */
/* ------------------------------------------------------------------ */

#define REGS_STACK 128

/* Copy the register list into a C array (stack buffer when small). */
static long *
load_regs(PyObject *regs_list, long *stack, Py_ssize_t *n_out)
{
    if (!PyList_Check(regs_list)) {
        PyErr_SetString(PyExc_TypeError, "regs must be a list");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(regs_list);
    long *regs = stack;
    if (n > REGS_STACK) {
        regs = PyMem_Malloc((size_t)n * sizeof(long));
        if (regs == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        regs[i] = PyLong_AsLong(PyList_GET_ITEM(regs_list, i));
        if (regs[i] == -1 && PyErr_Occurred()) {
            if (regs != stack)
                PyMem_Free(regs);
            return NULL;
        }
    }
    *n_out = n;
    return regs;
}

/* Write the C registers back into the Python list (witness reads). */
static int
store_regs(PyObject *regs_list, const long *regs, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(regs[i]);
        if (v == NULL)
            return -1;
        PyList_SetItem(regs_list, i, v); /* steals v */
    }
    return 0;
}

static NSteps *
unpack_steps(PyObject *capsule)
{
    return (NSteps *)PyCapsule_GetPointer(capsule, STEPS_CAPSULE_NAME);
}

/* has_extension(index, irows, rows_list, steps, regs) -> bool */
static PyObject *
native_has_extension(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "has_extension expects 5 arguments");
        return NULL;
    }
    NSteps *ns = unpack_steps(args[3]);
    if (ns == NULL)
        return NULL;
    long stack[REGS_STACK];
    Py_ssize_t n_regs;
    long *regs = load_regs(args[4], stack, &n_regs);
    if (regs == NULL)
        return NULL;
    WalkCtx ctx = {args[0], args[1], args[2], regs, n_regs, NULL};
    int found = walk_has_extension(ns, 0, &ctx);
    if (found == 1 && store_regs(args[4], regs, n_regs) < 0)
        found = -1;
    if (regs != stack)
        PyMem_Free(regs);
    if (found < 0)
        return NULL;
    return PyBool_FromLong(found);
}

/* extend_matches(index, irows, rows_list, steps, regs, n_universal,
 *                seen, out, delta) -> None */
static PyObject *
native_extend_matches(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 9) {
        PyErr_SetString(PyExc_TypeError, "extend_matches expects 9 arguments");
        return NULL;
    }
    if (!PyAnySet_Check(args[8])) {
        PyErr_SetString(PyExc_TypeError, "delta must be a set");
        return NULL;
    }
    NSteps *ns = unpack_steps(args[3]);
    if (ns == NULL)
        return NULL;
    Py_ssize_t n_universal = PyLong_AsSsize_t(args[5]);
    if (n_universal == -1 && PyErr_Occurred())
        return NULL;
    long stack[REGS_STACK];
    Py_ssize_t n_regs;
    long *regs = load_regs(args[4], stack, &n_regs);
    if (regs == NULL)
        return NULL;
    PyObject *delta = PySet_GET_SIZE(args[8]) ? args[8] : NULL;
    WalkCtx ctx = {args[0], args[1], args[2], regs, n_regs, delta};
    int rc = walk_extend(ns, 0, &ctx, n_universal, args[6], args[7]);
    if (regs != stack)
        PyMem_Free(regs);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* violation_walk(index, irows, rows_list, steps, activity_steps, regs)
 * -> bool */
static PyObject *
native_violation_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "violation_walk expects 6 arguments");
        return NULL;
    }
    NSteps *ns = unpack_steps(args[3]);
    if (ns == NULL)
        return NULL;
    NSteps *activity = unpack_steps(args[4]);
    if (activity == NULL)
        return NULL;
    long stack[REGS_STACK];
    Py_ssize_t n_regs;
    long *regs = load_regs(args[5], stack, &n_regs);
    if (regs == NULL)
        return NULL;
    WalkCtx ctx = {args[0], args[1], args[2], regs, n_regs, NULL};
    int violated = walk_violation(ns, 0, &ctx, activity);
    if (violated == 1 && store_regs(args[5], regs, n_regs) < 0)
        violated = -1;
    if (regs != stack)
        PyMem_Free(regs);
    if (violated < 0)
        return NULL;
    return PyBool_FromLong(violated);
}

/* retraction_walk(index, irows, rows_list, steps, regs, used) -> bool */
static PyObject *
native_retraction_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "retraction_walk expects 6 arguments");
        return NULL;
    }
    NSteps *ns = unpack_steps(args[3]);
    if (ns == NULL)
        return NULL;
    long stack[REGS_STACK];
    Py_ssize_t n_regs;
    long *regs = load_regs(args[4], stack, &n_regs);
    if (regs == NULL)
        return NULL;
    WalkCtx ctx = {args[0], args[1], args[2], regs, n_regs, NULL};
    int found = walk_retraction(ns, 0, &ctx, args[5]);
    if (found == 1 && store_regs(args[4], regs, n_regs) < 0)
        found = -1;
    if (regs != stack)
        PyMem_Free(regs);
    if (found < 0)
        return NULL;
    return PyBool_FromLong(found);
}

/* ------------------------------------------------------------------ */
/* Interning fast paths                                               */
/* ------------------------------------------------------------------ */

/* One value through the intern table: ids[value], minting on miss. */
static long
intern_value(PyObject *value, PyObject *ids, PyObject *values)
{
    PyObject *idx = PyDict_GetItemWithError(ids, value);
    if (idx != NULL)
        return PyLong_AsLong(idx);
    if (PyErr_Occurred())
        return -1;
    long minted = (long)PyList_GET_SIZE(values);
    PyObject *boxed = PyLong_FromLong(minted);
    if (boxed == NULL)
        return -1;
    if (PyDict_SetItem(ids, value, boxed) < 0 ||
        PyList_Append(values, value) < 0) {
        Py_DECREF(boxed);
        return -1;
    }
    Py_DECREF(boxed);
    return minted;
}

/* The interned twin of a Value row. */
static PyObject *
intern_row_obj(PyObject *row, PyObject *ids, PyObject *values)
{
    Py_ssize_t n = PyTuple_GET_SIZE(row);
    PyObject *irow = PyTuple_New(n);
    if (irow == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        long vid = intern_value(PyTuple_GET_ITEM(row, i), ids, values);
        if (vid < 0 && PyErr_Occurred()) {
            Py_DECREF(irow);
            return NULL;
        }
        PyObject *boxed = PyLong_FromLong(vid);
        if (boxed == NULL) {
            Py_DECREF(irow);
            return NULL;
        }
        PyTuple_SET_ITEM(irow, i, boxed);
    }
    return irow;
}

/* intern_row(row, ids, values) -> int tuple */
static PyObject *
native_intern_row(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "intern_row expects 3 arguments");
        return NULL;
    }
    if (!PyTuple_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "row must be a tuple");
        return NULL;
    }
    return intern_row_obj(args[0], args[1], args[2]);
}

/* fill_state(instance, ids, values, irows, rows_list, pos, index) -> None
 *
 * One pass over the instance's rows: intern, admit into the row set,
 * the dense scan list, the position map and the inverted index — the
 * C twin of KernelState.__init__'s python loop.
 */
static PyObject *
native_fill_state(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "fill_state expects 7 arguments");
        return NULL;
    }
    PyObject *ids = args[1], *values = args[2], *irows = args[3];
    PyObject *rows_list = args[4], *pos = args[5], *index = args[6];
    PyObject *iter = PyObject_GetIter(args[0]);
    if (iter == NULL)
        return NULL;
    PyObject *row;
    while ((row = PyIter_Next(iter)) != NULL) {
        PyObject *irow = intern_row_obj(row, ids, values);
        Py_DECREF(row);
        if (irow == NULL)
            goto fail;
        /* _admit */
        PyObject *at = PyLong_FromSsize_t(PyList_GET_SIZE(rows_list));
        if (at == NULL) {
            Py_DECREF(irow);
            goto fail;
        }
        int bad = PySet_Add(irows, irow) < 0
               || PyDict_SetItem(pos, irow, at) < 0
               || PyList_Append(rows_list, irow) < 0;
        Py_DECREF(at);
        if (bad) {
            Py_DECREF(irow);
            goto fail;
        }
        Py_ssize_t width = PyTuple_GET_SIZE(irow);
        for (Py_ssize_t column = 0; column < width; column++) {
            PyObject *cell = PyTuple_GET_ITEM(irow, column);
            PyObject *key = PyTuple_New(2);
            if (key == NULL) {
                Py_DECREF(irow);
                goto fail;
            }
            PyObject *col = PyLong_FromSsize_t(column);
            if (col == NULL) {
                Py_DECREF(key);
                Py_DECREF(irow);
                goto fail;
            }
            PyTuple_SET_ITEM(key, 0, col);
            Py_INCREF(cell);
            PyTuple_SET_ITEM(key, 1, cell);
            PyObject *bucket = PyDict_GetItemWithError(index, key);
            if (bucket == NULL) {
                if (PyErr_Occurred()) {
                    Py_DECREF(key);
                    Py_DECREF(irow);
                    goto fail;
                }
                bucket = PyList_New(0);
                if (bucket == NULL ||
                    PyDict_SetItem(index, key, bucket) < 0) {
                    Py_XDECREF(bucket);
                    Py_DECREF(key);
                    Py_DECREF(irow);
                    goto fail;
                }
                Py_DECREF(bucket); /* index holds it now */
            }
            int appended = PyList_Append(bucket, irow);
            Py_DECREF(key);
            if (appended < 0) {
                Py_DECREF(irow);
                goto fail;
            }
        }
        Py_DECREF(irow);
    }
    Py_DECREF(iter);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;

fail:
    Py_DECREF(iter);
    return NULL;
}

/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"pack_steps", (PyCFunction)native_pack_steps, METH_O,
     "Pack (probes, binds, checks) triples into a C step program."},
    {"has_extension", (PyCFunction)(void (*)(void))native_has_extension,
     METH_FASTCALL, "Early-exit existence walk; witness written to regs."},
    {"extend_matches", (PyCFunction)(void (*)(void))native_extend_matches,
     METH_FASTCALL, "Collect matches deduped on the universal registers."},
    {"violation_walk", (PyCFunction)(void (*)(void))native_violation_walk,
     METH_FASTCALL,
     "First antecedent match with no conclusion extension."},
    {"retraction_walk", (PyCFunction)(void (*)(void))native_retraction_walk,
     METH_FASTCALL, "Image-shrinks early-exit endomorphism walk."},
    {"intern_row", (PyCFunction)(void (*)(void))native_intern_row,
     METH_FASTCALL, "Intern one Value row to a dense-int tuple."},
    {"fill_state", (PyCFunction)(void (*)(void))native_fill_state,
     METH_FASTCALL,
     "Bulk intern + admit an instance's rows into a kernel view."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernel._native",
    "Compiled join-kernel walkers (see repro.kernel.joins for the "
    "reference implementation and repro.kernel.backend for selection).",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
