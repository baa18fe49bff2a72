/* Compiled lane of the four batch kernels.  It must match _fallback.py
 * exactly: splitmix64 stream, draw order, tie-breaking, and refusals
 * (exception type and message), which come before any fixed-size buffer is
 * touched.  tests/test_kernels.py compares the two lanes. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

#define MAX_WIDTH 24
#define MAX_ERRORS 1024
#define GOLDEN 0x9E3779B97F4A7C15ULL

static u64
mix(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int
anticommutes(u64 a, u64 b, u64 x, u64 z)
{
    return __builtin_parityll((a & z) ^ (b & x));
}

/* The width p as an int, or -1 with ValueError when it is outside 1..24. */
static int
width_arg(PyObject *obj)
{
    int overflow;
    long p = PyLong_AsLongAndOverflow(obj, &overflow);
    if (!PyErr_Occurred() && (overflow || p < 1 || p > MAX_WIDTH))
        PyErr_Format(PyExc_ValueError, "width must be in 1..%d, got %S",
                     MAX_WIDTH, obj);
    return PyErr_Occurred() ? -1 : (int)p;
}

/* *out = obj clamped to the long long range; 0 with an exception set unless
   obj is an int.  Every long long bound (k_target, count) means the same at
   the clamp as beyond it: no scan keeps 2^63 labels or reaches candidate
   2^63. */
static int
read_clamped(PyObject *obj, long long *out)
{
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow)
        *out = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    return !(*out == -1 && PyErr_Occurred());
}

/* *out = obj; 0 with an exception set unless obj is an int in 0..2^64-1. */
static int
read_u64(PyObject *obj, u64 *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return !(*out == (u64)-1 && PyErr_Occurred());
}

static void
sample_group(int p, u64 state, u64 *xs, u64 *zs)
{
    u64 vmask = ((u64)1 << (2 * p)) - 1, pmask = ((u64)1 << p) - 1;
    u64 pivots[2 * MAX_WIDTH] = {0};
    int kept = 0;
    while (kept < p) {
        state += GOLDEN;
        u64 v = mix(state) & vmask, a = v & pmask, b = v >> p, w = v;
        int t = 0;
        while (t < kept && !anticommutes(a, b, xs[t], zs[t]))
            t++;
        while (t == kept && w) {
            int hb = 63 - __builtin_clzll(w);
            if (pivots[hb]) {
                w ^= pivots[hb];
                continue;
            }
            pivots[hb] = w;
            xs[kept] = a;
            zs[kept++] = b;
        }
    }
}

/* Greedy scan over labels 0..2^p-1 ascending; `taken` holds 2^p zero
   bytes on entry and every errs[k] is below 2^p.  Appends each kept label
   to `out` unless it is NULL.  Returns the number kept, or -1 on error. */
static long long
greedy(int p, const u64 *errs, Py_ssize_t n, long long k_target, char *taken,
       PyObject *out)
{
    long long nkept = 0;
    for (u64 lam = 0; lam < (u64)1 << p; lam++) {
        Py_ssize_t k = 0;
        while (k < n && !taken[errs[k] ^ lam])
            k++;
        if (k < n)
            continue;
        for (k = 0; k < n; k++)
            taken[errs[k] ^ lam] = 1;
        PyObject *v = out ? PyLong_FromUnsignedLongLong(lam) : NULL;
        int failed = out && (v == NULL || PyList_Append(out, v) < 0);
        Py_XDECREF(v);
        if (failed)
            return -1;
        if (++nkept == k_target)
            break;
    }
    return nkept;
}

static PyObject *
u64_list(const u64 *values, int n)
{
    PyObject *out = PyList_New(n);
    for (int t = 0; out != NULL && t < n; t++) {
        PyObject *v = PyLong_FromUnsignedLongLong(values[t]);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, t, v);
    }
    return out;
}

/* The pure-Python lane's `name`, called with these arguments.  Every call a
   compiled kernel cannot read as it expects goes here, so the lanes share
   one error path and no cap to disagree on. */
static PyObject *
reference(const char *name, PyObject *const *args, size_t nargsf,
          PyObject *kwnames)
{
    PyObject *fb = PyImport_ImportModule("cosetqec._kernels._fallback");
    PyObject *fn = fb ? PyObject_GetAttrString(fb, name) : NULL;
    PyObject *result = fn ? PyObject_Vectorcall(fn, args, nargsf, kwnames) : NULL;
    Py_XDECREF(fb);
    Py_XDECREF(fn);
    return result;
}

/* The pure map of the n generators in `masks`: xs then zs. */
static PyObject *
pure_map(const u64 *masks, int n)
{
    PyObject *lx = u64_list(masks, n), *lz = lx ? u64_list(masks + n, n) : NULL;
    PyObject *pair[2] = {lx, lz};
    PyObject *result = lz ? reference("syndrome_map", pair, 2, NULL) : NULL;
    Py_XDECREF(lx);
    Py_XDECREF(lz);
    return result;
}

/* label(a, b), bound to `packed`, a bytes object of the generators' xs then
   zs as u64 (its data follows a header of whole pointer-sized words, so it
   is 8-byte aligned).  Every mask is below 2^64, so any two ints are read
   exactly modulo 2^64; every other call goes to the pure map. */
static PyObject *
label(PyObject *packed, PyObject *const *args, Py_ssize_t nargs,
      PyObject *kwnames)
{
    const u64 *masks = (const u64 *)PyBytes_AS_STRING(packed);
    int n = (int)(PyBytes_GET_SIZE(packed) / (2 * sizeof(u64)));
    if (nargs == 2 && kwnames == NULL && PyLong_Check(args[0])
        && PyLong_Check(args[1])) {
        u64 a = PyLong_AsUnsignedLongLongMask(args[0]);
        u64 b = PyLong_AsUnsignedLongLongMask(args[1]), bits = 0;
        for (int t = 0; t < n; t++)
            bits |= (u64)anticommutes(a, b, masks[t], masks[n + t]) << t;
        return PyLong_FromUnsignedLongLong(bits);
    }
    PyObject *pure = pure_map(masks, n);
    PyObject *result = pure ? PyObject_Vectorcall(pure, args, nargs, kwnames) : NULL;
    Py_XDECREF(pure);
    return result;
}

static PyMethodDef label_def = {
    "label", (PyCFunction)(void (*)(void))label, METH_FASTCALL | METH_KEYWORDS,
    "label(a, b): commutation pattern of (a, b) against the generators, "
    "bit t = generator t.",
};

static PyObject *
syndrome_map(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *ga = nargs == 2 && kwnames == NULL ? PySequence_Tuple(args[0]) : NULL;
    PyObject *gb = ga ? PySequence_Tuple(args[1]) : NULL;
    Py_ssize_t n = gb ? PyTuple_GET_SIZE(ga) : -1;
    PyObject *packed = NULL;
    if (n >= 0 && n <= 64 && PyTuple_GET_SIZE(gb) == n)
        packed = PyBytes_FromStringAndSize(NULL, 2 * n * sizeof(u64));
    u64 *masks = packed ? (u64 *)PyBytes_AS_STRING(packed) : NULL;
    int ok = packed != NULL;
    for (Py_ssize_t t = 0; ok && t < n; t++)
        ok = read_u64(PyTuple_GET_ITEM(ga, t), &masks[t])
             && read_u64(PyTuple_GET_ITEM(gb, t), &masks[n + t]);
    PyObject *result = ok ? PyCFunction_NewEx(&label_def, packed, NULL) : NULL;
    if (!ok) {
        /* More than 64 generators (no group has that many: widths stop at
           24), or generators that are not two equally long lists of ints
           in 0..2^64-1: the pure lane builds its map or refuses.  It gets
           the lists as read, in case an iterator was consumed. */
        PyErr_Clear();
        PyObject *pair[2] = {ga ? ga : args[0], gb ? gb : args[1]};
        result = nargs == 2 && kwnames == NULL
                     ? reference("syndrome_map", pair, 2, NULL)
                     : reference("syndrome_map", args, nargs, kwnames);
    }
    Py_XDECREF(packed);
    Py_XDECREF(ga);
    Py_XDECREF(gb);
    return result;
}

static PyObject *
random_group_packed(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p", "seed", NULL};
    PyObject *p_obj, *seed_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &p_obj, &seed_obj))
        return NULL;
    int p = width_arg(p_obj);
    u64 seed = p < 0 ? 0 : PyLong_AsUnsignedLongLongMask(seed_obj);
    if (PyErr_Occurred())
        return NULL;
    u64 xs[MAX_WIDTH], zs[MAX_WIDTH];
    sample_group(p, seed, xs, zs);
    PyObject *lx = u64_list(xs, p), *lz = lx ? u64_list(zs, p) : NULL;
    PyObject *result = lz ? PyTuple_Pack(2, lx, lz) : NULL;
    Py_XDECREF(lx);
    Py_XDECREF(lz);
    return result;
}

static PyObject *
greedy_label_scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p", "err_labels", "k_target", NULL};
    PyObject *p_obj, *labels_obj, *k_obj = NULL, *out = NULL;
    long long k_target = -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|O", kwlist, &p_obj,
                                     &labels_obj, &k_obj))
        return NULL;
    int p = width_arg(p_obj);
    if (p < 0 || (k_obj != NULL && !read_clamped(k_obj, &k_target)))
        return NULL;
    PyObject *labels = PySequence_Fast(labels_obj, "err_labels");
    if (labels == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(labels);
    u64 *errs = PyMem_Malloc((n ? n : 1) * sizeof(u64));
    char *taken = PyMem_Calloc((size_t)1 << p, 1);
    if (errs == NULL || taken == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t k = 0; !PyErr_Occurred() && k < n; k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(labels, k);
        int overflow;
        long long lab = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (!PyErr_Occurred() && (overflow || lab < 0 || lab >= 1LL << p))
            PyErr_Format(PyExc_ValueError, "label %S out of range for width %d",
                         item, p);
        errs[k] = (u64)lab;
    }
    if (!PyErr_Occurred() && (out = PyList_New(0)) != NULL
        && greedy(p, errs, n, k_target, taken, out) < 0)
        Py_CLEAR(out);
    PyMem_Free(errs);
    PyMem_Free(taken);
    Py_DECREF(labels);
    return out;
}

static PyObject *
search_range(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"p", "errs_a", "errs_b", "k_target", "seed",
                             "start", "count", NULL};
    PyObject *p_obj, *ea_obj, *eb_obj, *k_obj, *seed_obj, *start_obj, *count_obj;
    long long k_target, count;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOO", kwlist, &p_obj,
                                     &ea_obj, &eb_obj, &k_obj, &seed_obj,
                                     &start_obj, &count_obj))
        return NULL;
    int p = width_arg(p_obj);
    if (p < 0 || !read_clamped(k_obj, &k_target) || !read_clamped(count_obj, &count))
        return NULL;
    Py_ssize_t n = PyObject_Length(ea_obj);
    if (n > MAX_ERRORS)
        PyErr_Format(PyExc_ValueError,
                     "error set has %zd entries; search handles at most %d",
                     n, MAX_ERRORS);
    Py_ssize_t m = PyErr_Occurred() ? 0 : PyObject_Length(eb_obj);
    if (!PyErr_Occurred() && m != n)
        PyErr_Format(PyExc_ValueError, "errs_a has %zd masks, errs_b has %zd",
                     n, m);
    /* The stream depends on seed and index only mod 2^64, and error masks
       only meet generators below 2^p, so 64-bit wrapping loses nothing. */
    u64 seed = PyErr_Occurred() ? 0 : PyLong_AsUnsignedLongLongMask(seed_obj);
    u64 start = PyErr_Occurred() ? 0 : PyLong_AsUnsignedLongLongMask(start_obj);
    u64 ea[MAX_ERRORS], eb[MAX_ERRORS], labels[MAX_ERRORS];
    for (Py_ssize_t k = 0; !PyErr_Occurred() && k < n; k++) {
        PyObject *a = PySequence_GetItem(ea_obj, k);
        PyObject *b = a ? PySequence_GetItem(eb_obj, k) : NULL;
        ea[k] = b ? PyLong_AsUnsignedLongLongMask(a) : 0;
        eb[k] = b && !PyErr_Occurred() ? PyLong_AsUnsignedLongLongMask(b) : 0;
        Py_XDECREF(a);
        Py_XDECREF(b);
    }
    /* One table for the collision check and the greedy scan; both re-zero it. */
    size_t size = (size_t)1 << p;
    char *seen = PyErr_Occurred() ? NULL : PyMem_Calloc(size, 1);
    if (seen == NULL)
        return PyErr_Occurred() ? NULL : PyErr_NoMemory();
    u64 xs[MAX_WIDTH], zs[MAX_WIDTH];
    long long j;
    for (j = 0; j < count; j++) {
        sample_group(p, mix(seed + (start + (u64)j + 1) * GOLDEN), xs, zs);
        Py_ssize_t k = 0;
        for (; k < n; k++) {
            u64 lab = 0;
            for (int t = 0; t < p; t++)
                lab |= (u64)anticommutes(ea[k], eb[k], xs[t], zs[t]) << t;
            if (seen[lab])
                break;
            seen[lab] = 1;
            labels[k] = lab;
        }
        for (Py_ssize_t i = 0; i < k; i++)
            seen[labels[i]] = 0;
        if (k < n)
            continue;
        long long nkept = greedy(p, labels, n, k_target, seen, NULL);
        memset(seen, 0, size);
        if (nkept >= k_target)
            break;
    }
    PyObject *result = NULL, *kept = NULL, *offset = NULL, *index = NULL;
    PyObject *lx = NULL, *lz = NULL;
    if (j >= count)
        result = Py_NewRef(Py_None);
    else if ((kept = PyList_New(0)) != NULL
             && greedy(p, labels, n, k_target, seen, kept) >= 0
             && (offset = PyLong_FromLongLong(j)) != NULL
             && (index = PyNumber_Add(start_obj, offset)) != NULL
             && (lx = u64_list(xs, p)) != NULL && (lz = u64_list(zs, p)) != NULL)
        result = PyTuple_Pack(4, index, lx, lz, kept);
    Py_XDECREF(kept);
    Py_XDECREF(offset);
    Py_XDECREF(index);
    Py_XDECREF(lx);
    Py_XDECREF(lz);
    PyMem_Free(seen);
    return result;
}

static PyMethodDef methods[] = {
    {"syndrome_map", (PyCFunction)(void (*)(void))syndrome_map,
     METH_FASTCALL | METH_KEYWORDS,
     "syndrome_map(gens_a, gens_b) -> label(a, b), the group's syndrome map."},
    {"random_group_packed", (PyCFunction)(void (*)(void))random_group_packed,
     METH_VARARGS | METH_KEYWORDS, "Sample p independent commuting (x, z) pairs."},
    {"greedy_label_scan", (PyCFunction)(void (*)(void))greedy_label_scan,
     METH_VARARGS | METH_KEYWORDS, "Greedy coset-label scan over 0..2^p-1."},
    {"search_range", (PyCFunction)(void (*)(void))search_range,
     METH_VARARGS | METH_KEYWORDS, "Scan candidates [start, start+count)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedups",
    "Compiled lane of the batch kernels; _fallback is the reference.", -1, methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
