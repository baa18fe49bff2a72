/* Compiled fast path of the two batch kernels that pay off end to end: the
 * syndrome map and the search loop (README, "Performance").  Each entry point
 * runs in C when its arguments are in C's domain: positional only; for
 * syndrome_map, two equally long iterables of ints in 0..2^64-1; for
 * search_range, a width that is an int in 1..24, error masks given as two
 * lists or tuples of at most MAX_ERRORS ints, k_target and count in the long
 * long range, and a seed and start that are ints.  Every other call goes to
 * the same function in _fallback.py, so every refusal comes from there; the
 * domain check comes before any fixed-size buffer is touched.  Within its
 * domain C matches _fallback bit for bit: splitmix64 stream, draw order and
 * tie-breaking.  tests/test_kernels.py compares the two lanes. */
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

#define SEQ(obj) (PyList_Check(obj) || PyTuple_Check(obj))

/* The width obj names when it is an int in 1..24, else 0. */
static int
width_of(PyObject *obj)
{
    int overflow = 1;
    long p = PyLong_Check(obj) ? PyLong_AsLongAndOverflow(obj, &overflow) : 0;
    return !overflow && p >= 1 && p <= MAX_WIDTH ? (int)p : 0;
}

/* *out = obj; 0 unless obj is an int in the long long range. */
static int
read_ll(PyObject *obj, long long *out)
{
    int overflow = 1;
    if (PyLong_Check(obj))
        *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    return !overflow;
}

/* out[k] = seq[k] modulo 2^64 for the list or tuple seq; 0 unless every item
   is an int. */
static int
read_masks(PyObject *seq, u64 *out)
{
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, k);
        if (!PyLong_Check(item))
            return 0;
        out[k] = PyLong_AsUnsignedLongLongMask(item);
    }
    return 1;
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
search_range(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    long long k_target, count;
    u64 ea[MAX_ERRORS], eb[MAX_ERRORS], labels[MAX_ERRORS];
    int p = nargs == 7 && kwnames == NULL ? width_of(args[0]) : 0;
    Py_ssize_t n = p && SEQ(args[1]) && SEQ(args[2])
                       ? PySequence_Fast_GET_SIZE(args[1]) : -1;
    if (n < 0 || n > MAX_ERRORS || PySequence_Fast_GET_SIZE(args[2]) != n
        || !read_ll(args[3], &k_target) || !PyLong_Check(args[4])
        || !PyLong_Check(args[5]) || !read_ll(args[6], &count)
        || !read_masks(args[1], ea) || !read_masks(args[2], eb))
        return reference("search_range", args, nargs, kwnames);
    /* The stream depends on seed and index only mod 2^64, and error masks
       only meet generators below 2^p, so 64-bit wrapping loses nothing. */
    u64 seed = PyLong_AsUnsignedLongLongMask(args[4]);
    u64 start = PyLong_AsUnsignedLongLongMask(args[5]);
    /* One table for the collision check and the greedy scan; both re-zero it. */
    size_t size = (size_t)1 << p;
    char *seen = PyMem_Calloc(size, 1);
    if (seen == NULL)
        return PyErr_NoMemory();
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
             && (index = PyNumber_Add(args[5], offset)) != NULL
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
    {"search_range", (PyCFunction)(void (*)(void))search_range,
     METH_FASTCALL | METH_KEYWORDS, "Scan candidates [start, start+count)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedups",
    "Compiled fast path of the batch kernels; _fallback is the reference.", -1, methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
