"""The package's LAPACK and BLAS routines, bound from numpy's own OpenBLAS.

The package calls a handful of routines. This module hands each out under
the call shape scipy.linalg gives it, for the arguments the package passes:

* ``get_lapack_funcs(names, arrays)``: ``gttrf``, ``gttrs`` (one
  right-hand side) and ``potrf`` in the arrays' type (double, or double
  complex if any array is complex);
* ``gkl_steps(dtype, n, rows)``: the vector steps of one Golub-Kahan-Lanczos
  run (``gemv``, ``axpy``, ``dstev``) on its right basis (see _Steps);
* ``eigh_tridiagonal(d, e, eigvals_only, select, select_range, tol)``:
  ``dstevd`` for the whole spectrum, ``dstebz`` for the eigenvalues in a
  range (select="v", eigvals_only only);
* ``eigh(a, eigvals_only)``: ``dsyevr``/``zheevr`` on the lower triangle;
* ``qr(a, mode="economic", check_finite)``: ``geqrf``, then
  ``dorgqr``/``zungqr``;
* ``dstev(d, e, overwrite_d, overwrite_e)``.

These are the drivers scipy.linalg runs for the same calls, with the same
workspace sizes (a workspace query where scipy makes one), on the same
Fortran-ordered copies, so they give the same bits; gkl_steps makes the
BLAS calls the kernel made on scipy's wrappers, in the same order.

Binding. numpy's wheels bundle OpenBLAS (numpy.libs/), which exports LAPACKE
and CBLAS. At the first call of any routine the library is taken from the
ones mapped into the process (``_pool.openblas``), the prefix and suffix of
its symbols are found as ``_pool`` finds its thread-count symbols, and every
entry point is bound with its argument and return types declared. A
64-bit-integer build (suffix ``64_``, or ``USE64BITINT`` in its config)
takes 64-bit sizes and pivots. The LAPACKE ``_work`` variants are bound:
they do not scan their inputs for NaNs. Every array a caller hands in is
checked before its address is taken (dtype float64 or complex128,
contiguity, length); a wrong one raises ValueError (a read-only one,
TypeError), and nothing reaches LAPACK. The ctypes argument that carries an
address holds the array for the whole call. A ``gttrf``'s pivot
array carries the checked addresses of its factors, and of the last
right-hand side a ``gttrs`` solved with them, so a ``gttrs`` that solves in
one buffer again checks and addresses nothing new.

Fallback. Where numpy's OpenBLAS is not mapped in or lacks any of these
entry points (another platform or build), the routines are scipy.linalg's
own, imported at that first call. The choice follows what the library
exports; nothing else selects it.

The module-level routines are objects, not functions, so that a tracer that
wraps the package's own functions (perfbench/spans.py) times a call of one
as the kernel it stands for, as it did scipy's.
"""

import ctypes
import functools
import types

import numpy as np

from . import _pool

_TYPES = {"d": np.dtype(np.float64), "z": np.dtype(np.complex128)}
_F64 = _TYPES["d"]
# LAPACK_COL_MAJOR and CblasColMajor
_COL_MAJOR = 102
# gemv's trans 0, 1, 2 as CBLAS NoTrans, Trans, ConjTrans
_CBLAS_TRANS = (111, 112, 113)
_TRANS = {"N": b"N", "T": b"T", "C": b"C"}
_P = ctypes.c_void_p
_C2 = ctypes.c_double * 2
_ndarray = np.ndarray
_from_buffer = ctypes.c_char.from_buffer
_addressof = ctypes.addressof
_byref = ctypes.byref


def _require(a, dtype, shape, name, order="C"):
    """Raise ValueError unless a is an ndarray of dtype and shape, contiguous
    in order ("C" or "F")."""
    if isinstance(a, np.ndarray) and a.shape == shape and a.dtype == dtype:
        if a.flags.c_contiguous if order == "C" else a.flags.f_contiguous:
            return
    got = (
        f"{a.dtype} array of shape {a.shape}, strides {a.strides}"
        if isinstance(a, np.ndarray)
        else type(a).__name__
    )
    raise ValueError(
        f"{name}: need a {order}-contiguous {dtype} array of shape {shape}, "
        f"got a {got}"
    )


def _vector(a, dtype, n, name):
    """The address of a's first byte, once a is checked to be a C-contiguous
    vector of dtype and length n; None (NULL) for n = 0, which LAPACK does
    not read. The caller holds a for as long as it passes the address."""
    if type(a) is not _ndarray or a.dtype is not dtype or a.shape != (n,):
        _require(a, dtype, (n,), name)
    if not n:
        return None
    try:
        # ctypes refuses a buffer that is not C-contiguous or is read-only
        return _addressof(_from_buffer(a))
    except TypeError:
        _require(a, dtype, (n,), name)  # ValueError if not C-contiguous
        raise


def _matrix(a, dtype, shape, name):
    """As _vector, for a Fortran-ordered matrix of dtype and shape."""
    if (
        type(a) is not _ndarray or a.dtype is not dtype or a.shape != shape
        or not a.flags.f_contiguous
    ):
        _require(a, dtype, shape, name, order="F")
    return _addressof(_from_buffer(a.T)) if a.size else None


def _own(a):
    """The address of a C-contiguous array allocated here; None (NULL) for
    an empty one."""
    return _addressof(_from_buffer(a)) if a.size else None


def _checked_info(info, routine):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return info


class _Library:
    """numpy's OpenBLAS, with the prefix, suffix and integer type of its
    symbols."""

    def __init__(self, cdll):
        found = _pool.affixes(cdll, "LAPACKE_dgttrs_work")
        if found is None:
            raise AttributeError("no LAPACKE entry points")
        self.cdll = cdll
        self.prefix, self.suffix = found
        wide = self.suffix == "64_"
        if not wide:
            config = self.entry("openblas_get_config", ctypes.c_char_p)()
            wide = b"USE64BITINT" in config
        self.int = ctypes.c_int64 if wide else ctypes.c_int32
        self.int_dtype = np.dtype(np.int64 if wide else np.int32)

    def entry(self, stem, restype, *argtypes):
        """The exported stem, typed; AttributeError when it is not exported."""
        fn = self.cdll[f"{self.prefix}{stem}{self.suffix}"]
        fn.restype = restype
        fn.argtypes = argtypes
        return fn


# ---------------------------------------------------------------------------
# tridiagonal LU (gttrf, gttrs) and Cholesky (potrf)


class _Pivots(np.ndarray):
    """gttrf's pivot array. Its record holds the factors it was made with
    and gttrs's arguments for them, checked and converted to ctypes once,
    for as long as the pivots live; rhs holds the last right-hand side a
    gttrs solved with them and its address, for a caller that solves in
    one buffer again and again."""

    record = None
    rhs = (None, None)


def _factor_record(dl, d, du, du2, ipiv, dtype, lib, own=False):
    """Check an LU's factors; returns (dl, d, du, du2, dtype, n, gttrs's
    arguments from n to ipiv, and its ldb). With own, du2 and ipiv are
    gttrf's own new arrays and are addressed unchecked."""
    n, I = len(d), lib.int
    m = max(n - 1, 0)
    addresses = (
        _vector(dl, dtype, m, "dl"), _vector(d, dtype, n, "d"),
        _vector(du, dtype, m, "du"),
        _own(du2) if own else _vector(du2, dtype, max(n - 2, 0), "du2"),
        _own(ipiv) if own else _vector(ipiv, lib.int_dtype, n, "ipiv"),
    )
    head = (I(n), I(1), *(_P(a) for a in addresses))
    return dl, d, du, du2, dtype, n, head, I(max(n, 1))


def _bind_gttrf(lib, t):
    dtype, I = _TYPES[t], lib.int
    fn = lib.entry(f"LAPACKE_{t}gttrf_work", I, I, _P, _P, _P, _P, _P)

    def gttrf(dl, d, du, overwrite_dl=0, overwrite_d=0, overwrite_du=0):
        """LU factors (dl, d, du, du2, ipiv, info) of tridiag(dl, d, du)."""
        n = len(d)
        # the factors overwrite copies, or the arrays themselves;
        # _factor_record checks the arrays that reach LAPACK
        dl = dl if overwrite_dl else dl.copy()
        d = d if overwrite_d else d.copy()
        du = du if overwrite_du else du.copy()
        du2 = np.empty(max(n - 2, 0), dtype)
        ipiv = np.empty(n, lib.int_dtype).view(_Pivots)
        record = _factor_record(dl, d, du, du2, ipiv, dtype, lib, own=True)
        info = fn(record[6][0], *record[6][2:])
        if info < 0:
            _checked_info(info, f"{t}gttrf")
        ipiv.record = record
        return dl, d, du, du2, ipiv, info

    return gttrf


def _bind_gttrs(lib, t):
    dtype, I = _TYPES[t], lib.int
    fn = lib.entry(
        f"LAPACKE_{t}gttrs_work", I,
        ctypes.c_int, ctypes.c_char, I, I, _P, _P, _P, _P, _P, _P, I,
    )
    # the arguments that are the same in every call, converted once
    layout = ctypes.c_int(_COL_MAJOR)
    codes = {trans: ctypes.c_char(code) for trans, code in _TRANS.items()}

    def gttrs(dl, d, du, du2, ipiv, b, trans="N", overwrite_b=0):
        """(x, info): the vector b solved against gttrf's factors."""
        record = getattr(ipiv, "record", None)
        bound = not (
            record is None or record[0] is not dl or record[1] is not d
            or record[2] is not du or record[3] is not du2 or record[4] is not dtype
        )
        if not bound:
            record = _factor_record(dl, d, du, du2, ipiv, dtype, lib)
        code = codes.get(trans)
        if code is None:
            raise ValueError(f"trans must be 'N', 'T' or 'C', got {trans!r}")
        x = b if overwrite_b else b.copy()
        held, at = ipiv.rhs if bound else (None, None)
        if x is not held:
            at = _vector(x, dtype, record[5], "b")
            if bound:
                ipiv.rhs = x, at
        info = fn(layout, code, *record[6], at, record[7])
        if info < 0:
            _checked_info(info, f"{t}gttrs")
        return x, info

    return gttrs


def _bind_potrf(lib, t):
    dtype, I = _TYPES[t], lib.int
    fn = lib.entry(f"LAPACKE_{t}potrf_work", I, ctypes.c_int, ctypes.c_char, I, _P, I)

    def potrf(a, overwrite_a=0):
        """(c, info): the upper Cholesky factor of the Fortran-ordered a.
        Unlike scipy's, c's strictly lower triangle is left as it was, not
        zeroed: the package reads info alone."""
        n = len(a)
        c = a if overwrite_a else np.array(a, order="F")
        info = fn(_COL_MAJOR, b"U", n, _matrix(c, dtype, (n, n), "a"), max(n, 1))
        return c, _checked_info(info, f"{t}potrf")

    return potrf


# ---------------------------------------------------------------------------
# a Golub-Kahan-Lanczos run's vector steps (gemv, axpy, dstev)


class _Steps:
    """The vector steps of one Golub-Kahan-Lanczos run (_blocknorm._gkl_norm)
    in dtype, float64 or complex128, on n-vectors:

    * basis: the right basis, the rows of one array; grow(k) doubles it,
      keeping its first k rows;
    * right(k, y, a): y + a basis[k - 1], then made orthogonal to the first
      k rows by classical Gram-Schmidt run twice (c = V^H y, y -= V c, with
      V the n x k matrix of those rows), in place in y, which is returned:
      one axpy and four gemvs;
    * left(u, y, a): y + a u, in place in y, which is returned (axpy);
    * top(d, e): the top eigenvalue of the k x k tridiag(e, d, e), k >= 2,
      its eigenvector and dstev's info, from dstev on copies of d and e.

    This class makes these calls on scipy's routines. _NativeSteps makes the
    same calls on numpy's OpenBLAS, on buffers it checks and addresses once
    a run.
    """

    def __init__(self, dtype, n, rows):
        self.basis = np.empty((rows, n), dtype)

    def grow(self, k):
        grown = np.empty((2 * k, self.basis.shape[1]), self.basis.dtype)
        grown[:k] = self.basis[:k]
        self.basis = grown

    def right(self, k, y, a):
        from scipy.linalg import get_blas_funcs

        gemv, axpy = get_blas_funcs(("gemv", "axpy"), (y,))
        adjoint = 2 if np.iscomplexobj(y) else 1
        r = axpy(self.basis[k - 1], y, a=a)
        # the first k rows as the columns of an F-ordered n x k matrix
        Vt = self.basis[:k].T
        for _ in range(2):
            c = gemv(1.0, Vt, r, trans=adjoint)
            r = gemv(-1.0, Vt, c, beta=1.0, y=r, overwrite_y=1)
        return r

    def left(self, u, y, a):
        from scipy.linalg import get_blas_funcs

        (axpy,) = get_blas_funcs(("axpy",), (y,))
        return axpy(u, y, a=a)

    def top(self, d, e):
        from scipy.linalg.lapack import dstev

        w, Z, info = dstev(d, e)
        return w[-1], Z[:, -1], info


class _NativeSteps(_Steps):
    """_Steps on numpy's OpenBLAS (see _bind_steps). The basis, the
    Gram-Schmidt coefficients and dstev's copies, vectors and workspace are
    buffers of the run, addressed once and again when they grow; a call
    checks and addresses only the vectors it is handed. top's eigenvector
    is a view of the run's buffer, valid until the next top. The scalar a
    of right and left is real."""

    def __init__(self, calls, dtype, n, rows):
        super().__init__(dtype, n, rows)
        self._calls, self._dtype, self._shape = calls, dtype, (n,)
        if dtype == _TYPES["z"]:
            # a complex routine takes its scalar a by address: one array of
            # the run, its real part set at each call
            self._a = _C2()
        self._row = n * dtype.itemsize
        self._left = (calls.axpy, calls.int(n), calls.inc)
        self._last_left = None, None  # (the last left's y, its address)
        self._address_basis()
        self._cap = 0  # top's buffers hold a cap x cap tridiagonal

    def _address_basis(self):
        c = self._calls
        self._at = _own(self.basis)
        self._c = np.zeros(len(self.basis), self._dtype)
        # right's arguments that hold until the basis grows
        self._right = (
            c.gemv, c.axpy, c.int, c.layout, c.adjoint, c.notrans, c.one,
            c.zero, c.minus_one, c.inc, c.int(self._shape[0]), _P(self._at),
            _P(_own(self._c)),
        )

    def _address(self, v, name):
        """v's address, once v is checked to be a vector of the run."""
        dtype, shape = self._dtype, self._shape
        if type(v) is not _ndarray or v.dtype is not dtype or v.shape != shape:
            _require(v, dtype, shape, name)
        try:
            return _addressof(_from_buffer(v))
        except TypeError:  # not C-contiguous, or read-only
            _require(v, dtype, shape, name)
            raise

    def _scalar(self, a):
        """The real scalar a as a BLAS argument of the run's dtype."""
        if self._dtype is _F64:
            return a
        self._a[0] = a
        return self._a

    def grow(self, k):
        super().grow(k)
        self._address_basis()

    def right(self, k, y, a):
        if not 1 <= k <= len(self.basis):
            raise ValueError(f"k: need 1 <= k <= {len(self.basis)}, got {k}")
        gemv, axpy, I, layout, adjoint, notrans, one, zero, minus_one, inc, n, V, c = (
            self._right
        )
        yp = _P(self._address(y, "y"))
        axpy(n, self._scalar(a), self._at + (k - 1) * self._row, inc, yp, inc)
        k = I(k)
        # a gemv with beta = 0 does not read c (BLAS): no zeroing between
        for _ in range(2):
            gemv(layout, adjoint, n, k, one, V, n, yp, inc, zero, c, inc)
            gemv(layout, notrans, n, k, minus_one, V, n, c, inc, one, yp, inc)
        return y

    def left(self, u, y, a):
        axpy, n, inc = self._left
        # u is, step after step, the y of the left before: its address is
        # the one taken then
        held, at = self._last_left
        if u is not held:
            at = self._address(u, "u")
        y_at = self._address(y, "y")
        axpy(n, self._scalar(a), at, inc, y_at, inc)
        self._last_left = y, y_at
        return y

    def top(self, d, e):
        k = len(d)
        if type(d) is not _ndarray or d.dtype is not _F64 or d.shape != (k,):
            _require(d, _F64, (k,), "d")
        if type(e) is not _ndarray or e.dtype is not _F64 or e.shape != (k - 1,):
            _require(e, _F64, (k - 1,), "e")
        if k > self._cap:
            self._cap = cap = max(k, 2 * self._cap)
            self._d, self._e = np.empty(cap), np.empty(cap)
            self._z, self._work = np.empty(cap * cap), np.empty(2 * cap)
            c = self._calls
            self._top = (c.stev, c.int, c.layout, c.vectors) + tuple(
                _P(_own(b)) for b in (self._d, self._e, self._z, self._work)
            )
        self._d[:k] = d
        self._e[: k - 1] = e
        stev, I, layout, vectors, d_at, e_at, z_at, work_at = self._top
        kk = I(k)
        info = stev(layout, vectors, kk, d_at, e_at, z_at, kk, work_at)
        # z is k x k, Fortran-ordered with leading dimension k: its last
        # column is the top eigenvector
        return self._d[k - 1], self._z[(k - 1) * k : k * k], info


def _bind_steps(lib):
    """The factory (dtype, n, rows) -> _NativeSteps on lib."""
    I = lib.int
    stev = lib.entry(
        "LAPACKE_dstev_work", I, ctypes.c_int, ctypes.c_char, I, _P, _P, _P, I, _P
    )
    calls = {}
    for t, adjoint in (("d", 1), ("z", 2)):
        # a real routine takes its scalars by value, a complex one by
        # address, as a ctypes array that its argument holds for the call
        scalar = ctypes.c_double if t == "d" else _P
        unit = ctypes.c_double if t == "d" else (lambda v: _C2(v, 0.0))
        calls[_TYPES[t]] = types.SimpleNamespace(
            one=unit(1.0), zero=unit(0.0), minus_one=unit(-1.0),
            gemv=lib.entry(
                f"cblas_{t}gemv", None,
                ctypes.c_int, ctypes.c_int, I, I, scalar, _P, I, _P, I, scalar, _P, I,
            ),
            axpy=lib.entry(f"cblas_{t}axpy", None, I, scalar, _P, I, _P, I),
            stev=stev,
            int=I, inc=I(1), layout=ctypes.c_int(_COL_MAJOR),
            vectors=ctypes.c_char(b"V"),
            notrans=ctypes.c_int(_CBLAS_TRANS[0]),
            adjoint=ctypes.c_int(_CBLAS_TRANS[adjoint]),
        )

    def steps(dtype, n, rows):
        if dtype not in calls:
            raise ValueError(f"need float64 or complex128, got {dtype}")
        return _NativeSteps(calls[dtype], np.dtype(dtype), n, rows)

    return steps



# ---------------------------------------------------------------------------
# symmetric eigensolvers (dstebz, dstevd, dstev, dsyevr, zheevr) and QR


def _require_finite(*arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _bind_tridiagonal(lib):
    """eigh_tridiagonal and dstev."""
    I, D, C = lib.int, ctypes.c_double, ctypes.c_char
    stebz = lib.entry(
        "LAPACKE_dstebz_work", I,
        C, C, I, D, D, I, I, D, _P, _P, _P, _P, _P, _P, _P, _P, _P,
    )
    stevd = lib.entry(
        "LAPACKE_dstevd_work", I, ctypes.c_int, C, I, _P, _P, _P, I, _P, I, _P, I
    )
    stev = lib.entry("LAPACKE_dstev_work", I, ctypes.c_int, C, I, _P, _P, _P, I, _P)
    layout = ctypes.c_int(_COL_MAJOR)

    def values_in(d, e, lo, hi, tol):
        """stebz's eigenvalues of tridiag(e, d, e) in (lo, hi], ascending."""
        n = len(d)
        m, nsplit = I(), I()
        w = np.empty(n)
        iblock, isplit = np.empty(n, lib.int_dtype), np.empty(n, lib.int_dtype)
        work, iwork = np.empty(4 * n), np.empty(3 * n, lib.int_dtype)
        info = stebz(
            b"V", b"E", n, lo, hi, 1, 1, tol, _vector(d, _F64, n, "d"),
            _vector(e, _F64, n - 1, "e"), _byref(m), _byref(nsplit), _own(w),
            _own(iblock), _own(isplit), _own(work), _own(iwork),
        )
        if _checked_info(info, "dstebz"):
            raise np.linalg.LinAlgError(f"dstebz failed (info={info})")
        return w[: m.value]

    def all_pairs(d, e, vectors):
        """stevd's whole spectrum, and its eigenvectors when vectors."""
        n = len(d)
        w, e = d.copy(), e.copy()
        z = np.empty((n, n) if vectors else (1, 1), order="F")
        # scipy's workspace sizes for stevd (it makes no query)
        work = np.empty(1 + 4 * n + n * n if vectors else 1)
        iwork = np.empty(3 + 5 * n if vectors else 1, lib.int_dtype)
        info = stevd(
            _COL_MAJOR, b"V" if vectors else b"N", n, _vector(w, _F64, n, "d"),
            _vector(e, _F64, n - 1, "e"), _own(z.T), len(z), _own(work), len(work),
            _own(iwork), len(iwork),
        )
        if _checked_info(info, "dstevd"):
            raise np.linalg.LinAlgError(f"dstevd failed (info={info})")
        return w, z

    def eigh_tridiagonal(
        d, e, eigvals_only=False, select="a", select_range=None, tol=0.0
    ):
        """Eigenvalues (and vectors) of the real symmetric tridiag(e, d, e),
        n >= 2: all of them (select="a"), or the values in select_range
        (select="v", eigvals_only only)."""
        n = len(d)
        if n < 2:
            raise ValueError("eigh_tridiagonal: bound for n >= 2")
        _require(d, _F64, (n,), "d")
        _require(e, _F64, (n - 1,), "e")
        _require_finite(d, e)
        if select == "a":
            w, z = all_pairs(d, e, not eigvals_only)
            return w if eigvals_only else (w, z)
        if select != "v" or not eigvals_only:
            raise ValueError(
                "eigh_tridiagonal: bound for select='a', and for select='v' "
                "with eigvals_only"
            )
        lo, hi = (float(v) for v in select_range)
        if hi < lo:
            raise ValueError("select_range must be nondecreasing")
        return values_in(d, e, lo, hi, float(tol))

    def dstev(d, e, overwrite_d=0, overwrite_e=0):
        """(w, z, info): stev's eigenvalues, in d's storage, and vectors."""
        n = len(d)
        w = d if overwrite_d else d.copy()
        e = e if overwrite_e else e.copy()
        # the 2n - 2 workspace entries, then z, in the columns of one
        # Fortran-ordered allocation
        lead = -(-max(1, 2 * n - 2) // n)
        buf = np.empty((n, lead + n), order="F")
        at = _own(buf.T)
        info = stev(
            layout, b"V", n, _vector(w, _F64, n, "d"),
            _vector(e, _F64, max(n - 1, 1), "e"), at + 8 * n * lead, n, at,
        )
        if info < 0:
            _checked_info(info, "dstev")
        return w, buf[:, lead:], info

    return eigh_tridiagonal, dstev


def _bind_eigh(lib):
    I, D, C = lib.int, ctypes.c_double, ctypes.c_char
    head = (ctypes.c_int, C, C, C, I, _P, I, D, D, I, I, D, _P, _P, _P, I, _P)
    syevr = lib.entry("LAPACKE_dsyevr_work", I, *head, _P, I, _P, I)
    heevr = lib.entry("LAPACKE_zheevr_work", I, *head, _P, I, _P, I, _P, I)

    def eigh(a, eigvals_only=False):
        """Eigenvalues (and vectors) of the real symmetric or complex
        Hermitian a, read off its lower triangle."""
        if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]):
            raise ValueError('expected square "a" matrix')
        if a.dtype not in (_TYPES["d"], _TYPES["z"]):
            raise ValueError(f"a: need float64 or complex128, got {a.dtype}")
        _require_finite(a)
        n = a.shape[0]
        if n == 0:
            w, v = np.empty(0), np.empty((0, 0), a.dtype)
            return w if eigvals_only else (w, v)
        a = np.array(a, order="F")
        m = I()
        w = np.empty(n)
        z = np.empty((n, n) if not eigvals_only else (1, 1), a.dtype, order="F")
        isuppz = np.empty(2 * n, lib.int_dtype)
        head = (
            _COL_MAJOR, b"N" if eigvals_only else b"V", b"A", b"L", n, _own(a.T), n,
            0.0, 1.0, 1, n, 0.0, _byref(m), _own(w), _own(z.T), len(z), _own(isuppz),
        )
        # scipy's workspace query: jobz "N", the whole spectrum, lower
        query = (_COL_MAJOR, b"N") + head[2:]
        work, iwork = np.empty(1, a.dtype), np.empty(1, lib.int_dtype)
        if a.dtype == _TYPES["z"]:
            rwork = np.empty(1)
            _checked_info(
                heevr(*query, _own(work), -1, _own(rwork), -1, _own(iwork), -1),
                "zheevr",
            )
            work = np.empty(int(work[0].real), a.dtype)
            rwork = np.empty(int(rwork[0]))
            iwork = np.empty(int(iwork[0]), lib.int_dtype)
            info = heevr(
                *head, _own(work), len(work), _own(rwork), len(rwork), _own(iwork),
                len(iwork),
            )
        else:
            _checked_info(syevr(*query, _own(work), -1, _own(iwork), -1), "dsyevr")
            work = np.empty(int(work[0]))
            iwork = np.empty(int(iwork[0]), lib.int_dtype)
            info = syevr(*head, _own(work), len(work), _own(iwork), len(iwork))
        if _checked_info(info, "syevr/heevr"):
            raise np.linalg.LinAlgError(f"syevr/heevr failed (info={info})")
        return w if eigvals_only else (w, z)

    return eigh


def _bind_qr(lib):
    I = lib.int
    geqrf = {
        t: lib.entry(f"LAPACKE_{t}geqrf_work", I, ctypes.c_int, I, I, _P, I, _P, _P, I)
        for t in "dz"
    }
    orgqr = {
        t: lib.entry(f"LAPACKE_{name}_work", I, ctypes.c_int, I, I, I, _P, I, _P, _P, I)
        for t, name in (("d", "dorgqr"), ("z", "zungqr"))
    }

    def run(fn, head, dtype, routine):
        """fn(*head, work, lwork) with the workspace its query asks for."""
        work = np.empty(1, dtype)
        _checked_info(fn(*head, _own(work), -1), routine)
        work = np.empty(max(int(work[0].real), 1), dtype)
        _checked_info(fn(*head, _own(work), len(work)), routine)

    def qr(a, mode="full", check_finite=True):
        """(Q, R) of the m x n a, m >= n >= 1, with Q m x n (mode="economic")."""
        if mode != "economic":
            raise ValueError("qr: bound for mode='economic'")
        if not (isinstance(a, np.ndarray) and a.ndim == 2):
            raise ValueError("expected a 2-D array")
        t = next((t for t, dtype in _TYPES.items() if a.dtype == dtype), None)
        if t is None:
            raise ValueError(f"a: need float64 or complex128, got {a.dtype}")
        m, n = a.shape
        if not m >= n >= 1:
            raise ValueError("qr: bound for m >= n >= 1")
        if check_finite:
            _require_finite(a)
        q = np.array(a, order="F")
        tau = np.empty(n, a.dtype)
        run(geqrf[t], (_COL_MAJOR, m, n, _own(q.T), m, _own(tau)), a.dtype, f"{t}geqrf")
        r = np.triu(q[:n, :])
        run(orgqr[t], (_COL_MAJOR, m, n, n, _own(q.T), m, _own(tau)), a.dtype, "orgqr")
        return q, r

    return qr


# ---------------------------------------------------------------------------
# binding


def _typed(names, arrays, routines):
    """The routines named in names, in the arrays' type."""
    t = "z" if any(np.iscomplexobj(a) for a in arrays) else "d"
    if isinstance(names, str):
        return routines[names, t]
    return tuple(routines[name, t] for name in names)


def _bind(lib):
    """The routines on lib; AttributeError when lib lacks an entry point."""
    lapack = {}
    for t in "dz":
        lapack["gttrf", t] = _bind_gttrf(lib, t)
        lapack["gttrs", t] = _bind_gttrs(lib, t)
        lapack["potrf", t] = _bind_potrf(lib, t)
    eigh_tridiagonal, dstev = _bind_tridiagonal(lib)
    return types.SimpleNamespace(
        get_lapack_funcs=lambda names, arrays: _typed(names, arrays, lapack),
        eigh_tridiagonal=eigh_tridiagonal,
        eigh=_bind_eigh(lib),
        qr=_bind_qr(lib),
        dstev=dstev,
        gkl_steps=_bind_steps(lib),
    )


def _scipy():
    """scipy.linalg's routines of the same names."""
    import scipy.linalg
    from scipy.linalg import lapack

    return types.SimpleNamespace(
        get_lapack_funcs=scipy.linalg.get_lapack_funcs,
        eigh_tridiagonal=scipy.linalg.eigh_tridiagonal,
        eigh=scipy.linalg.eigh,
        qr=scipy.linalg.qr,
        dstev=lapack.dstev,
        gkl_steps=_Steps,
    )


def _library():
    """numpy's OpenBLAS, or None when it is not mapped into the process."""
    return _pool.openblas("numpy")


@functools.cache
def _routines():
    """The routines, bound at the first call: on numpy's OpenBLAS, or
    scipy's where that library is not mapped in or lacks an entry point."""
    cdll = _library()
    try:
        return _bind(_Library(cdll)) if cdll is not None else _scipy()
    except AttributeError:  # an entry point the library does not export
        return _scipy()


class _Routine:
    """A routine of this module, bound at the first call of any (_routines)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        return getattr(_routines(), self.name)(*args, **kwargs)

    def __repr__(self):
        return f"<oscilab._lapack.{self.name}>"



get_lapack_funcs = _Routine("get_lapack_funcs")
eigh_tridiagonal = _Routine("eigh_tridiagonal")
eigh = _Routine("eigh")
qr = _Routine("qr")
dstev = _Routine("dstev")
gkl_steps = _Routine("gkl_steps")
