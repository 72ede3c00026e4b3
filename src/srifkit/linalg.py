"""Dense numerical kernels parameterized over floating-point precision.

Givens sweeps (one LAPACK ?lasr call per chain of rotations, bound through
ctypes), Householder QR (LAPACK ?geqrf, or ?tpqrt when the top block is
already triangular; only the factor is returned, so a right-hand side
rides along as a last column), Cholesky factorization and solves (?potrf,
?potrs), normal-equation products (BLAS ?syrk, with ?trmm for a
triangular top block) and triangular solves (?trtrs), all preserving the
dtype of their inputs (float32 or float64). Triangular factors stay as
LAPACK leaves them, Fortran-ordered and with the row signs its
reflections and rotations give: a factor is defined only up to those
signs, and nothing here reads them. Every kernel counts: it adds
the textbook algorithm's operation count, one closed form per call, to
the FlopCounter it is given, and a call that counts nothing gets the
default `UNCOUNTED`, which discards it.
Singular values are always evaluated in float64 so the diagnostics do
not inherit the instability they are measuring. They come from LAPACK
?gesdd, bound through ctypes as ?lasr is: a ctypes call releases the
GIL, so the engine's diagnostics thread runs its SVDs beside the frames
instead of taking turns with them.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg.cython_lapack


class NotPositiveDefinite(Exception):
    """Cholesky pivot <= 0; carries the offending pivot index."""

    def __init__(self, pivot: int, value: float = float("nan")):
        super().__init__(f"non-positive pivot {value} at index {pivot}")
        self.pivot = pivot
        self.value = value


class SingularTriangular(Exception):
    """Zero diagonal entry in a triangular solve."""

    def __init__(self, index: int):
        super().__init__(f"zero diagonal at index {index}")
        self.index = index


@dataclass
class FlopCounter:
    """Accumulates a floating-point operation count.

    Counts are model-level: each kernel reports the arithmetic its
    algorithm performs, every add, multiply, division and square root one
    FLOP (Golub & Van Loan's convention), so counts are identical across
    precisions and platforms.
    """

    count: int = 0

    def add(self, flops):
        self.count += int(flops)

    def total(self) -> int:
        return self.count


class _Uncounted(FlopCounter):
    """A counter that discards every count: the default of each kernel's
    `flops`, for calls that count nothing."""

    def add(self, flops):
        pass


UNCOUNTED = _Uncounted()


@functools.lru_cache(maxsize=8)
def _strictly_lower(n):
    """Read-only mask of the strictly lower triangle of an n x n matrix,
    Fortran-ordered like the factors it masks (a mask in another order
    takes half as long again)."""
    mask = np.asfortranarray(np.tri(n, k=-1, dtype=bool))
    mask.flags.writeable = False
    return mask


# panel width of ?tpqrt's compact-WY blocks; 8 was the fastest of 2-32 at
# m = 36..995, n = 107..122 with single-threaded OpenBLAS
TPQRT_NB = 8


def householder_qr(A, flops: FlopCounter = UNCOUNTED, overwrite=False,
                   top=None):
    """Householder QR of A, or of [top; A] for an upper-triangular top.

    Returns the triangular factor R and never forms Q. Rank deficiency is
    permitted and shows up as (near-)zero diagonal entries. `overwrite`
    lets LAPACK work in A, and in top, when they are Fortran-ordered.

    Without `top` this is LAPACK ?geqrf. For m >= n, R is the n x n
    upper-triangular factor with A.T @ A = R.T @ R; for wide inputs the
    full m x n upper-trapezoidal factor is returned.

    With an n x n `top` (read as upper triangular: its strictly lower part
    is ignored) this is ?tpqrt with l = 0, which never touches the zeros
    under top's diagonal: R is n x n with top.T @ top + A.T @ A = R.T @ R.
    Column k's reflector then spans 1 + m rows instead of n + m - k
    (Schreiber & Van Loan's compact WY form), about 2 m n**2 FLOPs instead
    of 2 m n**2 + 4/3 n**3 for a stacked ?geqrf. A right-hand side rides
    along as one more column of A and top: for the data array
    [top z; A y], R's last column holds Q.T [z; y] above the residual
    norm.

    The FLOP count is that of the textbook column sweep (Golub & Van Loan
    Alg. 5.2.1) over the rows each reflector spans: min(n, m - 1) columns
    of m - k rows, or with `top` n columns of 1 + m rows (none if m = 0).
    A column whose norm is zero when reached, i.e. a zero diagonal entry
    of R, only pays for its norm; with `top`, the last column (a data
    array's residual norm) always pays for its reflector too, since
    whether a zero residual comes out exactly zero depends on the
    precision.
    """
    m, n = A.shape
    if top is None:
        geqrf, = scipy.linalg.lapack.get_lapack_funcs(("geqrf",), (A,))
        qr = geqrf(A, overwrite_a=overwrite)[0]
        R = np.triu(qr[:n, :n])
        cols = min(n, m - 1)
    else:
        tpqrt, = scipy.linalg.lapack.get_lapack_funcs(("tpqrt",), (top, A))
        R = tpqrt(0, max(1, min(n, TPQRT_NB)), top, A, overwrite_a=overwrite,
                  overwrite_b=overwrite)[0]
        np.copyto(R, 0, where=_strictly_lower(n))
        cols = n if m else 0
    # column k's norm costs 2 FLOPs per row it spans, m - k rows or m + 1
    # with top; with a reflector (a nonzero diagonal entry) it updates the
    # c - k trailing columns, c = n - 1, at 2 (1 + 2 (c - k)) FLOPs per
    # row plus c - k; the sums over those columns need only the count, sum
    # and sum of squares of their indices, in closed form when every
    # column has one
    d = np.diagonal(R)[:cols] != 0
    if top is not None and cols:
        d[-1] = True
    h = int(np.count_nonzero(d))
    if h == cols:
        k1, k2 = h * (h - 1) // 2, (h - 1) * h * (2 * h - 1) // 6
    else:
        k = np.flatnonzero(d)
        k1, k2 = int(k.sum()), int(k @ k)
    c = n - 1
    if top is None:
        spans = cols * m - cols * (cols - 1) // 2
        reflect = h * m * (1 + 2 * c) - k1 * (1 + 2 * c + 2 * m) + 2 * k2
    else:
        spans = cols * (m + 1)
        reflect = (m + 1) * (h * (1 + 2 * c) - 2 * k1)
    flops.add(2 * (spans + reflect) + h * c - k1)
    return R


def _lapack(name, *argtypes):
    """scipy's compiled LAPACK routine `name`, called through its Cython
    capsule as a ctypes function, which releases the GIL while it runs."""
    cap, api, fn = (scipy.linalg.cython_lapack.__pyx_capi__[name],
                    ctypes.pythonapi, ctypes.PYFUNCTYPE)
    label = fn(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    addr = fn(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(cap, label(cap))
    return ctypes.CFUNCTYPE(None, *argtypes)(addr)


_CH, _INT, _PTR = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
_LASR = {np.dtype(t): _lapack(t[0] + "lasr", _CH, _CH, _CH, _INT, _INT,
                              _PTR, _PTR, _PTR, _INT)
         for t in ("single", "double")}
# jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info
_GESDD = _lapack("dgesdd", _CH, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT,
                 _PTR, _INT, _PTR, _INT, _PTR, _INT)


def row_rotator(V):
    """rotate(k, c, s, pivot, direct): rotate the top len(c) + 1 rows of
    the trailing view V[k:, k:] in one ?lasr call (SIDE = 'L').

    Rotation i maps rows (a, b) = (i, i + 1) of the view for pivot "V", or
    (0, i + 1) for "T", to (c[i] a + s[i] b, c[i] b - s[i] a), in
    ascending i for direct "F" and descending i for "B"; one whose (c, s)
    is exactly (1, 0) is skipped, so a NaN or inf does not spread through
    it. V is column-major, as LAPACK leaves its factors: a row stride of
    one item and a column stride of at least a column, which a single
    column does not need. V is checked, and its address taken, once:
    ValueError, naming its shape and strides, for a dtype other than
    float32/float64, a read-only V or any other layout (a C-ordered V
    among them). Each call raises ValueError, before LAPACK sees a
    pointer, for c and s that are not nonempty vectors of one length or
    rows outside V.
    """
    lasr = _LASR.get(V.dtype)
    rows, cols = V.shape
    lda, rem = divmod(V.strides[1], V.itemsize) if cols > 1 else (rows, 0)
    if (lasr is None or not V.flags.writeable or rem or lda < rows
            or V.strides[0] != V.itemsize):
        raise ValueError(f"cannot rotate a {V.dtype} view of shape {V.shape}"
                         f" and strides {V.strides}")
    base, size, n = V.ctypes.data, V.itemsize, ctypes.c_int

    def rotate(k, c, s, pivot, direct):
        # c and s in one fresh array, whose address costs less than
        # .ctypes.data
        cs = np.array((c, s), dtype=V.dtype)
        if (cs.ndim != 2 or not cs.shape[1]
                or not 0 <= k <= min(rows - 1 - cs.shape[1], cols)):
            raise ValueError(f"cannot rotate rows {k}.. of a view of shape "
                             f"{V.shape} by (c, s) of shape {cs.shape}")
        at = ctypes.addressof(ctypes.c_char.from_buffer(cs))
        lasr(b"L", pivot.encode(), direct.encode(), n(cs.shape[1] + 1),
             n(cols - k), at, at + cs.strides[0],
             base + (k * lda + k) * size, n(max(lda, 1)))

    return rotate


def givens_triangularize(A, flops: FlopCounter = UNCOUNTED):
    """Zero all below-diagonal entries of A in place with Givens rotations.

    Sweeps column by column and rotates only the entries that are nonzero
    when their column is reached, so nearly-triangular inputs cost far less
    than a dense QR. Each column's rotations are one chain against its
    diagonal row, one ?lasr call (`row_rotator`), through whose exact
    identities a NaN or inf does not spread. Only rows that start with
    entries below the diagonal are ever rotated into it, because rotations
    keep every other row zero left of its diagonal. Returns A. Its one
    caller is the deletion of an uninformed state in
    `filters.marginalize_block`.

    The FLOP count is the rotation-by-rotation one: forming a rotation costs
    6 (1 add, 2 muls, 2 divs and 1 sqrt), and applying it in column j
    costs 6 (2 adds and 4 muls) per column of j..n-1.
    """
    m, n = A.shape
    rows = np.flatnonzero(np.any(np.tril(A, -1) != 0, axis=1))
    nrot = nwork = 0
    for j in range(min(n, m - 1)):
        nz = rows[(rows > j) & (A[rows, j] != 0)]
        if nz.size == 0:
            continue
        idx = np.concatenate(([j], nz))
        # rotation i zeroes B[i, 0] against row 0, which then leads r[i];
        # the gathered rows are copied column-major, as ?lasr reads them
        B = np.asfortranarray(A[idx, j:])
        r = np.hypot.accumulate(B[:, 0])
        row_rotator(B)(0, r[:-1] / r[1:], B[1:, 0] / r[1:], "T", "F")
        B[1:, 0] = 0.0
        B[0, 0] = r[-1]
        A[idx, j:] = B
        nrot += nz.size
        nwork += nz.size * (n - j)
    flops.add(6 * (nrot + nwork))
    return A


def cholesky_upper(S, flops: FlopCounter = UNCOUNTED):
    """Upper-triangular U with U.T @ U = S and positive diagonal, read from
    S's upper triangle.

    Raises NotPositiveDefinite (with the pivot index and value) when a
    pivot is <= 0 or not finite -- the signature of a conditioning
    failure at the active precision.
    """
    S = np.asarray(S)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("cholesky_upper needs a square matrix")
    potrf, = scipy.linalg.lapack.get_lapack_funcs(("potrf",), (S,))
    U, info = potrf(S, lower=0, clean=1)
    # pivots [0, q) factored; ?potrf stops at a pivot <= 0 and stores it
    # on the diagonal, but runs on through NaN and +inf, which leave
    # sqrt(pivot) there
    q = info - 1 if info > 0 else n
    bad = np.flatnonzero(~np.isfinite(np.diagonal(U)[:q]))
    failed = bad.size > 0 or info > 0
    if bad.size:
        q = int(bad[0])
    # the column sweep's count: q full steps, then the failing pivot;
    # step k's pivot and each of its n - k - 1 off-diagonal entries
    # subtract a k-term dot product (k muls, k adds), each off-diagonal
    # entry divides by the pivot, and the pivot takes a square root
    steps = q + failed
    nc = q * (n - 1) - q * (q - 1) // 2                 # sum of n - k - 1
    knc = (n - 1) * q * (q - 1) // 2 - (q - 1) * q * (2 * q - 1) // 6
    flops.add(steps * steps + 2 * knc + nc)
    if failed:
        d = float(U[q, q])
        raise NotPositiveDefinite(q, d * d if bad.size else d)
    return U


def solve_upper(U, b, flops: FlopCounter = UNCOUNTED):
    """Solve U x = b by back substitution (LAPACK ?trtrs), which reads a
    Fortran-ordered U, as LAPACK leaves its factors, in place.
    Counted per right-hand side as the substitution's n(n - 1)/2
    multiply-adds and n divisions, n**2 FLOPs.
    """
    n = U.shape[0]
    ncol = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    flops.add(n * n * ncol)
    trtrs, = scipy.linalg.lapack.get_lapack_funcs(("trtrs",), (U, b))
    x, info = trtrs(U, b)
    if info > 0:
        raise SingularTriangular(info - 1)
    return x


def cholesky_solve(U, b, flops: FlopCounter = UNCOUNTED):
    """Solve U.T U x = b with one ?potrs call on ?potrf's factor as it is.

    Counted per right-hand side as the forward and the back substitution it
    performs, n(n - 1)/2 multiply-adds and n divisions each, 2 n**2 FLOPs.
    """
    n = U.shape[0]
    ncol = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    flops.add(2 * n * n * ncol)
    potrs, = scipy.linalg.lapack.get_lapack_funcs(("potrs",), (U, b))
    return potrs(U, b, lower=0)[0]


def form_normal_half(A, flops: FlopCounter = UNCOUNTED, top=None):
    """The upper triangle of A.T @ A, plus top.T @ top for a triangular top.

    The upper triangle comes from BLAS ?syrk (roughly m*n**2 FLOPs instead
    of 2*m*n**2); the strictly lower part of the result is unspecified,
    as ?potrf (`cholesky_upper`) never reads it. An n x n `top` (read as
    upper triangular: its strictly lower part is ignored) adds
    top.T @ top through ?trmm, which reads only top's triangle, on a
    Fortran-ordered copy of top with its strictly lower part zeroed, and
    ?syrk accumulates A.T @ A onto it with beta = 1, so [top; A] is never
    stacked. top's part is counted as the upper half of
    a product of two triangular factors, n**3 / 3 FLOPs against n**3 for a
    ?syrk over its zeros (?trmm itself multiplies the triangle into a full
    square, about n**3).
    """
    m, n = A.shape
    syrk, trmm = scipy.linalg.blas.get_blas_funcs(("syrk", "trmm"), (A,))
    # ?syrk with trans = 0 on the transpose reads a C-ordered A in place
    At, trans = (A, 1) if A.flags.f_contiguous else (A.T, 0)
    if top is None:
        S = np.zeros((n, n), dtype=A.dtype, order="F")
    else:
        T = np.array(top, dtype=A.dtype, order="F")
        np.copyto(T, 0, where=_strictly_lower(n))
        S = trmm(1.0, top, T, lower=0, trans_a=1, overwrite_b=1)
    if m:    # ?syrk rejects the leading dimension of an empty A
        S = syrk(1.0, At, beta=1.0, c=S, trans=trans, lower=0, overwrite_c=1)
    flops.add((2 * m - 1) * (n * (n + 1) // 2))
    if top is not None:
        # entry (i, j), i <= j, is a dot product of i + 1 terms, i + 1
        # adds with the one onto the ?syrk part
        flops.add(n * (n + 1) * (n + 2) // 3)
    return S


def svdvals(A):
    """The singular values of the 2-D A at float64, in descending order,
    from one LAPACK ?gesdd call (jobz = 'N') that releases the GIL.

    ?gesdd overwrites a Fortran-ordered float64 copy of A, made before any
    pointer reaches LAPACK, in a workspace of LAPACK's minimum for
    jobz = 'N': 3k + max(m, n, 7k) reals and 8k integers, k = min(m, n).
    np.linalg.svd(A, compute_uv=False) calls ?gesdd with jobz = 'N' too,
    so with numpy and scipy on one OpenBLAS release the values are bitwise
    those it returns for the float64 A. A NaN entry (info = -4) or a
    failure to converge raises np.linalg.LinAlgError.
    """
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2:
        raise ValueError(f"svdvals needs a 2-D matrix, got shape {A.shape}")
    m, n = A.shape
    k = min(m, n)
    s = np.empty(k)
    if not k:
        return s
    work = np.empty(3 * k + max(m, n, 7 * k))
    iwork = np.empty(8 * k, dtype=np.intc)
    c, info = ctypes.c_int, ctypes.c_int()
    _GESDD(b"N", c(m), c(n), A.ctypes.data, c(m), s.ctypes.data, None, c(1),
           None, c(1), work.ctypes.data, c(work.size), iwork.ctypes.data, info)
    if info.value:
        raise np.linalg.LinAlgError(
            f"SVD did not converge (?gesdd info {info.value})")
    return s

