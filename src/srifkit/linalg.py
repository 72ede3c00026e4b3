"""Dense numerical kernels parameterized over floating-point precision.

Givens sweeps (each column's chain of rotations applied at once in closed
form), Householder QR (LAPACK ?geqrf, or ?tpqrt when the top block is
already triangular), Cholesky factorization and solves (?potrf, ?potrs),
normal-equation products (BLAS ?syrk, with ?trmm for a triangular top
block), triangular solves (?trtrs) and spectral condition numbers, all
preserving the dtype of their inputs (float32 or float64) and optionally
instrumented with a FLOP counter that records the textbook algorithm's
operation count, one closed-form count per call.
Condition numbers are always evaluated in float64 so the diagnostics do
not inherit the instability they are measuring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg


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
    """Accumulates floating-point operation counts by kind.

    Counts are model-level: each kernel reports the arithmetic its
    algorithm performs, so counts are identical across precisions and
    platforms.
    """

    adds: int = 0
    muls: int = 0
    divs: int = 0
    sqrts: int = 0

    def add(self, adds=0, muls=0, divs=0, sqrts=0):
        self.adds += int(adds)
        self.muls += int(muls)
        self.divs += int(divs)
        self.sqrts += int(sqrts)

    def total(self) -> int:
        return self.adds + self.muls + self.divs + self.sqrts


def eps_of(dtype) -> float:
    return float(np.finfo(np.dtype(dtype)).eps)


def sign_normalize_rows(R, rhs=None):
    """Flip rows of an upper-triangular factor so its diagonal is >= 0.

    Triangular factors are unique only up to row signs; normalizing makes
    factors from different QR/Cholesky paths directly comparable. If rhs
    is given its rows are flipped consistently.
    """
    n = min(R.shape)
    d = np.sign(np.diag(R)[:n])
    d[d == 0] = 1.0
    R[:n, :] *= d[:, None].astype(R.dtype)
    if rhs is not None:
        rhs[:n] *= d.reshape((n,) + (1,) * (rhs.ndim - 1)).astype(rhs.dtype)
    return R


@functools.lru_cache(maxsize=8)
def _strictly_lower(n):
    """Read-only mask of the strictly lower triangle of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


# panel width of ?tpqrt's compact-WY blocks; 8 was the fastest of 2-32 at
# m = 36..995, n = 107..122 with single-threaded OpenBLAS
TPQRT_NB = 8


def householder_qr(A, rhs=None, flops: FlopCounter | None = None,
                   overwrite=False, top=None):
    """Householder QR of A, or of [top; A] for an upper-triangular top.

    Returns (R, transformed_rhs) and never forms Q explicitly. Rank
    deficiency is permitted and shows up as (near-)zero diagonal entries.

    Without `top` this is LAPACK ?geqrf. For m >= n, R is the n x n
    upper-triangular factor with A.T @ A = R.T @ R; for wide inputs the
    full m x n upper-trapezoidal factor is returned. transformed_rhs is
    Q.T @ rhs (all m rows, via ?ormqr; the caller splits off the top n).

    With an n x n `top` (read as upper triangular: its strictly lower part
    is ignored) this is ?tpqrt with l = 0, which never touches the zeros
    under top's diagonal: R is n x n with top.T @ top + A.T @ A = R.T @ R,
    and rhs has n + m rows, [rhs for top; rhs for A], of which Q.T @ rhs
    (via ?tpmqrt) is returned. Column k's reflector then spans 1 + m rows
    instead of n + m - k (Schreiber & Van Loan's compact WY form), about
    2 m n**2 FLOPs instead of 2 m n**2 + 4/3 n**3 for a stacked ?geqrf.

    The FLOP count is that of the textbook column sweep (Golub & Van Loan
    Alg. 5.2.1) over the rows each reflector spans: min(n, m - 1) columns
    of m - k rows, or with `top` n columns of 1 + m rows (none if m = 0).
    A column whose norm is zero when reached, i.e. a zero diagonal entry
    of R, only pays for its norm.
    """
    m, n = A.shape
    nrhs = 0 if rhs is None else (1 if np.ndim(rhs) == 1 else rhs.shape[1])
    if top is None:
        geqrf, ormqr = scipy.linalg.lapack.get_lapack_funcs(
            ("geqrf", "ormqr"), (A,))
        qr, tau, _, _ = geqrf(A, overwrite_a=overwrite)
        R = np.triu(qr[:n, :n]) if m >= n else np.triu(qr)
        b = None
        if rhs is not None:
            b, _, _ = ormqr("L", "T", qr[:, :tau.shape[0]], tau,
                            np.asarray(rhs).reshape(m, -1), max(1, nrhs),
                            overwrite_c=overwrite)
        k = np.arange(min(n, m - 1))
        span = m - k
    else:
        tpqrt, tpmqrt = scipy.linalg.lapack.get_lapack_funcs(
            ("tpqrt", "tpmqrt"), (top, A))
        R, v, t, _ = tpqrt(0, max(1, min(n, TPQRT_NB)), top, A,
                           overwrite_b=overwrite)
        np.copyto(R, 0, where=_strictly_lower(n))
        b = None
        if rhs is not None:
            b = np.asarray(rhs).reshape(n + m, -1)
            if m:
                c1, c2, _ = tpmqrt(0, v, t, b[:n], b[n:], trans="T",
                                   overwrite_b=overwrite)
                b = np.concatenate([c1, c2])
        k = np.arange(n if m else 0)
        span = np.full(k.size, m + 1)
    if b is not None and np.ndim(rhs) == 1:
        b = b[:, 0]
    if flops is not None:
        has = np.diag(R)[: k.size] != 0      # columns with a reflector
        cols = n - k[has] - 1 + nrhs         # trailing columns it updates
        reflect = span[has] * (1 + 2 * cols)
        flops.add(adds=(span - 1).sum() + reflect.sum(),
                  muls=span.sum() + (reflect + cols).sum(),
                  sqrts=k.size)
    return R, b


def _givens_chain(B, rotated, carried=None):
    """Rotate rows 1..k of B into row 0 in turn with Givens rotations.

    Rotation i zeroes B[i, 0] against the carried row, whose leading entry
    grows as r_i = hypot(B[0, 0], B[1, 0], ..., B[i, 0]) with r_0 = B[0, 0].
    Then c_i = r_{i-1} / r_i, s_i = B[i, 0] / r_i, and the carried row after
    rotation i is S_i / r_i, where S_i = sum_{l <= i} B[l, 0] * B[l] is a
    cumulative sum, so the whole chain is a few array operations. Row i's
    rotated copy, c_i * B[i] - s_i * (carried row before rotation i), with
    leading entry 0, is written to rotated[i - 1]. The carried row, with
    leading entry r_k, is written to `carried` when one is given; without
    it the last row of the cumulative sum is never formed. Both may be
    views of B, which is read in full before either is written. Needs
    r_i > 0 for i >= 1, i.e. B[0, 0] or B[1, 0] nonzero; NaN leading
    entries spread as in a rotation-by-rotation sweep.
    """
    lead = B[:, 0]
    r = np.hypot.accumulate(lead)
    k = len(B) - 1
    # scale the weights by r_k so the products cannot overflow
    t = r[-1] if np.isfinite(r[-1]) else 1.0
    rows = k if carried is None else k + 1
    S = np.cumsum((lead[:rows] / t)[:, None] * B[:rows], axis=0)
    # the carried row before each rotation, times s_i
    prev = S[:k]
    prev[1:] /= (r[1:-1] / t)[:, None]
    prev[0] = B[0]
    prev *= (lead[1:] / r[1:])[:, None]
    cB = (r[:-1] / r[1:])[:, None] * B[1:]
    if carried is not None:
        np.multiply(S[k], t / r[-1], out=carried)
        carried[0] = r[-1]
    np.subtract(cB, prev, out=rotated)
    rotated[:, 0] = 0.0


def givens_triangularize(A, flops: FlopCounter | None = None):
    """Zero all below-diagonal entries of A in place with Givens rotations.

    Sweeps column by column and rotates only the entries that are nonzero
    when their column is reached, so nearly-triangular inputs cost far less
    than a dense QR. Each column's rotations are one chain against its
    diagonal row. Only rows that start with entries below the diagonal are
    ever rotated into it, because rotations keep every other row zero left
    of its diagonal. Returns A. Its one caller is the deletion of an
    uninformed state in `filters.marginalize_block`.

    The FLOP count is the rotation-by-rotation one: forming a rotation costs
    1 add, 2 muls, 2 divs and 1 sqrt, and applying it in column j costs 2
    adds and 4 muls per column of j..n-1.
    """
    m, n = A.shape
    rows = np.flatnonzero(np.any(np.tril(A, -1) != 0, axis=1))
    below = np.arange(n) < rows[:, None]
    nrot = nwork = 0
    while True:
        hit = (A[rows] != 0) & below
        cols = np.flatnonzero(hit.any(axis=0))
        if cols.size == 0:
            break
        j = cols[0]
        nz = rows[hit[:, j]]
        idx = np.concatenate(([j], nz))
        B = A[idx, j:]
        _givens_chain(B, B[1:], B[0])
        A[idx, j:] = B
        nrot += nz.size
        nwork += nz.size * (n - j)
    if flops is not None:
        flops.add(adds=nrot + 2 * nwork, muls=2 * nrot + 4 * nwork,
                  divs=2 * nrot, sqrts=nrot)
    return A


def cholesky_upper(S, flops: FlopCounter | None = None, check_symmetry=True):
    """Upper-triangular U with U.T @ U = S and positive diagonal.

    Raises NotPositiveDefinite (with the pivot index and value) when a
    pivot is <= 0 or not finite -- the signature of a conditioning
    failure at the active precision.
    """
    S = np.asarray(S)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("cholesky_upper needs a square matrix")
    if check_symmetry:
        scale = np.abs(S) + np.abs(S.T) + eps_of(S.dtype)
        if not np.all(np.abs(S - S.T) <= 4.0 * eps_of(S.dtype) * scale):
            raise ValueError("matrix is not symmetric to 4 eps")
    potrf, = scipy.linalg.lapack.get_lapack_funcs(("potrf",), (S,))
    U, info = potrf(S, lower=0, clean=1)
    # pivots [0, q) factored; ?potrf stops at a pivot <= 0 and stores it
    # on the diagonal, but runs on through NaN and +inf, which leave
    # sqrt(pivot) there
    q = info - 1 if info > 0 else n
    bad = np.flatnonzero(~np.isfinite(np.diag(U)[:q]))
    failed = bad.size > 0 or info > 0
    if bad.size:
        q = int(bad[0])
    if flops is not None:
        # the column sweep's count: q full steps, then the failing pivot;
        # step k's pivot and each of its n - k - 1 off-diagonal entries
        # subtract a k-term dot product (k muls, k adds), and each
        # off-diagonal entry divides by the pivot
        steps = q + failed
        nc = q * (n - 1) - q * (q - 1) // 2                 # sum of n - k - 1
        knc = (n - 1) * q * (q - 1) // 2 - (q - 1) * q * (2 * q - 1) // 6
        flops.add(adds=steps * (steps - 1) // 2 + knc,
                  muls=steps * (steps - 1) // 2 + knc,
                  divs=nc, sqrts=steps)
    if failed:
        d = float(U[q, q])
        raise NotPositiveDefinite(q, d * d if bad.size else d)
    return U


def solve_upper(U, b, flops: FlopCounter | None = None):
    """Solve U x = b by back substitution (LAPACK ?trtrs).

    ?trtrs runs on U's Fortran-ordered transpose, so U is never copied.
    Counted per right-hand side as the substitution's n(n - 1)/2
    multiply-adds and n divisions.
    """
    n = U.shape[0]
    if flops is not None:
        ncol = 1 if np.ndim(b) == 1 else np.shape(b)[1]
        tri = n * (n - 1) // 2 * ncol
        flops.add(adds=tri, muls=tri, divs=n * ncol)
    trtrs, = scipy.linalg.lapack.get_lapack_funcs(("trtrs",), (U, b))
    x, info = trtrs(U.T, b, lower=1, trans=1)
    if info > 0:
        raise SingularTriangular(info - 1)
    return x


def cholesky_solve(U, b, flops: FlopCounter | None = None):
    """Solve U.T U x = b for a Cholesky factor U with one ?potrs call.

    Counted per right-hand side as the forward and the back substitution it
    performs, n(n - 1)/2 multiply-adds and n divisions each.
    """
    n = U.shape[0]
    if flops is not None:
        ncol = 1 if np.ndim(b) == 1 else np.shape(b)[1]
        tri = n * (n - 1) * ncol
        flops.add(adds=tri, muls=tri, divs=2 * n * ncol)
    potrs, = scipy.linalg.lapack.get_lapack_funcs(("potrs",), (U, b))
    x, _ = potrs(U.T, b, lower=1)
    return x


def form_normal_half(A, flops: FlopCounter | None = None, top=None):
    """A.T @ A, plus top.T @ top for an upper-triangular top, mirrored.

    The upper triangle comes from BLAS ?syrk (roughly m*n**2 FLOPs instead
    of 2*m*n**2), and the result is exactly symmetric by construction.
    An n x n `top` (read as upper triangular: its strictly lower part is
    ignored) adds top.T @ top through ?trmm, and ?syrk accumulates A.T @ A
    onto it with beta = 1, so [top; A] is never stacked. top's part is
    counted as the upper half of a product of two triangular factors,
    n**3 / 3 FLOPs against n**3 for a ?syrk over its zeros (?trmm itself
    multiplies the triangle into a full square, about n**3).
    """
    m, n = A.shape
    syrk, trmm = scipy.linalg.blas.get_blas_funcs(("syrk", "trmm"), (A,))
    # ?syrk with trans = 0 on the transpose reads a C-ordered A in place
    At, trans = (A, 1) if A.flags.f_contiguous else (A.T, 0)
    if top is None:
        S = np.zeros((n, n), dtype=A.dtype, order="F")
    else:
        # top.T @ top as L @ L.T for the Fortran-ordered lower L = top.T
        L = np.array(top.T, order="F")
        np.copyto(L, 0, where=_strictly_lower(n).T)
        S = trmm(1.0, np.asarray(top).T, L, side=1, lower=1, trans_a=1,
                 overwrite_b=1)
    if m:    # ?syrk rejects the leading dimension of an empty A
        S = syrk(1.0, At, beta=1.0, c=S, trans=trans, lower=0, overwrite_c=1)
    np.copyto(S, S.T, where=_strictly_lower(n))
    if flops is not None:
        nup = n * (n + 1) // 2
        flops.add(adds=(m - 1) * nup, muls=m * nup)
        if top is not None:
            # entry (i, j), i <= j, is a dot product of i + 1 terms,
            # i + 1 adds with the one onto the ?syrk part
            tri = n * (n + 1) * (n + 2) // 6
            flops.add(adds=tri, muls=tri)
    return S


def cond_spectral(A):
    """(kappa, sigma_max, sigma_min) via full SVD at float64.

    Diagnostic-grade: always evaluated in double precision regardless of
    the input dtype. sigma_min = 0 reports kappa = +inf.
    """
    A64 = np.asarray(A, dtype=np.float64)
    if A64.size == 0 or not np.any(A64):
        raise ValueError("cond_spectral needs a nonzero matrix")
    s = np.linalg.svd(A64, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    kappa = float("inf") if smin == 0.0 else smax / smin
    return kappa, smax, smin
