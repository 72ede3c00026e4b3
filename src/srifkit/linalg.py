"""Dense numerical kernels parameterized over floating-point precision.

Givens rotations, Householder QR and Cholesky factorization (LAPACK),
normal-equation products (BLAS), triangular solves and spectral condition
numbers, all preserving the dtype of their inputs (float32 or float64) and
optionally instrumented with a FLOP counter that records the textbook
algorithm's operation count.
Condition numbers are always evaluated in float64 so the diagnostics do
not inherit the instability they are measuring.
"""

from __future__ import annotations

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


@dataclass
class GivensRotation:
    """Plane rotation with c**2 + s**2 = 1 acting on rows i and j."""

    c: float
    s: float
    i: int = 0
    j: int = 1


def eps_of(dtype) -> float:
    return float(np.finfo(np.dtype(dtype)).eps)


def givens_from_pair(a, b, i=0, j=1, flops: FlopCounter | None = None) -> GivensRotation:
    """Rotation G such that G.T @ [a, b] = [r, 0] with r >= 0.

    The a = b = 0 case returns the identity rotation (r = 0).
    """
    dt = np.result_type(a, b)
    a = np.asarray(a, dtype=dt)[()]
    b = np.asarray(b, dtype=dt)[()]
    if flops is not None:
        flops.add(adds=1, muls=2, divs=2, sqrts=1)
    if b == 0 and a == 0:
        return GivensRotation(dt.type(1.0), dt.type(0.0), i, j)
    r = np.hypot(a, b)
    return GivensRotation(a / r, b / r, i, j)


def apply_givens_rows(M, G: GivensRotation, cols=slice(None), flops: FlopCounter | None = None):
    """Apply G.T to rows G.i and G.j of M over the given columns, in place.

    Returns M. Frobenius norm of the two affected rows (restricted to the
    column range) is preserved up to roundoff.
    """
    i, j = G.i, G.j
    ri = np.array(M[i, cols], copy=True)
    rj = np.array(M[j, cols], copy=True)
    M[i, cols] = G.c * ri + G.s * rj
    M[j, cols] = -G.s * ri + G.c * rj
    if flops is not None:
        ncol = ri.shape[0] if ri.ndim else 1
        flops.add(adds=2 * ncol, muls=4 * ncol)
    return M


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


def householder_qr(A, rhs=None, flops: FlopCounter | None = None, overwrite=False):
    """Householder QR of A (LAPACK ?geqrf), never forming Q explicitly.

    Returns (R, transformed_rhs). For m >= n, R is the n x n
    upper-triangular factor with A.T @ A = R.T @ R; for wide inputs the
    full m x n upper-trapezoidal factor is returned. transformed_rhs is
    Q.T @ rhs (all m rows, via ?ormqr; the caller splits off the top n).
    Rank deficiency is permitted and shows up as (near-)zero diagonal
    entries.

    The FLOP count is that of the textbook column sweep (Golub & Van Loan
    Alg. 5.2.1) over min(n, m - 1) columns; a column whose norm is zero
    when reached, i.e. a zero diagonal entry of R, only pays for its norm.
    """
    geqrf, ormqr = scipy.linalg.lapack.get_lapack_funcs(("geqrf", "ormqr"), (A,))
    qr, tau, _, _ = geqrf(A, overwrite_a=overwrite)
    m, n = qr.shape
    R = np.triu(qr[:n, :n]) if m >= n else np.triu(qr)
    b, nrhs = None, 0
    if rhs is not None:
        b = np.asarray(rhs).reshape(m, -1)
        nrhs = b.shape[1]
        b, _, _ = ormqr("L", "T", qr[:, :tau.shape[0]], tau, b, max(1, nrhs),
                        overwrite_c=overwrite)
        if np.ndim(rhs) == 1:
            b = b[:, 0]
    if flops is not None:
        k = np.arange(min(n, m - 1))
        kl = k[np.diag(qr)[: k.size] != 0]   # columns with a reflector
        cols = n - kl - 1 + nrhs             # trailing columns it updates
        reflect = (m - kl) * (1 + 2 * cols)
        flops.add(adds=(m - k - 1).sum() + reflect.sum(),
                  muls=(m - k).sum() + (reflect + cols).sum(),
                  sqrts=k.size)
    return R, b


def givens_triangularize(A, flops: FlopCounter | None = None):
    """Zero all below-diagonal entries of A in place with Givens rotations.

    Sweeps column by column and skips entries that are already zero, so
    nearly-triangular inputs cost far less than a dense QR. Returns A.
    """
    m, n = A.shape
    for j in range(min(n, m - 1)):
        col = A[j + 1:, j]
        nz = np.nonzero(col)[0]
        for off in nz:
            r = j + 1 + off
            G = givens_from_pair(A[j, j], A[r, j], i=j, j=r, flops=flops)
            apply_givens_rows(A, G, cols=slice(j, n), flops=flops)
            A[r, j] = 0.0
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
        # the column sweep's count: q full steps, then the failing pivot
        k = np.arange(q)
        nc = n - k - 1
        steps = q + failed
        flops.add(adds=steps * (steps - 1) // 2 + (2 * k * nc + nc).sum(),
                  muls=steps * (steps - 1) // 2 + (2 * k * nc).sum(),
                  divs=nc.sum(), sqrts=steps)
    if failed:
        d = float(U[q, q])
        raise NotPositiveDefinite(q, d * d if bad.size else d)
    return U


def _check_diag(U):
    d = np.diag(U)
    bad = np.nonzero(d == 0)[0]
    if bad.size:
        raise SingularTriangular(int(bad[0]))


def solve_upper(U, b, flops: FlopCounter | None = None):
    """Solve U x = b by back substitution (U upper triangular)."""
    _check_diag(U)
    n = U.shape[0]
    if flops is not None:
        ncol = 1 if np.ndim(b) == 1 else np.shape(b)[1]
        flops.add(adds=n * (n - 1) * ncol, muls=n * (n - 1) * ncol, divs=n * ncol)
    return scipy.linalg.solve_triangular(U, b, lower=False)


def solve_upper_transposed(U, b, flops: FlopCounter | None = None):
    """Solve U.T x = b by forward substitution (U upper triangular)."""
    _check_diag(U)
    n = U.shape[0]
    if flops is not None:
        ncol = 1 if np.ndim(b) == 1 else np.shape(b)[1]
        flops.add(adds=n * (n - 1) * ncol, muls=n * (n - 1) * ncol, divs=n * ncol)
    return scipy.linalg.solve_triangular(U, b, lower=False, trans="T")


def form_normal_half(A, flops: FlopCounter | None = None):
    """A.T @ A on the upper triangle (BLAS ?syrk), mirrored.

    Only the upper half is computed (roughly m*n**2 FLOPs instead of
    2*m*n**2) and the result is exactly symmetric by construction.
    """
    m, n = A.shape
    syrk, = scipy.linalg.blas.get_blas_funcs(("syrk",), (A,))
    S = syrk(1.0, A, trans=1, lower=0)
    lo = np.tril_indices(n, -1)
    S[lo] = S.T[lo]
    if flops is not None:
        nup = n * (n + 1) // 2
        flops.add(adds=(m - 1) * nup, muls=m * nup)
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
