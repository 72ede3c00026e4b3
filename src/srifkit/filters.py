"""Square-root information filtering machinery and reference estimators.

Matrix-level operations shared by the three estimators:

* Givens-based block marginalization exploiting the upper-triangular
  structure (O(n*p) per scalar, one chain of rotations applied in closed
  form), run over the whole block in one in-place pass, plus a dense
  Householder oracle for one scalar with the classical O(n*p^2) cost for
  cross-validation.
* State augmentation folding the linearized process model into the factor
  and re-triangularizing with one structured QR of the embedded prior and
  the 15 constraint rows (?tpqrt, which reflects only the constraint rows
  into the triangular prior). It works on index arrays the caller
  supplies; the state ordering is the engine's.
* The partitioned measurement update in three mathematically equivalent
  flavors, each exploiting the triangular prior R22: structured QR of
  [R22; H2] (?tpqrt, which never reflects the zeros under R22),
  Cholesky on the unpreconditioned normal equation (the instability
  demonstrator), and Cholesky on the preconditioned normal equation
  (SPAI + Jacobi, built from the prior factor), whose normal matrix is
  ?trmm on the triangular R22 M^-1 plus ?syrk on H2 M^-1. M_SPAI is one
  upper triangle on the contiguous pose columns, so each application of
  the preconditioner is one ?trsm, ?trmm or ?trtrs call.
* Covariance-form (EKF) propagation over the same index arrays as the
  augmentation, rewriting only the 15 transitioned rows and columns
  (O(15 n^2)), and the Joseph-form update on H2, which never widens the
  Jacobian over the n1 columns it skips (O(m n^2)), for parity runs.

All routines preserve the dtype of their matrix inputs and accept an
optional FlopCounter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    FlopCounter,
    _givens_chain,
    _strictly_lower,
    cholesky_solve,
    cholesky_upper,
    form_normal_half,
    givens_triangularize,
    householder_qr,
    sign_normalize_rows,
    solve_upper,
)


@dataclass
class UpdateResult:
    """State correction and posterior factor from one measurement update."""

    dx: np.ndarray
    R_post: np.ndarray


# --------------------------------------------------------------------------
# marginalization
# --------------------------------------------------------------------------


def marginalize_block(R, indices, flops: FlopCounter | None = None):
    """Marginalize the scalar states at `indices` (0-based) from factor R.

    Returns the upper-triangular marginal factor over the remaining states,
    in their order, with a non-negative diagonal. Any set of states leaves
    in one call; the engine removes everything that leaves in a frame,
    features and pose together, with one. The block's columns are permuted
    to the front in one copy of R, and the scalars leave in ascending order
    in one in-place pass; the k-th runs on the trailing view that starts at
    row and column k, whose column 0 is its own and whose rows are the
    current factor's. Marginalizing the scalar at p in that factor is one
    chain of Givens rotations of adjacent rows (O(n*p)): it carries row p
    up to row 0, which the pass discards without forming it, and leaves
    each row it passes one row lower, exploiting the banded fill of the
    permuted factor. A scalar whose column is zero in rows 0..p carries no
    information, so its column is deleted instead: rows p.. of the factor,
    one row too many for their columns, are re-triangularized in the
    factor's own column order, and the zero row left at the bottom rolls
    to the discarded row 0. Row signs are normalized once at the end; a
    sign flip of a chain's input row only flips its output row. The result
    is a view of the permuted copy. Raises IndexError for a duplicated or
    out-of-range index.
    """
    n = R.shape[0]
    idx = np.sort(np.asarray(indices, dtype=int))
    b = idx.size
    if b and (idx[0] < 0 or idx[-1] >= n or (idx[1:] == idx[:-1]).any()):
        bad = np.unique(np.r_[idx[1:][idx[1:] == idx[:-1]],
                              idx[(idx < 0) | (idx >= n)]])
        raise IndexError(f"indices {bad.tolist()} are duplicated or out of "
                         f"range for n={n}")
    rest = np.ones(n, dtype=bool)
    rest[idx] = False
    order = np.concatenate([idx, np.flatnonzero(rest)])
    # a C-ordered copy (R[:, order] is Fortran-ordered): the chains run
    # along rows, and the result's layout is what later kernels read
    V = R.take(order, axis=1)
    rots = ncols = 0
    for k, p in enumerate((idx - np.arange(b)).tolist()):
        X = V[k:, k:]
        nz = np.flatnonzero(X[:p + 1, 0])
        if nz.size == 0:
            # no information: delete column 0, re-triangularize rows p..
            # in the factor's column order, and roll the zero row left at
            # the bottom up to row 0
            cols = 1 + np.argsort(order[k + 1:])[p:]
            X[p:, cols] = givens_triangularize(X[p:, cols], flops=flops)
            X[:] = np.roll(X, 1, axis=0)
        elif (start := min(int(nz[-1]) + 1, p)) > 0:
            # a rotation of two rows whose leading entries are both 0 is
            # the identity, so rows below the lowest nonzero leading entry
            # stay put and the chain starts from the row just under it;
            # each passed row moves one row down, and rotating (passed,
            # carried) rather than (carried, passed) flips its sign
            B = X[start::-1]
            _givens_chain(B, B[:-1])
            np.negative(X[1:start + 1], out=X[1:start + 1])
        # per rotation j = p..1: form it, apply it to the n - k - j
        # trailing columns, and rotate the leading pair
        rots += p
        ncols += p * (n - k) - p * (p + 1) // 2
    V = sign_normalize_rows(V[b:, b:])
    if flops is not None and rots:
        flops.add(adds=2 * rots + 2 * ncols, muls=4 * rots + 4 * ncols,
                  divs=2 * rots, sqrts=rots)
    return V


def marginalize_oracle_householder(R, p, flops: FlopCounter | None = None):
    """`marginalize_block(R, [p])` via permutation and dense Householder QR.

    Re-triangularizes the non-triangular top block (rows 0..p) densely,
    reproducing the classical O(n*p^2) marginalization cost. A state with
    no information (column p zero in rows 0..p) is deleted instead, and a
    dense QR re-triangularizes the rows p.. it leaves.
    """
    n = R.shape[0]
    if not 0 <= p < n:
        raise IndexError(f"p={p} out of range for n={n}")
    W = R[:, np.r_[p, 0:p, p + 1:n]]
    if W[:p + 1, 0].any():
        W[:p + 1] = householder_qr(W[:p + 1], flops=flops)[0]
        out = W[1:, 1:].copy()
    else:
        out = W[:-1, 1:].copy()
        out[p:, p:] = householder_qr(W[p:, p + 1:], flops=flops)[0]
    sign_normalize_rows(out)
    return out


# --------------------------------------------------------------------------
# augmentation
# --------------------------------------------------------------------------


def srif_augment(R, colmap, rows, old_cols, tb,
                 flops: FlopCounter | None = None):
    """Fold the process model into the factor, adding the new IMU state.

    The augmented factor has n + 15 columns for the n columns of R.
    colmap[j] is the augmented column of R's column j; rows are the 15
    augmented columns left empty by colmap, those of the propagated state
    in transition order, and old_cols the 15 augmented columns of the state
    it was propagated from, in the same order. Embedding R's rows at
    colmap keeps the prior upper triangular as long as colmap is
    ascending, with zero rows (and zero diagonal entries) at the 15 empty
    slots. The 15 constraint rows L [-Phi I] are then reflected into it
    by one structured QR (?tpqrt through `householder_qr(..., top=)`),
    whose reflector for column k spans only row k of the prior and the 15
    constraint rows; a zero diagonal entry is filled by the constraint
    rows' column. Returns the augmented upper-triangular factor.
    """
    n_aug = R.shape[0] + 15
    dtype = R.dtype
    T = np.zeros((n_aug, n_aug), dtype=dtype)
    T[np.ix_(colmap, colmap)] = R
    # a Fortran-ordered constraint block, which ?tpqrt overwrites in place
    C = np.zeros((15, n_aug), dtype=dtype, order="F")
    C[:, old_cols] = -(tb.sqrt_info @ tb.phi).astype(dtype)
    C[:, rows] += tb.sqrt_info.astype(dtype)
    if flops is not None:
        flops.add(adds=15 * 15 * 15, muls=2 * 15 * 15 * 15)  # L @ Phi and embed
    R_aug, _ = householder_qr(C, flops=flops, overwrite=True, top=T)
    sign_normalize_rows(R_aug)
    return R_aug


# --------------------------------------------------------------------------
# measurement updates
# --------------------------------------------------------------------------


def _posterior(R, n1, R22_post, dx2, flops):
    """An update's result from its x2 part: dx1 by back substitution
    through the prior's R11, and the prior factor with R22 replaced."""
    n = R.shape[0]
    dx = np.zeros(n, dtype=R.dtype)
    dx[n1:] = dx2
    if n1 > 0:
        rhs = R[:n1, n1:] @ dx2
        dx[:n1] = -solve_upper(R[:n1, :n1], rhs, flops=flops)
        if flops is not None:
            flops.add(adds=n1 * (n - n1), muls=n1 * (n - n1))
    R_post = R.copy()
    R_post[n1:, n1:] = R22_post
    return UpdateResult(dx, R_post)


def srif_update_partitioned(R, H2, r, n1, flops: FlopCounter | None = None):
    """QR-based SRIF update for measurements with H = [0 H2].

    Triangularizes [R22; H2] with one structured QR (?tpqrt), which
    reflects only the m rows of H2 into the triangular R22 and never the
    zeros under its diagonal, carrying the right-hand side [0; r] through
    ?tpmqrt; then back-substitutes for dx2 and dx1.
    """
    n = R.shape[0]
    n2 = n - n1
    m = H2.shape[0]
    rhs = np.zeros(n2 + m, dtype=R.dtype)
    rhs[n2:] = r
    # a Fortran-ordered copy, which ?tpqrt overwrites in place
    R22_post, t = householder_qr(np.array(H2, dtype=R.dtype, order="F"), rhs,
                                 flops=flops, overwrite=True, top=R[n1:, n1:])
    sign_normalize_rows(R22_post, t)
    dx2 = solve_upper(R22_post, t[:n2], flops=flops)
    return _posterior(R, n1, R22_post, dx2, flops)


@functools.lru_cache(maxsize=8)
def _outside_spai(poses):
    """Read-only mask of the zeros of M_SPAI's triangle on `poses` pose
    blocks: the strictly lower entries and pairs of different components."""
    k = np.arange(6 * poses) % 6
    mask = (k[:, None] != k) | _strictly_lower(6 * poses)
    mask.flags.writeable = False
    return mask


@dataclass
class Preconditioner:
    """M = M_Jacobi @ M_SPAI, stored implicitly.

    M_SPAI copies the prior R22's entries on the sparsity set S, which
    pairs component k of pose i with component k of pose j >= i, and is
    the identity elsewhere. The pose blocks are contiguous, so M_SPAI is
    the identity but on their columns `cols`, where it is the upper
    triangle `tri`, and each application is one BLAS/LAPACK call on
    X[:, cols]. M_Jacobi holds the column norms of R22 @ M_SPAI^-1.
    `r22p` = R22 @ M^-1 is exactly upper triangular, since its strictly
    lower entries are sums of products with zeros; the update reuses it.
    """

    n2: int
    cols: slice                   # the pose blocks' columns
    tri: np.ndarray               # M_SPAI[cols, cols], Fortran-ordered
    jacobi: np.ndarray            # positive diagonal of M_Jacobi
    r22p: np.ndarray | None = None    # prior R22 @ M^-1

    def nnz(self):
        """Off-diagonal entries of M_SPAI."""
        l = self.tri.shape[0] // 6
        return 6 * l * (l - 1) // 2


def build_preconditioner(R22, pose_offsets, flops: FlopCounter | None = None):
    """SPAI + Jacobi preconditioner from the prior R22 factor.

    pose_offsets are the offsets of the 6-dim pose error blocks within the
    x2 partition; they must be ascending and contiguous, inside [0, n2),
    or ValueError is raised. Zero column norms are pinned to 1. A zero
    diagonal entry of M_SPAI makes it singular and raises
    scipy.linalg.LinAlgError naming the pose and component.
    """
    n2 = R22.shape[0]
    poses = len(pose_offsets)
    first = pose_offsets[0] if poses else 0
    cols = slice(first, first + 6 * poses)
    if (list(pose_offsets) != list(range(cols.start, cols.stop, 6))
            or not 0 <= first <= n2 - 6 * poses):
        raise ValueError(f"pose offsets {list(pose_offsets)} are not "
                         f"contiguous 6-column blocks inside [0, {n2})")
    tri = np.array(R22[cols, cols], order="F")
    np.copyto(tri, 0, where=_outside_spai(poses))
    zero = np.flatnonzero(np.diagonal(tri) == 0)
    if zero.size:
        raise scipy.linalg.LinAlgError(
            f"singular SPAI block: zero diagonal at pose "
            f"{zero[0] // 6}, component {zero[0] % 6}")
    pc = Preconditioner(n2, cols, tri, np.ones(n2, dtype=R22.dtype))
    R22p = _apply_spai_inverse_right(pc, R22, flops=flops)
    norms = np.sqrt(np.einsum("ij,ij->j", R22p, R22p))
    norms[norms == 0] = 1.0
    pc.jacobi = norms.astype(R22.dtype)
    R22p /= pc.jacobi
    pc.r22p = R22p
    if flops is not None:
        # the column norms, and the Jacobi scaling of R22p
        flops.add(adds=(n2 - 1) * n2, muls=n2 * n2, divs=n2 * n2, sqrts=n2)
    return pc


def _apply_spai_inverse_right(pc: Preconditioner, A, flops=None):
    """X = A @ M_SPAI^-1: one ?trsm on the pose columns of a
    Fortran-ordered copy, which it overwrites in place."""
    X = np.array(A, order="F")
    if X.shape[0] and pc.tri.size:
        trsm, = scipy.linalg.blas.get_blas_funcs(("trsm",), (X,))
        trsm(1.0, pc.tri, X[:, pc.cols], side=1, overwrite_b=1)
    if flops is not None:
        # sparse back substitution: 2m per off-diagonal entry, m per
        # diagonal entry other than 1
        m = X.shape[0]
        diag = np.diagonal(pc.tri)
        nflops = m * (2 * pc.nnz() + np.count_nonzero(diag != 1.0))
        flops.add(adds=nflops // 2, muls=nflops - nflops // 2)
    return X


def apply_preconditioner_inverse(pc: Preconditioner, A, flops=None):
    """A @ M^-1 = (A @ M_SPAI^-1) @ M_Jacobi^-1 (sparse solve + scaling)."""
    X = _apply_spai_inverse_right(pc, A, flops=flops)
    X /= pc.jacobi
    if flops is not None:
        flops.add(divs=X.shape[0] * pc.n2)
    return X


def apply_preconditioner_right(pc: Preconditioner, A, flops=None):
    """A @ M = (A @ M_Jacobi) @ M_SPAI: one ?trmm on the pose columns of
    a Fortran-ordered product, which it overwrites in place."""
    X = np.multiply(A, pc.jacobi, order="F")
    if X.shape[0] and pc.tri.size:
        trmm, = scipy.linalg.blas.get_blas_funcs(("trmm",), (X,))
        trmm(1.0, pc.tri, X[:, pc.cols], side=1, overwrite_b=1)
    if flops is not None:
        m, nnz = A.shape[0], pc.nnz()
        flops.add(muls=2 * m * pc.n2 + 2 * m * nnz, adds=m * nnz)
    return X


def preconditioner_solve_vec(pc: Preconditioner, z, flops=None):
    """M^-1 z = M_SPAI^-1 (M_Jacobi^-1 z), one ?trtrs on the pose entries."""
    x = z / pc.jacobi
    if pc.tri.size:
        trtrs, = scipy.linalg.lapack.get_lapack_funcs(("trtrs",), (x,))
        x[pc.cols] = trtrs(pc.tri, x[pc.cols])[0]
    if flops is not None:
        nnz = pc.nnz()
        flops.add(adds=nnz, muls=nnz, divs=2 * pc.n2)
    return x


def pcsrif_update(R, H2, r, n1, pose_offsets_x2,
                  flops: FlopCounter | None = None):
    """Preconditioned Cholesky SRIF update.

    Builds M from the prior R22, preconditions the rows first, and forms
    the normal equation directly in the preconditioned variables (never
    materializing the unpreconditioned product, which would lose the
    information the preconditioner is there to protect). Mathematically
    identical to the QR path.

    R22p = R22 M^-1, which the preconditioner keeps, is exactly upper
    triangular, so the normal matrix is R22p.T R22p by ?trmm plus
    H2p.T H2p by ?syrk, and dx2 comes from one ?potrs on its Cholesky
    factor.

    Raises NotPositiveDefinite if the preconditioned Cholesky fails.
    """
    m, n2 = H2.shape
    pc = build_preconditioner(R[n1:, n1:], pose_offsets_x2, flops=flops)
    H2p = apply_preconditioner_inverse(pc, H2.astype(R.dtype, copy=False),
                                       flops=flops)
    N = form_normal_half(H2p, flops=flops, top=pc.r22p)
    U = cholesky_upper(N, flops=flops, check_symmetry=False)
    w = H2p.T @ r.astype(R.dtype, copy=False)
    if flops is not None:    # H2p.T r
        flops.add(adds=m * n2, muls=m * n2)
    z = cholesky_solve(U, w, flops=flops)
    dx2 = preconditioner_solve_vec(pc, z, flops=flops)
    R22_post = apply_preconditioner_right(pc, U, flops=flops)
    sign_normalize_rows(R22_post)
    return _posterior(R, n1, R22_post, dx2, flops)


def if_update_oracle(R, H2, r, n1, flops: FlopCounter | None = None):
    """Unpreconditioned Cholesky update on the normal equation.

    The instability demonstrator: forms R22.T R22 + H2.T H2 at the active
    precision (?trmm and ?syrk) and factorizes it directly.
    NotPositiveDefinite is expected on ill-conditioned steps in float32.
    """
    m, n2 = H2.shape
    H2 = H2.astype(R.dtype, copy=False)
    N = form_normal_half(H2, flops=flops, top=R[n1:, n1:])
    U = cholesky_upper(N, flops=flops, check_symmetry=False)
    w = H2.T @ r.astype(R.dtype, copy=False)
    if flops is not None:
        flops.add(adds=m * n2, muls=m * n2)
    dx2 = cholesky_solve(U, w, flops=flops)
    return _posterior(R, n1, U, dx2, flops)


# --------------------------------------------------------------------------
# covariance-form (EKF) reference
# --------------------------------------------------------------------------


def kf_propagate(P, keep, sel, rows, tb, flops=None):
    """Covariance form of the augmentation `srif_augment` folds in.

    keep[j] is the new index of old state j, sel the 15 old indices the
    transition reads and rows the 15 new indices it writes, both in
    transition order. Kept states outside `rows` keep their covariance;
    the transitioned rows become Phi P[sel, :] and their 15 x 15 corner
    Phi P[sel, sel] Phi.T + Q, with Q = (L.T L)^-1 for L = tb.sqrt_info.
    This is F P F.T + Q for the n x n_old F that embeds the old state and
    applies Phi, at O(15 n^2) instead of O(n^3); a symmetric P gives an
    exactly symmetric result. The FLOPs counted are those of Phi P[sel, :],
    the corner and Q: 435 n_old + 16650.
    """
    n = np.union1d(keep, rows).size
    phi = tb.phi.astype(P.dtype)
    Linv = solve_upper(tb.sqrt_info, np.eye(15), flops=flops)
    A = phi @ P[sel]
    corner = A[:, sel] @ phi.T + (Linv @ Linv.T).astype(P.dtype)
    P_new = np.empty((n, n), dtype=P.dtype)
    P_new[np.ix_(keep, keep)] = P
    P_new[np.ix_(rows, keep)] = A
    P_new[np.ix_(keep, rows)] = A.T
    P_new[np.ix_(rows, rows)] = 0.5 * (corner + corner.T)
    if flops is not None:
        # Phi P[sel, :], the corner's two 15 x 15 products and their sum
        flops.add(adds=210 * P.shape[0] + 2 * 3150 + 225,
                  muls=225 * P.shape[0] + 2 * 3375)
    return P_new


def kf_update(P, H2, r, n1, flops=None):
    """Joseph-form EKF update for H = [0 H2], whitened (unit-covariance) noise.

    H is never formed: H P is H2 @ P[n1:, :], H P H.T and A H.T take the
    n1: columns, so the update costs O(m n^2) rather than O(n^3). The
    Joseph form (I - K H) P (I - K H).T + K K.T is kept, associated as
    A = P - K (H P), then A - (A H.T) K.T + K K.T, and symmetrized.
    """
    H2 = H2.astype(P.dtype, copy=False)
    m, n2 = H2.shape
    n = P.shape[0]
    HP = H2 @ P[n1:, :]
    S = HP[:, n1:] @ H2.T
    S[np.diag_indices_from(S)] += 1.0
    K = cholesky_solve(cholesky_upper(S, check_symmetry=False), HP).T
    dx = K @ r.astype(P.dtype, copy=False)
    A = P - K @ HP
    P_new = A - (A[:, n1:] @ H2.T) @ K.T + K @ K.T
    if flops is not None:
        # H P and H P H.T; the Cholesky of S and its two solves for K; K r;
        # K (H P), (A H.T) K.T and K K.T; A H.T; the three n x n sums
        mm, mn = m * m, m * n
        flops.add(adds=mn * (n2 - 1) + mm * (n2 - 1) + m + m ** 3 // 6
                  + mm * n + n * (m - 1) + 3 * n * n * (m - 1)
                  + n * m * (n2 - 1) + 3 * n * n,
                  muls=mn * n2 + mm * n2 + m ** 3 // 6 + mm * n + n * m
                  + 3 * n * n * m + n * m * n2,
                  divs=m * (m + 1) // 2, sqrts=m)
    return dx, 0.5 * (P_new + P_new.T)
