"""Square-root information filtering machinery and reference estimators.

Matrix-level operations shared by the three estimators:

* Givens-based scalar marginalization exploiting the upper-triangular
  structure (O(n*p) per scalar), plus a dense Householder oracle with the
  classical O(n*p^2) cost for cross-validation.
* State augmentation folding the linearized process model into the factor
  and re-triangularizing with sparse Givens sweeps.
* The partitioned measurement update in three mathematically equivalent
  flavors: QR on the stacked factor, Cholesky on the unpreconditioned
  normal equation (the instability demonstrator), and Cholesky on the
  preconditioned normal equation (SPAI + Jacobi, built from the prior
  factor).
* Textbook covariance-form (EKF) propagate/update for parity runs.

All routines preserve the dtype of their matrix inputs and accept an
optional FlopCounter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import (
    FlopCounter,
    NotPositiveDefinite,
    apply_givens_rows,
    cholesky_upper,
    form_normal_half,
    givens_from_pair,
    givens_triangularize,
    householder_qr,
    sign_normalize_rows,
    solve_upper,
    solve_upper_transposed,
)
from .state import ErrorStateLayout


@dataclass
class UpdateResult:
    """State correction and posterior factor from one measurement update."""

    dx: np.ndarray
    R_post: np.ndarray
    flops: FlopCounter | None = None
    events: list = field(default_factory=list)


# --------------------------------------------------------------------------
# marginalization
# --------------------------------------------------------------------------


def _permute_to_front(R, p):
    n = R.shape[0]
    perm = [p] + list(range(p)) + list(range(p + 1, n))
    return R[:, perm]


def srif_marginalize(R, p, flops: FlopCounter | None = None):
    """Marginalize the scalar state at index p (0-based) from factor R.

    Cyclically permutes column p to the front, then zeroes the leading
    column bottom-up with Givens rotations that touch only the trailing
    column range, exploiting the banded fill of the permuted factor.
    Returns the (n-1) x (n-1) upper-triangular marginal factor.
    """
    n = R.shape[0]
    if not 0 <= p < n:
        raise IndexError(f"p={p} out of range for n={n}")
    if p == 0:
        return R[1:, 1:].copy()
    W = _permute_to_front(R, p)
    for j in range(p, 0, -1):
        G = givens_from_pair(W[j - 1, 0], W[j, 0], i=j - 1, j=j)
        apply_givens_rows(W, G, cols=slice(j, n))
        # the leading column pair rotates to (r, 0)
        W[j - 1, 0] = G.c * W[j - 1, 0] + G.s * W[j, 0]
        W[j, 0] = 0.0
    if flops is not None:
        # per rotation j = p..1: form it, apply it to the n - j trailing
        # columns, and rotate the leading pair
        ncols = p * n - p * (p + 1) // 2
        flops.add(adds=2 * p + 2 * ncols, muls=4 * p + 4 * ncols,
                  divs=2 * p, sqrts=p)
    out = W[1:, 1:].copy()
    sign_normalize_rows(out)
    return out


def marginalize_oracle_householder(R, p, flops: FlopCounter | None = None):
    """Same contract as srif_marginalize via permute + dense Householder QR.

    Re-triangularizes the non-triangular top block (rows 0..p) densely,
    reproducing the classical O(n*p^2) marginalization cost.
    """
    n = R.shape[0]
    if not 0 <= p < n:
        raise IndexError(f"p={p} out of range for n={n}")
    if p == 0:
        return R[1:, 1:].copy()
    W = _permute_to_front(R, p)
    top, _ = householder_qr(W[: p + 1], flops=flops)
    W[: p + 1] = top
    out = W[1:, 1:].copy()
    sign_normalize_rows(out)
    return out


def marginalize_block(R, indices, flops: FlopCounter | None = None):
    """Marginalize whole blocks given their ascending scalar indices.

    Applies the scalar algorithm to each index in turn; indices shift down
    as earlier scalars are removed.
    """
    for k, p in enumerate(sorted(indices)):
        R = srif_marginalize(R, p - k, flops=flops)
    return R


# --------------------------------------------------------------------------
# augmentation
# --------------------------------------------------------------------------


def srif_augment(R, layout: ErrorStateLayout, tb, old_pose_name, new_pose_name,
                 flops: FlopCounter | None = None):
    """Fold the process model into the factor, adding the new IMU state.

    The augmented ordering is (old bg, old ba, old v, new bg, new ba,
    new v, features, tsync, poses..., new pose, camera). Prior rows keep
    their staircase structure under the column embedding, so the Givens
    re-triangularization only has to clean up the 15 constraint rows.

    Returns (R_aug, layout_aug); the caller marginalizes the old
    bias/velocity block (the first nine scalars) afterwards.
    """
    n = layout.n
    n_aug = n + 15
    dtype = R.dtype
    colmap = np.empty(n, dtype=int)  # old col -> augmented col
    colmap[0:9] = np.arange(9)
    aug_blocks = [("old_bg", 0, 3), ("old_ba", 3, 3), ("old_v", 6, 3),
                  ("bg", 9, 3), ("ba", 12, 3), ("v", 15, 3)]
    off = 18
    cam_names = ("intr", "p_ic", "q_ic")
    for name, o, dim in layout.blocks:
        if name in ("bg", "ba", "v") or name in cam_names:
            continue
        colmap[o:o + dim] = np.arange(off, off + dim)
        aug_blocks.append((name, off, dim))
        off += dim
    new_pose_off = off
    aug_blocks.append((new_pose_name, off, 6))
    off += 6
    for name in cam_names:
        o, dim = layout.index[name]
        colmap[o:o + dim] = np.arange(off, off + dim)
        aug_blocks.append((name, off, dim))
        off += dim
    assert off == n_aug
    layout_aug = ErrorStateLayout(aug_blocks, n_aug)

    A = np.zeros((n_aug, n_aug), dtype=dtype)
    # prior rows placed at the position of their leading column
    A[np.ix_(colmap, colmap)] = R
    # constraint rows L [ -Phi  I ] in the 15 empty slots
    L = tb.sqrt_info.astype(dtype)
    LPhi = (tb.sqrt_info @ tb.phi).astype(dtype)
    rows = np.concatenate([np.arange(9, 18), np.arange(new_pose_off, new_pose_off + 6)])
    old_cols = np.concatenate([np.arange(0, 9),
                               colmap[layout.offset(old_pose_name):
                                      layout.offset(old_pose_name) + 6]])
    A[np.ix_(rows, old_cols)] = -LPhi
    A[np.ix_(rows, rows)] += L
    if flops is not None:
        flops.add(adds=15 * 15 * 15, muls=2 * 15 * 15 * 15)  # L @ Phi and embed
    givens_triangularize(A, flops=flops)
    sign_normalize_rows(A)
    return A, layout_aug


# --------------------------------------------------------------------------
# measurement updates
# --------------------------------------------------------------------------


def _dx_from_dx2(R, dx2, n1, flops):
    n = R.shape[0]
    dx = np.zeros(n, dtype=R.dtype)
    dx[n1:] = dx2
    if n1 > 0:
        rhs = R[:n1, n1:] @ dx2
        dx[:n1] = -solve_upper(R[:n1, :n1], rhs, flops=flops)
        if flops is not None:
            flops.add(adds=n1 * (n - n1), muls=n1 * (n - n1))
    return dx


def srif_update_partitioned(R, H2, r, n1, flops: FlopCounter | None = None):
    """QR-based SRIF update for measurements with H = [0 H2].

    Stacks [R22; H2], triangularizes with Householder QR carrying the
    right-hand side [0; r], then back-substitutes for dx2 and dx1.
    """
    n = R.shape[0]
    n2 = n - n1
    m = H2.shape[0]
    stack = np.vstack([R[n1:, n1:], H2.astype(R.dtype)])
    rhs = np.zeros(n2 + m, dtype=R.dtype)
    rhs[n2:] = r
    R22_post, t = householder_qr(stack, rhs, flops=flops, overwrite=True)
    sign_normalize_rows(R22_post, t)
    dx2 = solve_upper(R22_post, t[:n2], flops=flops)
    dx = _dx_from_dx2(R, dx2, n1, flops)
    R_post = R.copy()
    R_post[n1:, n1:] = R22_post
    return UpdateResult(dx, R_post, flops)


@dataclass
class Preconditioner:
    """M = M_Jacobi @ M_SPAI, stored implicitly.

    M_SPAI copies the prior R22's entries on the sparsity set S, which
    pairs component k of pose i with component k of pose j (diagonal
    included), and is the identity elsewhere. Restricted to the columns
    idx[k] = pose_offsets + k it is the upper-triangular blocks[k], and
    those six column sets are disjoint, so M_SPAI is six small triangular
    systems. M_Jacobi holds the column norms of R22 @ M_SPAI^-1.
    """

    n2: int
    idx: np.ndarray                   # (6, poses) columns of each block
    blocks: np.ndarray                # (6, poses, poses) upper triangular
    jacobi: np.ndarray                # positive diagonal of M_Jacobi
    degenerate: list = field(default_factory=list)

    def dense(self):
        M = np.eye(self.n2)
        for ix, B in zip(self.idx, self.blocks):
            M[np.ix_(ix, ix)] = B
        return np.diag(self.jacobi.astype(np.float64)) @ M

    def nnz(self):
        """Off-diagonal entries of M_SPAI."""
        l = self.idx.shape[1]
        return 6 * l * (l - 1) // 2


def build_preconditioner(R22, pose_offsets, flops: FlopCounter | None = None):
    """SPAI + Jacobi preconditioner from the prior R22 factor.

    pose_offsets are the ascending offsets of the 6-dim pose error blocks
    within the x2 partition. Zero column norms are pinned to 1 and flagged.
    """
    n2 = R22.shape[0]
    idx = np.add.outer(np.arange(6), np.asarray(pose_offsets, dtype=int))
    blocks = np.triu(R22[idx[:, :, None], idx[:, None, :]])
    pc = Preconditioner(n2, idx, blocks, np.ones(n2, dtype=R22.dtype))
    R22s = _apply_spai_inverse_right(pc, R22, flops=flops)
    norms = np.sqrt(np.einsum("ij,ij->j", R22s, R22s))
    if flops is not None:
        flops.add(adds=(n2 - 1) * n2, muls=n2 * n2, sqrts=n2)
    degenerate = np.nonzero(norms == 0)[0]
    norms[degenerate] = 1.0
    pc.jacobi = norms.astype(R22.dtype)
    pc.degenerate = list(map(int, degenerate))
    return pc


def _apply_spai_inverse_right(pc: Preconditioner, A, flops=None):
    """X = A @ M_SPAI^-1: one triangular solve X_k B_k = A_k per block."""
    X = np.array(A, copy=True)
    for ix, B in zip(pc.idx, pc.blocks):
        X[:, ix] = scipy.linalg.solve_triangular(B, X[:, ix].T, trans="T").T
    if flops is not None:
        # sparse back substitution: 2m per off-diagonal entry, m per
        # diagonal entry other than 1
        m = X.shape[0]
        diag = np.diagonal(pc.blocks, axis1=1, axis2=2)
        nflops = m * (2 * pc.nnz() + np.count_nonzero(diag != 1.0))
        flops.add(adds=nflops // 2, muls=nflops - nflops // 2)
    return X


def apply_preconditioner_inverse(pc: Preconditioner, A, flops=None):
    """A @ M^-1 = (A @ M_SPAI^-1) @ M_Jacobi^-1 (sparse solve + scaling)."""
    X = _apply_spai_inverse_right(pc, A, flops=flops)
    X /= pc.jacobi[None, :]
    if flops is not None:
        flops.add(divs=X.shape[0] * pc.n2)
    return X


def apply_preconditioner_right(pc: Preconditioner, A, flops=None):
    """A @ M = (A @ M_Jacobi) @ M_SPAI, one block product per component."""
    X = A * pc.jacobi[None, :]
    for ix, B in zip(pc.idx, pc.blocks):
        X[:, ix] = X[:, ix] @ B
    if flops is not None:
        m, nnz = A.shape[0], pc.nnz()
        flops.add(muls=2 * m * pc.n2 + 2 * m * nnz, adds=m * nnz)
    return X


def preconditioner_solve_vec(pc: Preconditioner, z, flops=None):
    """M^-1 z = M_SPAI^-1 (M_Jacobi^-1 z), one triangular solve per block."""
    x = z / pc.jacobi
    for ix, B in zip(pc.idx, pc.blocks):
        x[ix] = scipy.linalg.solve_triangular(B, x[ix])
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

    Raises NotPositiveDefinite if the preconditioned Cholesky fails.
    """
    n = R.shape[0]
    n2 = n - n1
    m = H2.shape[0]
    R22 = R[n1:, n1:]
    pc = build_preconditioner(R22, pose_offsets_x2, flops=flops)
    R22p = apply_preconditioner_inverse(pc, R22, flops=flops)
    H2p = apply_preconditioner_inverse(pc, H2.astype(R.dtype), flops=flops)
    N = form_normal_half(np.vstack([R22p, H2p]), flops=flops)
    U = cholesky_upper(N, flops=flops, check_symmetry=False)
    w = H2p.T @ r.astype(R.dtype)
    if flops is not None:
        flops.add(adds=m * n2, muls=m * n2)
    y = solve_upper_transposed(U, w, flops=flops)
    z = solve_upper(U, y, flops=flops)
    dx2 = preconditioner_solve_vec(pc, z, flops=flops)
    R22_post = apply_preconditioner_right(pc, U, flops=flops)
    sign_normalize_rows(R22_post)
    dx = _dx_from_dx2(R, dx2, n1, flops)
    R_post = R.copy()
    R_post[n1:, n1:] = R22_post
    return UpdateResult(dx, R_post, flops)


def if_update_oracle(R, H2, r, n1, flops: FlopCounter | None = None):
    """Unpreconditioned Cholesky update on the normal equation.

    The instability demonstrator: forms R22.T R22 + H2.T H2 at the active
    precision and factorizes it directly. NotPositiveDefinite is expected
    on ill-conditioned steps in float32.
    """
    n = R.shape[0]
    n2 = n - n1
    m = H2.shape[0]
    N = form_normal_half(np.vstack([R[n1:, n1:], H2.astype(R.dtype)]), flops=flops)
    U = cholesky_upper(N, flops=flops, check_symmetry=False)
    w = H2.astype(R.dtype).T @ r.astype(R.dtype)
    if flops is not None:
        flops.add(adds=m * n2, muls=m * n2)
    y = solve_upper_transposed(U, w, flops=flops)
    dx2 = solve_upper(U, y, flops=flops)
    dx = _dx_from_dx2(R, dx2, n1, flops)
    R_post = R.copy()
    R_post[n1:, n1:] = U
    return UpdateResult(dx, R_post, flops)


# --------------------------------------------------------------------------
# covariance-form (EKF) reference
# --------------------------------------------------------------------------


def _count_matmul(flops, m, k, n):
    if flops is not None:
        flops.add(adds=m * n * (k - 1), muls=m * n * k)


def kf_propagate(P, F, Q, flops=None):
    """P <- F P F.T + Q; F may change the state dimension."""
    P_new = F @ P @ F.T + Q.astype(P.dtype)
    m, n = F.shape
    _count_matmul(flops, m, n, n)
    _count_matmul(flops, m, n, m)
    if flops is not None:
        flops.add(adds=m * m)
    return 0.5 * (P_new + P_new.T)


def kf_update(P, H, r, flops=None):
    """Joseph-form EKF update assuming whitened (unit-covariance) noise."""
    H = H.astype(P.dtype)
    m, n = H.shape
    S = H @ P @ H.T
    S[np.diag_indices_from(S)] += 1.0
    _count_matmul(flops, m, n, n)
    _count_matmul(flops, m, n, m)
    try:
        cf = scipy.linalg.cho_factor(S, lower=False)
    except scipy.linalg.LinAlgError as e:
        raise NotPositiveDefinite(-1) from e
    K = scipy.linalg.cho_solve(cf, H @ P).T
    dx = K @ r.astype(P.dtype)
    IKH = np.eye(P.shape[0], dtype=P.dtype) - K @ H
    P_new = IKH @ P @ IKH.T + K @ K.T
    if flops is not None:
        # Cholesky of S, two triangular solves, and the Joseph products
        flops.add(adds=m ** 3 // 6, muls=m ** 3 // 6, divs=m * (m + 1) // 2,
                  sqrts=m)
        flops.add(adds=m * m * n, muls=m * m * n)
        _count_matmul(flops, n, m, 1)
        _count_matmul(flops, n, m, n)
        _count_matmul(flops, n, n, n)
        _count_matmul(flops, n, n, n)
        _count_matmul(flops, n, m, n)
        flops.add(adds=2 * n * n)
    return dx, 0.5 * (P_new + P_new.T)
