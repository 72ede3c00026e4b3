"""Square-root information filtering machinery and reference estimators.

Matrix-level operations shared by the three estimators:

* Givens-based block marginalization exploiting the upper-triangular
  structure (O(n*p) per scalar, one chain of rotations in one ?lasr
  call), run over the whole block in one in-place pass. The classical
  dense marginalization, O(n*p^2) per scalar, is a reference in the
  tests.
* State augmentation folding the linearized process model into the factor
  and re-triangularizing with one structured QR of the embedded prior and
  the 15 constraint rows (?tpqrt, which reflects only the constraint rows
  into the triangular prior). It works on index arrays the caller
  supplies, and embeds the prior with one contiguous block copy per pair
  of their runs; the state ordering is the engine's.
* The partitioned measurement update in three mathematically equivalent
  flavors, each exploiting the triangular prior R22: structured QR of
  Bierman's data array [R22 0; H2 r] (one ?tpqrt, which never reflects
  the zeros under R22, and whose last column is the right-hand side),
  Cholesky on the unpreconditioned normal equation (the instability
  demonstrator), and Cholesky on the preconditioned normal equation
  (SPAI + Jacobi, built from the prior factor), whose normal matrix is
  ?trmm on the triangular R22 M^-1 plus ?syrk on H2 M^-1. M_SPAI is one
  upper triangle on the contiguous pose columns, inverted once per
  update, so M^-1 reaches H2 as one product on those columns of a copy
  in H2's own memory order, and M as one ?trmm.
* Covariance-form (EKF) propagation over the same index arrays as the
  augmentation, rewriting only the 15 transitioned rows and columns
  (O(15 n^2)), and the Joseph-form update on H2, which never widens the
  Jacobian over the n1 columns it skips (O(m n^2)), for parity runs.

All routines preserve the dtype of their matrix inputs and add their
counted FLOPs to the FlopCounter they are given (`linalg.UNCOUNTED`, which
discards them, by default).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    UNCOUNTED,
    FlopCounter,
    _strictly_lower,
    cholesky_solve,
    cholesky_upper,
    form_normal_half,
    givens_triangularize,
    householder_qr,
    row_rotator,
    solve_upper,
)


@dataclass
class UpdateResult:
    """State correction and posterior factor from one measurement update."""

    dx: np.ndarray
    R_post: np.ndarray


# --------------------------------------------------------------------------
# re-embedding
# --------------------------------------------------------------------------


def _runs(idx):
    """The maximal runs of consecutive values in the index array idx, as
    (position in idx, first value, length) triples."""
    idx = np.asarray(idx)
    if not idx.size:
        return []
    starts = [0, *(np.flatnonzero(idx[1:] - idx[:-1] != 1) + 1).tolist()]
    stops = [*starts[1:], idx.size]
    return [(i, v, j - i)
            for i, j, v in zip(starts, stops, idx.take(starts).tolist())]


def _embed(dst, rows, cols, src):
    """dst[rows, cols] = src over the outer product of two index arrays,
    given as their `_runs`: one contiguous block copy per pair of runs,
    which writes the same bits as the element-wise scatter and keeps
    dst's memory order."""
    for i, r, m in rows:
        for j, c, k in cols:
            dst[r:r + m, c:c + k] = src[i:i + m, j:j + k]


# --------------------------------------------------------------------------
# marginalization
# --------------------------------------------------------------------------


def marginalize_block(R, indices, flops: FlopCounter = UNCOUNTED):
    """Marginalize the scalar states at `indices` (0-based) from factor R.

    Returns the upper-triangular marginal factor over the remaining states,
    in their order. Any set of states leaves in one call; the engine
    removes everything that leaves in a frame, features and pose together,
    with one. The block's columns are permuted to the front in one
    Fortran-ordered copy of R, and the scalars leave in ascending order in
    one in-place pass; the k-th runs on the trailing view that starts at
    row and column k, whose column 0 is its own and whose rows are the
    current factor's. Marginalizing the scalar at p in that factor is one
    chain of Givens rotations of adjacent rows (O(n*p)) in one ?lasr call
    (`linalg.row_rotator`, bound once to the permuted copy): it carries row
    p up to row 0, which the pass discards, and leaves each row it passes
    one row lower, exploiting the banded fill of the permuted factor; a NaN
    or inf in the carried row does not spread through an exact identity
    rotation, which ?lasr skips. A scalar whose column is zero in rows
    0..p carries no information, so its column is deleted instead: rows
    p.. of the factor, one row too many for their columns, are
    re-triangularized in the factor's own column order, and the zero row
    left at the bottom rolls to the discarded row 0. The pass reads no row
    sign: a chain carries its diagonal with its sign, which
    np.hypot.accumulate returns unchanged as its first element, and a
    sign flip of an input row only flips the row it becomes. The result
    is a column-major view of the permuted copy.
    Raises IndexError for a duplicated or out-of-range index.
    """
    n = R.shape[0]
    idx = np.sort(np.asarray(indices, dtype=int))
    b = idx.size
    if b and (idx[0] < 0 or idx[-1] >= n or (idx[1:] == idx[:-1]).any()):
        bad = np.unique(np.concatenate([idx[1:][idx[1:] == idx[:-1]],
                                        idx[(idx < 0) | (idx >= n)]]))
        raise IndexError(f"indices {bad.tolist()} are duplicated or out of "
                         f"range for n={n}")
    rest = np.ones(n, dtype=bool)
    rest[idx] = False
    order = np.concatenate([idx, np.flatnonzero(rest)])
    V = R[:, order]     # Fortran-ordered, whatever R's order
    rotate = row_rotator(V)
    rots = ncols = 0
    for k, p in enumerate((idx - np.arange(b)).tolist()):
        X = V[k:, k:]
        nz = X[:p + 1, 0].nonzero()[0]
        if nz.size == 0:
            # no information: delete column 0, re-triangularize rows p..
            # in the factor's column order, and roll the zero row left at
            # the bottom up to row 0
            cols = 1 + np.argsort(order[k + 1:])[p:]
            X[p:, cols] = givens_triangularize(X[p:, cols], flops=flops)
            X[:] = np.roll(X, 1, axis=0)
        elif (start := min(int(nz[-1]) + 1, p)) > 0:
            # a rotation of two rows whose leading entries are both 0 is the
            # identity, so rows below the lowest nonzero leading entry stay
            # put and the chain starts from the row just under it; rotation
            # (j, j + 1) carries that row up to row j, where it leads r[j]
            lead = X[:start + 1, 0]
            r = np.hypot.accumulate(lead[::-1])[::-1]
            rotate(k, lead[:-1] / r[:-1], r[1:] / r[:-1], "V", "B")
        # per rotation j = p..1: form it, apply it to the n - k - j
        # trailing columns, and rotate the leading pair
        rots += p
        ncols += p * (n - k) - p * (p + 1) // 2
    if rots:
        flops.add(9 * rots + 6 * ncols)
    return V[b:, b:]


# --------------------------------------------------------------------------
# augmentation
# --------------------------------------------------------------------------


def srif_augment(R, colmap, rows, old_cols, tb,
                 flops: FlopCounter = UNCOUNTED):
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
    # Fortran-ordered, so ?tpqrt overwrites both in place
    T = np.zeros((n_aug, n_aug), dtype=dtype, order="F")
    runs = _runs(colmap)
    _embed(T, runs, runs, R)
    C = np.zeros((15, n_aug), dtype=dtype, order="F")
    C[:, old_cols] = -(tb.sqrt_info @ tb.phi).astype(dtype)
    C[:, rows] += tb.sqrt_info.astype(dtype)
    flops.add(3 * 15 * 15 * 15)  # L @ Phi and embed
    return householder_qr(C, flops=flops, overwrite=True, top=T)


# --------------------------------------------------------------------------
# measurement updates
# --------------------------------------------------------------------------


def _posterior(R, n1, R22_post, dx2, flops: FlopCounter = UNCOUNTED):
    """An update's result from its x2 part: dx1 by back substitution
    through the prior's R11, and the prior factor, in R's memory order,
    with R22 replaced."""
    n = R.shape[0]
    dx = np.empty(n, dtype=R.dtype)
    dx[n1:] = dx2
    if n1 > 0:
        rhs = R[:n1, n1:] @ dx2
        dx[:n1] = -solve_upper(R[:n1, :n1], rhs, flops=flops)
        flops.add(2 * n1 * (n - n1))
    R_post = np.empty_like(R)
    R_post[:, :n1] = R[:, :n1]
    R_post[:n1, n1:] = R[:n1, n1:]
    R_post[n1:, n1:] = R22_post
    return UpdateResult(dx, R_post)


def srif_update_partitioned(R, H2, r, n1, flops: FlopCounter = UNCOUNTED):
    """QR-based SRIF update for measurements with H = [0 H2].

    Triangularizes Bierman's data array [R22 0; H2 r] with one structured
    QR (?tpqrt), which reflects only the m rows [H2 r] into the triangular
    [R22 0] and never the zeros under its diagonal. The factor's last
    column holds Q.T [0; r] above the post-fit residual norm; dx2 is back
    substituted from its first n2 entries, then dx1. H2 and r are read at
    R's dtype.
    """
    n = R.shape[0]
    n2 = n - n1
    m = H2.shape[0]
    # Fortran-ordered, so ?tpqrt overwrites both in place
    X = np.empty((m, n2 + 1), dtype=R.dtype, order="F")
    X[:, :n2] = H2
    X[:, n2] = r
    T = np.zeros((n2 + 1, n2 + 1), dtype=R.dtype, order="F")
    T[:n2, :n2] = R[n1:, n1:]
    F = householder_qr(X, flops=flops, overwrite=True, top=T)
    dx2 = solve_upper(F[:n2, :n2], F[:n2, n2], flops=flops)
    return _posterior(R, n1, F[:n2, :n2], dx2, flops)


@functools.lru_cache(maxsize=8)
def _spai_pattern(poses):
    """Read-only, Fortran-ordered mask of M_SPAI's triangle on `poses` pose
    blocks: True on and above the diagonal between equal components."""
    k = np.arange(6 * poses) % 6
    mask = np.logical_and(k[:, None] == k, ~_strictly_lower(6 * poses),
                          order="F")
    mask.flags.writeable = False
    return mask


@dataclass
class Preconditioner:
    """M = M_Jacobi @ M_SPAI, with its SPAI block's explicit inverse.

    M_SPAI copies the prior R22's entries on the sparsity set S, which
    pairs component k of pose i with component k of pose j >= i, and is
    the identity elsewhere. The pose blocks are contiguous, so M_SPAI is
    the identity but on their columns `cols`, where it is the upper
    triangle `tri`: six interleaved l x l triangles, one per component.
    `inv` = tri^-1 keeps tri's structural zeros as exact zeros, so it is
    upper triangular and zero between different components too. M_Jacobi
    holds the column norms of R22 @ M_SPAI^-1. Applying M^-1 is one
    product with `inv` on the pose columns of a copy and one division by
    `jacobi`; applying M is one ?trmm with the exact `tri`. `r22p` =
    R22 @ M^-1 is exactly upper triangular, since its strictly lower
    entries are sums of products with zeros; the update reuses it.
    `per_row` is the FLOPs of the sparse back substitution with `tri` per
    row of its operand: 2 per off-diagonal entry and 1 per diagonal entry
    other than 1.
    """

    cols: slice                   # the pose blocks' columns
    tri: np.ndarray               # M_SPAI[cols, cols], Fortran-ordered
    inv: np.ndarray               # tri^-1, Fortran-ordered
    per_row: int
    jacobi: np.ndarray | None = None  # positive diagonal of M_Jacobi
    r22p: np.ndarray | None = None    # R22 @ M^-1, in R22's memory order

    def nnz(self):
        """Off-diagonal entries of M_SPAI."""
        l = self.tri.shape[0] // 6
        return 6 * l * (l - 1) // 2

    def spai_inverse(self, A, flops: FlopCounter = UNCOUNTED):
        """A @ M_SPAI^-1 in the preconditioner's dtype and A's memory
        order: a copy of A whose pose columns are overwritten by one
        product A[:, cols] @ inv. Counted as the sparse back substitution
        with tri, which the product matches row for row."""
        X = np.array(A, dtype=self.tri.dtype)
        np.matmul(A[:, self.cols], self.inv, out=X[:, self.cols],
                  dtype=self.tri.dtype)
        flops.add(X.shape[0] * self.per_row)
        return X


def build_preconditioner(R22, pose_offsets, flops: FlopCounter = UNCOUNTED):
    """SPAI + Jacobi preconditioner from an R22 factor.

    pose_offsets are the offsets of the 6-dim pose error blocks within the
    x2 partition; they must be ascending and contiguous, inside [0, n2),
    or ValueError is raised. Zero column norms are pinned to 1. A zero
    diagonal entry of M_SPAI makes it singular and raises
    scipy.linalg.LinAlgError naming the pose and component.

    tri is inverted once per build, one ?trtri per component's triangle.
    The FLOPs counted are those of the sparse back substitution of R22's
    rows with tri, the column norms and the Jacobi scaling; the O(l^3)
    inversion is not counted, just as the products with the structural
    zeros of tri and inv never are.
    """
    n2 = R22.shape[0]
    poses = len(pose_offsets)
    first = pose_offsets[0] if poses else 0
    cols = slice(first, first + 6 * poses)
    if (list(pose_offsets) != list(range(cols.start, cols.stop, 6))
            or not 0 <= first <= n2 - 6 * poses):
        raise ValueError(f"the pose offsets {list(pose_offsets)} are not "
                         f"contiguous 6-column blocks inside [0, {n2})")
    tri = np.multiply(R22[cols, cols], _spai_pattern(poses), order="F")
    diag = np.diagonal(tri)
    if not diag.all():
        k = int(np.flatnonzero(diag == 0)[0])
        raise scipy.linalg.LinAlgError(
            f"singular SPAI block: zero diagonal at pose {k // 6}, "
            f"component {k % 6}")
    # inverting each component's triangle on its own skips the zeros
    # between them
    inv = np.zeros(tri.shape, dtype=tri.dtype, order="F")
    if poses:    # ?trtri rejects an empty triangle
        trtri, = scipy.linalg.lapack.get_lapack_funcs(("trtri",), (tri,))
        for k in range(6):
            inv[k::6, k::6] = trtri(tri[k::6, k::6])[0]
    pc = Preconditioner(cols, tri, inv, 6 * poses * (poses - 1)
                        + int(np.count_nonzero(diag != 1)))
    R22p = pc.spai_inverse(R22, flops)
    norms = np.sqrt(np.einsum("ij,ij->j", R22p, R22p))
    norms[norms == 0] = 1.0
    pc.jacobi = norms
    R22p /= norms
    pc.r22p = R22p
    flops.add(3 * n2 * n2)    # the column norms, and the Jacobi scaling
    return pc


def apply_preconditioner_inverse(pc: Preconditioner, A,
                                 flops: FlopCounter = UNCOUNTED):
    """A @ M^-1 = (A @ M_SPAI^-1) @ M_Jacobi^-1 in the preconditioner's
    dtype and A's memory order: one product on the pose columns of a copy
    of A (`Preconditioner.spai_inverse`), then the Jacobi division in
    place. On R22 this is bitwise the r22p that `build_preconditioner`
    computes the same way."""
    X = pc.spai_inverse(A, flops)
    X /= pc.jacobi
    flops.add(X.shape[0] * pc.jacobi.size)
    return X


def apply_preconditioner_right(pc: Preconditioner, A,
                               flops: FlopCounter = UNCOUNTED):
    """A @ M = (A @ M_Jacobi) @ M_SPAI: one ?trmm on the pose columns of
    a Fortran-ordered product, which it overwrites in place."""
    X = np.multiply(A, pc.jacobi, order="F")
    if X.shape[0] and pc.tri.size:
        trmm, = scipy.linalg.blas.get_blas_funcs(("trmm",), (X,))
        trmm(1.0, pc.tri, X[:, pc.cols], side=1, overwrite_b=1)
    flops.add(A.shape[0] * (2 * pc.jacobi.size + 3 * pc.nnz()))
    return X


def preconditioner_solve_vec(pc: Preconditioner, z,
                             flops: FlopCounter = UNCOUNTED):
    """M^-1 z = M_SPAI^-1 (M_Jacobi^-1 z): z / jacobi, then one product
    with inv on the pose entries."""
    x = z / pc.jacobi
    x[pc.cols] = pc.inv @ x[pc.cols]
    flops.add(2 * (pc.nnz() + pc.jacobi.size))
    return x


def _normal_solve(T, H, r, flops: FlopCounter = UNCOUNTED):
    """The Cholesky factor U of T.T T + H.T H for an upper-triangular T,
    and z with U.T U z = H.T r: the normal-equation core of both
    Cholesky updates."""
    m, n = H.shape
    U = cholesky_upper(form_normal_half(H, flops=flops, top=T), flops=flops)
    w = H.T @ r.astype(H.dtype, copy=False)
    flops.add(2 * m * n)    # H.T r
    return U, cholesky_solve(U, w, flops=flops)


def pcsrif_update(R, H2, r, n1, pose_offsets_x2,
                  flops: FlopCounter = UNCOUNTED):
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
    pc = build_preconditioner(R[n1:, n1:], pose_offsets_x2, flops=flops)
    H2p = apply_preconditioner_inverse(pc, H2, flops=flops)
    U, z = _normal_solve(pc.r22p, H2p, r, flops)
    dx2 = preconditioner_solve_vec(pc, z, flops=flops)
    R22_post = apply_preconditioner_right(pc, U, flops=flops)
    return _posterior(R, n1, R22_post, dx2, flops)


def if_update_oracle(R, H2, r, n1, flops: FlopCounter = UNCOUNTED):
    """Unpreconditioned Cholesky update on the normal equation.

    The instability demonstrator: forms R22.T R22 + H2.T H2 at the active
    precision (?trmm and ?syrk) and factorizes it directly.
    NotPositiveDefinite is expected on ill-conditioned steps in float32.
    """
    U, dx2 = _normal_solve(R[n1:, n1:], H2.astype(R.dtype, copy=False), r,
                           flops)
    return _posterior(R, n1, U, dx2, flops)


# --------------------------------------------------------------------------
# covariance-form (EKF) reference
# --------------------------------------------------------------------------


def kf_propagate(P, keep, sel, rows, tb, flops: FlopCounter = UNCOUNTED):
    """Covariance form of the augmentation `srif_augment` folds in.

    keep[j] is the new index of old state j, sel the 15 old indices the
    transition reads and rows the 15 new indices it writes, both in
    transition order; keep and rows together cover the n new indices.
    Kept states outside `rows` keep their covariance; the transitioned
    rows become Phi P[sel, :] and their 15 x 15 corner
    Phi P[sel, sel] Phi.T + Q, with Q = (L.T L)^-1 for L = tb.sqrt_info,
    each block written by one copy per pair of runs of the maps.
    This is F P F.T + Q for the n x n_old F that embeds the old state and
    applies Phi, at O(15 n^2) instead of O(n^3); a symmetric P gives an
    exactly symmetric result. The FLOPs counted are those of Phi P[sel, :],
    the corner and Q: 435 n_old + 16650.
    """
    keep_runs, row_runs = _runs(keep), _runs(rows)
    n = max(v + k for _, v, k in keep_runs + row_runs)
    phi = tb.phi.astype(P.dtype)
    Linv = solve_upper(tb.sqrt_info, np.eye(15), flops=flops)
    A = phi @ P[sel]
    corner = A[:, sel] @ phi.T + (Linv @ Linv.T).astype(P.dtype)
    P_new = np.empty((n, n), dtype=P.dtype)
    _embed(P_new, keep_runs, keep_runs, P)
    _embed(P_new, row_runs, keep_runs, A)
    _embed(P_new, keep_runs, row_runs, A.T)
    _embed(P_new, row_runs, row_runs, 0.5 * (corner + corner.T))
    # Phi P[sel, :], the corner's two 15 x 15 products and their sum
    flops.add(435 * P.shape[0] + 13275)
    return P_new


def kf_update(P, H2, r, n1, flops: FlopCounter = UNCOUNTED):
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
    K = cholesky_solve(cholesky_upper(S, flops=flops), HP, flops=flops).T
    dx = K @ r.astype(P.dtype, copy=False)
    A = P - K @ HP
    P_new = A - (A[:, n1:] @ H2.T) @ K.T + K @ K.T
    # H P and H P H.T + I; K r; K (H P), (A H.T) K.T and K K.T; A H.T;
    # the three n x n sums (the Cholesky of S and its solves count
    # themselves)
    flops.add((m * n + m * m) * (2 * n2 - 1) + m + n * (2 * m - 1)
              + 3 * n * n * (2 * m - 1) + m * n * (2 * n2 - 1) + 3 * n * n)
    return dx, 0.5 * (P_new + P_new.T)
