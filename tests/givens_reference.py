"""Rotation-by-rotation Givens sweeps, the reference for the ?lasr ones.

`givens_triangularize` and `marginalize_block` apply each chain of rotations
with one LAPACK ?lasr call (`linalg.row_rotator`). The functions here apply
the same rotations one at a time, in the same order, and count FLOPs per
rotation, so the tests can compare the two to roundoff and their FLOP
counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srifkit.linalg import UNCOUNTED, FlopCounter


@dataclass
class GivensRotation:
    """Plane rotation with c**2 + s**2 = 1 acting on rows i and j."""

    c: float
    s: float
    i: int = 0
    j: int = 1


def givens_from_pair(a, b, i=0, j=1, flops: FlopCounter = UNCOUNTED) -> GivensRotation:
    """Rotation G such that G.T @ [a, b] = [r, 0] with r >= 0.

    The a = b = 0 case returns the identity rotation (r = 0).
    """
    dt = np.result_type(a, b)
    a = np.asarray(a, dtype=dt)[()]
    b = np.asarray(b, dtype=dt)[()]
    flops.add(6)    # 1 add, 2 muls, 2 divs and 1 sqrt
    if b == 0 and a == 0:
        return GivensRotation(dt.type(1.0), dt.type(0.0), i, j)
    r = np.hypot(a, b)
    return GivensRotation(a / r, b / r, i, j)


def apply_givens_rows(M, G: GivensRotation, cols=slice(None), flops: FlopCounter = UNCOUNTED):
    """Apply G.T to rows G.i and G.j of M over the given columns, in place.

    Returns M. Frobenius norm of the two affected rows (restricted to the
    column range) is preserved up to roundoff.
    """
    i, j = G.i, G.j
    ri = np.array(M[i, cols], copy=True)
    rj = np.array(M[j, cols], copy=True)
    M[i, cols] = G.c * ri + G.s * rj
    M[j, cols] = -G.s * ri + G.c * rj
    ncol = ri.shape[0] if ri.ndim else 1
    flops.add(6 * ncol)    # 2 adds and 4 muls per column
    return M


def triangularize_by_rotation(A, flops: FlopCounter = UNCOUNTED):
    """`givens_triangularize`, one rotation at a time. Returns A."""
    m, n = A.shape
    for j in range(min(n, m - 1)):
        for off in np.nonzero(A[j + 1:, j])[0]:
            r = j + 1 + off
            G = givens_from_pair(A[j, j], A[r, j], i=j, j=r, flops=flops)
            apply_givens_rows(A, G, cols=slice(j, n), flops=flops)
            A[r, j] = 0.0
    return A


def marginalize_by_rotation(R, p, flops: FlopCounter = UNCOUNTED):
    """`marginalize_block(R, [p])`, one rotation of adjacent rows at a time."""
    n = R.shape[0]
    if p == 0 and R[0, 0] != 0:
        return R[1:, 1:].copy()
    perm = [p] + list(range(p)) + list(range(p + 1, n))
    W = R[:, perm]
    for j in range(p, 0, -1):
        G = givens_from_pair(W[j - 1, 0], W[j, 0], i=j - 1, j=j, flops=flops)
        apply_givens_rows(W, G, cols=slice(j, n), flops=flops)
        # the leading column pair rotates to (r, 0)
        W[j - 1, 0] = G.c * W[j - 1, 0] + G.s * W[j, 0]
        W[j, 0] = 0.0
        flops.add(3)    # 1 add and 2 muls
    if W[0, 0] == 0:
        # every rotation was the identity: the state has no information,
        # so delete its column and rotate rows p.. back into a triangle
        triangularize_by_rotation(W[p:, p + 1:], flops=flops)
        return W[:-1, 1:].copy()
    return W[1:, 1:].copy()
