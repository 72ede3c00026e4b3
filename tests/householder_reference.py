"""Classical dense marginalization, the reference for claims 2 and 3.

`marginalize_block` carries a scalar's row to the top with one chain of
Givens rotations, O(n*p). The function here permutes the scalar's column
to the front and re-triangularizes the top block with a dense Householder
QR, the classical O(n*p^2) cost the Givens kernel is compared against.
"""

from __future__ import annotations

import numpy as np

from srifkit.linalg import UNCOUNTED, FlopCounter, householder_qr


def marginalize_oracle_householder(R, p, flops: FlopCounter = UNCOUNTED):
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
        W[:p + 1] = householder_qr(W[:p + 1], flops=flops)
        out = W[1:, 1:].copy()
    else:
        out = W[:-1, 1:].copy()
        out[p:, p:] = householder_qr(W[p:, p + 1:], flops=flops)
    return out
