"""Operation counts: where the cheaper algorithms win.

Two comparisons, both on synthetic factors at the dimensions a sliding
window filter actually produces (state split n1=9 / n2=122, measurement
dimension m=995):

1. Marginalizing one state out of an upper-triangular factor: cyclic
   column shift + Givens retriangularization is O(np), versus O(np^2)
   for redoing the affected block with dense Householder QR.

2. The measurement update: the classic QR update costs ~2 m n2^2, while
   forming the preconditioned normal equations and Cholesky-factoring
   them costs about half that -- and the preconditioner itself is noise.
"""

import numpy as np

from srifkit.filters import (
    marginalize_block,
    pcsrif_update,
    srif_update_partitioned,
)
from srifkit.linalg import FlopCounter, householder_qr

rng = np.random.default_rng(0)


def factor(n):
    R = np.triu(rng.normal(size=(n, n)))
    R[np.diag_indices(n)] = np.abs(np.diag(R)) + 0.5
    return R


n = 128
print(f"marginalization from an n={n} factor")
print(f"{'p':>5} {'givens':>10} {'householder':>12} {'ratio':>7}")
for p in (8, 16, 32, 64, 120):
    R = factor(n)
    fg, fh = FlopCounter(), FlopCounter()
    marginalize_block(R, [p], flops=fg)
    # the classical way: state p's column to the front, then a dense QR
    # of the p + 1 rows that are no longer triangular
    householder_qr(R[:p + 1, np.r_[p, 0:p, p + 1:n]], flops=fh)
    print(f"{p:>5} {fg.total():>10} {fh.total():>12} "
          f"{fg.total() / fh.total():>7.3f}")

m, n1, n2 = 995, 9, 122
offsets = [1 + 6 * i for i in range(11)]
R = factor(n1 + n2)
H2 = rng.normal(size=(m, n2))
r = rng.normal(size=m)
fq, fp = FlopCounter(), FlopCounter()
srif_update_partitioned(R, H2, r, n1, flops=fq)
pcsrif_update(R, H2, r, n1, offsets, flops=fp)
print(f"\nupdate at m={m}, n2={n2}")
print(f"  QR path:       {fq.total():.3e} flop "
      f"(2 m n2^2 = {2 * m * n2 * n2:.3e})")
print(f"  Cholesky path: {fp.total():.3e} flop "
      f"({fp.total() / fq.total() * 100:.0f}% of QR)")
