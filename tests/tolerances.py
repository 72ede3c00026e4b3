"""Precision- and conditioning-scaled tolerances for the kernel tests, and
the one sign form in which they compare two paths' factors entry by
entry."""

import numpy as np

from srifkit.linalg import svdvals


def eps_of(dtype) -> float:
    """Machine epsilon of a float dtype, as a Python float."""
    return float(np.finfo(np.dtype(dtype)).eps)


def cond2(A) -> float:
    """The spectral condition number sigma_max / sigma_min of A, from its
    float64 singular values."""
    s = svdvals(A)
    return float(s[0]) / float(s[-1])


def canonical_signs(R):
    """A copy of the triangular factor R in one sign form: each row whose
    diagonal entry is negative or NaN is multiplied by that entry's sign
    (so a NaN diagonal spreads along its row), and every other row keeps
    every bit. A factor is defined only up to the signs of its rows, which
    srifkit leaves as LAPACK's reflections and rotations give them, so two
    paths' factors compare entry by entry only in this form."""
    R = np.array(R)
    d = np.diagonal(R)[:min(R.shape)]
    R[:d.size] *= np.where(d >= 0, 1, np.sign(d)).astype(R.dtype)[:, None]
    return R
