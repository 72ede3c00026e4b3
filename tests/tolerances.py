"""Precision- and conditioning-scaled tolerances for the kernel tests."""

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
