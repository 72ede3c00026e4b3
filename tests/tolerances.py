"""Precision-scaled tolerances for the kernel tests."""

import numpy as np


def eps_of(dtype) -> float:
    """Machine epsilon of a float dtype, as a Python float."""
    return float(np.finfo(np.dtype(dtype)).eps)
