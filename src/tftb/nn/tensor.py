"""Dense-tensor conventions for the numeric core.

Every tensor in this package is a C-contiguous float64 numpy array; shape
metadata plus a flat row-major buffer of 64-bit floats.  Float64 is fixed so
the finite-difference gradient checks have enough headroom.  NaN or Inf in a
tensor is an error state, never a value.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError


def as_f64(values) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def require_finite(arr: np.ndarray, context: str) -> np.ndarray:
    """Raise NonFiniteError if ``arr`` contains NaN/Inf; return it otherwise."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")
    return arr
