"""Fixed-shape complex linear algebra: 3-vectors, 4-component spinors, 4x4 matrices.

Everything is double precision numpy.  No general-purpose routines live here,
only the exact-shape operations the rest of the library needs.  Comparisons of
integer-entry matrix identities are exact (error 0); everything else uses the
module default tolerance.
"""
from __future__ import annotations

import numpy as np

ABS_TOL = 1e-12


def require_finite(arr, name="value"):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite components")
    return arr


def _shaped(entries, shape, name):
    a = np.array(entries, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    require_finite(a, name)
    return a


def as_matrix(entries):
    return _shaped(entries, (4, 4), "matrix")


def as_bispinor(entries):
    return _shaped(entries, (4,), "bispinor")


def as_vec3(entries):
    return _shaped(entries, (3,), "vector")


def frozen(a):
    """Read-only view; registry matrices are immutable values."""
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def mat_mul(a, b):
    """Plain matrix product, no normalization."""
    return as_matrix(a) @ as_matrix(b)


def adjoint(a):
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def anticommutator(a, b):
    return mat_mul(a, b) + mat_mul(b, a)


def entry_norm(a):
    """Max absolute entry; the matrix norm used for all 4x4 checks."""
    return float(np.abs(a).max()) if np.asarray(a).size else 0.0


def max_abs_diff(a, b):
    return entry_norm(np.asarray(a) - np.asarray(b))


def is_unitary(a, tol=ABS_TOL):
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = as_matrix(a)
    return entry_norm(adjoint(a) @ a - np.eye(4)) <= tol


def hermiticity_deviation(a):
    a = as_matrix(a)
    return max_abs_diff(a, a.conj().T)
