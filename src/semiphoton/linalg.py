"""Fixed-shape complex linear algebra: 3-vectors, 4-component spinors, 4x4 matrices.

Everything is double precision numpy.  No general-purpose routines live here,
only the exact-shape operations the rest of the library needs.  Comparisons of
integer-entry matrix identities are exact (error 0); everything else uses the
module default tolerance.

Vectors and spinors may come as a stack of n samples, shape (n, 3) or (n, 4),
and matrices as a stack of shape (n, 4, 4); vectors also as C stacks of n,
shape (C, n, 3).  The stacked kernels act on the
last axis (the last two for matrices) only, so a single vector gives scalars
and a stack gives one result per sample.  They use ``einsum``, never a
complex matrix-matrix ``@``: one OpenBLAS zgemm call can leave later libm
calls in the same process several times slower on some x86 CPUs.
Contractions keep the sample axes leading where the caller allows it
(``planewave.residual`` writes ``...ki``, not ``k...i``): each sample's
result is then contiguous and the contracted index is summed in the same
order, so the bits are the same and the call is faster.  ``cross`` gives
``np.cross``'s bits without its axis handling.
"""
from __future__ import annotations

import numpy as np

ABS_TOL = 1e-12


def require_finite(arr, name="value"):
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite components")
    return arr


def _shaped(entries, shape, name, stacks=0):
    """entries as a complex array of the shape, or of up to ``stacks``
    leading stack axes before it."""
    a = np.array(entries, dtype=complex)
    if a.shape[a.ndim - len(shape):] != shape or a.ndim - len(shape) > stacks:
        stack = " or a stack of them" if stacks else ""
        raise ValueError(f"{name} must have shape {shape}{stack}, got {a.shape}")
    require_finite(a, name)
    return a


def as_matrix(entries):
    return _shaped(entries, (4, 4), "matrix")


def as_matrices(entries):
    """One 4x4 matrix or a stack (n, 4, 4), checked once for the whole stack."""
    return _shaped(entries, (4, 4), "matrix", stacks=1)


def as_bispinor(entries):
    """One spinor (4,) or a stack (n, 4), checked once for the whole stack."""
    return _shaped(entries, (4,), "bispinor", stacks=1)


def as_vec3(entries):
    """One 3-vector (3,), a stack (n, 3) or a stack of stacks (C, n, 3),
    checked once for the whole stack."""
    return _shaped(entries, (3,), "vector", stacks=2)


def inner(a, b):
    """Sesquilinear conj(a) . b over the last axis, per stacked sample."""
    return np.einsum("...i,...i->...", a.conj(), b)


def cross(a, b):
    """a x b over the last axis of two arrays, per stacked sample.

    The same products and differences as ``np.cross``, in the same order,
    so the same bits, without its axis and shape handling.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0), axis=-1)


def mat_vec(m, v):
    """The matrix m applied to each vector of the stack v."""
    return np.einsum("ij,...j->...i", m, v)


def frozen(a):
    """Read-only view; registry matrices are immutable values."""
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def mat_mul(a, b):
    """Plain matrix product, no normalization; per matrix for stacks (n, 4, 4)."""
    return np.einsum("...ij,...jk->...ik", as_matrices(a), as_matrices(b))


def adjoint(a):
    """Conjugate transpose, of each matrix for a stack (n, 4, 4)."""
    return as_matrices(a).conj().swapaxes(-2, -1)


def entry_norm(a):
    """Max absolute entry; the matrix norm used for all 4x4 checks."""
    return float(np.abs(a).max()) if np.asarray(a).size else 0.0


def max_abs_diff(a, b):
    return entry_norm(np.asarray(a) - np.asarray(b))


def is_unitary(a, tol=ABS_TOL):
    """Whether a, or every matrix of a stack (n, 4, 4), is unitary within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return entry_norm(mat_mul(adjoint(a), a) - np.eye(4)) <= tol


def hermiticity_deviation(a):
    """Max entry of a - a^+; one per matrix, shape (n,), for a stack (n, 4, 4)."""
    a = as_matrices(a)
    return np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
