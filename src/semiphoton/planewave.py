"""Plane-wave amplitudes of the free 4-component wave equation.

Builds the homogeneous 4x4 amplitude system, its dispersion roots, the two
closed-form solution pairs per energy branch, a pivoted-elimination nullspace
extractor as the independent route, the interpretation of amplitudes as
field components through the electron layout, and the continuity equation of a
superposition of states.  Energies are in units of m c^2 and momenta in
units of m c, with hbar = 1.

Momenta may be a stack of shape (n, 3): ``build_system``, ``dispersion``,
``solution_basis``, ``make_states`` and ``residual`` then work on all n at
once, and a single momentum (3,) is the same code without the leading axis.
``build_system``, ``dispersion`` and ``solution_basis`` read the real
momentum as given; ``make_states`` checks it once.  ``continuity_check``
superposes the states of a stack.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import dirac
from .bridge import AXIS_INDEX, electron_layout, fields_from_bispinor
from .linalg import as_vec3, entry_norm
from .report import Discrepancy


PIVOT_TOL = 1e-10  # pivots up to this fraction of the largest entry are zero
ZERO_TOL = 1e-12  # relative size up to which momenta and amplitudes are zero
CONTINUITY_SAMPLES = 16  # space-time points of the continuity check


class AxisMismatch(ValueError):
    """Momentum is not aligned with the layout's propagation axis."""


class PlaneWaveState(NamedTuple):
    """One state, or a stack of n: energy (n,), momentum (n, 3), amplitudes (n, 4)."""
    energy: float
    momentum: np.ndarray
    amplitudes: np.ndarray


def build_system(energy, momentum):
    """Coefficient matrix of the homogeneous amplitude system.

    Acting on (B1..B4); its determinant is (energy^2 - 1 - p^2)^2, so
    non-trivial solutions exist exactly on shell.  Stacked energies and
    momenta give a stack of matrices, shape (n, 4, 4).
    """
    px, py, pz = momentum[..., 0], momentum[..., 1], momentum[..., 2]
    m = np.zeros(np.broadcast_shapes(np.shape(energy), px.shape) + (4, 4),
                 dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = energy + 1.0
    m[..., 2, 2] = m[..., 3, 3] = energy - 1.0
    m[..., 0, 2] = m[..., 2, 0] = pz
    m[..., 1, 3] = m[..., 3, 1] = -pz
    m[..., 0, 3] = m[..., 2, 1] = px - 1j * py
    m[..., 1, 2] = m[..., 3, 0] = px + 1j * py
    return m


def dispersion(p):
    """(eps_plus, eps_minus) = +-sqrt(p^2 + 1) of the real momentum p.

    p^2 is summed in one fixed order, so its bits do not depend on p's strides.
    """
    e = np.sqrt(p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1]
                + p[..., 2] * p[..., 2] + 1.0)
    return e, -e


def solution_basis(branch, p, energy, phase=0.0):
    """The two closed-form amplitude solutions for the branch at momentum p.

    They solve the system at the branch's dispersion root; any other energy
    reproduces stated special values at an off-shell substitution.
    """
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    one, zero = np.ones_like(px), np.zeros_like(px)
    if branch == "positive":
        d = energy + 1.0
        first = [-pz / d, (-px - 1j * py) / d, one, zero]
        second = [(-px + 1j * py) / d, pz / d, zero, one]
    elif branch == "negative":
        d = -energy + 1.0
        first = [one, zero, pz / d, (px + 1j * py) / d]
        second = [zero, one, (px - 1j * py) / d, -pz / d]
    else:
        raise ValueError(f"unknown branch {branch!r}")
    ph = cmath.exp(1j * phase)
    return np.stack(first, axis=-1) * ph, np.stack(second, axis=-1) * ph


def make_states(branch, momentum):
    """The branch's two states at the momentum, which is checked here once."""
    p = as_vec3(momentum).real
    with np.errstate(over="ignore"):  # an infinite energy is rejected below
        e_plus, e_minus = dispersion(p)
    if not np.isfinite(e_plus).all():
        raise ValueError(f"on-shell energy is not finite for momentum "
                         f"{np.asarray(momentum).tolist()} and mass 1.0")
    eps = e_plus if branch == "positive" else e_minus
    s1, s2 = solution_basis(branch, p, eps)
    return PlaneWaveState(eps, p, s1), PlaneWaveState(eps, p, s2)


def residual(state: PlaneWaveState):
    """Max-entry norm of the amplitude system applied to the state(s).

    a0..a4 of the canonical set act on the amplitudes, and their five images
    are weighted by the energy, p and 1, so no stack of operators is built.
    """
    aset = dirac.canonical_alpha_set()
    images = np.einsum("kij,...j->...ki", np.array(
        (aset.a0, aset.a1, aset.a2, aset.a3, aset.a4)), state.amplitudes)
    i0, i1, i2, i3, i4 = (images[..., k, :] for k in range(5))
    energy = np.asarray(state.energy)[..., None]
    px, py, pz = (state.momentum[..., k, None] for k in range(3))
    out = energy * i0 + (px * i1 + py * i2 + pz * i3) + i4
    return np.abs(out).max(axis=-1)


def nullspace(matrix):
    """Nullspace basis by Gaussian elimination with partial pivoting.

    Free variables are assigned (1, 0), (0, 1), ... in column order, which
    reproduces the closed-form normalization of the solution pairs.
    """
    a = np.array(matrix, dtype=complex)
    n_rows, n_cols = a.shape
    scale = max(entry_norm(a), 1.0)
    pivots = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= PIVOT_TOL * scale:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row] = a[row] / a[row, col]
        for r in range(n_rows):
            if r != row:
                a[r] = a[r] - a[r, col] * a[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(n_cols, dtype=complex)
        v[fc] = 1.0
        for r, pc in enumerate(pivots):
            v[pc] = -a[r, fc]
        basis.append(v)
    return basis


class FieldInterpretation(NamedTuple):
    field: object
    sparsity: tuple
    e_amplitude: float
    h_amplitude: float


def field_interpretation(state: PlaneWaveState):
    """Map amplitudes to field components of the electron layout and report
    the sparsity pattern.

    A stack of n states gives n sparsity tuples and (n,) amplitudes.
    """
    layout = electron_layout()
    axis = AXIS_INDEX[layout.triad.axis]
    p = np.abs(state.momentum)
    off_axis = np.delete(p, axis, axis=-1).max(axis=-1)
    if np.any(off_axis > ZERO_TOL * np.maximum(1.0, p[..., axis])):
        raise AxisMismatch(f"momentum {state.momentum} is not along the "
                           f"layout axis {layout.triad.axis!r}")
    mag = np.abs(state.amplitudes)
    scale = np.maximum(mag.max(axis=-1, keepdims=True), 1.0)
    nonzero = (mag > ZERO_TOL * scale).tolist()
    f = fields_from_bispinor(state.amplitudes, layout)
    e_amp, h_amp = np.abs(f.e).max(axis=-1), np.abs(f.h).max(axis=-1)
    if mag.ndim == 1:
        return FieldInterpretation(field=f, sparsity=tuple(nonzero),
                                   e_amplitude=float(e_amp),
                                   h_amplitude=float(h_amp))
    return FieldInterpretation(field=f, sparsity=tuple(map(tuple, nonzero)),
                               e_amplitude=e_amp, h_amplitude=h_amp)


def special_amplitude_values():
    """The four families at the stated special substitution.

    The stated evaluation puts energy = m c^2 together with momentum m c on
    the propagation axis and phase pi/2; that point is off shell (the root is
    sqrt(2) m c^2), so the literal values are returned with the
    inconsistency recorded as a ledger entry.
    """
    p = np.array([0.0, 1.0, 0.0])
    literal = {branch: solution_basis(branch, p, energy, phase=math.pi / 2)
               for branch, energy in (("positive", 1.0), ("negative", -1.0))}
    e_plus, _ = dispersion(p)
    entry = Discrepancy(
        claim="planewave/special-substitution",
        stated=1.0, computed=e_plus, ratio=e_plus,
        note="the stated amplitude table substitutes energy = m c^2 at "
             "momentum m c, which is off shell by a factor sqrt(2); both "
             "evaluations are emitted")
    return {"literal": literal, "ledger": entry}


def continuity_check(states: PlaneWaveState):
    """Probability continuity of a superposition of plane-wave states.

    psi is the sum of the stack's states A_k e^{i(p_k.r - eps_k t)}, the
    density psi^+ a0 psi and the flux -psi^+ a psi, with the canonical set;
    the derivatives come in closed form from each phase.  A state's own terms
    are constants, so only the cross terms, which vary in space-time, reach
    dP/dt + div flux; they cancel only when every state solves the system.
    Returns the largest |dP/dt + div flux| at the sample points over
    (product of the states' largest amplitudes) * sum |eps|.
    """
    eps, p, amps = states
    n = np.arange(CONTINUITY_SAMPLES)
    r = n[:, None] * np.array([0.11, -0.23, 0.05])
    phase = np.exp(1j * (np.einsum("si,ki->sk", r, p)
                         - np.multiply.outer(0.37 * n, eps)))
    psi = phase[..., None] * amps  # (sample, state, 4)
    aset = dirac.canonical_alpha_set()
    mats = np.array((aset.a0, aset.a1, aset.a2, aset.a3))
    b = np.einsum("ski,mij,slj->sklm", psi.conj(), mats, psi)
    # d/dt and div of conj(psi_k) a psi_l bring i (eps_k - eps_l), i (p_l - p_k)
    d_eps = eps[:, None] - eps[None, :]
    d_p = p[None, :, :] - p[:, None, :]
    rate = np.einsum("kl,skl->s", d_eps, b[..., 0]) \
        - np.einsum("klj,sklj->s", d_p, b[..., 1:])
    worst = np.abs(rate).max()
    scale = np.prod(np.abs(amps).max(axis=-1)) * np.abs(eps).sum()
    return float(worst / scale) if worst else 0.0
