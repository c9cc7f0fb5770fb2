"""Plane-wave amplitudes of the free 4-component wave equation.

Builds the homogeneous 4x4 amplitude system, its dispersion roots, the two
closed-form solution pairs per energy branch, a pivoted-elimination nullspace
extractor as the independent route, and the interpretation of amplitudes as
field components through a layout.

Momenta may be a stack of shape (n, 3): ``build_system``, ``dispersion``,
``solution_basis``, ``make_states`` and ``residual`` then work on all n at
once, and a single momentum (3,) is the same code without the leading axis.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bridge import AXIS_INDEX, FieldLayout, bilinears, fields_from_bispinor
from .linalg import as_bispinor, as_vec3, entry_norm, inner
from .report import Discrepancy


PIVOT_TOL = 1e-10  # pivots up to this fraction of the largest entry are zero
ZERO_TOL = 1e-12  # relative size up to which momenta and amplitudes are zero


class AxisMismatch(ValueError):
    """Momentum is not aligned with the layout's propagation axis."""


@dataclass(frozen=True)
class PlaneWaveState:
    """One state, or a stack of n: energy (n,), momentum (n, 3), amplitudes (n, 4)."""
    energy: float
    momentum: np.ndarray
    amplitudes: np.ndarray
    phase: float
    branch: str

    def __post_init__(self):
        object.__setattr__(self, "momentum", as_vec3(self.momentum).real)
        object.__setattr__(self, "amplitudes", as_bispinor(self.amplitudes))


def build_system(energy, momentum, mass, c=1.0):
    """Coefficient matrix of the homogeneous amplitude system.

    Acting on (B1..B4); its determinant is (energy^2 - m^2 c^4 - c^2 p^2)^2,
    so non-trivial solutions exist exactly on shell.  Stacked energies and
    momenta give a stack of matrices, shape (n, 4, 4).
    """
    p = as_vec3(momentum).real
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    mc2 = mass * c * c
    m = np.zeros(np.broadcast_shapes(np.shape(energy), px.shape) + (4, 4),
                 dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = energy + mc2
    m[..., 2, 2] = m[..., 3, 3] = energy - mc2
    m[..., 0, 2] = m[..., 2, 0] = c * pz
    m[..., 1, 3] = m[..., 3, 1] = -c * pz
    m[..., 0, 3] = m[..., 2, 1] = c * (px - 1j * py)
    m[..., 1, 2] = m[..., 3, 0] = c * (px + 1j * py)
    return m


def dispersion(momentum, mass, c=1.0):
    """(eps_plus, eps_minus) = +-sqrt(c^2 p^2 + m^2 c^4)."""
    p = as_vec3(momentum).real
    e = np.sqrt(c * c * inner(p, p) + (mass * c * c) ** 2)
    return e, -e


def solution_basis(branch, momentum, mass, c=1.0, phase=0.0, energy=None):
    """The two closed-form amplitude solutions for the branch.

    ``energy`` overrides the on-shell value (used to reproduce stated special
    values at an off-shell substitution); by default the branch's dispersion
    root is used.
    """
    p = as_vec3(momentum).real
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    one, zero = np.ones_like(px), np.zeros_like(px)
    mc2 = mass * c * c
    e_plus, e_minus = dispersion(p, mass, c)
    if branch == "positive":
        eps = e_plus if energy is None else energy
        d = eps + mc2
        first = [-c * pz / d, -c * (px + 1j * py) / d, one, zero]
        second = [-c * (px - 1j * py) / d, c * pz / d, zero, one]
    elif branch == "negative":
        eps = e_minus if energy is None else energy
        d = -eps + mc2
        first = [one, zero, c * pz / d, c * (px + 1j * py) / d]
        second = [zero, one, c * (px - 1j * py) / d, -c * pz / d]
    else:
        raise ValueError(f"unknown branch {branch!r}")
    ph = cmath.exp(1j * phase)
    return np.stack(first, axis=-1) * ph, np.stack(second, axis=-1) * ph


def make_states(branch, momentum, mass, c=1.0, phase=0.0):
    e_plus, e_minus = dispersion(momentum, mass, c)
    if not np.all(np.isfinite(e_plus)):
        raise ValueError(f"on-shell energy is not finite for momentum "
                         f"{np.asarray(momentum).tolist()} and mass {mass!r}")
    s1, s2 = solution_basis(branch, momentum, mass, c, phase)
    eps = e_plus if branch == "positive" else e_minus
    return (PlaneWaveState(eps, momentum, s1, phase, branch),
            PlaneWaveState(eps, momentum, s2, phase, branch))


def residual(state: PlaneWaveState, aset, mass, c=1.0):
    """Max-entry norm of the amplitude system applied to the state(s)."""
    energy = np.asarray(state.energy)[..., None, None]
    px, py, pz = (state.momentum[..., k, None, None] for k in range(3))
    op = (energy * aset.a0
          + c * (px * aset.a1 + py * aset.a2 + pz * aset.a3)
          + mass * c * c * aset.a4)
    out = np.einsum("...ij,...j->...i", op, state.amplitudes)
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


@dataclass(frozen=True)
class FieldInterpretation:
    field: object
    sparsity: tuple
    e_amplitude: float
    h_amplitude: float


def field_interpretation(state: PlaneWaveState, layout: FieldLayout):
    """Map amplitudes to field components and report the sparsity pattern."""
    axis = AXIS_INDEX[layout.axis]
    p = state.momentum
    off_axis = [abs(p[i]) for i in range(3) if i != axis]
    if max(off_axis, default=0.0) > ZERO_TOL * max(1.0, abs(p[axis])):
        raise AxisMismatch(
            f"momentum {p} is not along the layout axis {layout.axis!r}")
    scale = entry_norm(state.amplitudes)
    sparsity = tuple(bool(abs(b) > ZERO_TOL * max(scale, 1.0))
                     for b in state.amplitudes)
    f = fields_from_bispinor(state.amplitudes, layout)
    return FieldInterpretation(field=f, sparsity=sparsity,
                               e_amplitude=float(np.abs(f.e).max()),
                               h_amplitude=float(np.abs(f.h).max()))


def special_amplitude_values(mass=1.0, c=1.0):
    """The four families at the stated special substitution, plus on-shell.

    The stated evaluation puts energy = m c^2 together with momentum m c on
    the propagation axis and phase pi/2; that point is off shell (the root is
    sqrt(2) m c^2), so both the literal values and the on-shell ones are
    returned, with the inconsistency recorded as a ledger entry.
    """
    p = np.array([0.0, mass * c, 0.0])
    mc2 = mass * c * c
    literal = {}
    onshell = {}
    for branch, sign in (("positive", +1), ("negative", -1)):
        lit = solution_basis(branch, p, mass, c, phase=math.pi / 2,
                             energy=sign * mc2)
        ons = solution_basis(branch, p, mass, c, phase=math.pi / 2)
        literal[branch] = lit
        onshell[branch] = ons
    e_plus, _ = dispersion(p, mass, c)
    entry = Discrepancy(
        claim="planewave/special-substitution",
        stated=mc2, computed=e_plus, ratio=e_plus / mc2,
        note="the stated amplitude table substitutes energy = m c^2 at "
             "momentum m c, which is off shell by a factor sqrt(2); both "
             "evaluations are emitted")
    return {"literal": literal, "onshell": onshell, "ledger": entry}


@dataclass(frozen=True)
class ContinuityReport:
    density: float
    flux: np.ndarray
    density_spread: float
    flux_spread: float
    deviation: float


def continuity_check(state: PlaneWaveState, aset, c=1.0, hbar=1.0, samples=16):
    """Probability continuity for a single plane wave.

    P = psi^+ a0 psi and the flux -c psi^+ a psi are space-time constants
    for a plane wave (the phase cancels in every hermitian bilinear), so
    dP/dt + div flux vanishes.  Both quantities are sampled over a grid of
    space-time points through the explicit phase factor; the reported
    deviation is their spread divided by a period scale, which bounds the
    derivative combination.
    """
    omega = state.energy / hbar
    kvec = state.momentum / hbar
    n = np.arange(samples)
    t = 0.37 * n
    r = n[:, None] * np.array([0.11, -0.23, 0.05])
    phase = np.exp(1j * (r @ kvec - omega * t + state.phase))
    b = bilinears(state.amplitudes * phase[:, None], aset).real
    densities = b[:, 0]
    fluxes = -c * b[:, 1:4]
    d_spread = float(densities.max() - densities.min())
    f_spread = float(np.abs(fluxes - fluxes[0]).max())
    period = 2 * math.pi / max(abs(omega), 1e-300)
    deviation = (d_spread + f_spread) / period
    return ContinuityReport(density=float(densities[0]), flux=fluxes[0],
                            density_spread=d_spread, flux_spread=f_spread,
                            deviation=deviation)
