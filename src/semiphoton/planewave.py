"""Plane-wave amplitudes of the free 4-component wave equation.

Builds the homogeneous 4x4 amplitude system, its dispersion roots, the two
closed-form solution pairs per energy branch, a pivoted-elimination nullspace
extractor as the independent route, and the interpretation of amplitudes as
field components through a layout.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bridge import (AXIS_INDEX, BilinearKind, FieldLayout, bilinear,
                     bilinear_vector, fields_from_bispinor)
from .linalg import as_bispinor, as_vec3, entry_norm
from .report import Discrepancy


class AxisMismatch(ValueError):
    """Momentum is not aligned with the layout's propagation axis."""


@dataclass(frozen=True)
class PlaneWaveState:
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
    so non-trivial solutions exist exactly on shell.
    """
    px, py, pz = as_vec3(momentum).real
    mc2 = mass * c * c
    return np.array([
        [energy + mc2, 0, c * pz, c * (px - 1j * py)],
        [0, energy + mc2, c * (px + 1j * py), -c * pz],
        [c * pz, c * (px - 1j * py), energy - mc2, 0],
        [c * (px + 1j * py), -c * pz, 0, energy - mc2],
    ], dtype=complex)


def dispersion(momentum, mass, c=1.0):
    """(eps_plus, eps_minus) = +-sqrt(c^2 p^2 + m^2 c^4)."""
    p = as_vec3(momentum).real
    e = math.sqrt(c * c * float(p @ p) + (mass * c * c) ** 2)
    return e, -e


def solution_basis(branch, momentum, mass, c=1.0, phase=0.0, energy=None):
    """The two closed-form amplitude solutions for the branch.

    ``energy`` overrides the on-shell value (used to reproduce stated special
    values at an off-shell substitution); by default the branch's dispersion
    root is used.
    """
    px, py, pz = as_vec3(momentum).real
    mc2 = mass * c * c
    e_plus, e_minus = dispersion(momentum, mass, c)
    if branch == "positive":
        eps = e_plus if energy is None else energy
        d = eps + mc2
        first = np.array([-c * pz / d, -c * (px + 1j * py) / d, 1, 0], dtype=complex)
        second = np.array([-c * (px - 1j * py) / d, c * pz / d, 0, 1], dtype=complex)
    elif branch == "negative":
        eps = e_minus if energy is None else energy
        d = -eps + mc2
        first = np.array([1, 0, c * pz / d, c * (px + 1j * py) / d], dtype=complex)
        second = np.array([0, 1, c * (px - 1j * py) / d, -c * pz / d], dtype=complex)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    ph = cmath.exp(1j * phase)
    return first * ph, second * ph


def make_states(branch, momentum, mass, c=1.0, phase=0.0):
    s1, s2 = solution_basis(branch, momentum, mass, c, phase)
    e_plus, e_minus = dispersion(momentum, mass, c)
    eps = e_plus if branch == "positive" else e_minus
    return (PlaneWaveState(eps, momentum, s1, phase, branch),
            PlaneWaveState(eps, momentum, s2, phase, branch))


def residual(state: PlaneWaveState, aset, mass, c=1.0):
    """Max-entry norm of the amplitude system applied to the state."""
    px, py, pz = state.momentum
    op = (state.energy * aset.a0
          + c * (px * aset.a1 + py * aset.a2 + pz * aset.a3)
          + mass * c * c * aset.a4)
    return entry_norm(op @ state.amplitudes)


def nullspace(matrix, pivot_tol=1e-10):
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
        if abs(a[pivot, col]) <= pivot_tol * scale:
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


def field_interpretation(state: PlaneWaveState, layout: FieldLayout,
                         zero_tol=1e-12):
    """Map amplitudes to field components and report the sparsity pattern."""
    axis = AXIS_INDEX[layout.axis]
    p = state.momentum
    off_axis = [abs(p[i]) for i in range(3) if i != axis]
    if max(off_axis, default=0.0) > zero_tol * max(1.0, abs(p[axis])):
        raise AxisMismatch(
            f"momentum {p} is not along the layout axis {layout.axis!r}")
    scale = entry_norm(state.amplitudes)
    sparsity = tuple(bool(abs(b) > zero_tol * max(scale, 1.0))
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
    psi = state.amplitudes
    omega = state.energy / hbar
    kvec = state.momentum / hbar
    densities, fluxes = [], []
    for n in range(samples):
        t = 0.37 * n
        r = np.array([0.11 * n, -0.23 * n, 0.05 * n])
        phase = cmath.exp(1j * (float(kvec @ r) - omega * t + state.phase))
        moving = psi * phase
        densities.append(bilinear(BilinearKind.VECTOR0, moving, aset).real)
        fluxes.append(-c * bilinear_vector(moving, aset).real)
    densities = np.array(densities)
    fluxes = np.array(fluxes)
    d_spread = float(densities.max() - densities.min())
    f_spread = float(np.abs(fluxes - fluxes[0]).max())
    period = 2 * math.pi / max(abs(omega), 1e-300)
    deviation = (d_spread + f_spread) / period
    return ContinuityReport(density=float(densities[0]), flux=fluxes[0],
                            density_spread=d_spread, flux_spread=f_spread,
                            deviation=deviation)
