"""Stress tensor, ring forces, Lagrangian evaluators, and rotation checks.

The ring force has one closed form, ``lorentz_force_ring``; its other route
is the rotation that it supplies: the mass density ``field_mass_density``,
turning rigidly at omega_s, needs the centripetal force density of
``centripetal_check`` at r_s, which equals the closed form only because
omega_s r_s = c.  The linear Lagrangian is evaluated through two
independent routes (spinor algebra, field invariants) that must agree
pointwise and vanish on shell.  The quartic self-interaction term is
evaluated both from the energy-momentum pair and through its
quartic-invariant rewriting, and both again through the bilinears; all four
meet for real fields.  Everything uses the sesquilinear convention:
quadratic forms pair a component with the conjugate of the other factor,
reducing to ordinary products for real fields.

``stress_tensor``, the Lagrangian evaluators and the helpers they share also
take a stack of points: a ``bridge.WavePoint`` whose fields hold n samples,
shape (n, 3), gives one value per sample.  A plane wave's points are one
case of ``bridge.SlotWave.at``; a point of independent per-slot
oscillations is built by hand.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import dirac
from .bridge import (AXIS_INDEX, EmField, WavePoint, bispinor_from_fields,
                     cross_sym, e_squared, eh_dot, electron_layout,
                     fierz_quantum, h_squared)
from .linalg import cross, inner, mat_vec
from .torus import NATURAL, DomainError, TorusModel, coupling_constant

LAYOUT = electron_layout()  # the slot map of every Lagrangian route


class StressTensor(NamedTuple):
    tau_pq: np.ndarray
    tau_p0: np.ndarray
    tau_00: float


def stress_tensor(f: EmField) -> StressTensor:
    """Field energy-momentum components (real mode).

    tau_pq = -(E_p E_q + H_p H_q) + (1/2) delta_pq (E^2 + H^2) with the
    standard Kronecker delta (delta_pp = 1), which is the convention that
    makes the spatial trace equal tau_00; tau_p0 is the unscaled flux
    (E x H)_p and tau_00 = (E^2 + H^2) / 2.
    """
    f.require_real()
    e, h = f.e.real, f.h.real
    total = inner(e, e) + inner(h, h)
    outer = e[..., :, None] * e[..., None, :] + h[..., :, None] * h[..., None, :]
    tau_pq = -outer + 0.5 * total[..., None, None] * np.eye(3)
    tau_p0 = cross(e, h)
    return StressTensor(tau_pq=tau_pq, tau_p0=tau_p0, tau_00=0.5 * total)


class RingForce(NamedTuple):
    f2: float
    f0: float


def lorentz_force_ring(model: TorusModel, e_amplitude, polarization,
                       h_amplitude=None) -> RingForce:
    """Normal force components on the rolling wave.

    ``Ex_Hz`` is the rotation about OZ (positive sign), ``Ez_Hx`` the rotation
    about OX (negative sign).  The magnetic amplitude defaults to the electric
    one, as for the free transverse wave.  Amplitude arrays give one force
    per amplitude pair.
    """
    if np.any(np.less(e_amplitude, 0)):
        raise ValueError("e_amplitude must be non-negative")
    h = e_amplitude if h_amplitude is None else h_amplitude
    sign = {"Ex_Hz": +1.0, "Ez_Hx": -1.0}[polarization]
    omega, c = model.omega_s, model.units.c
    f2 = sign * omega * e_amplitude * h / (4 * math.pi * c)
    f0 = sign * omega * e_amplitude ** 2 / (4 * math.pi * c)
    return RingForce(f2=f2, f0=f0)


def field_mass_density(model: TorusModel, e_amplitude, h_amplitude):
    """E H / 4 pi c^2: the field momentum density |E x H| / 4 pi c of crossed
    amplitudes, divided by c, the speed at which the ring carries it."""
    c = model.units.c
    return e_amplitude * h_amplitude / (4 * math.pi * c * c)


# ---------------------------------------------------------------------------
# Lagrangian evaluators
# ---------------------------------------------------------------------------

def _du_dt_terms(point: WavePoint, c):
    """Sesquilinear energy-rate and flux-divergence terms of the slot map."""
    f, ft, fu = point.f, point.df_dt, point.df_du
    du_term = (inner(f.e, ft.e) + inner(f.h, ft.h)) / (4 * math.pi)
    a1, a2 = LAYOUT.triad.e_axes
    i1, i2 = AXIS_INDEX[a1], AXIS_INDEX[a2]
    e, h = f.e.conj(), f.h.conj()
    div_term = (c / (4 * math.pi)) * (
        -e[..., i1] * fu.h[..., i2] + e[..., i2] * fu.h[..., i1]
        + h[..., i1] * fu.e[..., i2] - h[..., i2] * fu.e[..., i1])
    return du_term, div_term


class LinearLagrangian(NamedTuple):
    spinor: complex
    em: complex


def lagrangian_linear(point: WavePoint, units=NATURAL) -> LinearLagrangian:
    """The linear wave Lagrangian through the spinor algebra and through the
    field invariant E^2 - H^2, with m_e, c and hbar read from ``units``.

    Both vanish on solutions and agree pointwise on arbitrary
    differentiable inputs; any gap flags a transcription defect.
    """
    mass, c, hbar = units.m_e, units.c, units.hbar
    omega_e = 2 * mass * c * c / hbar

    # spinor route
    psi = bispinor_from_fields(point.f, LAYOUT)
    dpsi_t = bispinor_from_fields(point.df_dt, LAYOUT)
    dpsi_u = bispinor_from_fields(point.df_du, LAYOUT)
    aset = dirac.canonical_alpha_set()
    spinor = (c / (4 * math.pi)) * (
        inner(psi, dpsi_t) / c
        - inner(psi, mat_vec(aset.a2, dpsi_u))
        - 1j * (mass * c / hbar) * inner(psi, mat_vec(aset.a4, psi)))

    # field-invariant route
    du_term, div_term = _du_dt_terms(point, c)
    invariant = e_squared(point.f) - h_squared(point.f)
    em = du_term + div_term - 1j * (omega_e / (8 * math.pi)) * invariant
    return LinearLagrangian(spinor=spinor, em=em)


def maxwell_invariant_forms(point: WavePoint):
    """Both sides of the invariant-replacement identity, with c = 1.

    lhs = (E^2 - H^2) / 8 pi, rhs = (i / omega_e)(dU/dt + div S) with
    omega_e = 2 m c^2 / hbar = 2.  Equality is specific to the rolling-wave
    solutions; degenerate inputs (static fields) separate the two sides.
    """
    du_term, div_term = _du_dt_terms(point, 1.0)
    lhs = (e_squared(point.f) - h_squared(point.f)) / (8 * math.pi)
    rhs = (1j / 2) * (du_term + div_term)
    return lhs, rhs


class NonlinearLagrangian(NamedTuple):
    quartic_em: float
    quartic_invariant: float
    quartic_bilinear: float
    quartic_bilinear_fierz: float


def quartic_prefactor(model: TorusModel):
    """The self-interaction quartic scale delta_tau / ((8 pi)^2 m c^2)."""
    u = model.units
    return model.delta_tau / ((8 * math.pi) ** 2 * (u.m_e * u.c * u.c))


def lagrangian_nonlinear(point: WavePoint,
                         model: TorusModel) -> NonlinearLagrangian:
    """Quartic self-interaction Lagrangian through its equivalent routes.

    The quartic summand (delta_tau / m c^2)(U^2 - c^2 g^2) is evaluated from
    the energy-momentum pair, through the quartic-invariant rewriting and
    through the squared bilinears; the three quartic routes and their pair
    identity agree for real fields.
    """
    c = model.units.c
    mc2 = model.units.m_e * c * c
    dtau = model.delta_tau
    pref = quartic_prefactor(model)
    if min(dtau, pref) < sys.float_info.min:
        # a subnormal factor has lost digits: the quartic routes would disagree
        raise DomainError(f"the ring volume delta_tau or the quartic prefactor "
                          f"underflows to 0 or below the normal float range "
                          f"at zeta={model.zeta!r}")

    e2, h2 = e_squared(point.f), h_squared(point.f)
    u_density = (e2 + h2) / (8 * math.pi)
    # own-field energy and momentum: uniform densities times the ring volume
    epsilon_s = u_density * dtau
    p_s = (c / (4 * math.pi)) * cross_sym(point.f) / (c * c) * dtau
    g_vec = p_s / dtau
    quartic_em = (epsilon_s * u_density - c * c * inner(p_s, g_vec)) / mc2

    quartic_invariant = pref * ((e2 - h2) ** 2 + 4 * eh_dot(point.f) ** 2)

    b_lhs, b_rhs = fierz_quantum(bispinor_from_fields(point.f, LAYOUT))
    return NonlinearLagrangian(
        quartic_em=quartic_em, quartic_invariant=quartic_invariant,
        quartic_bilinear=pref * b_lhs, quartic_bilinear_fierz=pref * b_rhs)


def photon_photon_comparison(model: TorusModel):
    """Structure comparison of the self-interaction and perturbative quartics.

    Both Lagrangians share the term shape a (E^2-H^2)^2 + b (E.H)^2; the
    self-interaction carries coefficient pair (1, 4), the perturbative
    photon-photon one (1, 7) with scale (2/45) e^4 hbar / (m^4 c^7).
    """
    u = model.units
    b_const = (2.0 / 45.0) * u.e ** 4 * u.hbar / (u.m_e ** 4 * u.c ** 7)
    self_scale = quartic_prefactor(model)
    return {
        "eh_squared_coefficient_self": 4.0,
        "eh_squared_coefficient_perturbative": 7.0,
        "quartic_scale_self": self_scale,
        "quartic_scale_perturbative": b_const,
        "scale_ratio": self_scale / b_const,
    }


def self_action_constant(model: TorusModel):
    """Coefficient (zeta^2 / 2 alpha_q c) r_s^3 of the cubic self-action term,
    alpha_q the coupling of the model's zeta."""
    alpha_q = coupling_constant(model.zeta)
    return (model.zeta ** 2 / (2 * alpha_q * model.units.c)) * model.r_s ** 3


# ---------------------------------------------------------------------------
# Hydrodynamic rotation checks
# ---------------------------------------------------------------------------

FD_STEP = 1e-6  # central-difference step (times r in centripetal_check)


def rigid_rotation(omega):
    """Velocity field omega z x p of a rigid rotation about OZ, mapping a
    point (3,) or a stack (n, 3) to 3-vectors of its shape."""
    def velocity(p):
        return np.stack([-omega * p[..., 1], omega * p[..., 0],
                         np.zeros(p.shape[:-1])], axis=-1)
    return velocity


def _partial(field, point, axis, h):
    """Central difference of a scalar or vector field along one axis, at one
    point (3,) or a stack (n, 3)."""
    dp = np.zeros(np.shape(point))
    dp[..., axis] = h
    return (field(point + dp) - field(point - dp)) / (2 * h)


def _curl_fd(vfield, point, h):
    """Central-difference curl of a 3-vector field at a point or a stack."""
    dx, dy, dz = (_partial(vfield, point, axis, h) for axis in range(3))
    return np.stack([dy[..., 2] - dz[..., 1], dz[..., 0] - dx[..., 2],
                     dx[..., 1] - dy[..., 0]], axis=-1)


class CentripetalReport(NamedTuple):
    curl: np.ndarray
    acceleration_magnitude: float


def centripetal_check(omega, r) -> CentripetalReport:
    """Rigid rotation about OZ: curl v = 2 omega, |v x curl v| / 2 = v^2 / r,
    at the point (r, 0, 0).

    The velocity field is linear, so the finite-difference curl is exact up
    to rounding.
    """
    if omega < 0 or r <= 0:
        raise ValueError("omega must be non-negative and r positive")
    vfield = rigid_rotation(omega)
    point = np.array([r, 0.0, 0.0])
    curl = _curl_fd(vfield, point, FD_STEP * r)
    accel = 0.5 * cross(vfield(point), curl)
    # axis=-1 sums in numpy; without an axis norm goes through BLAS dot
    return CentripetalReport(
        curl=curl,
        acceleration_magnitude=float(np.linalg.norm(accel, axis=-1)))


def matter_motion_residual(g_field, u_field, v_field, points):
    """Residual of (dg/dt + grad U) - v x curl g at a stack of points (n, 3).

    ``g_field``/``v_field`` map a stack of points to 3-vectors (n, 3),
    ``u_field`` to scalars (n,); the configuration is static (dg/dt = 0).
    Returns the residual vectors (n, 3); the caller gates them.
    """
    points = np.asarray(points, dtype=float)
    grad_u = np.stack([_partial(u_field, points, axis, FD_STEP)
                       for axis in range(3)], axis=-1)
    curl_g = _curl_fd(g_field, points, FD_STEP)
    return grad_u - cross(v_field(points), curl_g)
