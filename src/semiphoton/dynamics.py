"""Stress tensor, ring forces, Lagrangian evaluators, and rotation checks.

The linear Lagrangian is evaluated through three independent routes (spinor
algebra, field invariants, current form) that must agree pointwise and vanish
on shell.  The quartic self-interaction term is evaluated both from the
energy-momentum pair and through its quartic-invariant rewriting, and both
again through the bilinears; all four meet for real fields.  Everything uses
the sesquilinear convention: quadratic forms pair a component with the
conjugate of the other factor, reducing to ordinary products for real fields.

``stress_tensor``, the Lagrangian evaluators and the helpers they share also
take a stack of points: a ``WavePoint`` whose fields hold n samples, shape
(n, 3), gives one value per sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import (AXIS_INDEX, EmField, bispinor_from_fields, cross_sym,
                     e_squared, eh_dot, electron_layout, fierz_quantum,
                     h_squared)
from .dirac import canonical_alpha_set
from .linalg import inner, mat_vec
from .torus import DomainError, TorusModel, ring_current


@dataclass(frozen=True)
class StressTensor:
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
    tau_p0 = np.cross(e, h)
    return StressTensor(tau_pq=tau_pq, tau_p0=tau_p0, tau_00=0.5 * total)


@dataclass(frozen=True)
class RingForce:
    f2: float
    f0: float


def lorentz_force_ring(model: TorusModel, e_amplitude, polarization,
                       h_amplitude=None) -> RingForce:
    """Normal force components on the rolling wave.

    ``Ex_Hz`` is the rotation about OZ (positive sign), ``Ez_Hx`` the rotation
    about OX (negative sign).  The magnetic amplitude defaults to the electric
    one, as for the free transverse wave.
    """
    if e_amplitude < 0:
        raise ValueError("e_amplitude must be non-negative")
    h = e_amplitude if h_amplitude is None else h_amplitude
    sign = {"Ex_Hz": +1.0, "Ez_Hx": -1.0}[polarization]
    omega, c = model.omega_s, model.units.c
    f2 = sign * omega * e_amplitude * h / (4 * math.pi * c)
    f0 = sign * omega * e_amplitude ** 2 / (4 * math.pi * c)
    return RingForce(f2=f2, f0=f0)


def lorentz_force_via_current(model: TorusModel, e_amplitude, polarization,
                              h_amplitude=None) -> RingForce:
    """Same components computed as (1/c) j_tau H and (1/c) j_tau E."""
    h = e_amplitude if h_amplitude is None else h_amplitude
    sign = {"Ex_Hz": +1.0, "Ez_Hx": -1.0}[polarization]
    j_tau = ring_current(model, e_amplitude, 0.0).j_tau
    c = model.units.c
    return RingForce(f2=sign * j_tau * h / c, f0=sign * j_tau * e_amplitude / c)


def magnetic_confinement_density(j_tau, h, c=1.0):
    """Magnetic force density (1/c) j_tau x H."""
    return np.cross(np.asarray(j_tau, dtype=float),
                    np.asarray(h, dtype=float)) / c


# ---------------------------------------------------------------------------
# Lagrangian evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfField:
    """Own-field energy and momentum: densities integrated over the ring volume.

    For the uniform-density approximation the integrals collapse to density
    times delta_tau.
    """
    epsilon_s: float
    p_s: np.ndarray


def self_field(f: EmField, model: TorusModel, c=1.0) -> SelfField:
    u_density = (e_squared(f) + h_squared(f)) / (8 * math.pi)
    s_vec = (c / (4 * math.pi)) * cross_sym(f)
    g_vec = s_vec / (c * c)
    return SelfField(epsilon_s=u_density * model.delta_tau,
                     p_s=g_vec * model.delta_tau)


@dataclass(frozen=True)
class CurrentPair:
    """Tangential electric and magnetic currents i (omega_e / 4 pi) E, H."""
    j_e: np.ndarray
    j_m: np.ndarray


def tangential_currents(f: EmField, omega_e) -> CurrentPair:
    factor = 1j * omega_e / (4 * math.pi)
    return CurrentPair(j_e=factor * f.e, j_m=factor * f.h)


@dataclass(frozen=True)
class WavePoint:
    """Field values and closed-form derivatives at one space-time point.

    ``df_du`` is the derivative along the layout's propagation axis; the wave
    depends on (t, u) only.  Fields that are stacks of n give n points.
    """
    f: EmField
    df_dt: EmField
    df_du: EmField


def _du_dt_terms(point: WavePoint, layout, c):
    """Sesquilinear energy-rate and flux-divergence terms for the layout."""
    f, ft, fu = point.f, point.df_dt, point.df_du
    du_term = (inner(f.e, ft.e) + inner(f.h, ft.h)) / (4 * math.pi)
    a1, a2 = layout.covered("e")
    i1, i2 = AXIS_INDEX[a1], AXIS_INDEX[a2]
    e, h = f.e.conj(), f.h.conj()
    div_term = (c / (4 * math.pi)) * (
        -e[..., i1] * fu.h[..., i2] + e[..., i2] * fu.h[..., i1]
        + h[..., i1] * fu.e[..., i2] - h[..., i2] * fu.e[..., i1])
    return du_term, div_term


@dataclass(frozen=True)
class LinearLagrangian:
    spinor: complex
    em: complex
    current: complex


def lagrangian_linear(point: WavePoint, mass, layout=None, aset=None,
                      c=1.0, hbar=1.0) -> LinearLagrangian:
    """The linear wave Lagrangian through its three equivalent routes.

    All three vanish on solutions and agree pointwise on arbitrary
    differentiable inputs; any gap flags a transcription defect.
    """
    layout = layout or electron_layout()
    aset = aset or canonical_alpha_set()
    omega_e = 2 * mass * c * c / hbar

    # spinor route
    psi = bispinor_from_fields(point.f, layout)
    dpsi_t = bispinor_from_fields(point.df_dt, layout)
    dpsi_u = bispinor_from_fields(point.df_du, layout)
    spinor = (c / (4 * math.pi)) * (
        inner(psi, dpsi_t) / c
        - inner(psi, mat_vec(aset.a2, dpsi_u))
        - 1j * (mass * c / hbar) * inner(psi, mat_vec(aset.a4, psi)))

    # field-invariant route
    du_term, div_term = _du_dt_terms(point, layout, c)
    invariant = e_squared(point.f) - h_squared(point.f)
    em = du_term + div_term - 1j * (omega_e / (8 * math.pi)) * invariant

    # current route
    pair = tangential_currents(point.f, omega_e)
    current = du_term + div_term - 0.5 * (
        inner(point.f.e, pair.j_e) - inner(point.f.h, pair.j_m))

    return LinearLagrangian(spinor=spinor, em=em, current=current)


def maxwell_invariant_forms(point: WavePoint, omega_e, layout=None, c=1.0):
    """Both sides of the invariant-replacement identity.

    lhs = (E^2 - H^2) / 8 pi, rhs = (i / omega_e)(dU/dt + div S).  Equality is
    specific to the rolling-wave solutions; degenerate inputs (static fields)
    separate the two sides.
    """
    layout = layout or electron_layout()
    du_term, div_term = _du_dt_terms(point, layout, c)
    lhs = (e_squared(point.f) - h_squared(point.f)) / (8 * math.pi)
    rhs = (1j / omega_e) * (du_term + div_term)
    return lhs, rhs


@dataclass(frozen=True)
class NonlinearLagrangian:
    linear_em: complex
    linear_invariant: float
    quartic_em: float
    quartic_invariant: float
    quartic_bilinear: float
    quartic_bilinear_fierz: float
    total: complex


def lagrangian_nonlinear(point: WavePoint, model: TorusModel, layout=None,
                         aset=None, c=1.0, hbar=1.0) -> NonlinearLagrangian:
    """Quartic self-interaction Lagrangian through its equivalent routes.

    The derivative summand is (i hbar / 2 m c^2)(dU/dt + div S); the quartic
    summand (delta_tau / m c^2)(U^2 - c^2 g^2) is also evaluated through the
    quartic-invariant rewriting and through the squared bilinears; the three
    quartic routes and their pair identity agree for real fields.
    """
    if model.delta_tau == 0.0:
        raise DomainError(f"the ring volume delta_tau underflows to 0 at "
                          f"zeta={model.zeta!r}; the quartic term divides by it")
    layout = layout or electron_layout()
    aset = aset or canonical_alpha_set()
    m_e = model.units.m_e
    mc2 = m_e * c * c
    omega_e = 2 * mc2 / hbar
    dtau = model.delta_tau

    du_term, div_term = _du_dt_terms(point, layout, c)
    linear_em = (1j / omega_e) * (du_term + div_term)
    e2, h2 = e_squared(point.f), h_squared(point.f)
    linear_invariant = (e2 - h2) / (8 * math.pi)

    u_density = (e2 + h2) / (8 * math.pi)
    sf = self_field(point.f, model, c)
    g_vec = sf.p_s / dtau
    quartic_em = (sf.epsilon_s * u_density
                  - c * c * inner(sf.p_s, g_vec)) / mc2

    pref = dtau / ((8 * math.pi) ** 2 * mc2)
    quartic_invariant = pref * ((e2 - h2) ** 2 + 4 * eh_dot(point.f) ** 2)

    b_lhs, b_rhs = fierz_quantum(bispinor_from_fields(point.f, layout), aset)
    quartic_bilinear = pref * b_lhs
    quartic_bilinear_fierz = pref * b_rhs

    return NonlinearLagrangian(
        linear_em=linear_em, linear_invariant=linear_invariant,
        quartic_em=quartic_em, quartic_invariant=quartic_invariant,
        quartic_bilinear=quartic_bilinear,
        quartic_bilinear_fierz=quartic_bilinear_fierz,
        total=linear_em + quartic_em)


def photon_photon_comparison(model: TorusModel):
    """Structure comparison of the self-interaction and perturbative quartics.

    Both Lagrangians share the term shape a (E^2-H^2)^2 + b (E.H)^2; the
    self-interaction carries coefficient pair (1, 4), the perturbative
    photon-photon one (1, 7) with scale (2/45) e^4 hbar / (m^4 c^7).
    """
    u = model.units
    b_const = (2.0 / 45.0) * u.e ** 4 * u.hbar / (u.m_e ** 4 * u.c ** 7)
    self_scale = model.delta_tau / ((8 * math.pi) ** 2 * u.m_e * u.c ** 2)
    return {
        "eh_squared_coefficient_self": 4.0,
        "eh_squared_coefficient_perturbative": 7.0,
        "quartic_scale_self": self_scale,
        "quartic_scale_perturbative": b_const,
        "scale_ratio": self_scale / b_const,
    }


def self_action_constant(model: TorusModel, alpha_q):
    """Coefficient (zeta^2 / 2 alpha_q c) r_s^3 of the cubic self-action term."""
    return (model.zeta ** 2 / (2 * alpha_q * model.units.c)) * model.r_s ** 3


# ---------------------------------------------------------------------------
# Hydrodynamic rotation checks
# ---------------------------------------------------------------------------

FD_STEP = 1e-6  # central-difference step (times r in centripetal_check)


def _curl_fd(vfield, point, h):
    """Central-difference curl of a 3-vector field at a point."""
    point = np.asarray(point, dtype=float)

    def partial(axis):
        dp = np.zeros(3)
        dp[axis] = h
        return (np.asarray(vfield(point + dp)) - np.asarray(vfield(point - dp))) / (2 * h)

    dx, dy, dz = partial(0), partial(1), partial(2)
    return np.array([dy[2] - dz[1], dz[0] - dx[2], dx[1] - dy[0]])


def _grad_fd(sfield, point, h):
    point = np.asarray(point, dtype=float)
    out = np.zeros(3)
    for axis in range(3):
        dp = np.zeros(3)
        dp[axis] = h
        out[axis] = (sfield(point + dp) - sfield(point - dp)) / (2 * h)
    return out


@dataclass(frozen=True)
class CentripetalReport:
    curl: np.ndarray
    curl_expected: np.ndarray
    acceleration: np.ndarray
    acceleration_magnitude: float
    expected_magnitude: float


def centripetal_check(omega, r) -> CentripetalReport:
    """Rigid rotation about OZ: curl v = 2 omega, |v x curl v| / 2 = v^2 / r.

    The velocity field v = omega x r is linear, so the finite-difference curl
    is exact up to rounding.
    """
    if omega < 0 or r <= 0:
        raise ValueError("omega must be non-negative and r positive")
    h = FD_STEP * r

    def vfield(p):
        return np.array([-omega * p[1], omega * p[0], 0.0])

    point = np.array([r, 0.0, 0.0])
    curl = _curl_fd(vfield, point, h)
    v = vfield(point)
    accel = 0.5 * np.cross(v, curl)
    return CentripetalReport(curl=curl,
                             curl_expected=np.array([0.0, 0.0, 2 * omega]),
                             acceleration=accel,
                             acceleration_magnitude=float(np.linalg.norm(accel)),
                             expected_magnitude=omega * omega * r)


def matter_motion_residual(g_field, u_field, v_field, points):
    """Residual of (dg/dt + grad U) - v x curl g at the given points.

    ``g_field``/``v_field`` map a 3-point to 3-vectors, ``u_field`` to a
    scalar; the configuration is static (dg/dt = 0).  Purely exploratory:
    returns the per-point residual vectors, no verdict.
    """
    out = np.zeros((len(points), 3))
    for i, p in enumerate(points):
        p = np.asarray(p, dtype=float)
        grad_u = _grad_fd(u_field, p, FD_STEP)
        curl_g = _curl_fd(g_field, p, FD_STEP)
        out[i] = grad_u - np.cross(np.asarray(v_field(p), dtype=float), curl_g)
    return out
