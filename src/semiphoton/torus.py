"""Quasi-classical toroidal ring-wave model of the electron.

Derives every geometric and physical parameter of the ring configuration from
a unit system and the cross-section ratio zeta: radii, angular frequency,
displacement ring current, charge and field-mass quadratures, the coupling
constant 2 zeta^2 / pi, spin, magnetic moment, and the internal-rotation
(Zitterbewegung) parameters.

`calibrate_e0` fixes the one free amplitude E0 in closed form by matching the
field-mass quadrature to the electron mass; `evaluate` builds the calibrated
ring and its derived quantities as one record, for one zeta or a stack, and
`zeta_grid` is the sweep grid over the cross-section ratio.

A stack of zetas is a 1-D array, and every zeta-dependent field is then an
array over it; a single zeta runs the same code on plain floats.  The code
squares by multiplying, as numpy does, so row i of a stack equals the single
evaluation at its zeta bit for bit.  A stack fails as its first failing zeta
would alone.

Each ring integral is a zeta-dependent prefactor times the integral of
cos(k l)^p over limits set by the unit system, so a stack shares one composite
Simpson quadrature, which counts only once doubling its point count moves it
by less than the convergence tolerance.
Places where the model's stated closed forms and the quadrature of its own
densities disagree are emitted as ledger entries, never silently patched.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .report import Discrepancy

#: CODATA-style Gaussian-unit constants (erg s, cm/s, g, esu).
HBAR_CGS = 1.054571817e-27
C_CGS = 2.99792458e10
M_E_CGS = 9.1093837015e-28
E_CGS = 4.80320471257e-10
FINE_STRUCTURE = 7.2973525693e-3

CONVERGENCE_TOL = 1e-10
MAX_DOUBLINGS = 5  # grid doublings before a quadrature must have converged


class DomainError(ValueError):
    pass


class QuadratureNotConverged(RuntimeError):
    pass


def _require(ok, error):
    """Raise error(row) at the first row where ok, a bool for a single zeta
    or a boolean array for a stack, is False."""
    if ok is True or ok is not False and ok.all():
        return
    raise error(int(np.flatnonzero(~np.asarray(ok))[0]))


def _check_zeta(zeta):
    _require((0 < zeta) & (zeta <= 1), lambda i: DomainError(
        f"zeta must be in (0, 1], got {float(np.ravel(zeta)[i])}"))


class UnitSystem(NamedTuple):
    hbar: float
    c: float
    m_e: float
    e: float
    mode: str

    @classmethod
    def natural(cls):
        """hbar = c = m_e = 1; the charge carries the physical coupling."""
        return cls(hbar=1.0, c=1.0, m_e=1.0, e=math.sqrt(FINE_STRUCTURE),
                   mode="natural")

    @classmethod
    def gaussian_cgs(cls):
        return cls(hbar=HBAR_CGS, c=C_CGS, m_e=M_E_CGS, e=E_CGS,
                   mode="gaussian_cgs")


def unit_system(mode):
    if mode == "natural":
        return UnitSystem.natural()
    if mode == "gaussian_cgs":
        return UnitSystem.gaussian_cgs()
    raise DomainError(f"unknown unit system {mode!r}")


class TorusModel(NamedTuple):
    zeta: float
    lambda_p: float
    omega_p: float
    omega_s: float
    r_t: float
    r_s: float
    r_c: float
    s_c: float
    delta_tau: float
    k: float
    units: UnitSystem
    e0: float | None = None

    def require_e0(self):
        if self.e0 is None:
            raise ValueError("field amplitude e0 is not set; "
                             "call calibrate_e0 or with_e0 first")
        return self.e0


def derive_parameters(units: UnitSystem, zeta) -> TorusModel:
    """All ring parameters for the cross-section ratio zeta in (0, 1], or a stack."""
    _check_zeta(zeta)
    hbar, c, m_e = units.hbar, units.c, units.m_e
    omega_p = 2 * m_e * c * c / hbar
    lambda_p = 2 * math.pi * c / omega_p
    r_t = lambda_p / (2 * math.pi)
    r_s = r_t
    omega_s = c / r_s
    r_c = zeta * r_t
    s_c = math.pi * r_c * r_c
    delta_tau = 2 * math.pi ** 2 * (zeta * zeta) * r_s ** 3
    k = omega_s / c
    return TorusModel(zeta=zeta, lambda_p=lambda_p, omega_p=omega_p,
                      omega_s=omega_s, r_t=r_t, r_s=r_s, r_c=r_c, s_c=s_c,
                      delta_tau=delta_tau, k=k, units=units)


def with_e0(model: TorusModel, e0) -> TorusModel:
    if (np.asarray(e0) < 0).any():
        raise DomainError("e0 must be non-negative")
    return model._replace(e0=e0)


def ring_current(model: TorusModel, e_magnitude):
    """Tangential displacement current omega_s E / 4 pi on the ring."""
    return model.omega_s * e_magnitude / (4 * math.pi)


def simpson(y, h):
    """Composite Simpson's rule on samples y at uniform spacing h.

    The n + 1 nodes are y's last axis, n even, summed with weights
    1-4-2-...-4-1; any leading axes are rows, each integrated on its own.
    """
    if (y.shape[-1] - 1) % 2:
        raise ValueError("n must be even for Simpson's rule")
    total = (y[..., 0] + y[..., -1] + 4 * y[..., 1:-1:2].sum(axis=-1)
             + 2 * y[..., 2:-1:2].sum(axis=-1))
    return total * h / 3


def _converged_simpson(g, b, n, scale):
    """Integral of g(l) over [0, b], accepted only once doubling the grid
    moves it by at most CONVERGENCE_TOL * max(|result|, scale).

    Starts at the requested n and refines by doubling; raises
    QuadratureNotConverged if the finest grid still moves it.
    """
    if n < 64:
        raise ValueError("n_points must be >= 64")
    n += n % 2
    value = simpson(g(b / n * np.arange(n + 1)), b / n)
    for _ in range(MAX_DOUBLINGS):
        n *= 2
        finer = simpson(g(b / n * np.arange(n + 1)), b / n)
        delta = abs(finer - value)
        if delta <= CONVERGENCE_TOL * max(abs(finer), scale):
            return float(finer)
        value = finer
    raise QuadratureNotConverged(
        f"result still moving by {delta:.3e} at {n} points")


def _cos_integral(model, pref, power, upper, n_points):
    """pref times the converged quadrature of cos(k l)^power over [0, upper],
    on the scale lambda_p.  The shape integral depends only on the unit
    system, so one quadrature serves every zeta of a stack."""
    return pref * _converged_simpson(lambda l: np.cos(model.k * l) ** power,
                                     upper, n_points, model.lambda_p)


def integrate_charge(model: TorusModel, span, n_points):
    """Quadrature of the ring-current charge density over the wave.

    Integrand is rho(l) * S_c = (omega / 4 pi c) E0 cos(k l) S_c.  The full
    wave integrates to zero exactly; the half wave uses the doubled
    quarter-period limits of the stated charge evaluation.
    """
    e0 = model.require_e0()
    c = model.units.c
    pref = (model.omega_s / (4 * math.pi * c)) * e0 * model.s_c
    if span == "full_wave":
        return _cos_integral(model, pref, 1, model.lambda_p, n_points)
    if span == "half_wave":
        return 2 * _cos_integral(model, pref, 1, model.lambda_p / 4, n_points)
    raise ValueError(f"unknown span {span!r}")


def charge_closed_form(model: TorusModel):
    """Stated half-wave charge (1/pi) E0 S_c."""
    return model.require_e0() * model.s_c / math.pi


def charge_geometric(model: TorusModel):
    """Equivalent geometric form zeta^2 E0 r_s^2."""
    return model.zeta * model.zeta * model.require_e0() * model.r_s ** 2


def integrate_mass(model: TorusModel, n_points):
    """Field-mass quadrature (S_c E0^2 / pi c^2) int_0^{lambda/4} cos^2(k l) dl.

    This is the variant whose quadrature reproduces the stated closed form
    E0^2 S_c / (4 omega c); the plain energy-density route over the half wave
    gives half of it and is emitted in the ledger instead.
    """
    e0 = model.require_e0()
    c = model.units.c
    pref = model.s_c * e0 * e0 / (math.pi * c * c)
    return _cos_integral(model, pref, 2, model.lambda_p / 4, n_points)


def mass_closed_form(model: TorusModel):
    """Stated field mass E0^2 S_c / (4 omega_s c), reading the amplitude squared."""
    e0 = model.require_e0()
    return e0 * e0 * model.s_c / (4 * model.omega_s * model.units.c)


def mass_density_half_wave(model: TorusModel, n_points):
    """Energy-density route: (S_c E0^2 / 4 pi c^2) int over the half wave."""
    e0 = model.require_e0()
    c = model.units.c
    pref = model.s_c * e0 * e0 / (4 * math.pi * c * c)
    return _cos_integral(model, pref, 2, model.lambda_p / 2, n_points)


def calibrate_e0(model: TorusModel, n_points) -> TorusModel:
    """Amplitude E0 for which integrate_mass equals the electron mass m_e.

    Closes the one free amplitude of the model: the ring's field mass is made
    equal to the electron mass of the unit system.  The field mass is exactly
    quadratic in E0, so one quadrature at unit amplitude fixes it:
    E0 = sqrt(m_e / integrate_mass(E0 = 1)).
    """
    target = model.units.m_e
    unit_mass = integrate_mass(with_e0(model, 1.0), n_points)
    with np.errstate(divide="ignore", over="ignore"):
        e0_squared = np.divide(target, unit_mass)

    def error(i):
        zeta, mass = (float(np.ravel(a)[i]) for a in (model.zeta, unit_mass))
        if 0 < mass < sys.float_info.min:
            return DomainError(
                f"the field mass at unit amplitude, {mass!r}, is below the "
                f"normal float range at zeta={zeta!r}")
        return DomainError(
            f"no finite amplitude gives field mass {target!r} at "
            f"zeta={zeta!r}: the mass at unit amplitude is {mass!r}")

    # a subnormal mass has lost digits: the amplitude built on it is wrong
    _require((unit_mass >= sys.float_info.min) & (unit_mass < math.inf)
             & np.isfinite(e0_squared), error)
    e0 = np.sqrt(e0_squared)
    return with_e0(model, float(e0) if e0.ndim == 0 else e0)


def coupling_constant(zeta):
    """The model coupling alpha_q = 2 zeta^2 / pi, for one zeta or a stack."""
    _check_zeta(zeta)
    alpha_q = 2 * (zeta * zeta) / math.pi
    # a subnormal coupling has lost digits: results built on it are wrong
    _require(alpha_q >= sys.float_info.min, lambda i: DomainError(
        f"the coupling 2 zeta^2 / pi underflows to 0 or below the normal "
        f"float range at zeta={float(np.ravel(zeta)[i])!r}"))
    return alpha_q


class ChainReport(NamedTuple):
    """Closure of the charge -> mass -> radius -> coupling chain."""
    q: float
    m_s: float
    mass_identity_ratio: float
    radius_identity_ratio: float
    coupling_identity_ratio: float
    alpha_q: float
    r_o: float
    radius_ratio: float


def consistency_chain(model: TorusModel) -> ChainReport:
    """Verify the algebraic closure of the derived-quantity chain.

    q and m_s from the stated closed forms must satisfy the mass and radius
    identities for any amplitude; rescaling the charge to the electron mass
    must reproduce the coupling constant; and the classical-to-ring radius
    ratio equals the unit system's e^2 / hbar c.
    """
    units = model.units
    zeta = model.zeta
    q = charge_geometric(model)
    m_s = mass_closed_form(model)
    mass_identity = math.pi * q * q / (4 * (zeta * zeta) * model.omega_s
                                       * units.c * model.r_s ** 2)
    radius_identity = (math.pi / (2 * (zeta * zeta))) * q * q / (2 * m_s * units.c ** 2)
    coupling = q * q * units.m_e / (units.hbar * units.c * m_s)
    alpha_q = coupling_constant(zeta)
    r_o = units.e ** 2 / (2 * units.m_e * units.c ** 2)
    return ChainReport(
        q=q, m_s=m_s,
        mass_identity_ratio=mass_identity / m_s,
        radius_identity_ratio=radius_identity / model.r_s,
        coupling_identity_ratio=coupling / alpha_q,
        alpha_q=alpha_q,
        r_o=r_o, radius_ratio=r_o / model.r_s)


class SpinMoment(NamedTuple):
    sigma_p: float
    sigma_s: float
    mu_s: float
    mu_closed_form: float


def spin_and_moment(model: TorusModel, q) -> SpinMoment:
    """Ring and half-ring angular momenta, and the magnetic moment I * S_I,
    in the model's units."""
    units = model.units
    sigma_p = (2 * units.m_e * units.c) * model.r_t
    sigma_s = (units.m_e * units.c) * model.r_s
    current = q * model.omega_s / (2 * math.pi)
    loop_area = math.pi * model.r_s ** 2
    mu_s = current * loop_area
    mu_closed = 0.5 * q * units.hbar / (2 * units.m_e)
    return SpinMoment(sigma_p=sigma_p, sigma_s=sigma_s, mu_s=mu_s,
                      mu_closed_form=mu_closed)


class Zitterbewegung(NamedTuple):
    omega_z: float
    r_z: float
    v: float


def zitterbewegung(units: UnitSystem) -> Zitterbewegung:
    """Internal-rotation frequency 2 m c^2 / hbar, amplitude hbar / 2 m c, speed c."""
    return Zitterbewegung(omega_z=2 * units.m_e * units.c ** 2 / units.hbar,
                          r_z=units.hbar / (2 * units.m_e * units.c),
                          v=units.c)


class TorusEvaluation(NamedTuple):
    """A calibrated ring and every quantity derived from it."""
    model: TorusModel
    spin: SpinMoment
    zitter: Zitterbewegung
    chain: ChainReport


def evaluate(units: UnitSystem, zeta, n_points) -> TorusEvaluation:
    """Derive, calibrate and evaluate the ring at cross-section ratio zeta.

    zeta is one ratio or a 1-D stack; a stack gives one record whose
    zeta-dependent fields are arrays over it, and a single zeta one of plain
    floats.  A failing stack runs its zetas alone until one raises, so it
    raises what its first failing zeta raises alone.
    """
    zetas = np.asarray(zeta, dtype=float) if np.ndim(zeta) else zeta
    try:
        model = calibrate_e0(derive_parameters(units, zetas), n_points)
        chain = consistency_chain(model)
    except ValueError:
        if np.ndim(zetas):
            for z in zetas:
                evaluate(units, float(z), n_points)
        raise
    return TorusEvaluation(model=model,
                           spin=spin_and_moment(model, chain.q),
                           zitter=zitterbewegung(units), chain=chain)


def zeta_grid(zmin, zmax, steps):
    """steps evenly spaced ratios from zmin to zmax, both ends exact."""
    if not (0 < zmin <= zmax <= 1) or steps < 1:
        raise DomainError(f"zeta sweep needs 0 < min <= max <= 1 and "
                          f"steps >= 1, got min={zmin!r}, max={zmax!r}, "
                          f"steps={steps!r}")
    if steps == 1:
        return [zmin]
    return [zmin + (zmax - zmin) * i / (steps - 1)
            for i in range(steps - 1)] + [zmax]


def discrepancy_ledger(model: TorusModel, n_points):
    """Machine-readable record of closed-form vs quadrature mismatches."""
    stated = charge_closed_form(model)
    density = integrate_charge(model, "half_wave", n_points)
    # the closed form's 1/pi prefactor is 4 times the density's 1/4 pi
    stated_pref = 4 * density
    half_density = mass_density_half_wave(model, n_points)
    closed = mass_closed_form(model)
    return [
        Discrepancy(
            claim="ring-charge/half-wave",
            stated=stated, computed=density,
            ratio=density / stated,
            note="half-wave charge from the current-density quadrature is half "
                 "the stated closed form (1/pi) E0 S_c; the quadrature with the "
                 "closed form's own 1/pi prefactor gives twice it instead"),
        Discrepancy(
            claim="ring-charge/stated-prefactor-quadrature",
            stated=stated, computed=stated_pref,
            ratio=stated_pref / stated,
            note="doubled quarter-wave quadrature of the integrand carrying the "
                 "1/pi prefactor; no prefactor convention reproduces the closed "
                 "form from its own printed integrand"),
        Discrepancy(
            claim="ring-mass/density-route",
            stated=closed, computed=half_density,
            ratio=half_density / closed,
            note="energy-density quadrature over the half wave is half the "
                 "stated closed form E0^2 S_c / (4 omega c)"),
        Discrepancy(
            claim="ring-mass/amplitude-exponent",
            stated=model.e0, computed=model.e0 ** 2,
            ratio=model.e0,
            note="the stated closed form is written linear in the amplitude; "
                 "dimensional analysis and chain closure require the square, "
                 "which is the reading adopted everywhere here"),
    ]
