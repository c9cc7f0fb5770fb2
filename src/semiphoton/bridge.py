"""Dictionary between 4-component amplitudes and electromagnetic field vectors.

A :class:`FieldLayout` assigns field components to spinor slots (magnetic
slots carry a factor i).  Through a layout, the hermitian bilinears become the
Maxwell invariants: a0 gives E^2+H^2, a4 gives E^2-H^2, a5 gives 2 E.H, and
exactly one vector matrix gives the energy-flux component on the layout's
axis.  In complex mode every quadratic form is sesquilinear, so E^2 means
E.conj(E); for real fields this reduces to the ordinary expressions.

Fields and spinors may be stacks of n samples (E, H of shape (n, 3), psi of
shape (n, 4)); every dictionary kernel then returns one value per sample, and
a single field or spinor is the same code without the leading axis.

Also houses the first-order coupled field systems equivalent to the spinor
wave equation and their residual evaluator, which cross-validates the scalar
component equations against the matrix form over a whole (t, u) grid at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import AxisTriad, canonical_alpha_set, triad
from .linalg import as_bispinor, as_vec3, inner, mat_vec

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
FD_TOL = 1e-6  # largest finite-difference truncation estimate accepted


class LayoutViolation(ValueError):
    """A field component without a slot in the layout is non-zero."""


class GridTooCoarse(RuntimeError):
    """Finite-difference truncation estimate exceeds the requested tolerance."""


@dataclass(frozen=True)
class EmField:
    """E and H of one field, shape (3,), or of a stack of n fields, (n, 3)."""
    e: np.ndarray
    h: np.ndarray

    def __init__(self, e, h):
        e, h = as_vec3(e), as_vec3(h)
        if e.shape != h.shape:
            raise ValueError(f"E and H shapes differ: {e.shape} vs {h.shape}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "h", h)

    @classmethod
    def zero(cls):
        return cls(np.zeros(3), np.zeros(3))

    def is_real(self):
        return not (self.e.imag.any() or self.h.imag.any())

    def require_real(self):
        if not self.is_real():
            raise ValueError("operation defined in real mode only")
        return self


@dataclass(frozen=True)
class FieldLayout:
    """Slot table mapping spinor components to field components.

    Each slot is (kind, axis, factor) with kind 'e' or 'h'; h slots carry a
    unit-imaginary factor.  ``axis`` is the propagation axis; components
    outside the slots must vanish for the layout to apply.
    """
    name: str
    axis: str
    slots: tuple

    def covered(self, kind):
        return tuple(ax for k, ax, _ in self.slots if k == kind)


def layout_for_triad(t: AxisTriad, charge_conjugated=False, name=None):
    signs = (1, -1, 1, -1) if charge_conjugated else (1, 1, 1, 1)
    slots = (("e", t.e_axes[0], signs[0] * (1 + 0j)),
             ("e", t.e_axes[1], signs[1] * (1 + 0j)),
             ("h", t.h_axes[0], signs[2] * 1j),
             ("h", t.h_axes[1], signs[3] * 1j))
    return FieldLayout(name=name or t.name, axis=t.axis, slots=slots)


def electron_layout():
    """(E_x, E_z, iH_x, iH_z): the y-direction layout used throughout."""
    return layout_for_triad(triad("y", "negative"), name="electron-y")


def positron_layout():
    """Charge-conjugate partner of the electron layout: (E_x, -E_z, iH_x, -iH_z)."""
    return layout_for_triad(triad("y", "negative"), charge_conjugated=True,
                            name="positron-y")


def bispinor_from_fields(f: EmField, layout: FieldLayout):
    """The spinor(s), shape (..., 4), holding the field(s) in the layout's slots."""
    comps = {"e": f.e, "h": f.h}
    psi = np.empty(f.e.shape[:-1] + (4,), dtype=complex)
    for i, (kind, ax, factor) in enumerate(layout.slots):
        psi[..., i] = factor * comps[kind][..., AXIS_INDEX[ax]]
    for kind in ("e", "h"):
        covered = set(layout.covered(kind))
        for ax, idx in AXIS_INDEX.items():
            if ax not in covered and comps[kind][..., idx].any():
                raise LayoutViolation(
                    f"{kind}_{ax} is non-zero but has no slot in layout {layout.name}")
    return psi


def fields_from_bispinor(psi, layout: FieldLayout):
    psi = as_bispinor(psi)
    e = np.zeros(psi.shape[:-1] + (3,), dtype=complex)
    h = np.zeros_like(e)
    comps = {"e": e, "h": h}
    for i, (kind, ax, factor) in enumerate(layout.slots):
        comps[kind][..., AXIS_INDEX[ax]] = psi[..., i] / factor
    return EmField(e, h)


def bilinears(psi, aset):
    """All six bilinears psi^+ a_k psi, k = 0..5, in the last axis.

    psi of shape (n, 4) gives shape (n, 6); one spinor (4,) gives (6,).
    Column k is the bilinear of a_k: column 4 is the scalar psi^+ a4 psi,
    columns 1:4 the vector.
    """
    psi = as_bispinor(psi)
    return np.einsum("...i,kij,...j->...k", psi.conj(),
                     np.stack(list(aset.named().values())), psi)


def e_squared(f: EmField):
    return inner(f.e, f.e).real


def h_squared(f: EmField):
    return inner(f.h, f.h).real


def eh_dot(f: EmField):
    """Sesquilinear E.H; equals the plain dot product for real fields."""
    return inner(f.e, f.h).real


def cross_sym(f: EmField):
    """Sesquilinear ExH: Re(conj(E) x H); the plain cross product if real."""
    return np.cross(f.e.conj(), f.h).real


def energy_density(f: EmField):
    """(E^2 + H^2)/8pi in Gaussian units (real mode)."""
    f.require_real()
    return (e_squared(f) + h_squared(f)) / (8 * np.pi)


def poynting(f: EmField, c=1.0):
    """(c/4pi) E x H; momentum density is this over c^2 (real mode)."""
    f.require_real()
    return (c / (4 * np.pi)) * np.cross(f.e.real, f.h.real)


def fierz_em(f: EmField):
    """Both sides of the field-invariant quartic identity.

    lhs = (E^2+H^2)^2 - 4 (ExH)^2, rhs = (E^2-H^2)^2 + 4 (E.H)^2; the two are
    equal for all real field pairs.
    """
    f.require_real()
    e2, h2 = e_squared(f), h_squared(f)
    exh = np.cross(f.e.real, f.h.real)
    lhs = (e2 + h2) ** 2 - 4 * inner(exh, exh)
    rhs = (e2 - h2) ** 2 + 4 * eh_dot(f) ** 2
    return lhs, rhs


def fierz_quantum(psi, aset):
    """Both sides of the bilinear quartic identity.

    lhs = (psi^+ a0 psi)^2 - sum_k (psi^+ a_k psi)^2, rhs = (psi^+ a4 psi)^2 +
    (psi^+ a5 psi)^2; an algebraic identity over all 4-component amplitudes.
    """
    b = bilinears(psi, aset).real
    bv = b[..., 1:4]
    lhs = b[..., 0] ** 2 - inner(bv, bv)
    rhs = b[..., 4] ** 2 + b[..., 5] ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# First-order coupled field systems and their residuals
# ---------------------------------------------------------------------------

#: sign_form selects the wave-operator signs: "plus" couples +c a.p with
#: +a4 m c^2, "minus" couples -c a.p with -a4 m c^2.
SIGN_FORMS = {"plus": +1, "minus": -1}


def _slot_sign(factor):
    u = factor / abs(factor)
    return +1 if (u.real > 0.5 or u.imag > 0.5) else -1


# Spinor slot i couples to the derivative of the field in slot _PARTNER[i].
_PARTNER = (3, 2, 1, 0)


def scalar_rows(layout: FieldLayout, sign_form):
    """The four scalar component equations for (layout, sign form).

    Each row is (lhs_kind, lhs_axis, du_sign, du_kind, du_axis, mass_sign)
    encoding  (1/c) dt F  +  du_sign * du G  +  mass_sign * i (m c / hbar) F = 0.
    The tabulated four-equation groups for every axis and orientation follow
    this slot pattern; a charge-conjugated layout flips each row's derivative
    sign through the product of its own and its partner slot's sign.
    """
    s = SIGN_FORMS[sign_form]
    a1, a2 = layout.covered("e")
    base = (
        ("e", a1, -s, "h", a2, -s),
        ("e", a2, +s, "h", a1, -s),
        ("h", a1, +s, "e", a2, +s),
        ("h", a2, -s, "e", a1, +s),
    )
    signs = [_slot_sign(f) for _, _, f in layout.slots]
    rows = []
    for i, (k0, x0, s_du, k1, x1, s_m) in enumerate(base):
        rows.append((k0, x0, s_du * signs[i] * signs[_PARTNER[i]], k1, x1, s_m))
    return tuple(rows)


def _component(f: EmField, kind, ax):
    return (f.e if kind == "e" else f.h)[..., AXIS_INDEX[ax]]


def scalar_residuals(f, df_dt, df_du, layout, mass, sign_form, c=1.0, hbar=1.0):
    """The four scalar component equations at each point, shape (..., 4)."""
    w0_over_c = mass * c / hbar
    return np.stack([_component(df_dt, k0, x0) / c
                     + s_du * _component(df_du, k1, x1)
                     + s_m * 1j * w0_over_c * _component(f, k0, x0)
                     for k0, x0, s_du, k1, x1, s_m in scalar_rows(layout, sign_form)],
                    axis=-1)


def bispinor_residuals(f, df_dt, df_du, t: AxisTriad, layout, aset, mass,
                       sign_form, c=1.0, hbar=1.0):
    """Matrix-form residual (a0 eps_op +- c a.p_op +- a4 m c^2) psi / (i hbar c).

    The layout is linear, so derivative spinors are the layout images of the
    derivative fields.  Division by i*hbar*c puts the rows in the same units
    as the scalar component equations (up to the slot factors).  One row per
    point, shape (..., 4).
    """
    s = SIGN_FORMS[sign_form]
    working = aset.named()[t.working]
    psi = bispinor_from_fields(f, layout)
    dpsi_dt = bispinor_from_fields(df_dt, layout)
    dpsi_du = bispinor_from_fields(df_du, layout)
    eps_term = 1j * hbar * dpsi_dt
    p_term = s * c * mat_vec(working, -1j * hbar * dpsi_du)
    mass_term = s * mass * c * c * mat_vec(aset.a4, psi)
    return (eps_term + p_term + mass_term) / (1j * hbar * c)


def _fd_derivative(func, t, u, var, h):
    """Fourth-order central difference of an EmField-valued function, per point."""
    def at(dt, du):
        f = func(t + dt, u + du)
        return np.concatenate([f.e, f.h], axis=-1)
    if var == "t":
        stencil = [at(s * h, 0.0) for s in (-2, -1, 1, 2)]
    else:
        stencil = [at(0.0, s * h) for s in (-2, -1, 1, 2)]
    v = (stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) / (12 * h)
    return EmField(v[..., :3], v[..., 3:])


@dataclass
class ResidualReport:
    cross_deviation: float
    max_scalar: float


def dirac_residual_em(fields, t_ax: AxisTriad, mass, sign_form, t_grid, u_grid,
                      d_dt=None, d_du=None, c=1.0, hbar=1.0,
                      fd_step=None, charge_conjugated=False):
    """Residuals of the coupled first-order system on a (t, u) grid.

    ``fields(t, u) -> EmField``, and ``d_dt``/``d_du`` if given, take t, u of
    shape (n,); closed-form derivatives are preferred, otherwise fourth-order
    central differences of step ``fd_step`` are used with a Richardson
    truncation estimate (raising :class:`GridTooCoarse` if it exceeds
    ``FD_TOL``).  The grid is one stack: row i is
    (t_grid[i // len(u_grid)], u_grid[i % len(u_grid)]).  The four scalar
    component residuals and the matrix-form residual of each point are the
    same equation expanded, so any gap between them indicates a transcription
    defect.
    """
    layout = layout_for_triad(t_ax, charge_conjugated=charge_conjugated)
    aset = canonical_alpha_set()
    tt, uu = (g.ravel() for g in np.meshgrid(t_grid, u_grid, indexing="ij"))
    if (d_dt is None) or (d_du is None):
        for var in ("t", "u"):
            full = _fd_derivative(fields, tt[:1], uu[:1], var, fd_step)
            half = _fd_derivative(fields, tt[:1], uu[:1], var, fd_step / 2)
            est = float(np.abs(np.concatenate([full.e - half.e, full.h - half.h])).max())
            if est > FD_TOL:
                raise GridTooCoarse(
                    f"d/d{var} truncation estimate {est:.3e} exceeds {FD_TOL:.3e}")
    factors = np.array([factor for _, _, factor in layout.slots])

    f = fields(tt, uu)
    ft = d_dt(tt, uu) if d_dt is not None else _fd_derivative(fields, tt, uu, "t", fd_step)
    fu = d_du(tt, uu) if d_du is not None else _fd_derivative(fields, tt, uu, "u", fd_step)
    scalar = scalar_residuals(f, ft, fu, layout, mass, sign_form, c, hbar)
    bisp = bispinor_residuals(f, ft, fu, t_ax, layout, aset, mass, sign_form,
                              c, hbar)
    cross = float(np.abs(scalar * factors - bisp).max())
    return ResidualReport(cross_deviation=cross,
                          max_scalar=float(np.abs(scalar).max()))


def onshell_plane_wave(t_ax: AxisTriad, sign_form, k, mass, e1_amp=1.0,
                       e2_amp=0.0, c=1.0, hbar=1.0):
    """A complex plane wave solving the (triad, sign form) system exactly.

    Returns (omega, fields, d_dt, d_du) with closed-form derivatives; each
    callable takes t, u of shape (n,) and returns n stacked fields, and a
    scalar pair gives one field.  The two transverse sub-blocks decouple:
    (E_1, H_2) and (E_2, H_1) pair up with amplitude ratios fixed by the
    dispersion relation omega^2 = (m c^2/hbar)^2 + c^2 k^2.
    """
    s = SIGN_FORMS[sign_form]
    w0 = mass * c * c / hbar
    omega = np.sqrt(w0 ** 2 + (c * k) ** 2)
    h2_amp = -s * (omega - s * w0) * e1_amp / (c * k)
    h1_amp = s * (omega - s * w0) * e2_amp / (c * k)
    a1, a2 = t_ax.e_axes
    i1, i2 = AXIS_INDEX[a1], AXIS_INDEX[a2]

    def build(t, u, scale=1.0):
        ph = scale * np.exp(1j * (omega * t - k * u))
        e = np.zeros(np.shape(ph) + (3,), dtype=complex)
        h = np.zeros_like(e)
        e[..., i1], e[..., i2] = e1_amp * ph, e2_amp * ph
        h[..., i1], h[..., i2] = h1_amp * ph, h2_amp * ph
        return EmField(e, h)

    def fields(t, u):
        return build(t, u)

    def d_dt(t, u):
        return build(t, u, scale=1j * omega)

    def d_du(t, u):
        return build(t, u, scale=-1j * k)

    return omega, fields, d_dt, d_du


def detuned_wave(fields, d_dt, d_du, factor):
    """The wave (fields, d_dt, d_du) with its frequency scaled by factor.

    Each callable is evaluated at time factor * t; the time derivative picks
    up the chain-rule factor.  Off shell unless factor is 1.
    """
    def detuned(t, u):
        return fields(factor * t, u)

    def detuned_dt(t, u):
        inner = d_dt(factor * t, u)
        return EmField(factor * inner.e, factor * inner.h)

    def detuned_du(t, u):
        return d_du(factor * t, u)

    return detuned, detuned_dt, detuned_du
