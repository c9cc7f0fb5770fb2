"""Dictionary between 4-component amplitudes and electromagnetic field vectors.

A :class:`FieldLayout` assigns field components to spinor slots (magnetic
slots carry a factor i).  It is built from a triad and a conjugation flag
alone and keeps both, so a caller reads a case's triad from its layout.
Through a layout, the hermitian bilinears become the Maxwell invariants: a0
gives E^2+H^2, a4 gives E^2-H^2, a5 gives 2 E.H, and exactly one vector
matrix gives the energy-flux component on the layout's axis.  In complex
mode every quadratic form is sesquilinear, so E^2 means E.conj(E); for real
fields this reduces to the ordinary expressions.

Fields and spinors may be stacks of n samples (E, H of shape (n, 3), psi of
shape (n, 4)); every dictionary kernel then returns one value per sample, and
a single field or spinor is the same code without the leading axis.

Inputs are checked once, where they enter: the ``EmField`` constructor
checks E and H, ``fields_from_bispinor`` and ``bilinears`` their spinors.
A part of a checked stack, ``f[i]``, is a view of it, and the fields that
``slot_fields`` and ``case_fields`` build are wrapped without a second check.

A plane wave is one value, a :class:`SlotWave`: per case, four slot
amplitudes times e^{i(omega t - k u)} in a layout's slots, and the sign
form of the system it belongs to.  Its one
evaluator, ``at``, gives the fields and both closed-form derivatives as a
:class:`WavePoint`, built by ``slot_fields`` and wrapped without a check;
``onshell_plane_wave`` checks the amplitudes, omega and k at entry.

Also houses the first-order coupled field systems equivalent to the spinor
wave equation and their residual evaluator, which cross-validates the scalar
component equations against the matrix form for a stack of C cases (the
wave's sign form, layout and amplitudes), each over the same (t, u) grid,
at once.  The grid's fields and both derivatives are stacked once, as
one (3, C, n, 6) [E, H] array that both routes read; a finite-difference
grid reports its Richardson truncation estimate per case for the caller to
judge, it never raises on it.  The systems work in units of m c^2 and m c
with hbar = 1, and read natural-unit waves only; ``onshell_plane_wave``
takes the ``UnitSystem`` of its wave, which ``dynamics`` sets to CGS.

The twelve triad layouts are built once, at import, with their read-only
slot rows and scalar rows, so a call reads its tables instead of building
them; the electron and positron layouts are the two y-negative ones.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import dirac
from .linalg import (as_bispinor, as_vec3, cross, frozen, inner, mat_vec,
                     require_finite)
from .torus import NATURAL

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
FD_TOL = 1e-6  # largest finite-difference truncation estimate that passes


class LayoutViolation(ValueError):
    """A field component without a slot in the layout is non-zero."""


class EmField:
    """E and H of one field, (3,), of a stack of n fields, (n, 3), or of C
    cases of n fields each, (C, n, 3)."""
    __slots__ = ("e", "h")

    def __init__(self, e, h):
        e, h = as_vec3(e), as_vec3(h)
        if e.shape != h.shape:
            raise ValueError(f"E and H shapes differ: {e.shape} vs {h.shape}")
        self.e, self.h = e, h

    @classmethod
    def _of(cls, e, h):
        """The field of the checked complex arrays e, h, as they are."""
        f = cls.__new__(cls)
        f.e, f.h = e, h
        return f

    @classmethod
    def zero(cls):
        return cls(np.zeros(3), np.zeros(3))

    def __getitem__(self, i):
        """The field(s) at index i of the stack, a view of it."""
        return EmField._of(self.e[i], self.h[i])

    def is_real(self):
        return not (self.e.imag.any() or self.h.imag.any())

    def require_real(self):
        if not self.is_real():
            raise ValueError("operation defined in real mode only")
        return self


# Index of each field component in the [E, H] 6-vector of _stacked.
_FLAT = {(kind, ax): 3 * j + i
         for j, kind in enumerate("eh") for ax, i in AXIS_INDEX.items()}


class FieldLayout:
    """Slot table of one triad, plain or charge conjugated.

    Each slot is (kind, axis, factor) with kind 'e' or 'h': E on the triad's
    ``e_axes``, then iH on the same pair, slots 1 and 3 negated when
    ``conjugated``.  The triad's axis is the propagation axis; components
    outside the slots must vanish for the layout to apply.

    Built with the layout, read-only: ``index`` and ``factors``, the [E, H]
    component and factor of each slot, ``outside``, the two components
    without a slot, and ``scalar_table``, the rows of :func:`scalar_rows`
    per sign form in ``SIGN_FORMS`` order as (lhs, du, du_sign, mass_sign)
    columns, shape (2, 4, 4).
    """

    def __init__(self, triad: dirac.AxisTriad, conjugated):
        self.triad, self.conjugated = triad, conjugated
        s = -1 if conjugated else 1
        a1, a2 = triad.e_axes
        self.slots = (("e", a1, 1 + 0j), ("e", a2, s * (1 + 0j)),
                      ("h", a1, 1j), ("h", a2, s * 1j))
        index = [_FLAT[kind, ax] for kind, ax, _ in self.slots]
        self.index = frozen(np.array(index))
        self.factors = frozen(np.array([factor for *_, factor in self.slots]))
        self.outside = frozen(np.array([j for j in range(6)
                                        if j not in index]))
        self.scalar_table = frozen(np.array(
            [[(_FLAT[k0, x0], _FLAT[k1, x1], s_du, s_m)
              for k0, x0, s_du, k1, x1, s_m in scalar_rows(self, form)]
             for form in SIGN_FORMS]))


def layout_for_triad(t: dirac.AxisTriad, charge_conjugated=False):
    """The layout of one of the six triads, plain or charge conjugated;
    each of the twelve is built once, at import."""
    return _LAYOUTS[t, bool(charge_conjugated)]


def electron_layout():
    """(E_x, E_z, iH_x, iH_z): the y-direction layout used throughout."""
    return layout_for_triad(dirac.triad("y", "negative"), False)


def positron_layout():
    """Charge-conjugate partner of the electron layout: (E_x, -E_z, iH_x, -iH_z)."""
    return layout_for_triad(dirac.triad("y", "negative"), True)


def _stacked(f: EmField):
    """E and H side by side, shape (..., 6)."""
    return np.concatenate([f.e, f.h], axis=-1)


def _gather(v, index):
    """Components index[i] of case i's [E, H] stack, v (C, ..., 6), for an
    index table (C, k); shape (C, ..., k)."""
    g = v[np.arange(len(v))[:, None], ..., index]  # (C, k, ...)
    return g.transpose(0, *range(2, g.ndim), 1)


def _slot_table(layouts):
    """The (C, 4) [E, H] indices and factors of the layouts' slots, and the
    (C, 2) indices of the components they have no slot for."""
    return (np.array([layout.index for layout in layouts]),
            np.array([layout.factors for layout in layouts]),
            np.array([layout.outside for layout in layouts]))


def _case_spinors(v, layouts):
    """Spinors (C, ..., 4) of the [E, H] stacks v (C, ..., 6), case i in the
    slots of layouts[i]; a non-zero component outside them is a violation."""
    index, factors, outside = _slot_table(layouts)
    stray = _gather(v, outside)
    if stray.any():
        case, j = np.argwhere(stray.reshape(len(v), -1, 2).any(axis=1))[0]
        comp = outside[case, j]
        raise LayoutViolation(
            f"{'eh'[comp // 3]}_{'xyz'[comp % 3]} is non-zero but has no slot "
            f"in layout {layouts[case].triad.name}")
    return factors.reshape(factors.shape[:1] + (1,) * (v.ndim - 2) + (4,)) \
        * _gather(v, index)


def bispinor_from_fields(f: EmField, layout: FieldLayout):
    """The spinor(s), shape (..., 4), holding the field(s) in the layout's slots."""
    return _case_spinors(_stacked(f)[None], [layout])[0]


def case_spinors(f: EmField, layouts):
    """Spinors (C, ..., 4) of the fields f (C, ..., 3), case i held in the
    slots of layouts[i]; bispinor_from_fields is the view of one case."""
    return _case_spinors(_stacked(f), layouts)


def _placed(vals, index):
    """Fields (C, ..., 3) holding vals[i, ..., s] in [E, H] component
    index[i, s] and zero in the others."""
    v = np.zeros(vals.shape[:-1] + (6,), dtype=complex)
    v[np.arange(len(v))[:, None], ..., index] = vals.transpose(
        0, -1, *range(1, vals.ndim - 1))
    return EmField._of(v[..., :3], v[..., 3:])


def slot_fields(vals, layouts):
    """Fields (C, ..., 3) with vals[i, ..., s] in the component of slot s of
    layouts[i] and zero in the components without a slot."""
    return _placed(vals, np.array([layout.index for layout in layouts]))


def case_fields(psi, layouts):
    """Fields (C, ..., 3) held by the spinors psi (C, ..., 4), case i read
    from the slots of layouts[i], each divided by its factor: the inverse
    of case_spinors."""
    index, factors, _ = _slot_table(layouts)
    return _placed(
        psi / factors.reshape(factors.shape[:1] + (1,) * (psi.ndim - 2) + (4,)),
        index)


def fields_from_bispinor(psi, layout: FieldLayout):
    """The field(s) held by the spinor(s) psi (..., 4): the view of one case
    of case_fields."""
    return case_fields(as_bispinor(psi)[None], [layout])[0]


def bilinears(psi, aset):
    """All six bilinears psi^+ a_k psi, k = 0..5, in the last axis.

    psi of shape (n, 4) gives shape (n, 6); one spinor (4,) gives (6,).
    Column k is the bilinear of a_k: column 4 is the scalar psi^+ a4 psi,
    columns 1:4 the vector.
    """
    psi = as_bispinor(psi)
    return np.einsum("...i,kij,...j->...k", psi.conj(),
                     np.array(list(aset.named().values())), psi)


def e_squared(f: EmField):
    return inner(f.e, f.e).real


def h_squared(f: EmField):
    return inner(f.h, f.h).real


def eh_dot(f: EmField):
    """Sesquilinear E.H; equals the plain dot product for real fields."""
    return inner(f.e, f.h).real


def cross_sym(f: EmField):
    """Sesquilinear ExH: Re(conj(E) x H); the plain cross product if real."""
    return cross(f.e.conj(), f.h).real


def energy_density(f: EmField):
    """(E^2 + H^2)/8pi in Gaussian units (real mode)."""
    f.require_real()
    return (e_squared(f) + h_squared(f)) / (8 * np.pi)


def poynting(f: EmField):
    """(1/4pi) E x H with c = 1, which is also the momentum density (real mode)."""
    f.require_real()
    return (1 / (4 * np.pi)) * cross(f.e.real, f.h.real)


def fierz_em(f: EmField):
    """Both sides of the field-invariant quartic identity.

    lhs = (E^2+H^2)^2 - 4 (ExH)^2, rhs = (E^2-H^2)^2 + 4 (E.H)^2; the two are
    equal for all real field pairs.
    """
    f.require_real()
    e2, h2 = e_squared(f), h_squared(f)
    exh = cross(f.e.real, f.h.real)
    lhs = (e2 + h2) ** 2 - 4 * inner(exh, exh)
    rhs = (e2 - h2) ** 2 + 4 * eh_dot(f) ** 2
    return lhs, rhs


def fierz_quantum(psi):
    """Both sides of the bilinear quartic identity.

    lhs = (psi^+ a0 psi)^2 - sum_k (psi^+ a_k psi)^2, rhs = (psi^+ a4 psi)^2 +
    (psi^+ a5 psi)^2; an algebraic identity over all 4-component amplitudes.
    """
    b = bilinears(psi, dirac.canonical_alpha_set()).real
    bv = b[..., 1:4]
    lhs = b[..., 0] ** 2 - inner(bv, bv)
    rhs = b[..., 4] ** 2 + b[..., 5] ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# First-order coupled field systems and their residuals
# ---------------------------------------------------------------------------

#: sign_form selects the wave-operator signs: "plus" couples +a.p with +a4,
#: "minus" couples -a.p with -a4.
SIGN_FORMS = {"plus": +1, "minus": -1}


def scalar_rows(layout: FieldLayout, sign_form):
    """The four scalar component equations for (layout, sign form).

    Each row is (lhs_kind, lhs_axis, du_sign, du_kind, du_axis, mass_sign)
    encoding  dt F  +  du_sign * du G  +  mass_sign * i F = 0.
    The tabulated four-equation groups for every axis and orientation follow
    this slot pattern; a charge-conjugated layout negates every row's
    derivative sign.
    """
    s = SIGN_FORMS[sign_form]
    d = -s if layout.conjugated else s  # the derivative's sign
    a1, a2 = layout.triad.e_axes
    return (
        ("e", a1, -d, "h", a2, -s),
        ("e", a2, +d, "h", a1, -s),
        ("h", a1, +d, "e", a2, +s),
        ("h", a2, -d, "e", a1, +s),
    )


# The twelve triad layouts.
_LAYOUTS = {(t, conj): FieldLayout(t, conj)
            for t in dirac.axis_triads() for conj in (False, True)}
_FORM_INDEX = {form: i for i, form in enumerate(SIGN_FORMS)}


def grid_stack(f, df_dt, df_du):
    """The fields and both derivatives as one [E, H] array, (3, C, n, 6):
    the input of both residual routes."""
    return np.concatenate((np.array((f.e, df_dt.e, df_du.e)),
                           np.array((f.h, df_dt.h, df_du.h))), axis=-1)


def scalar_residuals(w, layouts, sign_forms):
    """The four scalar component equations of each case at each point.

    Case i holds its fields, time and space derivatives as w[:, i], a
    :func:`grid_stack` of shape (3, C, n, 6), and follows
    ``scalar_rows(layouts[i], sign_forms[i])``, read from the layouts'
    ``scalar_table`` as (C, 4) index and sign tables, so every case is
    gathered at once.  Shape (C, n, 4).
    """
    rows = np.array([layout.scalar_table[_FORM_INDEX[form]]
                     for layout, form in zip(layouts, sign_forms)])
    lhs, du, du_sign, mass_sign = (rows[..., j] for j in range(4))
    v, vt, vu = w
    return (_gather(vt, lhs) + du_sign[:, None] * _gather(vu, du)
            + (mass_sign * 1j)[:, None] * _gather(v, lhs))


def bispinor_residuals(w, layouts, sign_forms):
    """Matrix-form residual (a0 eps_op +- a.p_op +- a4) psi / i.

    Case i acts on the spinors of its fields in layouts[i], with a2 on the
    derivative along the layout's axis; w is the (3, C, n, 6)
    :func:`grid_stack` of :func:`scalar_residuals`.  The layout is linear,
    so derivative spinors are the layout images of the derivative fields.
    Division by i puts the rows in the same form as the scalar component
    equations (up to the slot factors).  Shape (C, n, 4).
    """
    s = np.array([SIGN_FORMS[form] for form in sign_forms])[:, None, None]
    aset = dirac.canonical_alpha_set()
    spinors = _case_spinors(w.swapaxes(0, 1), layouts)
    psi, dpsi_dt, dpsi_du = (spinors[:, j] for j in range(3))
    eps_term = 1j * dpsi_dt
    p_term = s * mat_vec(aset.a2, -1j * dpsi_du)
    mass_term = s * mat_vec(aset.a4, psi)
    return (eps_term + p_term + mass_term) / 1j


_STENCIL = (-2, -1, 1, 2)


def _fd_derivatives(wave, t, u, steps):
    """Fourth-order central differences of the wave's fields.

    The four stencil points of d/dt and of d/du, for every step, are one
    evaluation of the fields, their coordinates shifted by one broadcast
    add.  Returns the [E, H] derivatives, shape (len(steps), 2, C, n, 6):
    step, variable (t, u), case, point.
    """
    # shift[x, step, var]: the stencil offsets of coordinate x when var moves
    shift = np.zeros((2, len(steps), 2, len(_STENCIL)))
    shift[0, :, 0] = shift[1, :, 1] = np.multiply.outer(steps, _STENCIL)
    v = _stacked(wave._place(wave._phase(*(
        (x + d[..., None]).ravel() for x, d in zip((t, u), shift)))))
    x = np.moveaxis(v.reshape(len(v), len(steps), 2, 4, len(t), 6), 0, 3)
    h = np.reshape(steps, (-1, 1, 1, 1, 1))
    return (x[:, :, 0] - 8 * x[:, :, 1] + 8 * x[:, :, 2] - x[:, :, 3]) / (12 * h)


class ResidualReport(NamedTuple):
    """Per-case maxima over the grid, shape (C,), and per-case Richardson
    estimates max |D(h) - D(h/2)| of the finite-difference derivatives at
    the grid's first point (0 for closed-form derivatives; NaN propagates)."""
    cross_deviation: np.ndarray
    max_scalar: np.ndarray
    truncation: np.ndarray


def dirac_residual_em(wave, t_grid, u_grid, fd_step=None):
    """Residuals of a stack of coupled first-order systems on one (t, u) grid.

    Case i is the wave.forms[i] system of the triad of wave.layouts[i], in
    that layout, so a charge-conjugated case is a wave on
    ``layout_for_triad(t, True)``.  The derivatives are the wave's closed
    forms, or, when ``fd_step`` is given, fourth-order central differences
    of that step of its fields, and the report carries their Richardson
    truncation estimate for the caller to judge against ``FD_TOL``.  The
    grid is one stack: row i is (t_grid[i // len(u_grid)],
    u_grid[i % len(u_grid)]).  The fields and
    derivatives become one [E, H] array, (3, C, n, 6), that both routes
    read.  The four scalar component residuals and the matrix-form residual
    of each point are the same equation expanded, so any gap between them
    indicates a transcription defect.  Each case reduces over its own points
    only.
    """
    layouts = wave.layouts
    tt, uu = np.repeat(t_grid, len(u_grid)), np.tile(u_grid, len(t_grid))
    truncation = np.zeros(len(layouts))
    if fd_step is None:
        w = grid_stack(*wave.at(tt, uu))
    else:
        full, half = _fd_derivatives(wave, tt[:1], uu[:1],
                                     (fd_step, fd_step / 2))
        truncation = np.abs(full - half).max(axis=(0, 2, 3))
        fd = _fd_derivatives(wave, tt, uu, (fd_step,))[0]
        w = np.concatenate(
            (_stacked(wave._place(wave._phase(tt, uu)))[None], fd))
    scalar = scalar_residuals(w, layouts, wave.forms)
    bisp = bispinor_residuals(w, layouts, wave.forms)
    factors = np.array([layout.factors for layout in layouts])[:, None]
    return ResidualReport(
        cross_deviation=np.abs(scalar * factors - bisp).max(axis=(1, 2)),
        max_scalar=np.abs(scalar).max(axis=(1, 2)), truncation=truncation)


class WavePoint(NamedTuple):
    """Field values and closed-form derivatives at one space-time point.

    ``df_du`` is the derivative along the layout's propagation axis; the wave
    depends on (t, u) only.  Fields that are stacks of n give n points.
    """
    f: EmField
    df_dt: EmField
    df_du: EmField


class SlotWave(NamedTuple):
    """Plane waves of C cases sharing omega and k.

    Case i holds amps[:, i], one value per slot, times e^{i(omega t - k u)}
    in the slots of layouts[i], and belongs to the forms[i] system; ``amps``
    has shape (4, C).  A wave with its frequency scaled by a factor is
    ``wave._replace(omega=factor * wave.omega)``, off shell unless the
    factor is 1, and ``wave._replace(forms=[...])`` checks it against the
    other form's system.
    """
    amps: np.ndarray
    omega: float
    k: float
    layouts: list
    forms: list

    def at(self, t, u) -> WavePoint:
        """The fields and both derivatives at t, u of shape (n,), each the
        (C, n, 3) stack of the C cases; a scalar pair gives (C, 3)."""
        phase = self._phase(t, u)
        return WavePoint(*(self._place(scale * phase)
                           for scale in (1.0, 1j * self.omega, -1j * self.k)))

    def _phase(self, t, u):
        return np.exp(1j * (self.omega * t - self.k * u))

    def _place(self, phase):
        """Fields (C, ..., 3) holding amps[:, i] * phase in layouts[i]."""
        vals = np.multiply.outer(self.amps, phase)
        return slot_fields(vals.transpose(1, *range(2, vals.ndim), 0),
                           self.layouts)


def onshell_plane_wave(triads, sign_forms, k, e2_amp=0.0,
                       units=NATURAL) -> SlotWave:
    """Complex plane waves, case i solving the (triads[i], sign_forms[i]) system.

    The two transverse sub-blocks decouple: (E_1, H_2) and (E_2, H_1) pair
    up with amplitude ratios fixed by the sign form and the dispersion
    relation omega^2 = (m c^2/hbar)^2 + c^2 k^2 in ``units``, for every case.
    Case i's amplitudes (1, E_2, H_1, H_2) fill its triad layout's slots.
    A k of 0 is an error, and an omega or H amplitude that overflows is a
    non-finite one.
    """
    s = np.array([SIGN_FORMS[form] for form in sign_forms])
    c = units.c
    w0 = units.m_e * c * c / units.hbar
    k = require_finite(k, "k")
    if k == 0:
        raise ValueError("k must be non-zero")
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's power overflows to inf where a float's raises
        ck2 = np.float64(c * k) ** 2
        omega = require_finite(np.sqrt(w0 ** 2 + ck2), "omega")
        h1_amp = s * (omega - s * w0) * e2_amp / (c * k)
        h2_amp = -s * (omega - s * w0) / (c * k)
    ones = np.ones(len(s))
    amps = require_finite(np.array([ones, e2_amp * ones, h1_amp, h2_amp]),
                          "amplitude")  # (4, C)
    return SlotWave(amps, omega, k, [layout_for_triad(t) for t in triads],
                    list(sign_forms))
