import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphoton import bridge, dirac, torus
from semiphoton.bridge import EmField

CANON = dirac.canonical_alpha_set()
unit = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
vec3 = st.lists(unit, min_size=3, max_size=3)


def test_electron_layout_spot_values():
    layout = bridge.electron_layout()
    psi = bridge.bispinor_from_fields(EmField([1, 0, 0], [0, 0, 1]), layout)
    np.testing.assert_array_equal(psi, [1, 0, 0, 1j])
    np.testing.assert_array_equal(
        bridge.bispinor_from_fields(EmField.zero(), layout), np.zeros(4))


def test_positron_layout_spot_values():
    psi = bridge.bispinor_from_fields(EmField([1, 0, 0], [0, 0, 1]),
                                      bridge.positron_layout())
    np.testing.assert_array_equal(psi, [1, 0, 0, -1j])


def test_layout_violation():
    layout = bridge.electron_layout()
    with pytest.raises(bridge.LayoutViolation):
        bridge.bispinor_from_fields(EmField([0, 1, 0], [0, 0, 0]), layout)


def test_fields_from_bispinor():
    layout = bridge.electron_layout()
    f = bridge.fields_from_bispinor(np.array([0, 1, 1j, 0]), layout)
    np.testing.assert_array_equal(f.e, [0, 0, 1])
    np.testing.assert_array_equal(f.h, [1, 0, 0])
    zero = bridge.fields_from_bispinor(np.zeros(4), layout)
    assert not zero.e.any() and not zero.h.any()


@settings(deadline=None, max_examples=100)
@given(vec3, vec3)
def test_round_trip_every_layout(e_vals, h_vals):
    for t in dirac.axis_triads():
        for conj in (False, True):
            layout = bridge.layout_for_triad(t, charge_conjugated=conj)
            e = np.zeros(3)
            h = np.zeros(3)
            for ax, val in zip(layout.triad.e_axes, e_vals):
                e[bridge.AXIS_INDEX[ax]] = val
            for ax, val in zip(layout.triad.e_axes, h_vals):
                h[bridge.AXIS_INDEX[ax]] = val
            f = EmField(e, h)
            back = bridge.fields_from_bispinor(
                bridge.bispinor_from_fields(f, layout), layout)
            np.testing.assert_array_equal(back.e, f.e)
            np.testing.assert_array_equal(back.h, f.h)


def test_bilinears_unit_pair():
    psi = np.array([1, 0, 0, 1j])
    b = bridge.bilinears(psi, CANON)
    assert (b[0], b[4], b[2], b[5]) == (2, 0, 2, 0)


def test_fierz_em_examples():
    lhs, rhs = bridge.fierz_em(EmField([1, 0, 0], [0, 0, 1]))
    assert lhs == 0 and rhs == 0
    lhs, rhs = bridge.fierz_em(EmField([1, 0, 0], [0, 0, 2]))
    assert lhs == pytest.approx(9) and rhs == pytest.approx(9)
    lhs, rhs = bridge.fierz_em(EmField([0, 0, 0], [1, 2, 2]))
    assert lhs == pytest.approx(81) and rhs == pytest.approx(81)


def test_fierz_quantum_examples():
    assert bridge.fierz_quantum(np.array([1, 0, 0, 1j])) == (0, 0)
    assert bridge.fierz_quantum(np.zeros(4)) == (0, 0)


@settings(deadline=None, max_examples=200)
@given(vec3, vec3)
def test_fierz_em_is_identity(e, h):
    lhs, rhs = bridge.fierz_em(EmField(e, h))
    scale = max((bridge.e_squared(EmField(e, h))
                 + bridge.h_squared(EmField(e, h))) ** 2, 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(deadline=None, max_examples=200)
@given(st.lists(unit, min_size=8, max_size=8))
def test_fierz_quantum_is_identity(vals):
    psi = np.array(vals[:4]) + 1j * np.array(vals[4:])
    lhs, rhs = bridge.fierz_quantum(psi)
    scale = max(float(np.abs(psi.conj() @ psi).real) ** 2, 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_energy_density_and_poynting():
    f = EmField([1, 0, 0], [0, 0, 1])
    assert bridge.energy_density(f) == pytest.approx(1 / (4 * math.pi))
    assert bridge.energy_density(EmField.zero()) == 0
    np.testing.assert_allclose(bridge.poynting(f),
                               [0, -1 / (4 * math.pi), 0], atol=1e-16)
    parallel = EmField([1, 0, 0], [2, 0, 0])
    assert np.abs(bridge.poynting(parallel)).max() == 0
    swapped = bridge.poynting(EmField([0, 0, 1], [1, 0, 0]))
    np.testing.assert_allclose(swapped, -bridge.poynting(f), atol=1e-16)


def test_complex_mode_rejected_where_real_required():
    f = EmField([1j, 0, 0], [0, 0, 1])
    with pytest.raises(ValueError):
        bridge.energy_density(f)
    with pytest.raises(ValueError):
        bridge.fierz_em(f)


# --- first-order system tables, pinned to the tabulated four-equation groups


def test_scalar_rows_y_negative():
    layout = bridge.electron_layout()
    assert bridge.scalar_rows(layout, "plus") == (
        ("e", "x", -1, "h", "z", -1),
        ("e", "z", +1, "h", "x", -1),
        ("h", "x", +1, "e", "z", +1),
        ("h", "z", -1, "e", "x", +1),
    )
    assert bridge.scalar_rows(layout, "minus") == (
        ("e", "x", +1, "h", "z", +1),
        ("e", "z", -1, "h", "x", +1),
        ("h", "x", -1, "e", "z", -1),
        ("h", "z", +1, "e", "x", -1),
    )


def test_scalar_rows_positive_directions_minus_form():
    for axis, a1, a2 in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        layout = bridge.layout_for_triad(dirac.triad(axis, "positive"))
        assert bridge.scalar_rows(layout, "minus") == (
            ("e", a1, +1, "h", a2, +1),
            ("e", a2, -1, "h", a1, +1),
            ("h", a1, -1, "e", a2, -1),
            ("h", a2, +1, "e", a1, -1),
        )


def ref_scalar_rows(layout, sign_form):
    """The rows by the slot-factor rule: the base rows of the layout's e
    slots, each derivative sign times the signs of the factors of its own
    slot i and of its partner slot (3, 2, 1, 0)[i]."""
    s = bridge.SIGN_FORMS[sign_form]
    a1, a2 = (ax for kind, ax, _ in layout.slots if kind == "e")
    base = (("e", a1, -s, "h", a2, -s), ("e", a2, +s, "h", a1, -s),
            ("h", a1, +s, "e", a2, +s), ("h", a2, -s, "e", a1, +s))
    signs = []
    for *_, factor in layout.slots:
        u = factor / abs(factor)
        signs.append(+1 if u.real > 0.5 or u.imag > 0.5 else -1)
    return tuple((k0, x0, s_du * signs[i] * signs[(3, 2, 1, 0)[i]], k1, x1,
                  s_m) for i, (k0, x0, s_du, k1, x1, s_m) in enumerate(base))


def test_scalar_rows_charge_conjugated():
    layout = bridge.positron_layout()
    assert bridge.scalar_rows(layout, "minus") == (
        ("e", "x", -1, "h", "z", +1),
        ("e", "z", +1, "h", "x", +1),
        ("h", "x", +1, "e", "z", -1),
        ("h", "z", -1, "e", "x", -1),
    )
    for t in dirac.axis_triads():
        for conj in (False, True):
            layout = bridge.layout_for_triad(t, conj)
            for form in bridge.SIGN_FORMS:
                assert bridge.scalar_rows(layout, form) == ref_scalar_rows(
                    layout, form), (t.name, conj, form)


def _grids():
    return np.linspace(0.0, 2.0, 3), np.linspace(-1.0, 1.0, 4)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("orientation", ["negative", "positive"])
@pytest.mark.parametrize("form", ["plus", "minus"])
def test_onshell_wave_has_zero_residual(axis, orientation, form):
    t = dirac.triad(axis, orientation)
    wave = bridge.onshell_plane_wave([t], [form], k=0.8, e2_amp=0.4)
    t_grid, u_grid = _grids()
    rep = bridge.dirac_residual_em(wave, t_grid, u_grid)
    assert rep.max_scalar.shape == rep.cross_deviation.shape == (1,)
    assert rep.max_scalar[0] <= 1e-12 * wave.omega
    assert rep.cross_deviation[0] <= 1e-12 * wave.omega


@pytest.mark.parametrize("units", [torus.NATURAL, torus.GAUSSIAN_CGS],
                         ids=lambda u: u.mode)
def test_onshell_wave_omega_in_each_unit_system(units):
    """omega^2 = (m c^2 / hbar)^2 + (c k)^2 for a k of 0.8 m c / hbar."""
    m, c, hbar = units.m_e, units.c, units.hbar
    k = 0.8 * m * c / hbar
    wave = bridge.onshell_plane_wave([dirac.triad("y", "negative")],
                                     ["plus"], k, units=units)
    want = math.sqrt((m * c ** 2 / hbar) ** 2 + (c * k) ** 2)
    assert wave.omega == pytest.approx(want, rel=1e-15)


def test_slot_wave_places_each_scaled_phase_bit_for_bit():
    """at(t, u) is slot_fields(amps (x) (scale * phase)) for the scales 1,
    i omega and -i k; (amps (x) phase) * scale rounds differently."""
    rng = np.random.default_rng(3)
    triads = dirac.axis_triads()[:3]
    amps = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    wave = bridge.SlotWave(amps, 1.2806248474865698, 0.8,
                           [bridge.layout_for_triad(t) for t in triads],
                           ["plus"] * 3)
    tt, uu = rng.uniform(-3, 3, size=(2, 40))
    phase = np.exp(1j * (wave.omega * tt - wave.k * uu))
    point = wave.at(tt, uu)
    assert point.f.e.shape == (3, 40, 3)
    for got, scale in zip(point, (1.0, 1j * wave.omega, -1j * wave.k)):
        vals = np.multiply.outer(wave.amps, scale * phase)
        want = bridge.slot_fields(np.moveaxis(vals, 0, -1), wave.layouts)
        assert got.e.tobytes() == want.e.tobytes()
        assert got.h.tobytes() == want.h.tobytes()
    one = wave.at(tt[0], uu[0])
    assert one.df_du.h.shape == (3, 3)
    assert np.array_equal(one.df_du.h, point.df_du.h[:, 0])


def test_scalar_and_matrix_routes_agree_off_shell():
    """Each slot oscillates with its own frequency and wave number, so the
    wave is not one SlotWave: the grid stack is built by hand."""
    rng = np.random.default_rng(5)
    t = dirac.triad("y", "negative")
    layout = bridge.layout_for_triad(t)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    ws, ks = rng.normal(size=4), rng.normal(size=4)
    tt, uu = (g.ravel() for g in np.meshgrid(*_grids(), indexing="ij"))

    def build(dt_order=0, du_order=0):
        vals = amps * np.exp(1j * (ws * tt[:, None] - ks * uu[:, None]))
        vals = vals * (1j * ws) ** dt_order * (-1j * ks) ** du_order
        zero = np.zeros(len(tt))
        e = np.stack([vals[:, 0], zero, vals[:, 1]], axis=-1)
        h = np.stack([vals[:, 2], zero, vals[:, 3]], axis=-1)
        return EmField(e[None], h[None])

    w = bridge.grid_stack(build(), build(dt_order=1), build(du_order=1))
    scalar = bridge.scalar_residuals(w, [layout], ["plus"])[0]
    bisp = bridge.bispinor_residuals(w, [layout], ["plus"])[0]
    max_scalar = np.abs(scalar).max()
    assert max_scalar > 0.1  # generic wave is not a solution
    assert np.abs(scalar * layout.factors - bisp).max() <= 1e-12 * max_scalar


def test_finite_difference_fallback_and_truncation_guard():
    t = dirac.triad("y", "negative")
    wave = bridge.onshell_plane_wave([t], ["plus"], 0.8)
    t_grid, u_grid = np.linspace(0, 1, 3), np.linspace(-0.5, 0.5, 3)
    rep = bridge.dirac_residual_em(wave, t_grid, u_grid, fd_step=1e-4)
    assert rep.max_scalar[0] <= 1e-6
    assert rep.cross_deviation[0] <= 1e-6
    assert 0 < rep.truncation[0] <= bridge.FD_TOL
    # a coarse step is reported, not raised: its estimate is about 6.4e-3
    coarse = bridge.dirac_residual_em(wave, t_grid, u_grid, fd_step=0.5)
    assert coarse.truncation.shape == (1,)
    assert coarse.truncation[0] > 1e3 * bridge.FD_TOL
    assert not hasattr(bridge, "GridTooCoarse")
    # closed-form derivatives carry no truncation; a NaN estimate propagates
    exact = bridge.dirac_residual_em(wave, t_grid, u_grid)
    assert np.array_equal(exact.truncation, [0.0])
    # a constant E_x of 1e308: 8 times it overflows inside the stencil
    huge = bridge.SlotWave(np.array([[1e308], [0.0], [0.0], [0.0]]), 0.0, 0.0,
                           wave.layouts, wave.forms)
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = bridge.dirac_residual_em(huge, t_grid, u_grid,
                                            fd_step=1e-4)
    assert np.isnan(overflow.truncation[0])


def test_conjugate_layout_solves_opposite_current_system():
    """The conjugate-current wave family solves the conjugated minus form."""
    t = dirac.triad("y", "negative")
    k, w0 = 0.8, 1.0
    omega = math.sqrt(w0 ** 2 + k ** 2)
    amps = np.array([[1.0], [0.0], [0.0], [-(omega + w0) / k]])
    wave = bridge.SlotWave(amps, omega, k,
                           [bridge.layout_for_triad(t, charge_conjugated=True)],
                           ["minus"])
    rep = bridge.dirac_residual_em(wave, *(_grids()))
    assert rep.max_scalar[0] <= 1e-12 * omega
    assert rep.cross_deviation[0] <= 1e-12 * omega
    # the same wave does not solve the plain minus-form system
    plain = bridge.dirac_residual_em(
        wave._replace(layouts=[bridge.layout_for_triad(t)]), *(_grids()))
    assert plain.max_scalar[0] > 0.1


def test_detuned_wave_leaves_residual():
    t = dirac.triad("y", "negative")
    wave = bridge.onshell_plane_wave([t], ["plus"], 0.8)
    rep = bridge.dirac_residual_em(wave._replace(omega=1.1 * wave.omega),
                                   *(_grids()))
    assert rep.max_scalar[0] > 0.01


def test_residual_grid_builds_the_alpha_set_once(monkeypatch):
    calls = []
    build = dirac.canonical_alpha_set

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(dirac, "canonical_alpha_set", counted)
    t = dirac.triad("y", "negative")
    wave = bridge.onshell_plane_wave([t], ["plus"], 0.8)
    rep = bridge.dirac_residual_em(wave, *(_grids()))
    assert len(calls) == 1
    assert rep.max_scalar[0] <= 1e-12 * wave.omega


def test_residual_rows_follow_the_grid_order(monkeypatch):
    """Row i is the point (t_grid[i // len(u_grid)], u_grid[i % len(u_grid)])."""
    t = dirac.triad("y", "negative")
    layout = bridge.layout_for_triad(t)
    wave = bridge.onshell_plane_wave([t], ["plus"], 0.8)
    wave = wave._replace(omega=1.1 * wave.omega)
    calls = []
    at = bridge.SlotWave.at

    def counted(self, tt, uu):
        calls.append((tt.shape, uu.shape))
        return at(self, tt, uu)

    monkeypatch.setattr(bridge.SlotWave, "at", counted)
    t_grid, u_grid = _grids()
    n = len(t_grid) * len(u_grid)
    rep = bridge.dirac_residual_em(wave, t_grid, u_grid)
    assert calls == [((n,), (n,))]
    factors = np.array([factor for _, _, factor in layout.slots])
    scalar, cross = [], []
    for i in range(n):
        point = (np.array([t_grid[i // len(u_grid)]]),
                 np.array([u_grid[i % len(u_grid)]]))
        w = bridge.grid_stack(*wave.at(*point))
        row = bridge.scalar_residuals(w, [layout], ["plus"])[0, 0]
        bisp = bridge.bispinor_residuals(w, [layout], ["plus"])[0, 0]
        scalar.append(np.abs(row).max())
        cross.append(np.abs(row * factors - bisp).max())
    assert rep.max_scalar[0] == max(scalar)
    assert rep.cross_deviation[0] == max(cross)


def test_finite_difference_route_stacks_its_stencils(monkeypatch):
    """One placement for the probe's stencils, one for the grid's, one for
    the values, and the fields only: no derivative is placed."""
    t = dirac.triad("y", "negative")
    wave = bridge.onshell_plane_wave([t], ["plus"], 0.8)
    shapes = []
    place = bridge.slot_fields

    def counted(vals, layouts):
        shapes.append(vals.shape[1:-1])
        return place(vals, layouts)

    monkeypatch.setattr(bridge, "slot_fields", counted)
    t_grid, u_grid = _grids()
    bridge.dirac_residual_em(wave, t_grid, u_grid, fd_step=1e-4)
    n = len(t_grid) * len(u_grid)
    # probe at the first point: 2 steps x 2 variables x 4 stencil points;
    # grid: 2 variables x 4 stencil points of n, then the n values
    assert shapes == [(16,), (8 * n,), (n,)]
