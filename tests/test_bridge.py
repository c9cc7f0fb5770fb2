import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphoton import bridge, dirac
from semiphoton.bridge import BilinearKind, EmField

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
            for ax, val in zip(layout.covered("e"), e_vals):
                e[bridge.AXIS_INDEX[ax]] = val
            for ax, val in zip(layout.covered("h"), h_vals):
                h[bridge.AXIS_INDEX[ax]] = val
            f = EmField(e, h)
            back = bridge.fields_from_bispinor(
                bridge.bispinor_from_fields(f, layout), layout)
            np.testing.assert_array_equal(back.e, f.e)
            np.testing.assert_array_equal(back.h, f.h)


def test_bilinears_unit_pair():
    psi = np.array([1, 0, 0, 1j])
    assert bridge.bilinear(BilinearKind.VECTOR0, psi, CANON) == 2
    assert bridge.bilinear(BilinearKind.SCALAR, psi, CANON) == 0
    assert bridge.bilinear(BilinearKind.VECTOR2, psi, CANON) == 2
    assert bridge.bilinear(BilinearKind.PSEUDOSCALAR, psi, CANON) == 0


def test_fierz_em_examples():
    lhs, rhs = bridge.fierz_em(EmField([1, 0, 0], [0, 0, 1]))
    assert lhs == 0 and rhs == 0
    lhs, rhs = bridge.fierz_em(EmField([1, 0, 0], [0, 0, 2]))
    assert lhs == pytest.approx(9) and rhs == pytest.approx(9)
    lhs, rhs = bridge.fierz_em(EmField([0, 0, 0], [1, 2, 2]))
    assert lhs == pytest.approx(81) and rhs == pytest.approx(81)


def test_fierz_quantum_examples():
    assert bridge.fierz_quantum(np.array([1, 0, 0, 1j]), CANON) == (0, 0)
    assert bridge.fierz_quantum(np.zeros(4), CANON) == (0, 0)


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
    lhs, rhs = bridge.fierz_quantum(psi, CANON)
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


def test_scalar_rows_charge_conjugated():
    layout = bridge.positron_layout()
    assert bridge.scalar_rows(layout, "minus") == (
        ("e", "x", -1, "h", "z", +1),
        ("e", "z", +1, "h", "x", +1),
        ("h", "x", +1, "e", "z", -1),
        ("h", "z", -1, "e", "x", -1),
    )


def _grids():
    return np.linspace(0.0, 2.0, 3), np.linspace(-1.0, 1.0, 4)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("orientation", ["negative", "positive"])
@pytest.mark.parametrize("form", ["plus", "minus"])
def test_onshell_wave_has_zero_residual(axis, orientation, form):
    t = dirac.triad(axis, orientation)
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(
        t, form, k=0.8, mass=1.0, e1_amp=1.0, e2_amp=0.4)
    t_grid, u_grid = _grids()
    rep = bridge.dirac_residual_em(fields, t, 1.0, form, t_grid, u_grid,
                                   d_dt=d_dt, d_du=d_du)
    assert rep.max_scalar <= 1e-12 * omega
    assert rep.cross_deviation <= 1e-12 * omega


def test_scalar_and_matrix_routes_agree_off_shell():
    rng = np.random.default_rng(5)
    t = dirac.triad("y", "negative")
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    ws, ks = rng.normal(size=4), rng.normal(size=4)

    def build(tt, uu, dt_order=0, du_order=0):
        vals = amps * np.exp(1j * (ws * tt[:, None] - ks * uu[:, None]))
        vals = vals * (1j * ws) ** dt_order * (-1j * ks) ** du_order
        zero = np.zeros(len(tt))
        e = np.stack([vals[:, 0], zero, vals[:, 1]], axis=-1)
        h = np.stack([vals[:, 2], zero, vals[:, 3]], axis=-1)
        return EmField(e, h)

    rep = bridge.dirac_residual_em(
        build, t, 1.3, "plus", *(_grids()),
        d_dt=lambda tt, uu: build(tt, uu, dt_order=1),
        d_du=lambda tt, uu: build(tt, uu, du_order=1))
    assert rep.max_scalar > 0.1  # generic wave is not a solution
    assert rep.cross_deviation <= 1e-12 * rep.max_scalar


def test_massless_free_wave_solves_minus_form():
    t = dirac.triad("y", "negative")
    omega = 2.0

    def cos_wave(tt, uu, dt_order=0, du_order=0):
        # E_x = H_z = cos(omega t - k u) with omega = k c
        theta = omega * tt - omega * uu
        if (dt_order, du_order) == (0, 0):
            val = np.cos(theta)
        elif dt_order == 1:
            val = -omega * np.sin(theta)
        else:
            val = omega * np.sin(theta)
        zero = np.zeros_like(val)
        return EmField(np.stack([val, zero, zero], axis=-1),
                       np.stack([zero, zero, val], axis=-1))

    rep = bridge.dirac_residual_em(
        cos_wave, t, mass=0.0, sign_form="minus", t_grid=np.linspace(0, 3, 5),
        u_grid=np.linspace(-2, 2, 5),
        d_dt=lambda tt, uu: cos_wave(tt, uu, dt_order=1),
        d_du=lambda tt, uu: cos_wave(tt, uu, du_order=1))
    assert rep.max_scalar <= 1e-12 * omega
    assert rep.cross_deviation <= 1e-12 * omega


def test_finite_difference_fallback_and_truncation_guard():
    t = dirac.triad("y", "negative")
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(t, "plus", 0.8, 1.0)
    t_grid, u_grid = np.linspace(0, 1, 3), np.linspace(-0.5, 0.5, 3)
    rep = bridge.dirac_residual_em(fields, t, 1.0, "plus", t_grid, u_grid,
                                   fd_step=1e-4)
    assert rep.max_scalar <= 1e-6
    assert rep.cross_deviation <= 1e-6
    with pytest.raises(bridge.GridTooCoarse):
        bridge.dirac_residual_em(fields, t, 1.0, "plus", t_grid, u_grid,
                                 fd_step=0.5, fd_tol=1e-6)


def test_conjugate_layout_solves_opposite_current_system():
    """The conjugate-current wave family solves the conjugated minus form."""
    t = dirac.triad("y", "negative")
    k, w0 = 0.8, 1.0
    omega = math.sqrt(w0 ** 2 + k ** 2)
    amp_h = -(omega + w0) / k

    def build(tt, uu, scale=1.0):
        ph = scale * np.exp(1j * (omega * tt - k * uu))
        zero = np.zeros_like(ph)
        return EmField(np.stack([ph, zero, zero], axis=-1),
                       np.stack([zero, zero, amp_h * ph], axis=-1))

    rep = bridge.dirac_residual_em(
        build, t, 1.0, "minus", *(_grids()),
        d_dt=lambda tt, uu: build(tt, uu, 1j * omega),
        d_du=lambda tt, uu: build(tt, uu, -1j * k),
        charge_conjugated=True)
    assert rep.max_scalar <= 1e-12 * omega
    assert rep.cross_deviation <= 1e-12 * omega
    # the same wave does not solve the plain minus-form system
    plain = bridge.dirac_residual_em(
        build, t, 1.0, "minus", *(_grids()),
        d_dt=lambda tt, uu: build(tt, uu, 1j * omega),
        d_du=lambda tt, uu: build(tt, uu, -1j * k))
    assert plain.max_scalar > 0.1


def test_detuned_wave_leaves_residual():
    t = dirac.triad("y", "negative")
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(t, "plus", 0.8, 1.0)

    def stretched(tt, uu):
        return fields(1.1 * tt, uu)

    def stretched_dt(tt, uu):
        inner = d_dt(1.1 * tt, uu)
        return EmField(1.1 * inner.e, 1.1 * inner.h)

    rep = bridge.dirac_residual_em(
        stretched, t, 1.0, "plus", *(_grids()),
        d_dt=stretched_dt, d_du=lambda tt, uu: d_du(1.1 * tt, uu))
    assert rep.max_scalar > 0.01


def test_residual_grid_builds_the_alpha_set_once(monkeypatch):
    calls = []
    build = bridge.canonical_alpha_set

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(bridge, "canonical_alpha_set", counted)
    t = dirac.triad("y", "negative")
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(t, "plus", 0.8, 1.0)
    rep = bridge.dirac_residual_em(fields, t, 1.0, "plus", *(_grids()),
                                   d_dt=d_dt, d_du=d_du)
    assert len(calls) == 1
    assert rep.max_scalar <= 1e-12 * omega


def test_residual_rows_follow_the_grid_order():
    """Row i is the point (t_grid[i // len(u_grid)], u_grid[i % len(u_grid)])."""
    t = dirac.triad("y", "negative")
    layout = bridge.layout_for_triad(t)
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(t, "plus", 0.8, 1.0)
    wave = bridge.detuned_wave(fields, d_dt, d_du, 1.1)
    calls = []

    def counted(func):
        def call(tt, uu):
            calls.append((func, (tt.shape, uu.shape)))
            return func(tt, uu)
        return call

    t_grid, u_grid = _grids()
    n = len(t_grid) * len(u_grid)
    rep = bridge.dirac_residual_em(
        counted(wave[0]), t, 1.0, "plus", t_grid, u_grid,
        d_dt=counted(wave[1]), d_du=counted(wave[2]))
    assert sorted(id(func) for func, _ in calls) == sorted(map(id, wave))
    assert {shapes for _, shapes in calls} == {((n,), (n,))}
    assert rep.scalar.shape == rep.bispinor.shape == (n, 4)
    for i in range(n):
        point = (np.array([t_grid[i // len(u_grid)]]),
                 np.array([u_grid[i % len(u_grid)]]))
        f, ft, fu = (func(*point) for func in wave)
        assert np.array_equal(
            rep.scalar[i],
            bridge.scalar_residuals(f, ft, fu, layout, 1.0, "plus")[0])
        assert np.array_equal(
            rep.bispinor[i],
            bridge.bispinor_residuals(f, ft, fu, t, layout, CANON, 1.0,
                                      "plus")[0])


def test_finite_difference_route_stacks_its_stencils():
    """Four stencil calls per variable on the grid, plus the (1,) probe."""
    t = dirac.triad("y", "negative")
    omega, fields, d_dt, d_du = bridge.onshell_plane_wave(t, "plus", 0.8, 1.0)
    shapes = []

    def counted(tt, uu):
        shapes.append(tt.shape)
        return fields(tt, uu)

    t_grid, u_grid = _grids()
    bridge.dirac_residual_em(counted, t, 1.0, "plus", t_grid, u_grid,
                             fd_step=1e-4)
    n = len(t_grid) * len(u_grid)
    # probe: 2 variables x 2 steps x 4 stencil points; grid: values + 2 x 4
    assert shapes == [(1,)] * 16 + [(n,)] * 9
