import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphoton import bridge, dirac, planewave

CANON = dirac.canonical_alpha_set()
momentum = st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=3).map(np.array)


def test_build_system_rest_case():
    m = planewave.build_system(1.0, np.zeros(3), 1.0)
    np.testing.assert_array_equal(np.diag(m), [2, 2, 0, 0])
    assert np.abs(m - np.diag(np.diag(m))).max() == 0


def test_determinant_structure():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.normal(size=3)
        eps = rng.normal()
        det = np.linalg.det(planewave.build_system(eps, p, 1.0))
        formula = (eps ** 2 - 1.0 - float(p @ p)) ** 2
        assert det == pytest.approx(formula, rel=1e-12, abs=1e-12)
    on = planewave.dispersion(p, 1.0)[0]
    assert abs(np.linalg.det(planewave.build_system(on, p, 1.0))) <= 1e-10
    off = np.linalg.det(planewave.build_system(1.5, np.zeros(3), 1.0))
    assert off == pytest.approx(1.5625, rel=1e-14)


def test_dispersion_values():
    assert planewave.dispersion(np.zeros(3), 1.0) == (1.0, -1.0)
    ep, em = planewave.dispersion(np.array([0, 1.0, 0]), 1.0)
    assert ep == pytest.approx(math.sqrt(2), rel=1e-15)
    assert em == -ep
    p = np.array([0.3, -1.2, 0.4])
    ep, em = planewave.dispersion(p, 1.0)
    assert ep * em == pytest.approx(-(float(p @ p) + 1.0), rel=1e-14)


@settings(deadline=None, max_examples=100)
@given(momentum)
def test_dispersion_symmetric(p):
    assert planewave.dispersion(p, 1.0) == planewave.dispersion(-p, 1.0)


def test_solution_basis_rest_cases():
    pos = planewave.solution_basis("positive", np.zeros(3), 1.0)
    np.testing.assert_array_equal(pos[0], [0, 0, 1, 0])
    np.testing.assert_array_equal(pos[1], [0, 0, 0, 1])
    neg = planewave.solution_basis("negative", np.zeros(3), 1.0)
    np.testing.assert_array_equal(neg[0], [1, 0, 0, 0])
    np.testing.assert_array_equal(neg[1], [0, 1, 0, 0])
    with pytest.raises(ValueError):
        planewave.solution_basis("sideways", np.zeros(3), 1.0)


def test_solution_basis_moving_case():
    p = np.array([0, 1.0, 0])
    s1, s2 = planewave.solution_basis("positive", p, 1.0)
    assert s1[1] == pytest.approx(-1j / (math.sqrt(2) + 1), rel=1e-14)
    assert s1[2] == 1
    assert s2[0] == pytest.approx(1j / (math.sqrt(2) + 1), rel=1e-14)


@settings(deadline=None, max_examples=150)
@given(momentum)
def test_residual_small_on_solutions(p):
    for branch in ("positive", "negative"):
        for state in planewave.make_states(branch, p, 1.0):
            assert planewave.residual(state, CANON, 1.0) <= 1e-12
            scaled = planewave.PlaneWaveState(
                state.energy, state.momentum, 5 * state.amplitudes,
                state.phase, state.branch)
            assert planewave.residual(scaled, CANON, 1.0) <= 5e-12


def test_residual_detects_non_solution():
    state = planewave.PlaneWaveState(
        energy=1.0, momentum=np.zeros(3),
        amplitudes=np.array([1, 1, 1, 1], dtype=complex), phase=0.0,
        branch="positive")
    assert planewave.residual(state, CANON, 1.0) > 0.1


def test_residual_homogeneous():
    p = np.array([0.2, 0.9, -0.4])
    state = planewave.make_states("positive", p, 1.0)[0]
    detuned = planewave.PlaneWaveState(1.5 * state.energy, p,
                                       state.amplitudes, 0.0, "positive")
    r1 = planewave.residual(detuned, CANON, 1.0)
    scaled = planewave.PlaneWaveState(1.5 * state.energy, p,
                                      5 * state.amplitudes, 0.0, "positive")
    assert planewave.residual(scaled, CANON, 1.0) == pytest.approx(
        5 * r1, rel=1e-12)


def test_orthogonality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = rng.uniform(-10, 10, size=3)
        for branch in ("positive", "negative"):
            s1, s2 = planewave.solution_basis(branch, p, 1.0)
            assert abs(complex(s1.conj() @ s2)) <= 1e-12 * \
                float(np.abs(s1).max() * np.abs(s2).max())


def test_nullspace_rank_and_span():
    p = np.array([0.0, 1.3, 0.0])
    for branch in ("positive", "negative"):
        eps = planewave.dispersion(p, 1.0)[0 if branch == "positive" else 1]
        basis = planewave.nullspace(planewave.build_system(eps, p, 1.0))
        assert len(basis) == 2
        closed = planewave.solution_basis(branch, p, 1.0)
        for v in basis:
            best = math.inf
            for r in closed:
                j = int(np.argmax(np.abs(r)))
                if v[j] != 0:
                    best = min(best, float(np.abs(v * (r[j] / v[j]) - r).max()))
            assert best <= 1e-12
    # off shell the matrix has full rank
    assert planewave.nullspace(planewave.build_system(1.5, p, 1.0)) == []


def test_field_interpretation_sparsity():
    p = np.array([0.0, 1.3, 0.0])
    layout = bridge.electron_layout()
    s1, s2 = planewave.make_states("positive", p, 1.0)
    assert planewave.field_interpretation(s1, layout).sparsity == \
        (False, True, True, False)
    assert planewave.field_interpretation(s2, layout).sparsity == \
        (True, False, False, True)
    n1, n2 = planewave.make_states("negative", p, 1.0)
    assert planewave.field_interpretation(n1, layout).sparsity == \
        (True, False, False, True)
    assert planewave.field_interpretation(n2, layout).sparsity == \
        (False, True, True, False)


def test_sparsity_holds_along_the_axis():
    rng = np.random.default_rng(17)
    layout = bridge.electron_layout()
    for _ in range(25):
        p = np.array([0.0, rng.uniform(0.05, 8.0), 0.0])
        s1, s2 = planewave.make_states("positive", p, 1.0)
        assert planewave.field_interpretation(s1, layout).sparsity == \
            (False, True, True, False)
        assert planewave.field_interpretation(s2, layout).sparsity == \
            (True, False, False, True)


def test_solutions_solve_the_field_system():
    """Amplitude solutions, mapped through the layout, solve the plus-form
    coupled field system as traveling waves (and fail the minus form)."""
    p = np.array([0.0, 0.9, 0.0])
    mass = 1.0
    layout = bridge.electron_layout()
    t = dirac.triad("y", "negative")
    grids = dict(t_grid=np.linspace(0, 2, 3), u_grid=np.linspace(-1, 1, 3))
    for branch in ("positive", "negative"):
        state = planewave.make_states(branch, p, mass)[0]
        base = bridge.fields_from_bispinor(state.amplitudes, layout)
        eps, k = state.energy, p[1]

        def build(tt, uu, scale=1.0):
            ph = scale * np.exp(1j * (k * uu - eps * tt))[:, None]
            return bridge.EmField(base.e * ph, base.h * ph)

        rep = bridge.dirac_residual_em(
            build, t, mass, "plus", **grids,
            d_dt=lambda tt, uu: build(tt, uu, -1j * eps),
            d_du=lambda tt, uu: build(tt, uu, 1j * k))
        assert rep.max_scalar <= 1e-12
        assert rep.cross_deviation <= 1e-12
        wrong = bridge.dirac_residual_em(
            build, t, mass, "minus", **grids,
            d_dt=lambda tt, uu: build(tt, uu, -1j * eps),
            d_du=lambda tt, uu: build(tt, uu, 1j * k))
        assert wrong.max_scalar > 0.1


def test_field_interpretation_axis_guard():
    state = planewave.make_states("positive", np.array([1.0, 1.0, 0]), 1.0)[0]
    with pytest.raises(planewave.AxisMismatch):
        planewave.field_interpretation(state, bridge.electron_layout())


def test_special_values_table():
    special = planewave.special_amplitude_values()
    lit = special["literal"]
    np.testing.assert_allclose(lit["positive"][0], [0, 0.5, 1j, 0], atol=1e-12)
    np.testing.assert_allclose(lit["positive"][1], [-0.5, 0, 0, 1j], atol=1e-12)
    np.testing.assert_allclose(lit["negative"][0], [1j, 0, 0, -0.5], atol=1e-12)
    np.testing.assert_allclose(lit["negative"][1], [0, 1j, 0.5, 0], atol=1e-12)
    assert special["ledger"].ratio == pytest.approx(math.sqrt(2), rel=1e-15)
    # on-shell evaluation differs from the literal substitution
    ons = special["onshell"]["positive"][0]
    assert abs(ons[1]) == pytest.approx(1 / (math.sqrt(2) + 1), rel=1e-14)


def test_special_values_amplitude_ratio():
    special = planewave.special_amplitude_values()
    state = planewave.PlaneWaveState(
        energy=1.0, momentum=np.array([0.0, 1.0, 0.0]),
        amplitudes=special["literal"]["positive"][0], phase=math.pi / 2,
        branch="positive")
    interp = planewave.field_interpretation(state, bridge.electron_layout())
    assert interp.h_amplitude == pytest.approx(2 * interp.e_amplitude,
                                               rel=1e-12)


def test_continuity_and_normalization():
    p = np.array([0.0, 0.7, 0.0])
    state = planewave.make_states("positive", p, 1.0)[0]
    rep = planewave.continuity_check(state, CANON)
    assert rep.deviation <= 1e-12
    zero = planewave.PlaneWaveState(state.energy, p, np.zeros(4), 0.0,
                                    "positive")
    assert planewave.continuity_check(zero, CANON).deviation == 0.0
