import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphoton import bridge, dirac, planewave
from semiphoton.report import RunConfig
from semiphoton.suites import suite_planewave

CANON = dirac.canonical_alpha_set()
momentum = st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=3).map(np.array)


def test_build_system_rest_case():
    m = planewave.build_system(1.0, np.zeros(3))
    np.testing.assert_array_equal(np.diag(m), [2, 2, 0, 0])
    assert np.abs(m - np.diag(np.diag(m))).max() == 0


def test_determinant_structure():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.normal(size=3)
        eps = rng.normal()
        det = np.linalg.det(planewave.build_system(eps, p))
        formula = (eps ** 2 - 1.0 - float(p @ p)) ** 2
        assert det == pytest.approx(formula, rel=1e-12, abs=1e-12)
    on = planewave.dispersion(p)[0]
    assert abs(np.linalg.det(planewave.build_system(on, p))) <= 1e-10
    off = np.linalg.det(planewave.build_system(1.5, np.zeros(3)))
    assert off == pytest.approx(1.5625, rel=1e-14)


def test_dispersion_values():
    assert planewave.dispersion(np.zeros(3)) == (1.0, -1.0)
    ep, em = planewave.dispersion(np.array([0, 1.0, 0]))
    assert ep == pytest.approx(math.sqrt(2), rel=1e-15)
    assert em == -ep
    p = np.array([0.3, -1.2, 0.4])
    ep, em = planewave.dispersion(p)
    assert ep * em == pytest.approx(-(float(p @ p) + 1.0), rel=1e-14)


@settings(deadline=None, max_examples=100)
@given(momentum)
def test_dispersion_symmetric(p):
    assert planewave.dispersion(p) == planewave.dispersion(-p)


def test_solution_basis_rest_cases():
    pos = planewave.solution_basis("positive", np.zeros(3))
    np.testing.assert_array_equal(pos[0], [0, 0, 1, 0])
    np.testing.assert_array_equal(pos[1], [0, 0, 0, 1])
    neg = planewave.solution_basis("negative", np.zeros(3))
    np.testing.assert_array_equal(neg[0], [1, 0, 0, 0])
    np.testing.assert_array_equal(neg[1], [0, 1, 0, 0])
    with pytest.raises(ValueError):
        planewave.solution_basis("sideways", np.zeros(3))


def test_solution_basis_moving_case():
    p = np.array([0, 1.0, 0])
    s1, s2 = planewave.solution_basis("positive", p)
    assert s1[1] == pytest.approx(-1j / (math.sqrt(2) + 1), rel=1e-14)
    assert s1[2] == 1
    assert s2[0] == pytest.approx(1j / (math.sqrt(2) + 1), rel=1e-14)


@settings(deadline=None, max_examples=150)
@given(momentum)
def test_residual_small_on_solutions(p):
    for branch in ("positive", "negative"):
        for state in planewave.make_states(branch, p):
            assert planewave.residual(state, CANON) <= 1e-12
            scaled = planewave.PlaneWaveState(
                state.energy, state.momentum, 5 * state.amplitudes)
            assert planewave.residual(scaled, CANON) <= 5e-12


def stacked_operator_residual(state, aset):
    """The residual with the image index first, k...i, as a reference."""
    images = np.einsum("kij,...j->k...i", np.stack(
        (aset.a0, aset.a1, aset.a2, aset.a3, aset.a4)), state.amplitudes)
    energy = np.asarray(state.energy)[..., None]
    px, py, pz = (state.momentum[..., k, None] for k in range(3))
    out = (energy * images[0]
           + (px * images[1] + py * images[2] + pz * images[3])
           + images[4])
    return np.abs(out).max(axis=-1)


@pytest.mark.parametrize("n", [None, 1, 10, 1000])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_residual_is_the_image_first_contraction_bit_for_bit(n, branch):
    rng = np.random.default_rng(n or 0)
    p = 3 * rng.normal(size=(3,) if n is None else (n, 3))
    for state in planewave.make_states(branch, p):
        # off shell too, so the residual is not only rounding
        for detuned in (state, state._replace(energy=state.energy * 1.01)):
            want = stacked_operator_residual(detuned, CANON)
            got = planewave.residual(detuned, CANON)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3,), (5, 3)])
def test_make_states_checks_the_momentum_once(shape, monkeypatch):
    """make_states checks the momentum; dispersion and solution_basis read
    the checked array as given, so one call makes one as_vec3 call."""
    calls = []
    check = planewave.as_vec3
    monkeypatch.setattr(planewave, "as_vec3",
                        lambda a: calls.append(a) or check(a))
    p = np.random.default_rng(3).normal(size=shape)
    for branch in ("positive", "negative"):
        calls.clear()
        planewave.make_states(branch, p)
        assert len(calls) == 1


def test_planewave_suite_checks_each_momentum_once(monkeypatch):
    """build_system reads the momentum as given, so the planewave suite
    checks a momentum only where make_states takes it."""
    checked, made = [], []
    check, make = planewave.as_vec3, planewave.make_states
    monkeypatch.setattr(planewave, "as_vec3",
                        lambda a: checked.append(a) or check(a))
    monkeypatch.setattr(planewave, "make_states",
                        lambda *a: made.append(a) or make(*a))
    suite_planewave(RunConfig(samples=10))
    # the sampled stack, the nullspace momentum and the two continuity
    # momenta, once per branch
    assert len(made) == 8
    assert len(checked) == len(made)


def test_residual_detects_non_solution():
    state = planewave.PlaneWaveState(
        energy=1.0, momentum=np.zeros(3),
        amplitudes=np.array([1, 1, 1, 1], dtype=complex))
    assert planewave.residual(state, CANON) > 0.1


def test_residual_homogeneous():
    p = np.array([0.2, 0.9, -0.4])
    state = planewave.make_states("positive", p)[0]
    detuned = planewave.PlaneWaveState(1.5 * state.energy, p,
                                       state.amplitudes)
    r1 = planewave.residual(detuned, CANON)
    scaled = planewave.PlaneWaveState(1.5 * state.energy, p,
                                      5 * state.amplitudes)
    assert planewave.residual(scaled, CANON) == pytest.approx(
        5 * r1, rel=1e-12)


def test_orthogonality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = rng.uniform(-10, 10, size=3)
        for branch in ("positive", "negative"):
            s1, s2 = planewave.solution_basis(branch, p)
            assert abs(complex(s1.conj() @ s2)) <= 1e-12 * \
                float(np.abs(s1).max() * np.abs(s2).max())


def test_nullspace_rank_and_span():
    p = np.array([0.0, 1.3, 0.0])
    for branch in ("positive", "negative"):
        eps = planewave.dispersion(p)[0 if branch == "positive" else 1]
        basis = planewave.nullspace(planewave.build_system(eps, p))
        assert len(basis) == 2
        closed = planewave.solution_basis(branch, p)
        for v in basis:
            best = math.inf
            for r in closed:
                j = int(np.argmax(np.abs(r)))
                if v[j] != 0:
                    best = min(best, float(np.abs(v * (r[j] / v[j]) - r).max()))
            assert best <= 1e-12
    # off shell the matrix has full rank
    assert planewave.nullspace(planewave.build_system(1.5, p)) == []


def test_field_interpretation_sparsity():
    p = np.array([0.0, 1.3, 0.0])
    layout = bridge.electron_layout()
    s1, s2 = planewave.make_states("positive", p)
    assert planewave.field_interpretation(s1, layout).sparsity == \
        (False, True, True, False)
    assert planewave.field_interpretation(s2, layout).sparsity == \
        (True, False, False, True)
    n1, n2 = planewave.make_states("negative", p)
    assert planewave.field_interpretation(n1, layout).sparsity == \
        (True, False, False, True)
    assert planewave.field_interpretation(n2, layout).sparsity == \
        (False, True, True, False)


def test_sparsity_holds_along_the_axis():
    rng = np.random.default_rng(17)
    layout = bridge.electron_layout()
    for _ in range(25):
        p = np.array([0.0, rng.uniform(0.05, 8.0), 0.0])
        s1, s2 = planewave.make_states("positive", p)
        assert planewave.field_interpretation(s1, layout).sparsity == \
            (False, True, True, False)
        assert planewave.field_interpretation(s2, layout).sparsity == \
            (True, False, False, True)


def test_solutions_solve_the_field_system():
    """Amplitude solutions, mapped through the layout, solve the plus-form
    coupled field system as traveling waves (and fail the minus form)."""
    p = np.array([0.0, 0.9, 0.0])
    layout = bridge.electron_layout()
    grids = dict(t_grid=np.linspace(0, 2, 3), u_grid=np.linspace(-1, 1, 3))
    for branch in ("positive", "negative"):
        state = planewave.make_states(branch, p)[0]
        # e^{i(p_y u - eps t)}: omega = -eps and k = -p_y; the slot values
        # are the amplitudes over the slot factors
        wave = bridge.SlotWave((state.amplitudes / layout.factors)[:, None],
                               -state.energy, -p[1], [layout])
        rep = bridge.dirac_residual_em(wave, ["plus"], **grids)
        assert rep.max_scalar[0] <= 1e-12
        assert rep.cross_deviation[0] <= 1e-12
        wrong = bridge.dirac_residual_em(wave, ["minus"], **grids)
        assert wrong.max_scalar[0] > 0.1


def test_field_interpretation_axis_guard():
    state = planewave.make_states("positive", np.array([1.0, 1.0, 0]))[0]
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
    p = np.array([0.0, 1.0, 0.0])
    ons = planewave.solution_basis("positive", p, phase=math.pi / 2)[0]
    assert abs(ons[1]) == pytest.approx(1 / (math.sqrt(2) + 1), rel=1e-14)


def test_special_values_amplitude_ratio():
    special = planewave.special_amplitude_values()
    state = planewave.PlaneWaveState(
        energy=1.0, momentum=np.array([0.0, 1.0, 0.0]),
        amplitudes=special["literal"]["positive"][0])
    interp = planewave.field_interpretation(state, bridge.electron_layout())
    assert interp.h_amplitude == pytest.approx(2 * interp.e_amplitude,
                                               rel=1e-12)


def test_continuity_and_normalization():
    """An on-shell pair conserves probability; a 1e-6 plant in either
    energy, or in any non-zero amplitude component, breaks it."""
    for branch in ("positive", "negative"):
        first = planewave.make_states(branch, (0.3, 1.2, -0.4))[0]
        second = planewave.make_states(branch, (-1.1, 0.5, 0.8))[1]
        pair = planewave.PlaneWaveState(*map(np.stack, zip(first, second)))
        assert planewave.continuity_check(pair, CANON) <= 1e-12
        for k in range(2):
            energy = pair.energy.copy()
            energy[k] *= 1 + 1e-6
            assert planewave.continuity_check(
                pair._replace(energy=energy), CANON) > 1e-12
            for i in np.flatnonzero(pair.amplitudes[k]):
                amps = pair.amplitudes.copy()
                amps[k, i] *= 1 + 1e-6
                assert planewave.continuity_check(
                    pair._replace(amplitudes=amps), CANON) > 1e-12
        zero = pair._replace(amplitudes=np.zeros((2, 4)))
        assert planewave.continuity_check(zero, CANON) == 0.0
