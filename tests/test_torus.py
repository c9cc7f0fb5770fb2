import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphoton import cli, torus

NAT = torus.NATURAL


def model(zeta=1.0, e0=None):
    m = torus.derive_parameters(NAT, zeta)
    return torus.with_e0(m, e0) if e0 is not None else m


def test_natural_parameters():
    m = model()
    assert m.r_s == 0.5
    assert m.r_t == 0.5
    assert m.omega_s == 2.0
    assert m.lambda_p == math.pi
    assert m.k == 2.0
    assert m.r_c == 0.5
    assert m.s_c == math.pi / 4
    assert m.delta_tau == pytest.approx(math.pi ** 2 / 4, rel=1e-15)


def test_zeta_scaling():
    m = model(zeta=0.5)
    assert m.r_c == 0.25
    assert m.s_c == pytest.approx(math.pi / 16, rel=1e-15)
    assert m.delta_tau == pytest.approx(math.pi ** 2 / 16, rel=1e-15)


def test_gaussian_radius_is_half_compton():
    g = torus.GAUSSIAN_CGS
    m = torus.derive_parameters(g, 1.0)
    compton = g.hbar / (g.m_e * g.c)
    assert m.r_s == pytest.approx(compton / 2, rel=1e-15)


def test_unit_systems_are_named_once():
    names = ("natural", "gaussian_cgs")
    assert tuple(torus.UNIT_SYSTEMS) == cli.OPTIONS["--units"]["choices"]
    assert tuple(torus.UNIT_SYSTEMS) == names
    for name, units in torus.UNIT_SYSTEMS.items():
        assert units.mode == name
        assert torus.unit_system(name) is units
    with pytest.raises(torus.DomainError) as info:
        torus.unit_system("si")
    assert str(info.value) == "unknown unit system 'si'"


def test_zeta_domain():
    with pytest.raises(torus.DomainError):
        torus.derive_parameters(NAT, 0.0)
    with pytest.raises(torus.DomainError):
        torus.derive_parameters(NAT, 1.5)


def test_simpson_against_closed_integrals():
    x = np.linspace(0.0, math.pi / 2, 257)
    assert torus.simpson(np.cos(x), x[1]) == pytest.approx(1.0, abs=1e-10)
    x = np.linspace(0.0, 2.0, 65)
    assert torus.simpson(x ** 3, x[1]) == pytest.approx(4.0)
    rows = torus.simpson(np.array([x ** 3, 2 * x]), x[1])
    assert rows == pytest.approx([4.0, 4.0])
    with pytest.raises(ValueError):
        torus.simpson(np.cos(x[:64]), x[1])


def test_coarse_grid_refines_until_converged():
    m = model(e0=1.0)
    coarse = torus.integrate_mass(m, 64)
    fine = torus.integrate_mass(m, 1024)
    assert coarse == pytest.approx(fine, rel=1e-10)
    assert torus.integrate_charge(m, "half_wave", 64) == pytest.approx(
        1 / 8, rel=1e-10)


def test_quadrature_convergence_guard():
    calls = [0]

    def noisy(x):
        k = calls[0] + np.arange(1, x.size + 1)
        calls[0] += x.size
        return np.sin(k * 1000.0)

    with pytest.raises(torus.QuadratureNotConverged):
        torus._converged_simpson(noisy, 1.0, 64, 1.0)
    with pytest.raises(ValueError):
        torus.integrate_charge(model(e0=1.0), "full_wave", 32)


def test_full_wave_charge_vanishes():
    m = model(e0=1.0)
    scale = m.e0 * m.s_c
    assert abs(torus.integrate_charge(m, "full_wave", 256)) <= 1e-12 * scale
    m2 = model(e0=7.5)
    assert abs(torus.integrate_charge(m2, "full_wave", 128)) <= 1e-12 * 7.5 * m2.s_c


def test_half_wave_charge_conventions():
    m = model(e0=1.0)
    # density-route quadrature: E0 S_c / 2 pi
    assert torus.integrate_charge(m, "half_wave", 256) == pytest.approx(
        1 / 8, rel=1e-10)
    # stated closed form (1/pi) E0 S_c and its geometric rewriting
    assert torus.charge_closed_form(m) == pytest.approx(0.25, rel=1e-15)
    assert torus.charge_geometric(m) == pytest.approx(0.25, rel=1e-15)
    # quadrature carrying the stated 1/pi prefactor doubles the closed form
    ledger = {e.claim: e for e in torus.discrepancy_ledger(m, 256)}
    assert ledger["ring-charge/stated-prefactor-quadrature"].computed == \
        pytest.approx(0.5, rel=1e-10)


def test_mass_quadrature_matches_closed_form():
    m = model(e0=1.0)
    closed = torus.mass_closed_form(m)
    assert closed == pytest.approx(math.pi / 32, rel=1e-15)
    assert torus.integrate_mass(m, 256) == pytest.approx(closed, rel=1e-10)
    assert torus.mass_density_half_wave(m, 256) == pytest.approx(
        closed / 2, rel=1e-10)
    assert torus.integrate_mass(torus.with_e0(m, 0.0), 256) == 0.0


def test_calibration_reproduces_electron_mass():
    m = torus.calibrate_e0(model(), 512)
    assert m.e0 == pytest.approx(math.sqrt(32 / math.pi), rel=1e-11)
    assert torus.integrate_mass(m, 512) == pytest.approx(1.0, rel=5e-12)


def test_require_e0():
    with pytest.raises(ValueError):
        torus.integrate_mass(model(), 128)


def test_coupling_constant():
    assert torus.coupling_constant(1.0) == pytest.approx(2 / math.pi, rel=1e-15)
    assert abs(torus.coupling_constant(1.0) - 0.637) <= 5e-4
    with pytest.raises(torus.DomainError):
        torus.coupling_constant(0.0)
    assert torus.coupling_constant(0.10706378722302708) == pytest.approx(
        1 / 137.036, rel=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.floats(0.01, 0.5))
def test_coupling_is_quadratic(zeta):
    ratio = torus.coupling_constant(2 * zeta) / torus.coupling_constant(zeta)
    assert ratio == pytest.approx(4.0, rel=1e-13)


def test_consistency_chain_closes_for_any_amplitude():
    for zeta in (0.2, 0.55, 1.0):
        for e0 in (0.5, 1.0, 4.7):
            chain = torus.consistency_chain(model(zeta=zeta, e0=e0))
            assert chain.mass_identity_ratio == pytest.approx(1.0, rel=1e-12)
            assert chain.radius_identity_ratio == pytest.approx(1.0, rel=1e-12)
            assert chain.coupling_identity_ratio == pytest.approx(1.0, rel=1e-12)


def test_chain_spot_value():
    chain = torus.consistency_chain(model(e0=1.0))
    assert chain.q == pytest.approx(0.25, rel=1e-15)


def test_radius_ratio_is_fine_structure():
    g = torus.GAUSSIAN_CGS
    chain = torus.consistency_chain(
        torus.calibrate_e0(torus.derive_parameters(g, 1.0), n_points=128))
    assert chain.radius_ratio == pytest.approx(torus.FINE_STRUCTURE, rel=5e-3)


def test_spin_and_moment_exact_in_natural_units():
    m = model()
    sm = torus.spin_and_moment(m, q=0.25)
    assert sm.sigma_p == 1.0          # equals hbar, exactly
    assert sm.sigma_s == 0.5          # equals hbar / 2, exactly
    assert sm.sigma_s == sm.sigma_p / 2
    assert sm.mu_s == 0.0625          # equals q hbar / 4 m, exactly
    assert sm.mu_closed_form == 0.0625


def test_moment_product_route_close_for_any_charge():
    m = model()
    for q in (0.1, 0.7, 2.31, math.sqrt(2)):
        sm = torus.spin_and_moment(m, q=q)
        assert sm.mu_s == pytest.approx(sm.mu_closed_form, rel=1e-12)


def test_zitterbewegung():
    z = torus.zitterbewegung(NAT)
    assert (z.omega_z, z.r_z, z.v) == (2.0, 0.5, 1.0)
    assert z.omega_z * z.r_z == NAT.c
    m = model()
    assert z.omega_z == m.omega_s and z.r_z == m.r_s


def test_discrepancy_ledger_entries():
    entries = torus.discrepancy_ledger(model(e0=1.0), 256)
    by_claim = {e.claim: e for e in entries}
    assert by_claim["ring-charge/half-wave"].ratio == pytest.approx(0.5, rel=1e-9)
    assert by_claim["ring-charge/stated-prefactor-quadrature"].ratio == \
        pytest.approx(2.0, rel=1e-9)
    assert by_claim["ring-mass/density-route"].ratio == pytest.approx(
        0.5, rel=1e-9)
    assert "ring-mass/amplitude-exponent" in by_claim
    with pytest.raises(ValueError):
        torus.discrepancy_ledger(model(), 256)
    # each quadrature ratio is the defect's size on every calibrated ring
    pinned = {"ring-charge/half-wave": 0.5,
              "ring-charge/stated-prefactor-quadrature": 2.0,
              "ring-mass/density-route": 0.5}
    # with the smallest accepted zeta of each unit system: a calibration
    # there leaves every stated value non-zero, so no ratio divides by 0
    smallest = {"natural": 1e-153, "gaussian_cgs": 1e-127}
    for units in (NAT, torus.GAUSSIAN_CGS):
        for zeta in [*torus.zeta_grid(0.01, 1.0, 23), smallest[units.mode]]:
            for n in (64, 256, 1024):
                m = torus.calibrate_e0(torus.derive_parameters(units, zeta), n)
                by_claim = {e.claim: e for e in torus.discrepancy_ledger(m, n)}
                assert all(e.stated != 0 for e in by_claim.values())
                for claim, want in pinned.items():
                    entry = by_claim[claim]
                    assert entry.ratio == entry.computed / entry.stated
                    assert abs(entry.ratio / want - 1) <= 1e-10, (
                        claim, units.mode, zeta, n)
                assert by_claim["ring-mass/amplitude-exponent"].ratio == m.e0


@pytest.mark.parametrize("mode", ["natural", "gaussian_cgs"])
def test_calibration_closed_form_across_grid(mode):
    units = torus.unit_system(mode)
    for zeta in (0.01, 0.05, 0.3, 0.55, 1.0):
        for n in (128, 256, 512, 1024):
            m = torus.calibrate_e0(torus.derive_parameters(units, zeta),
                                   n_points=n)
            mass = torus.integrate_mass(m, n)
            assert abs(mass / units.m_e - 1) <= 5e-12
            assert mass == pytest.approx(torus.mass_closed_form(m), rel=1e-10)


def test_calibration_out_of_range_raises_domain_error():
    # the cross-section area underflows, so no finite amplitude exists
    with pytest.raises(torus.DomainError, match="unit amplitude is 0.0"):
        torus.calibrate_e0(model(zeta=1e-200), 512)


def test_evaluate_matches_the_separate_routes():
    for units in (NAT, torus.GAUSSIAN_CGS):
        ev = torus.evaluate(units, 0.3, 256)
        m = torus.calibrate_e0(torus.derive_parameters(units, 0.3),
                               n_points=256)
        assert ev.model == m
        assert ev.chain.alpha_q == torus.coupling_constant(0.3)
        assert ev.chain.q == torus.charge_geometric(m)
        assert ev.chain.m_s == torus.mass_closed_form(m)
        assert ev.spin == torus.spin_and_moment(m, ev.chain.q)
        assert ev.zitter == torus.zitterbewegung(units)
        assert ev.chain == torus.consistency_chain(m)


def test_zeta_grid():
    assert torus.zeta_grid(0.2, 0.9, 1) == [0.2]
    grid = torus.zeta_grid(0.05, 1.0, 20)
    assert len(grid) == 20
    assert grid[0] == 0.05 and grid[-1] == 1.0
    assert grid == sorted(grid)
    assert torus.zeta_grid(0.1, 0.1, 3) == [0.1, 0.1, 0.1]
    for bad in ((0.5, 0.1, 5), (0.0, 0.5, 5), (0.1, 1.5, 5), (0.1, 0.5, 0)):
        with pytest.raises(torus.DomainError):
            torus.zeta_grid(*bad)


def test_stacked_quadrature_memory_does_not_grow_with_the_rows():
    zetas = np.linspace(0.05, 1.0, 4096)
    tracemalloc.start()
    try:
        ev = torus.evaluate(NAT, zetas, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(ev.chain.mass_identity_ratio - 1) <= 1e-12)
    # one (4096, 2049) block of integrand values alone is 67 MB
    assert peak <= 8 * 2 ** 20, peak


def test_quadrature_calls_do_not_grow_with_the_rows(monkeypatch):
    simpson, calls = torus.simpson, [0]

    def counted(y, h):
        calls[0] += 1
        return simpson(y, h)

    monkeypatch.setattr(torus, "simpson", counted)
    torus.evaluate(NAT, 0.3, 1024)
    single, calls[0] = calls[0], 0
    torus.evaluate(NAT, np.linspace(0.05, 1.0, 4096), 1024)
    assert calls[0] == single, (single, calls[0])


def test_coupling_constant_takes_a_stack():
    grid = np.array([0.05, 0.3, 1.0])
    assert torus.coupling_constant(grid).tolist() == [
        torus.coupling_constant(z) for z in grid.tolist()]
    with pytest.raises(torus.DomainError, match="at zeta=1e-160$"):
        torus.coupling_constant(np.array([0.3, 1e-160, 0.5]))
    with pytest.raises(torus.DomainError, match="got 2.0$"):
        torus.coupling_constant(np.array([0.3, 2.0, 1e-160]))
