import json
import math

import numpy as np
import pytest

from semiphoton import bridge, dirac, dynamics, torus
from semiphoton.bridge import EmField
from semiphoton.cli import main
from semiphoton.report import RunConfig
from semiphoton.suites import suite_dynamics

NAT = torus.NATURAL
MODEL = torus.derive_parameters(NAT, 1.0)


def test_stress_tensor_values():
    st = dynamics.stress_tensor(EmField([1, 0, 0], [0, 0, 0]))
    assert st.tau_00 == 0.5
    np.testing.assert_array_equal(np.diag(st.tau_pq), [-0.5, 0.5, 0.5])
    zero = dynamics.stress_tensor(EmField.zero())
    assert zero.tau_00 == 0.0
    assert np.abs(zero.tau_pq).max() == 0.0


def test_stress_tensor_consistency():
    rng = np.random.default_rng(9)
    for _ in range(100):
        f = EmField(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        st = dynamics.stress_tensor(f)
        np.testing.assert_allclose(st.tau_p0, np.cross(f.e.real, f.h.real),
                                   atol=1e-14)
        assert st.tau_00 == pytest.approx(
            4 * math.pi * bridge.energy_density(f), rel=1e-14)
        assert float(np.trace(st.tau_pq)) == pytest.approx(st.tau_00,
                                                           rel=1e-12, abs=1e-13)
        np.testing.assert_allclose(st.tau_pq, st.tau_pq.T, atol=1e-15)


def test_ring_force_values():
    zero = dynamics.lorentz_force_ring(MODEL, 0.0, "Ex_Hz")
    assert (zero.f2, zero.f0) == (0.0, 0.0)
    f = dynamics.lorentz_force_ring(MODEL, 1.0, "Ex_Hz")
    assert f.f0 == pytest.approx(1 / (2 * math.pi), rel=1e-15)
    assert f.f2 == pytest.approx(1 / (2 * math.pi), rel=1e-15)
    g = dynamics.lorentz_force_ring(MODEL, 1.0, "Ez_Hx")
    assert g.f0 == -f.f0 and g.f2 == -f.f2
    with pytest.raises(ValueError):
        dynamics.lorentz_force_ring(MODEL, -1.0, "Ex_Hz")


@pytest.mark.parametrize("units", ["natural", "gaussian_cgs"])
@pytest.mark.parametrize("zeta", [0.3, 1.0])
def test_rotation_route_gives_the_ring_force(units, zeta):
    """rho |v x curl v| / 2 at r_s, rotating at omega_s, is |f2| within the
    5e-9 gate of dynamics/centripetal-acceleration, and a 1e-6 defect of
    omega_s leaves it, in both unit systems."""
    e_amp, h_amp = np.random.default_rng(3).uniform(0.1, 2.0, size=(2, 16))

    def gap(model):
        accel = dynamics.centripetal_check(
            model.omega_s, model.r_s).acceleration_magnitude
        route = dynamics.field_mass_density(model, e_amp, h_amp) * accel
        return max(np.abs(route / np.abs(dynamics.lorentz_force_ring(
            model, e_amp, pol, h_amp).f2) - 1).max()
                   for pol in ("Ex_Hz", "Ez_Hx"))

    model = torus.derive_parameters(torus.unit_system(units), zeta)
    assert gap(model) <= 5e-9
    assert gap(model._replace(omega_s=model.omega_s * (1 + 1e-6))) > 5e-9


def _point_from_arrays(amps, ws, ks, t, y):
    vals = amps * np.exp(1j * (ws * t - ks * y))

    def emf(v):
        return EmField([v[0], 0, v[1]], [v[2], 0, v[3]])

    return bridge.WavePoint(f=emf(vals), df_dt=emf(1j * ws * vals),
                              df_du=emf(-1j * ks * vals))


def test_linear_forms_agree_off_shell():
    rng = np.random.default_rng(12)
    for _ in range(100):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        point = _point_from_arrays(amps, rng.normal(size=4),
                                   rng.normal(size=4), 0.4, -0.9)
        forms = dynamics.lagrangian_linear(point)
        scale = max(abs(forms.em), 1.0)
        assert abs(forms.spinor - forms.em) <= 1e-12 * scale


def test_linear_forms_vanish_on_shell():
    wave = bridge.onshell_plane_wave([dirac.triad("y", "negative")],
                                     ["plus"], 0.8)
    for (t, y) in ((0.0, 0.0), (1.3, -0.7)):
        point = bridge.WavePoint._make(f[0] for f in wave.at(t, y))
        forms = dynamics.lagrangian_linear(point)
        assert abs(forms.spinor) <= 1e-12
        assert abs(forms.em) <= 1e-12
    zero = bridge.WavePoint(EmField.zero(), EmField.zero(), EmField.zero())
    assert dynamics.lagrangian_linear(zero).em == 0


def _conjugate_family_point(t, y, k=0.8, w0=1.0):
    omega = math.sqrt(w0 ** 2 + k ** 2)
    amp_h = -(omega + w0) / k

    def build(scale):
        ph = scale * np.exp(1j * (omega * t - k * y))
        return EmField([ph, 0, 0], [0, 0, amp_h * ph])

    return bridge.WavePoint(build(1.0), build(1j * omega), build(-1j * k))


def test_invariant_replacement_on_rolling_wave():
    for (t, y) in ((0.0, 0.0), (0.9, 0.3), (2.2, -1.4)):
        point = _conjugate_family_point(t, y)
        lhs, rhs = dynamics.maxwell_invariant_forms(point)
        assert abs(lhs - rhs) <= 1e-12
    static = bridge.WavePoint(EmField([1, 0, 0], [0, 0, 0]),
                                EmField.zero(), EmField.zero())
    lhs, rhs = dynamics.maxwell_invariant_forms(static)
    assert lhs == pytest.approx(1 / (8 * math.pi))
    assert rhs == 0
    null = bridge.WavePoint(EmField([1, 0, 0], [0, 0, 1]),
                              EmField.zero(), EmField.zero())
    assert dynamics.maxwell_invariant_forms(null)[0] == 0


def test_quartic_routes_agree():
    rng = np.random.default_rng(21)
    for _ in range(100):
        e = np.array([rng.uniform(-2, 2), 0, rng.uniform(-2, 2)])
        h = np.array([rng.uniform(-2, 2), 0, rng.uniform(-2, 2)])
        point = bridge.WavePoint(EmField(e, h), EmField.zero(),
                                   EmField.zero())
        nl = dynamics.lagrangian_nonlinear(point, MODEL)
        scale = max(abs(nl.quartic_em), 1e-30)
        assert abs(nl.quartic_em - nl.quartic_invariant) <= 1e-12 * scale
        assert abs(nl.quartic_em - nl.quartic_bilinear) <= 1e-12 * scale
        assert abs(nl.quartic_em - nl.quartic_bilinear_fierz) <= 1e-12 * scale


def test_self_field_and_currents():
    # own-field energy U delta_tau and momentum g delta_tau, with g the
    # Poynting vector at c = 1, give the quartic (delta_tau / m c^2)(U^2 - g^2)
    f = EmField([1, 0, 0], [0, 0, 0.5])
    still = bridge.WavePoint(f, EmField.zero(), EmField.zero())
    u, g = bridge.energy_density(f), bridge.poynting(f)
    nl = dynamics.lagrangian_nonlinear(still, MODEL)
    assert nl.quartic_em == pytest.approx(
        MODEL.delta_tau * (u * u - g @ g), rel=1e-15)
    # with omega_e = 2 m c^2 = 2, a static point leaves only the term
    # -i (omega_e / 8 pi)(E^2 - H^2) of the field route; the spinor route agrees
    for e, h, expected in (([1, 0, 0], [0, 0, 0], -1j / (4 * math.pi)),
                           ([0, 0, 0], [0, 0, 1], 1j / (4 * math.pi))):
        point = bridge.WavePoint(EmField(e, h), EmField.zero(),
                                   EmField.zero())
        forms = dynamics.lagrangian_linear(point)
        assert forms.em == pytest.approx(expected, abs=1e-16)
        assert forms.spinor == pytest.approx(expected, abs=1e-16)


def test_photon_photon_comparison():
    gm = torus.derive_parameters(torus.GAUSSIAN_CGS, 1.0)
    comp = dynamics.photon_photon_comparison(gm)
    assert comp["eh_squared_coefficient_self"] == 4.0
    assert comp["eh_squared_coefficient_perturbative"] == 7.0
    u = torus.GAUSSIAN_CGS
    expected_b = (2 / 45) * u.e ** 4 * u.hbar / (u.m_e ** 4 * u.c ** 7)
    assert comp["quartic_scale_perturbative"] == pytest.approx(expected_b,
                                                               rel=1e-15)


def test_self_action_constant():
    assert dynamics.self_action_constant(MODEL) == pytest.approx(
        math.pi / 32, rel=1e-15)
    small = torus.derive_parameters(NAT, 0.01)
    assert dynamics.self_action_constant(small) == pytest.approx(
        (0.01 ** 2 / (2 * torus.coupling_constant(0.01))) * 0.125, rel=1e-12)
    doubled = MODEL._replace(r_s=2 * MODEL.r_s)
    assert dynamics.self_action_constant(doubled) == pytest.approx(
        8 * dynamics.self_action_constant(MODEL), rel=1e-15)


def test_centripetal_check():
    rep = dynamics.centripetal_check(2.0, 0.5)
    np.testing.assert_allclose(rep.curl, [0, 0, 4.0], atol=1e-8)
    assert rep.acceleration_magnitude == pytest.approx(2.0, abs=1e-8)
    still = dynamics.centripetal_check(0.0, 0.5)
    assert np.abs(still.curl).max() == 0.0
    assert still.acceleration_magnitude == 0.0
    for omega, r in ((0.7, 1.3), (3.1, 0.2)):
        rep = dynamics.centripetal_check(omega, r)
        assert rep.acceleration_magnitude * r / (omega * r) ** 2 == \
            pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        dynamics.centripetal_check(1.0, 0.0)


def test_matter_motion_balanced_rotation():
    rho, omega = 1.3, 0.9

    def g_field(p):
        return rho * np.stack([-omega * p[..., 1], omega * p[..., 0],
                               np.zeros(len(p))], axis=-1)

    def u_field(p):
        return rho * omega ** 2 * (p[..., 0] ** 2 + p[..., 1] ** 2)

    def v_field(p):
        return np.stack([-omega * p[..., 1], omega * p[..., 0],
                         np.zeros(len(p))], axis=-1)

    pts = [(0.5, 0.0, 0.0), (0.2, 0.4, 0.1)]
    res = dynamics.matter_motion_residual(g_field, u_field, v_field, pts)
    assert res.shape == (2, 3)
    assert np.abs(res).max() <= 1e-7

    def zero3(p):
        return np.zeros(np.shape(p))

    res0 = dynamics.matter_motion_residual(
        zero3, lambda p: np.zeros(len(p)), zero3, pts)
    assert np.abs(res0).max() == 0.0


def _quartic_routes(seed):
    checks, _ = suite_dynamics(RunConfig(seed=seed, samples=200))
    return next(c for c in checks if c.id == "dynamics/quartic-routes")


def test_quartic_routes_scale_is_the_cancelling_terms():
    # near-null fields make |quartic| tiny while the cancelling terms are
    # of size pref (E^2+H^2)^2; this seed failed against |quartic|
    assert _quartic_routes(1006851808).verdict == "pass"


def test_quartic_routes_catches_a_planted_error(monkeypatch):
    exact = dynamics.lagrangian_nonlinear

    def planted(*args, **kwargs):
        nl = exact(*args, **kwargs)
        return nl._replace(quartic_bilinear=nl.quartic_bilinear * (1 + 1e-10))

    monkeypatch.setattr(dynamics, "lagrangian_nonlinear", planted)
    assert _quartic_routes(1006851808).verdict == "fail"


@pytest.mark.parametrize("zeta", ["1", "1e-30", "1e-100", "1e-150"])
@pytest.mark.parametrize("planted", [False, True])
def test_quartic_routes_stay_relative_at_tiny_zeta(zeta, planted, monkeypatch,
                                                   capsys):
    # the quartics scale with zeta^2; a floor on the whole scale turned the
    # check absolute, and a doubled route passed below zeta of about 1e-25
    exact = dynamics.lagrangian_nonlinear

    def doubled(*args, **kwargs):
        nl = exact(*args, **kwargs)
        return nl._replace(quartic_em=2 * nl.quartic_em)

    if planted:
        monkeypatch.setattr(dynamics, "lagrangian_nonlinear", doubled)
    code = main(["verify", "--suite", "dynamics", "--samples", "50",
                 "--zeta", zeta])
    doc = json.loads(capsys.readouterr().out)
    verdict = next(c["verdict"] for c in doc["checks"]
                   if c["id"] == "dynamics/quartic-routes")
    assert (code, verdict) == ((1, "fail") if planted else (0, "pass"))
