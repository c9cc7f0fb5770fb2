"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""
import contextlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

from semiphoton import bridge, dirac, dynamics, planewave, torus
from semiphoton.bridge import EmField
from semiphoton.report import RunConfig
from semiphoton.suites import run_suites

CANON = dirac.canonical_alpha_set()
NAT = torus.NATURAL
# the tabulated matrix assignment: the axis of each vector matrix's flux
# bilinear, per triad axis; the one on the triad's own axis is the working one
MATRIX_AXES = {"y": {"a1": "x", "a2": "y", "a3": "z"},
               "x": {"a2": "x", "a3": "y", "a1": "z"},
               "z": {"a3": "x", "a1": "y", "a2": "z"}}


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def test_criterion_1_anticommutation_exact():
    with criterion(1, "anticommutation holds exactly for the canonical set"):
        assert dirac.anticommutation_deviation(CANON) == 0.0
        assert dirac.a5_anticommutation_deviation(CANON) == 0.0


def test_criterion_2_sixteen_classes():
    with criterion(2, "product closure has exactly 16 phase classes"):
        assert len(dirac.generate_group(CANON)) == 16


def test_criterion_3_bilinear_dictionary():
    with criterion(3, "bilinear dictionary over 1000 fields, all six triads"):
        rng = np.random.default_rng(3)
        for t in dirac.axis_triads():
            layout = bridge.layout_for_triad(t)
            worst = 0.0
            for _ in range(1000):
                e = np.zeros(3)
                h = np.zeros(3)
                for ax in layout.triad.e_axes:
                    e[bridge.AXIS_INDEX[ax]] = rng.uniform(-2, 2)
                for ax in layout.triad.e_axes:
                    h[bridge.AXIS_INDEX[ax]] = rng.uniform(-2, 2)
                f = EmField(e, h)
                psi = bridge.bispinor_from_fields(f, layout)
                e2, h2 = bridge.e_squared(f), bridge.h_squared(f)
                exh = np.cross(e, h)
                scale = max(e2 + h2, 1e-30)
                b = bridge.bilinears(psi, CANON)
                worst = max(worst,
                            abs(b[0] - (e2 + h2)) / scale,
                            abs(b[4] - (e2 - h2)) / scale,
                            abs(b[5] - 2 * bridge.eh_dot(f)) / scale)
                for name, bv in zip(("a1", "a2", "a3"), b[1:4]):
                    axis = MATRIX_AXES[t.axis][name]
                    want = (t.sign * 2 * exh[bridge.AXIS_INDEX[axis]]
                            if axis == t.axis else 0.0)
                    worst = max(worst, abs(bv - want) / scale)
            assert worst <= 1e-12, (t.name, worst)


def test_criterion_4_fierz():
    with criterion(4, "both quartic identities over 1000 samples, linked "
                      "through the slot map"):
        rng = np.random.default_rng(4)
        layout = bridge.electron_layout()
        for _ in range(1000):
            f = EmField(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
            lhs, rhs = bridge.fierz_em(f)
            scale = max((bridge.e_squared(f) + bridge.h_squared(f)) ** 2, 1e-30)
            assert abs(lhs - rhs) / scale <= 1e-12
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            qlhs, qrhs = bridge.fierz_quantum(psi)
            qscale = max(float(np.abs(psi.conj() @ psi).real) ** 2, 1e-30)
            assert abs(qlhs - qrhs) / qscale <= 1e-12
        for _ in range(200):
            e = np.zeros(3)
            h = np.zeros(3)
            for ax in layout.triad.e_axes:
                e[bridge.AXIS_INDEX[ax]] = rng.uniform(-2, 2)
                h[bridge.AXIS_INDEX[ax]] = rng.uniform(-2, 2)
            f = EmField(e, h)
            psi = bridge.bispinor_from_fields(f, layout)
            em = bridge.fierz_em(f)
            qm = bridge.fierz_quantum(psi)
            scale = max((bridge.e_squared(f) + bridge.h_squared(f)) ** 2, 1e-30)
            assert abs(em[0] - qm[0]) / scale <= 1e-12
            assert abs(em[1] - qm[1]) / scale <= 1e-12


def test_criterion_5_torus_numbers():
    with criterion(5, "ring-model numbers, quadratures, chain closure and "
                      "ledgered coefficients"):
        assert abs(torus.coupling_constant(1.0) - 0.637) <= 5e-4

        model = torus.derive_parameters(NAT, 1.0)
        sm = torus.spin_and_moment(model, q=0.25)
        assert sm.sigma_p == NAT.hbar
        assert sm.sigma_s == NAT.hbar / 2
        assert sm.mu_s == 0.5 * 0.25 * NAT.hbar / (2 * NAT.m_e)

        cal = torus.calibrate_e0(model, 512)
        smc = torus.spin_and_moment(cal, torus.charge_geometric(cal))
        assert abs(smc.mu_s - smc.mu_closed_form) <= 1e-12 * smc.mu_closed_form

        m1 = torus.with_e0(model, 1.0)
        assert abs(torus.integrate_charge(m1, "full_wave", 256)) <= \
            1e-12 * m1.e0 * m1.s_c
        closed = torus.mass_closed_form(m1)
        assert abs(torus.integrate_mass(m1, 256) - closed) <= 1e-10 * closed

        for z in np.linspace(0.05, 1.0, 20):
            chain = torus.consistency_chain(
                torus.calibrate_e0(torus.derive_parameters(NAT, float(z)),
                                   n_points=128))
            assert abs(chain.mass_identity_ratio - 1) <= 1e-12
            assert abs(chain.radius_identity_ratio - 1) <= 1e-12
            assert abs(chain.coupling_identity_ratio - 1) <= 1e-12

        entries = {e.claim: e for e in torus.discrepancy_ledger(m1, 256)}
        charge = entries["ring-charge/half-wave"]
        assert abs(charge.ratio - 0.5) <= 1e-9  # recorded, not corrected
        assert charge.stated != charge.computed
        assert "ring-mass/amplitude-exponent" in entries


def test_criterion_6_plane_waves():
    with criterion(6, "plane-wave residuals, determinant, sparsity and the "
                      "special amplitude table"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p = rng.uniform(-10, 10, size=3)
            for branch in ("positive", "negative"):
                states = planewave.make_states(branch, p)
                for state in states:
                    assert planewave.residual(state) <= 1e-12
                det = np.linalg.det(
                    planewave.build_system(states[0].energy, p))
                assert abs(det) <= 1e-10

        p = np.array([0.0, 1.3, 0.0])
        s1, s2 = planewave.make_states("positive", p)
        n1, n2 = planewave.make_states("negative", p)
        assert planewave.field_interpretation(s1).sparsity == \
            (False, True, True, False)
        assert planewave.field_interpretation(s2).sparsity == \
            (True, False, False, True)
        assert planewave.field_interpretation(n1).sparsity == \
            (True, False, False, True)
        assert planewave.field_interpretation(n2).sparsity == \
            (False, True, True, False)

        special = planewave.special_amplitude_values()
        lit = special["literal"]
        np.testing.assert_allclose(lit["positive"][0], [0, 0.5, 1j, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(lit["positive"][1], [-0.5, 0, 0, 1j],
                                   atol=1e-12)
        np.testing.assert_allclose(lit["negative"][0], [1j, 0, 0, -0.5],
                                   atol=1e-12)
        np.testing.assert_allclose(lit["negative"][1], [0, 1j, 0.5, 0],
                                   atol=1e-12)
        assert special["ledger"].ratio == math.sqrt(2)  # off shell, recorded


def test_criterion_7_expansion_agreement():
    with criterion(7, "matrix and component residuals agree pointwise for "
                      "all axes, orientations and sign forms"):
        t_grid = np.linspace(0.0, 2.0, 4)
        u_grid = np.linspace(-1.0, 1.0, 5)
        cases = [(t, form) for t in dirac.axis_triads()
                 for form in ("plus", "minus")]
        triads, forms = zip(*cases)
        wave = bridge.onshell_plane_wave(triads, forms, k=0.8, e2_amp=0.7)
        rep = bridge.dirac_residual_em(wave, t_grid, u_grid)
        for i, (t, form) in enumerate(cases):
            assert rep.cross_deviation[i] <= 1e-12 * wave.omega, (t.name, form)
            assert rep.max_scalar[i] <= 1e-12 * wave.omega, (t.name, form)
        assert len(cases) == len(rep.max_scalar) == 12


def test_criterion_8_lagrangians():
    with criterion(8, "linear Lagrangian routes agree and vanish on shell; "
                      "quartic parts agree; coefficient pair reported"):
        rng = np.random.default_rng(8)
        layout = bridge.electron_layout()
        model = torus.derive_parameters(NAT, 1.0)

        for _ in range(200):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            ws, ks = rng.normal(size=4), rng.normal(size=4)
            vals = amps * np.exp(1j * (ws * 0.4 - ks * 1.2))

            def emf(v):
                return EmField([v[0], 0, v[1]], [v[2], 0, v[3]])

            point = bridge.WavePoint(emf(vals), emf(1j * ws * vals),
                                       emf(-1j * ks * vals))
            forms = dynamics.lagrangian_linear(point)
            scale = max(abs(forms.em), 1.0)
            assert abs(forms.spinor - forms.em) <= 1e-12 * scale

        wave = bridge.onshell_plane_wave(
            [dirac.triad("y", "negative")], ["plus"], 0.8)
        point = bridge.WavePoint._make(f[0] for f in wave.at(0.6, -0.4))
        forms = dynamics.lagrangian_linear(point)
        assert max(abs(forms.spinor), abs(forms.em)) <= 1e-12

        for _ in range(200):
            e = np.zeros(3)
            h = np.zeros(3)
            for ax in layout.triad.e_axes:
                e[bridge.AXIS_INDEX[ax]] = rng.uniform(-2, 2)
                h[bridge.AXIS_INDEX[ax]] = rng.uniform(-2, 2)
            point = bridge.WavePoint(EmField(e, h), EmField.zero(),
                                       EmField.zero())
            nl = dynamics.lagrangian_nonlinear(point, model)
            scale = max(abs(nl.quartic_em), 1e-30)
            assert abs(nl.quartic_em - nl.quartic_invariant) <= 1e-12 * scale
            assert abs(nl.quartic_em - nl.quartic_bilinear) <= 1e-12 * scale

        comp = dynamics.photon_photon_comparison(
            torus.derive_parameters(torus.GAUSSIAN_CGS, 1.0))
        assert (comp["eh_squared_coefficient_self"],
                comp["eh_squared_coefficient_perturbative"]) == (4.0, 7.0)
        assert comp["quartic_scale_perturbative"] > 0


def test_criterion_9_canonical_transformation():
    with criterion(9, "unitary mixing matrix; similarity mode wins; "
                      "bilinears invariant"):
        s = dirac.s_matrix()
        assert float(np.abs(s.conj().T @ s - np.eye(4)).max()) <= 1e-15

        match = dirac.transform_mode_match(s, CANON, dirac.alpha_prime_set())
        sim = match["similarity"]
        assert max(v for k, v in sim.items() if k != "a2") <= 1e-15
        assert abs(sim["a2"] - 2.0) <= 1e-14  # the ledgered tabulation defect
        assert min(match["two_sided"].values()) > 0.4

        rng = np.random.default_rng(9)
        primed = dirac.canonical_transform(s, CANON, "similarity")
        for _ in range(200):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi_p = s.conj().T @ psi
            b0 = bridge.bilinears(psi, CANON)
            b1 = bridge.bilinears(psi_p, primed)
            assert np.all(np.abs(b0 - b1)
                          <= 1e-12 * np.maximum(1.0, np.abs(b0)))


def test_criterion_10_determinism_and_runtime():
    with criterion(10, "byte-identical reports and the full run under 10 s"):
        cmd = [sys.executable, "-m", "semiphoton", "verify", "--suite", "all",
               "--samples", "1000", "--seed", "7"]
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        start = time.monotonic()
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        elapsed = time.monotonic() - start
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.returncode == 0
        assert elapsed < 10.0
        doc = json.loads(first.stdout)
        assert not any(c["verdict"] == "fail" for c in doc["checks"])


def test_in_process_suites_match_exit_contract():
    for units in ("natural", "gaussian_cgs"):
        cfg = RunConfig(units=units, samples=100, seed=5)
        checks, ledger = run_suites(cfg, ["algebra", "bilinear", "fierz",
                                          "torus", "planewave", "dynamics"])
        assert not any(c.verdict == "fail" for c in checks)
        for c in checks:
            ok = c.abs_err <= c.tol_abs or c.rel_err <= c.tol_rel
            assert c.verdict == ("pass" if ok else "fail"), c.id
        assert len(ledger) >= 6
