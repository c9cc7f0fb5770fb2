"""Named verification suites.

Each suite runs deterministically under (seed, suite name) and returns
CheckReports plus discrepancy-ledger entries.  Randomized identities draw an
independent stream per suite, so suite order never affects values.  Each
sampled identity draws all its samples in one call and checks them as one
stack; the draws equal those of one sample at a time, in the same order.

A loop whose trip count and array sizes do not depend on ``--samples`` (the
12 round-trip layouts, the 12 expansion cases, the 16 ring-force amplitude
pairs, ...)
is one stacked call.  A loop over sample-sized stacks (the six dictionary
triads, the two planewave branches) stays one item at a time, so memory
grows with n, not with n times the trip count.
"""
from __future__ import annotations

import math

import numpy as np

from . import bridge, dirac, dynamics, planewave, torus
from .bridge import EmField
from .linalg import adjoint, cross, inner, mat_mul, mat_vec
from .report import CheckReport, Discrepancy, RunConfig, rng_for_suite

A5_LITERAL = np.array([[0, 0, -1j, 0],
                       [0, 0, 0, -1j],
                       [1j, 0, 0, 0],
                       [0, 1j, 0, 0]])


def _random_unitaries(rng, n):
    """n Haar-random unitaries, shape (n, 4, 4): real parts, then imaginary."""
    x = rng.normal(size=(n, 2, 4, 4))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _random_layout_field(rng, layouts, n):
    """n random real fields per layout, shape (C, n, 3), each with support
    only on its layout's slots; the draws equal those of one layout at a time."""
    return bridge.slot_fields(rng.uniform(-2.0, 2.0, size=(len(layouts), n, 4)),
                              layouts)


def _random_spinors(rng, n):
    """n complex spinors, shape (n, 4): real parts, then imaginary parts."""
    x = rng.normal(size=(n, 2, 4))
    return x[:, 0] + 1j * x[:, 1]


def suite_algebra(cfg: RunConfig):
    rng = rng_for_suite(cfg.seed, "algebra")
    checks, ledger = [], []
    canon = dirac.canonical_alpha_set()
    prime = dirac.alpha_prime_set()

    checks.append(CheckReport.build(
        "algebra/anticommutation-canonical", "alpha-set anticommutation",
        0.0, dirac.anticommutation_deviation(canon), tol_abs=0.0, tol_rel=0.0,
        notes="{a_mu, a_nu} = 2 delta I over the four generators, exact"))
    checks.append(CheckReport.build(
        "algebra/pseudoscalar-entries", "a5 = a1 a2 a3 a4",
        0.0, np.abs(canon.a5 - A5_LITERAL), tol_abs=0.0, tol_rel=0.0,
        notes="product matrix against its independently tabulated entries"))
    checks.append(CheckReport.build(
        "algebra/pseudoscalar-anticommutation", "a5 anticommutes with a1..a4",
        0.0, dirac.a5_anticommutation_deviation(canon), tol_abs=0.0, tol_rel=0.0))
    checks.append(CheckReport.build(
        "algebra/hermiticity-canonical", "all canonical matrices hermitian",
        0.0, list(dirac.hermiticity_deviations(canon).values()),
        tol_abs=0.0, tol_rel=0.0))
    checks.append(CheckReport.build(
        "algebra/group-order", "closure has 16 phase classes",
        16, len(dirac.generate_group(canon)), tol_abs=0.0, tol_rel=0.0))

    s = dirac.s_matrix()
    checks.append(CheckReport.build(
        "algebra/mixing-unitarity", "mixing matrix unitary",
        0.0, np.abs(mat_mul(adjoint(s), s) - np.eye(4)),
        tol_abs=1e-15))

    match = dirac.transform_mode_match(s, canon, prime)
    sim = match["similarity"]
    clean = [v for k, v in sim.items() if k != "a2"]
    checks.append(CheckReport.build(
        "algebra/transform-mode", "similarity mode maps canonical onto prime",
        0.0, clean, tol_abs=1e-15,
        notes="winning mode: similarity (S^+ a S); two-sided deviation "
              f"{max(match['two_sided'].values()):.3g}; a2 mismatch ledgered"))
    # imaginary part of the (4,3) entry of a2: tabulated, then moved
    tab_a2 = prime.a2[3, 2].imag
    moved_a2 = dirac.canonical_transform(s, canon, "similarity").a2[3, 2].imag
    with np.errstate(divide="ignore"):  # a tabulated 0 gives an inf ratio
        a2_ratio = moved_a2 / tab_a2
    ledger.append(Discrepancy(
        claim="alpha-prime/a2-block", stated=tab_a2, computed=moved_a2,
        ratio=a2_ratio,
        note="the tabulated a2 lower-right block is not hermitian; the "
             "similarity transform of the canonical set fixes its (4,3) entry "
             "imaginary part at -1 where +1 is tabulated"))
    # the a2 block defect has an exact size: the prime set is integer-valued
    checks.append(CheckReport.build(
        "algebra/anticommutation-prime", "prime set anticommutation",
        4.0, dirac.anticommutation_deviation(prime), tol_abs=0.0, tol_rel=0.0,
        notes="fails as tabulated through the defective a2 block"))
    checks.append(CheckReport.build(
        "algebra/hermiticity-prime-a2", "prime a2 hermitian",
        2.0, dirac.hermiticity_deviations(prime)["a2"], tol_abs=0.0,
        tol_rel=0.0, notes="deviation 2 as tabulated"))

    moved = dirac.canonical_transform(_random_unitaries(rng, 8), canon,
                                      "similarity")
    checks.append(CheckReport.build(
        "algebra/similarity-preserves-anticommutation",
        "similarity transforms preserve the algebra", 0.0,
        dirac.anticommutation_deviation(moved), tol_abs=cfg.tol_abs))

    expected_slots = {
        ("negative", "y"): ("x", "z"),
        ("positive", "x"): ("y", "z"),
        ("positive", "z"): ("x", "y"),
    }
    mismatches = 0
    for (orient, axis), pair in expected_slots.items():
        t = dirac.triad(axis, orient)
        if t.e_axes != pair:
            mismatches += 1
    checks.append(CheckReport.build(
        "algebra/triad-layouts", "tabulated slot orders", 0, mismatches,
        tol_abs=0.0, tol_rel=0.0))

    # component mixing: psi' = S^+ psi reproduces the stated combinations
    # except for the sign of the fourth component
    layout = bridge.electron_layout()
    f = _random_layout_field(rng, [layout], 1)[0]
    psi = bridge.bispinor_from_fields(f, layout)[0]
    psi_p = mat_vec(adjoint(s), psi)
    ex, ez = f.e[0, 0], f.e[0, 2]
    hx, hz = f.h[0, 0], f.h[0, 2]
    stated = np.array([ex + 1j * hx, ez + 1j * hz, ez - 1j * hz, ex - 1j * hx])
    stated = stated / math.sqrt(2)
    first_three = np.abs(psi_p[:3] - stated[:3])
    fourth_flipped = float(np.abs(psi_p[3] + stated[3]))
    checks.append(CheckReport.build(
        "algebra/mixing-components", "psi' = S^+ psi component table",
        0.0, first_three, tol_abs=1e-14,
        notes="components 1..3 as stated; component 4 ledgered"))
    ratio = psi_p[3] / stated[3]
    ledger.append(Discrepancy(
        claim="mixing/psi-prime-fourth-component",
        stated=1.0, computed=ratio, ratio=ratio.real,
        note=f"the stated fourth combination has the opposite sign "
             f"(deviation from the negated value {fourth_flipped:.2e}); the "
             f"round trip S psi' = psi holds with the negated component"))
    return checks, ledger


def suite_bilinear(cfg: RunConfig):
    rng = rng_for_suite(cfg.seed, "bilinear")
    checks, ledger = [], []
    canon = dirac.canonical_alpha_set()

    for t in dirac.axis_triads():
        layout = bridge.layout_for_triad(t)
        f = _random_layout_field(rng, [layout], cfg.samples)[0]
        b = bridge.bilinears(bridge.bispinor_from_fields(f, layout), canon)
        e2, h2 = bridge.e_squared(f), bridge.h_squared(f)
        exh = cross(f.e.real, f.h.real)
        # columns a0..a5; of the vector matrices only a2 is non-zero, twice
        # the flux component on the triad's axis
        target = np.zeros(b.shape)
        target[:, 0] = e2 + h2
        target[:, 4] = e2 - h2
        target[:, 5] = 2 * bridge.eh_dot(f)
        target[:, 2] = t.sign * 2 * exh[:, bridge.AXIS_INDEX[t.axis]]
        scale = np.maximum(e2 + h2, 1e-30)
        err = np.abs(b - target) / scale[:, None]
        checks.append(CheckReport.build(
            f"bilinear/dictionary-{t.name}",
            "bilinears equal the field invariants", 0.0, err,
            tol_abs=cfg.tol_rel, tol_rel=cfg.tol_rel,
            notes=f"{cfg.samples} samples; working axis sign {t.sign:+d}"))

    layouts = [bridge.layout_for_triad(t, charge_conjugated=conj)
               for t in dirac.axis_triads() for conj in (False, True)]
    f = _random_layout_field(rng, layouts, 16)
    back = bridge.case_fields(bridge.case_spinors(f, layouts), layouts)
    checks.append(CheckReport.build(
        "bilinear/round-trip", "fields -> spinor -> fields is the identity",
        0.0, (np.abs(back.e - f.e), np.abs(back.h - f.h)),
        tol_abs=0.0, tol_rel=0.0))

    pos = bridge.bispinor_from_fields(
        EmField([1, 0, 0], [0, 0, 1]), bridge.positron_layout())
    checks.append(CheckReport.build(
        "bilinear/charge-conjugate-slots", "conjugate layout spot value",
        0.0, np.abs(pos - np.array([1, 0, 0, -1j])),
        tol_abs=0.0, tol_rel=0.0))

    s = dirac.s_matrix()
    primed = dirac.canonical_transform(s, canon, "similarity")
    psi = _random_spinors(rng, min(cfg.samples, 200))
    b_orig = bridge.bilinears(psi, canon)
    b_new = bridge.bilinears(mat_vec(s.conj().T, psi), primed)
    err = np.abs(b_orig - b_new) / np.maximum(1.0, np.abs(b_orig))
    checks.append(CheckReport.build(
        "bilinear/similarity-invariance",
        "bilinears invariant under the similarity change of set", 0.0, err,
        tol_abs=cfg.tol_rel, tol_rel=cfg.tol_rel))
    return checks, ledger


def suite_fierz(cfg: RunConfig):
    rng = rng_for_suite(cfg.seed, "fierz")
    checks, ledger = [], []

    x = rng.uniform(-2, 2, size=(cfg.samples, 2, 3))
    f = EmField(x[:, 0], x[:, 1])
    lhs, rhs = bridge.fierz_em(f)
    scale = np.maximum((bridge.e_squared(f) + bridge.h_squared(f)) ** 2, 1e-30)
    checks.append(CheckReport.build(
        "fierz/field-form", "(E^2+H^2)^2 - 4(ExH)^2 = (E^2-H^2)^2 + 4(E.H)^2",
        0.0, np.abs(lhs - rhs) / scale, tol_abs=cfg.tol_rel,
        tol_rel=cfg.tol_rel, notes=f"{cfg.samples} samples"))

    psi = _random_spinors(rng, cfg.samples)
    lhs, rhs = bridge.fierz_quantum(psi)
    scale = np.maximum(np.abs(inner(psi, psi).real) ** 2, 1e-30)
    checks.append(CheckReport.build(
        "fierz/bilinear-form", "squared bilinears identity", 0.0,
        np.abs(lhs - rhs) / scale, tol_abs=cfg.tol_rel,
        tol_rel=cfg.tol_rel, notes=f"{cfg.samples} samples"))

    layout = bridge.electron_layout()
    f = _random_layout_field(rng, [layout], cfg.samples)[0]
    psi = bridge.bispinor_from_fields(f, layout)
    em_lhs, em_rhs = bridge.fierz_em(f)
    q_lhs, q_rhs = bridge.fierz_quantum(psi)
    u = bridge.energy_density(f)
    g = bridge.poynting(f)  # momentum density times c^2
    link = (8 * math.pi) ** 2 * (u ** 2 - inner(g, g))
    scale = np.maximum((bridge.e_squared(f) + bridge.h_squared(f)) ** 2, 1e-30)
    err = (np.abs(q_lhs - em_lhs) / scale,
           np.abs(q_rhs - em_rhs) / scale, np.abs(link - em_lhs) / scale)
    checks.append(CheckReport.build(
        "fierz/layout-agreement",
        "bilinear and field forms agree through the slot map", 0.0, err,
        tol_abs=cfg.tol_rel, tol_rel=cfg.tol_rel,
        notes="includes the energy-momentum link (8pi)^2 (U^2 - c^2 g^2)"))
    return checks, ledger


def suite_torus(cfg: RunConfig):
    checks, ledger = [], []
    units = torus.unit_system(cfg.units)
    natural = units.mode == "natural"
    npts = cfg.quadrature_points
    ev = torus.evaluate(units, cfg.zeta, npts)
    model = ev.model
    exact = dict(tol_abs=0.0, tol_rel=0.0) if natural else dict(tol_abs=0.0, tol_rel=1e-15)

    checks.append(CheckReport.build(
        "torus/frequency-radius", "omega_s r_s = c", units.c,
        model.omega_s * model.r_s, **exact))
    checks.append(CheckReport.build(
        "torus/volume", "delta_tau = 2 pi^2 zeta^2 r_s^3",
        model.s_c * 2 * math.pi * model.r_s, model.delta_tau,
        tol_abs=0.0, tol_rel=1e-15,
        notes="cross-section area times ring circumference"))

    checks.append(CheckReport.build(
        "torus/coupling-constant", "alpha_q(1) near 0.637",
        0.637, torus.coupling_constant(1.0), tol_abs=5e-4,
        notes="2/pi = 0.6366197723675814"))
    grid = np.array(torus.zeta_grid(0.05, 0.5, 10))
    alpha = torus.coupling_constant(np.concatenate([grid, 2 * grid]))
    err = np.abs(alpha[grid.size:] / alpha[:grid.size] - 4.0)
    checks.append(CheckReport.build(
        "torus/coupling-quadratic", "alpha_q(2 zeta) / alpha_q(zeta) = 4",
        0.0, err, tol_abs=1e-14))

    scale = model.e0 * model.s_c
    checks.append(CheckReport.build(
        "torus/full-wave-charge", "full-wave charge vanishes", 0.0,
        abs(torus.integrate_charge(model, "full_wave", npts)) / scale,
        tol_abs=1e-12, notes="relative to E0 S_c"))

    checks.append(CheckReport.build(
        "torus/charge-geometric", "zeta^2 E0 r_s^2 equals (1/pi) E0 S_c",
        torus.charge_closed_form(model), ev.chain.q, tol_abs=0.0, tol_rel=1e-15))

    mass_q = torus.integrate_mass(model, npts)
    checks.append(CheckReport.build(
        "torus/mass-quadrature", "mass quadrature vs closed form",
        ev.chain.m_s, mass_q, tol_abs=0.0, tol_rel=1e-10))
    checks.append(CheckReport.build(
        "torus/calibration", "calibrated amplitude reproduces m_e",
        units.m_e, mass_q, tol_abs=0.0, tol_rel=5e-12))

    chain = torus.evaluate(units, torus.zeta_grid(0.05, 1.0, 20), 128).chain
    checks.append(CheckReport.build(
        "torus/chain-closure", "charge -> mass -> radius -> coupling chain",
        0.0, (np.abs(chain.mass_identity_ratio - 1),
              np.abs(chain.radius_identity_ratio - 1),
              np.abs(chain.coupling_identity_ratio - 1)),
        tol_abs=cfg.tol_abs,
        notes="20-point zeta sweep; mass, radius and coupling identities"))

    # r_o / r_s does not depend on zeta (bit for bit at 0.3 and 1), and the
    # cgs field mass underflows at zeta far above where the natural one does,
    # so the cgs ring is taken at zeta = 1 whatever --zeta says
    chain_g = torus.evaluate(torus.GAUSSIAN_CGS, 1.0, 128).chain
    checks.append(CheckReport.build(
        "torus/radius-ratio", "classical over ring radius is e^2/hbar c",
        torus.FINE_STRUCTURE, chain_g.radius_ratio, tol_abs=0.0, tol_rel=5e-3))

    sm = ev.spin
    checks.append(CheckReport.build(
        "torus/spin-full", "sigma_p = hbar", units.hbar, sm.sigma_p, **exact))
    checks.append(CheckReport.build(
        "torus/spin-half", "sigma_s = hbar / 2", units.hbar / 2, sm.sigma_s,
        **exact))
    checks.append(CheckReport.build(
        "torus/magnetic-moment", "I S_I = q hbar / (4 m)", sm.mu_closed_form,
        sm.mu_s, tol_abs=0.0, tol_rel=cfg.tol_rel,
        notes="loop current times loop area vs the closed form"))

    z = ev.zitter
    checks.append(CheckReport.build(
        "torus/zitter-frequency", "omega_z = omega_s", model.omega_s,
        z.omega_z, **exact))
    checks.append(CheckReport.build(
        "torus/zitter-radius", "r_z = r_s", model.r_s, z.r_z, **exact))
    checks.append(CheckReport.build(
        "torus/zitter-speed", "omega_z r_z = c", units.c, z.omega_z * z.r_z,
        **exact))

    ledger.extend(torus.discrepancy_ledger(model, npts))
    return checks, ledger


def suite_planewave(cfg: RunConfig):
    rng = rng_for_suite(cfg.seed, "planewave")
    checks, ledger = [], []

    p = rng.uniform(-10.0, 10.0, size=(cfg.samples, 3))
    res, orth, det = [], [], []
    for branch in ("positive", "negative"):
        s1, s2 = planewave.make_states(branch, p)
        res += [planewave.residual(s1), planewave.residual(s2)]
        n1 = np.abs(s1.amplitudes).max(axis=-1)
        n2 = np.abs(s2.amplitudes).max(axis=-1)
        orth.append(np.abs(inner(s1.amplitudes, s2.amplitudes)) / (n1 * n2))
        m = planewave.build_system(s1.energy, s1.momentum)
        det.append(np.abs(np.linalg.det(m)))
    checks.append(CheckReport.build(
        "planewave/residual", "closed-form amplitudes solve the system",
        0.0, res, tol_abs=1e-12,
        notes=f"{cfg.samples} momenta, both branches, |p| <= 10 m c"))
    checks.append(CheckReport.build(
        "planewave/orthogonality", "the two amplitude vectors per branch",
        0.0, orth, tol_abs=cfg.tol_rel))
    checks.append(CheckReport.build(
        "planewave/determinant-on-shell", "determinant vanishes on shell",
        0.0, det, tol_abs=1e-10))

    p0 = np.zeros(3)
    det_off = abs(np.linalg.det(planewave.build_system(1.5, p0)))
    checks.append(CheckReport.build(
        "planewave/determinant-off-shell", "detuned energy gives det != 0",
        (1.5 ** 2 - 1.0) ** 2, det_off, tol_abs=1e-10,
        notes="(eps^2 - m^2 c^4 - c^2 p^2)^2 at eps = 1.5 m c^2"))

    # each row is one momentum in [-3, 3]^3 followed by its energy in [-4, 4]
    x = rng.uniform([-3, -3, -3, -4], [3, 3, 3, 4], size=(64, 4))
    p, eps = x[:, :3], x[:, 3]
    det = np.linalg.det(planewave.build_system(eps, p))
    formula = (eps ** 2 - 1.0 - inner(p, p)) ** 2
    err = np.abs(det - formula) / np.maximum(1.0, np.abs(formula))
    checks.append(CheckReport.build(
        "planewave/determinant-formula",
        "det = (eps^2 - m^2 c^4 - c^2 p^2)^2", 0.0, err, tol_abs=1e-12))

    p = np.array([0.0, 1.3, 0.0])
    s1, s2 = planewave.make_states("positive", p)
    n1, n2 = planewave.make_states("negative", p)
    errors = []
    for closed in ((s1, s2), (n1, n2)):
        basis = planewave.nullspace(
            planewave.build_system(closed[0].energy, closed[0].momentum))
        errors.append(abs(len(basis) - 2))
        for v in basis:
            # compare up to the overall scale left free by the elimination
            fits = [math.inf]
            for r in (state.amplitudes for state in closed):
                j = int(np.argmax(np.abs(r)))
                if abs(v[j]) != 0:
                    fits.append(np.abs(v * (r[j] / v[j]) - r).max())
            errors.append(np.min(fits))
    checks.append(CheckReport.build(
        "planewave/nullspace", "rank-2 nullspace spans the closed forms",
        0.0, errors, tol_abs=cfg.tol_rel))

    odd, even = (False, True, True, False), (True, False, False, True)
    stack = planewave.PlaneWaveState(*map(np.stack, zip(s1, s2, n1, n2)))
    sparsity = planewave.field_interpretation(stack).sparsity
    names = ("positive-1", "positive-2", "negative-1", "negative-2")
    checks.append(CheckReport.build(
        "planewave/sparsity", "amplitude sparsity patterns", 0,
        sum(got != want for got, want in zip(sparsity, (odd, even, even, odd))),
        tol_abs=0.0, tol_rel=0.0, notes="count of mismatched patterns; "
        + ", ".join(f"{name} {got}" for name, got in zip(names, sparsity))))

    special = planewave.special_amplitude_values()
    tables = {
        ("positive", 0): np.array([0, 0.5, 1j, 0]),
        ("positive", 1): np.array([-0.5, 0, 0, 1j]),
        ("negative", 0): np.array([1j, 0, 0, -0.5]),
        ("negative", 1): np.array([0, 1j, 0.5, 0]),
    }
    err = [np.abs(special["literal"][branch][idx] - want)
           for (branch, idx), want in tables.items()]
    checks.append(CheckReport.build(
        "planewave/special-values", "stated amplitude table reproduced",
        0.0, err, tol_abs=1e-12,
        notes="literal substitution energy = m c^2 at momentum m c; "
              "off-shell inconsistency ledgered"))
    ledger.append(special["ledger"])

    lit_state = planewave.PlaneWaveState(
        energy=1.0, momentum=np.array([0.0, 1.0, 0.0]),
        amplitudes=special["literal"]["positive"][0])
    interp = planewave.field_interpretation(lit_state)
    ledger.append(Discrepancy(
        claim="planewave/amplitude-ratio",
        stated=0.5, computed=interp.h_amplitude / interp.e_amplitude,
        ratio=interp.h_amplitude / interp.e_amplitude / 0.5,
        note="the claim reads the magnetic amplitude as half the electric "
             "one; through the slot map the magnetic amplitude is twice "
             "the electric one at the stated substitution"))

    # two generic momenta: states at +-p on one axis share no slot, and
    # their cross terms, the only ones that vary, would vanish
    pairs = [planewave.PlaneWaveState(*map(np.stack, zip(
        planewave.make_states(branch, (0.3, 1.2, -0.4))[0],
        planewave.make_states(branch, (-1.1, 0.5, 0.8))[1])))
        for branch in ("positive", "negative")]
    checks.append(CheckReport.build(
        "planewave/continuity", "dP/dt + div flux vanishes", 0.0,
        [planewave.continuity_check(pair) for pair in pairs],
        tol_abs=1e-12, notes="first state at p = (0.3, 1.2, -0.4) plus "
        "second at (-1.1, 0.5, 0.8), per branch"))

    # first-order system expansion: matrix and component routes agree
    k = 0.8
    cases = [(t, form) for t in dirac.axis_triads()
             for form in ("plus", "minus")]
    triads, forms = zip(*cases)
    wave = bridge.onshell_plane_wave(triads, forms, k, e2_amp=0.7)
    rep = bridge.dirac_residual_em(
        wave, t_grid=np.linspace(0, 2.0, 4), u_grid=np.linspace(-1.0, 1.0, 5))
    scale = max(wave.omega, 1.0)
    worst = np.maximum(rep.cross_deviation, rep.max_scalar)  # NaN propagates
    for i, (t, form) in enumerate(cases):
        checks.append(CheckReport.build(
            f"planewave/expansion-{t.name}-{form}",
            "scalar rows equal the matrix residual and vanish on shell",
            0.0, float(worst[i]),
            tol_abs=1e-12 * scale, notes=f"omega={wave.omega:.6f}, k={k}"))

    y_neg = [dirac.triad("y", "negative")]
    wave = bridge.onshell_plane_wave(y_neg, ["plus"], k)
    detuned_max = bridge.dirac_residual_em(
        wave._replace(omega=1.1 * wave.omega), t_grid=np.linspace(0.1, 1.7, 3),
        u_grid=np.linspace(-0.9, 0.9, 3)).max_scalar[0]
    checks.append(CheckReport.build(
        "planewave/expansion-detuned", "detuned frequency leaves a residual",
        1.0, float(detuned_max > 0.01), tol_abs=0.0, tol_rel=0.0,
        notes=f"max residual {detuned_max:.4f} on a 10% detuned wave"))

    rep_fd = bridge.dirac_residual_em(
        wave, t_grid=np.linspace(0, 1.0, 3),
        u_grid=np.linspace(-0.5, 0.5, 3), fd_step=1e-4 * 2 * math.pi / k)
    checks.append(CheckReport.build(
        "planewave/expansion-finite-difference",
        "finite-difference route agrees within its truncation", 0.0,
        (rep_fd.cross_deviation, rep_fd.max_scalar), tol_abs=1e-6))
    checks.append(CheckReport.build(
        "planewave/expansion-fd-truncation",
        "Richardson estimate of the finite-difference truncation", 0.0,
        float(rep_fd.truncation[0]), tol_abs=bridge.FD_TOL,
        notes="max |D(h) - D(h/2)| of d/dt and d/du at the first grid point"))
    return checks, ledger


# the notes of each dynamics check that no ring quantity can move
FIELD_ALGEBRA = "reads no ring quantity: it tests the field algebra alone"


def suite_dynamics(cfg: RunConfig):
    rng = rng_for_suite(cfg.seed, "dynamics")
    checks, ledger = [], []
    model = torus.derive_parameters(torus.NATURAL, cfg.zeta)

    n = min(cfg.samples, 200)
    x = rng.uniform(-2, 2, size=(n, 2, 3))
    f = EmField(x[:, 0], x[:, 1])
    st = dynamics.stress_tensor(f)
    scale = np.maximum(st.tau_00, 1e-30)
    flux = 4 * math.pi * bridge.poynting(f)
    trace = np.trace(st.tau_pq, axis1=-2, axis2=-1)
    err = (
        np.abs(st.tau_p0 - flux).max(axis=-1) / scale,
        np.abs(st.tau_00 - 4 * math.pi * bridge.energy_density(f)) / scale,
        np.abs(trace - st.tau_00) / scale,
        np.abs(st.tau_pq - st.tau_pq.swapaxes(-1, -2)).max(axis=(-2, -1)) / scale)
    checks.append(CheckReport.build(
        "dynamics/stress-consistency",
        "flux row, energy density, trace and symmetry", 0.0, err,
        tol_abs=cfg.tol_rel, tol_rel=cfg.tol_rel, notes=FIELD_ALGEBRA))
    checks.append(CheckReport.build(
        "dynamics/stress-example", "tau_00 of a unit electric field", 0.5,
        dynamics.stress_tensor(EmField([1, 0, 0], [0, 0, 0])).tau_00,
        tol_abs=0.0, tol_rel=0.0, notes=FIELD_ALGEBRA))

    force = dynamics.lorentz_force_ring(model, 1.0, "Ex_Hz")
    checks.append(CheckReport.build(
        "dynamics/ring-force", "f0 = omega E^2 / 4 pi c at unit amplitude",
        1 / (2 * math.pi), force.f0, tol_abs=0.0, tol_rel=1e-15))
    neg = dynamics.lorentz_force_ring(model, 1.0, "Ez_Hx")
    checks.append(CheckReport.build(
        "dynamics/ring-force-opposite-polarization",
        "rotation about OX negates the components", -force.f0, neg.f0,
        tol_abs=0.0, tol_rel=0.0))

    layout = bridge.electron_layout()

    def wave_point(amp, ws, ks, t, y):
        """Four independently oscillating slot components, per sample row."""
        phases = np.exp(1j * (ws * t - ks * y))
        comp = amp * phases
        def emf(vals):
            return bridge.slot_fields(vals[None], [layout])[0]
        return bridge.WavePoint(f=emf(comp), df_dt=emf(1j * ws * comp),
                                df_du=emf(-1j * ks * comp))

    # each sample draws amplitude real and imaginary parts, then ws, then ks
    x = rng.normal(size=(min(cfg.samples, 200), 4, 4))
    point = wave_point(x[:, 0] + 1j * x[:, 1], x[:, 2], x[:, 3], 0.3, 1.1)
    forms = dynamics.lagrangian_linear(point)
    scale = np.maximum(np.abs(forms.em), 1.0)
    checks.append(CheckReport.build(
        "dynamics/linear-forms", "spinor and field routes agree",
        0.0, np.abs(forms.spinor - forms.em) / scale, tol_abs=cfg.tol_rel,
        tol_rel=cfg.tol_rel, notes=FIELD_ALGEBRA))

    t_ax = dirac.triad("y", "negative")
    k = 0.8
    wave = bridge.onshell_plane_wave([t_ax], ["plus"], k)
    tt, yy = np.array([0.0, 0.7, 2.1]), np.array([0.0, -1.2, 0.4])
    point = bridge.WavePoint._make(f[0] for f in wave.at(tt, yy))
    forms = dynamics.lagrangian_linear(point)
    checks.append(CheckReport.build(
        "dynamics/linear-on-shell", "both routes vanish on shell",
        0.0, (np.abs(forms.spinor), np.abs(forms.em)), tol_abs=1e-12,
        notes=FIELD_ALGEBRA))

    # rolling-wave solution with the conjugate current direction: the
    # invariant-replacement identity is specific to this family
    conj_wave = wave._replace(amps=np.array(
        [[1.0], [0.0], [0.0], [-(wave.omega + 1.0) / k]]))
    tt, yy = np.array([0.0, 0.9, 1.7]), np.array([0.0, 0.3, -0.8])
    point = bridge.WavePoint._make(f[0] for f in conj_wave.at(tt, yy))
    lhs, rhs = dynamics.maxwell_invariant_forms(point)
    checks.append(CheckReport.build(
        "dynamics/invariant-replacement",
        "(E^2-H^2)/8pi = (i/omega_e)(dU/dt + div S) on the rolling wave",
        0.0, np.abs(lhs - rhs), tol_abs=1e-12, notes=FIELD_ALGEBRA))
    static = bridge.WavePoint(f=EmField([1, 0, 0], [0, 0, 0]),
                              df_dt=EmField.zero(), df_du=EmField.zero())
    lhs, rhs = dynamics.maxwell_invariant_forms(static)
    stated, computed = float(lhs), complex(rhs)
    ledger.append(Discrepancy(
        claim="dynamics/invariant-replacement-static",
        stated=stated, computed=computed, ratio=abs(computed) / stated,
        note="a static field separates the two sides; the identity holds "
             "only on the rolling-wave family"))

    # the routes cancel terms of size pref (E^2+H^2)^2, as in the fierz suite;
    # the floor is on the field factor, so a tiny prefactor keeps the test
    # relative
    f = _random_layout_field(rng, [layout], min(cfg.samples, 200))[0]
    static = EmField(np.zeros_like(f.e), np.zeros_like(f.h))
    point = bridge.WavePoint(f=f, df_dt=static, df_du=static)
    nl = dynamics.lagrangian_nonlinear(point, model)
    scale = dynamics.quartic_prefactor(model) * np.maximum(
        (bridge.e_squared(f) + bridge.h_squared(f)) ** 2, 1e-30)
    err = (np.abs(nl.quartic_em - nl.quartic_invariant) / scale,
           np.abs(nl.quartic_em - nl.quartic_bilinear) / scale,
           np.abs(nl.quartic_em - nl.quartic_bilinear_fierz) / scale)
    checks.append(CheckReport.build(
        "dynamics/quartic-routes",
        "energy-momentum, invariant and bilinear quartics agree", 0.0, err,
        tol_abs=cfg.tol_rel, tol_rel=cfg.tol_rel))

    # the ring's rigid rotation at omega_s, seen at its radius r_s
    omega = model.omega_s
    rep = dynamics.centripetal_check(omega, model.r_s)
    checks.append(CheckReport.build(
        "dynamics/centripetal-curl", "curl v = 2 omega_s", 2 * omega,
        float(rep.curl[2]), tol_abs=1e-8,
        notes=f"off-axis components {np.abs(rep.curl[:2]).max():.2e}"))
    # the second route for the ring force: the field mass density in that
    # rotation needs |f2| = rho omega_s^2 r_s, which holds as omega_s r_s = c
    e_amp, h_amp = rng.uniform(0.1, 2.0, size=(16, 2)).T
    route = (dynamics.field_mass_density(model, e_amp, h_amp)
             * rep.acceleration_magnitude)
    f2 = [np.abs(dynamics.lorentz_force_ring(model, e_amp, pol, h_amp).f2)
          for pol in ("Ex_Hz", "Ez_Hx")]
    checks.append(CheckReport.build(
        "dynamics/centripetal-acceleration",
        "rho |v x curl v| / 2 at r_s = |f2|, rho = E H / 4 pi c^2", 0.0,
        [np.abs(route - a) / a for a in f2], tol_abs=5e-9,
        notes="relative; 16 seeded (E, H) pairs, both polarizations"))

    rho = dynamics.field_mass_density(model, 1.0, 1.0)
    v_field = dynamics.rigid_rotation(omega)

    def g_field(p):
        return rho * v_field(p)

    def u_field(p):
        return rho * omega ** 2 * (p[..., 0] ** 2 + p[..., 1] ** 2)

    pts = model.r_s * np.array([(1.0, 0.0, 0.0), (0.4, 0.8, 0.2),
                                (-0.6, 0.4, -0.4)])
    res = dynamics.matter_motion_residual(g_field, u_field, v_field, pts)
    checks.append(CheckReport.build(
        "dynamics/matter-motion-balanced",
        "rigid rotation with its pressure balances", 0.0,
        np.abs(res) / (rho * omega ** 2 * model.r_s), tol_abs=1e-7,
        notes="relative to rho omega_s^2 r_s at unit amplitudes"))
    return checks, ledger


SUITE_FUNCS = {
    "algebra": suite_algebra,
    "bilinear": suite_bilinear,
    "fierz": suite_fierz,
    "torus": suite_torus,
    "planewave": suite_planewave,
    "dynamics": suite_dynamics,
}


def run_suites(cfg: RunConfig, names):
    checks, ledger = [], []
    for name in names:
        c, l = SUITE_FUNCS[name](cfg)
        checks.extend(c)
        ledger.extend(l)
    return checks, ledger
