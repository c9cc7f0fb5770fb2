"""Stacked kernels against the per-sample loop formulas they replace.

Each reference below is the loop form, written out here, one sample at a
time with plain 1-D products.  The stacked kernel sums in another order, so
the two may differ by rounding: the bound is 1e-15 times the term scale, the
sum of the magnitudes of the terms that the kernel adds up.  A quartic is a
sum of at most four squares of quadratic forms of term scale Q each, so its
term scale is 4 Q^2.  A single input (no leading axis) is the same code and
gives the row of the stack, bit for bit except where it squares numpy scalars.
"""
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semiphoton import bridge, dirac, dynamics, planewave, suites, torus
from semiphoton.bridge import EmField
from semiphoton.linalg import mat_vec
from semiphoton.report import FAIL, CheckReport

CANON = dirac.canonical_alpha_set()
MODEL = torus.derive_parameters(torus.UnitSystem.natural(), 1.0)
LAYOUT = bridge.electron_layout()
TOL = 1e-15

# below 1e-100 the products of two components leave float64's normal range,
# where relative precision is lost whatever the summation order
component = st.floats(-3, 3, allow_nan=False, allow_infinity=False).map(
    lambda x: x if abs(x) > 1e-100 else 0.0)
sizes = st.one_of(st.just(1), st.integers(2, 32))


def stack(width, n):
    return arrays(float, (n, width), elements=component)


@st.composite
def spinors(draw):
    n = draw(sizes)
    return draw(stack(4, n)) + 1j * draw(stack(4, n))


@st.composite
def real_fields(draw):
    n = draw(sizes)
    return EmField(draw(stack(3, n)), draw(stack(3, n)))


@st.composite
def wave_points(draw):
    """n points with complex fields and derivatives on the electron slots."""
    n = draw(sizes)

    def field():
        v = draw(stack(4, n)) + 1j * draw(stack(4, n))
        zero = np.zeros(n)
        return EmField(np.stack([v[:, 0], zero, v[:, 1]], axis=-1),
                       np.stack([v[:, 2], zero, v[:, 3]], axis=-1))

    return bridge.WavePoint(field(), field(), field())


def norm(v):
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))


def assert_close(got, want, scale):
    """|got - want| <= TOL * scale, with one scale per sample row."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    scale = np.asarray(scale, dtype=float)
    while scale.ndim < err.ndim:
        scale = scale[..., None]
    assert np.all(err <= TOL * scale), np.max(err / np.where(scale > 0, scale, 1))


def field_rows(f):
    return [EmField(e, h) for e, h in zip(f.e, f.h)]


@settings(deadline=None, max_examples=100)
@given(spinors())
def test_bilinears_match_loop(psi):
    got = bridge.bilinears(psi, CANON)
    mats = list(CANON.named().values())
    want = np.array([[p.conj() @ (m @ p) for m in mats] for p in psi])
    scale = np.array([[np.abs(p) @ np.abs(m) @ np.abs(p) for m in mats]
                      for p in psi])
    assert_close(got, want, scale)
    for i, p in enumerate(psi):
        assert np.array_equal(bridge.bilinears(p, CANON), got[i])


@settings(deadline=None, max_examples=100)
@given(spinors())
def test_quartic_bilinear_identity(psi):
    """b0^2 - |b|^2 = b4^2 + b5^2 for every sample of the stack."""
    b = bridge.bilinears(psi, CANON).real
    lhs = b[:, 0] ** 2 - np.sum(b[:, 1:4] ** 2, axis=-1)
    rhs = b[:, 4] ** 2 + b[:, 5] ** 2
    # six squares of bilinears of term scale |psi|^2 each
    assert np.all(np.abs(lhs - rhs) <= TOL * 6 * norm(psi) ** 4)
    got = bridge.fierz_quantum(psi, CANON)
    assert np.array_equal(got[0], lhs) and np.array_equal(got[1], rhs)


@settings(deadline=None, max_examples=100)
@given(spinors())
def test_fierz_quantum_matches_loop(psi):
    lhs, rhs = bridge.fierz_quantum(psi, CANON)
    want = []
    for p in psi:
        b = [(p.conj() @ (m @ p)).real for m in CANON.named().values()]
        want.append((b[0] ** 2 - (b[1] ** 2 + b[2] ** 2 + b[3] ** 2),
                     b[4] ** 2 + b[5] ** 2))
    want = np.array(want)
    scale = 4 * norm(psi) ** 4
    assert_close(lhs, want[:, 0], scale)
    assert_close(rhs, want[:, 1], scale)
    for i, p in enumerate(psi):
        assert bridge.fierz_quantum(p, CANON) == (lhs[i], rhs[i])


@settings(deadline=None, max_examples=100)
@given(real_fields())
def test_field_invariants_match_loop(f):
    e, h = f.e.real, f.h.real
    ne, nh = norm(e), norm(h)
    assert_close(bridge.e_squared(f), [x @ x for x in e], ne ** 2)
    assert_close(bridge.h_squared(f), [x @ x for x in h], nh ** 2)
    assert_close(bridge.eh_dot(f), [x @ y for x, y in zip(e, h)], ne * nh)
    assert_close(bridge.cross_sym(f), [np.cross(x, y) for x, y in zip(e, h)],
                 ne * nh)

    lhs, rhs = bridge.fierz_em(f)
    want = []
    for x, y in zip(e, h):
        e2, h2, exh = x @ x, y @ y, np.cross(x, y)
        want.append(((e2 + h2) ** 2 - 4 * (exh @ exh),
                     (e2 - h2) ** 2 + 4 * (x @ y) ** 2))
    want = np.array(want)
    scale = 4 * (ne ** 2 + nh ** 2) ** 2
    assert_close(lhs, want[:, 0], scale)
    assert_close(rhs, want[:, 1], scale)
    # a single field squares numpy scalars, where ** 2 may round differently
    # from the array square by one ulp, so rows agree to the same bound
    for i, one in enumerate(field_rows(f)):
        assert bridge.e_squared(one) == bridge.e_squared(f)[i]
        single = bridge.fierz_em(one)
        assert_close(single[0], lhs[i], scale[i])
        assert_close(single[1], rhs[i], scale[i])


@settings(deadline=None, max_examples=100)
@given(real_fields())
def test_layout_maps_match_loop(f):
    f = EmField(f.e * [1, 0, 1], f.h * [1, 0, 1])
    psi = bridge.bispinor_from_fields(f, LAYOUT)
    want = np.array([[factor * (e if kind == "e" else h)[bridge.AXIS_INDEX[ax]]
                      for kind, ax, factor in LAYOUT.slots]
                     for e, h in zip(f.e, f.h)])
    assert np.array_equal(psi, want)
    back = bridge.fields_from_bispinor(psi, LAYOUT)
    assert np.array_equal(back.e, f.e) and np.array_equal(back.h, f.h)


def loop_build_system(energy, p):
    px, py, pz = p
    return np.array([
        [energy + 1.0, 0, pz, px - 1j * py],
        [0, energy + 1.0, px + 1j * py, -pz],
        [pz, px - 1j * py, energy - 1.0, 0],
        [px + 1j * py, -pz, 0, energy - 1.0],
    ], dtype=complex)


@st.composite
def momenta_and_energies(draw):
    n = draw(sizes)
    return draw(stack(3, n)) * 3, draw(stack(1, n))[:, 0] * 3


@settings(deadline=None, max_examples=100)
@given(momenta_and_energies())
def test_build_system_and_determinant_match_loop(pe):
    p, eps = pe
    got = planewave.build_system(eps, p)
    want = np.array([loop_build_system(e, q) for e, q in zip(eps, p)])
    assert np.array_equal(got, want)
    assert np.array_equal(np.linalg.det(got),
                          [np.linalg.det(m) for m in want])


@settings(deadline=None, max_examples=100)
@given(momenta_and_energies())
def test_solution_basis_matches_loop(pe):
    p, _ = pe
    for branch in ("positive", "negative"):
        got = planewave.solution_basis(branch, p, phase=0.3)
        ph = complex(math.cos(0.3), math.sin(0.3))
        for i, (px, py, pz) in enumerate(p):
            eps = math.sqrt(px * px + py * py + pz * pz + 1.0)
            if branch == "positive":
                d = eps + 1.0
                first = [-pz / d, -(px + 1j * py) / d, 1, 0]
                second = [-(px - 1j * py) / d, pz / d, 0, 1]
            else:  # energy -eps, so the denominator is again eps + 1
                d = eps + 1.0
                first = [1, 0, pz / d, (px + 1j * py) / d]
                second = [0, 1, (px - 1j * py) / d, -pz / d]
            for vec, want in ((got[0][i], first), (got[1][i], second)):
                want = np.array(want, dtype=complex) * ph
                # entries are sums of at most two terms of size <= 1
                assert_close(vec, want, np.float64(4.0))
            one = planewave.solution_basis(branch, p[i], phase=0.3)
            assert np.array_equal(one[0], got[0][i])
            assert np.array_equal(one[1], got[1][i])


@settings(deadline=None, max_examples=100)
@given(momenta_and_energies(), spinors())
def test_residual_matches_loop(pe, amps):
    p, eps = pe
    n = min(len(p), len(amps))
    state = planewave.PlaneWaveState(eps[:n], p[:n], amps[:n])
    got = planewave.residual(state, CANON)
    want, scale = [], []
    for e, q, a in zip(eps[:n], p[:n], amps[:n]):
        op = (e * CANON.a0 + (q[0] * CANON.a1 + q[1] * CANON.a2
                              + q[2] * CANON.a3) + CANON.a4)
        want.append(np.abs(op @ a).max())
        scale.append((np.abs(op) @ np.abs(a)).max())
    assert_close(got, want, np.array(scale))
    for i in range(n):
        one = planewave.PlaneWaveState(eps[i], p[i], amps[i])
        assert planewave.residual(one, CANON) == got[i]


@settings(deadline=None, max_examples=100)
@given(real_fields())
def test_stress_tensor_matches_loop(f):
    st_ = dynamics.stress_tensor(f)
    scale = norm(f.e.real) ** 2 + norm(f.h.real) ** 2
    for i, one in enumerate(field_rows(f)):
        e, h = one.e.real, one.h.real
        total = float(e @ e + h @ h)
        tau_pq = -(np.outer(e, e) + np.outer(h, h)) + 0.5 * total * np.eye(3)
        assert_close(st_.tau_pq[i], tau_pq, scale[i])
        assert_close(st_.tau_p0[i], np.cross(e, h), scale[i])
        assert_close(st_.tau_00[i], 0.5 * total, scale[i])
        single = dynamics.stress_tensor(one)
        assert np.array_equal(single.tau_pq, st_.tau_pq[i])
        assert single.tau_00 == st_.tau_00[i]


def loop_linear(point, mass=1.0, c=1.0, hbar=1.0):
    """The three linear routes of one point, written out per component."""
    f, ft, fu = point.f, point.df_dt, point.df_du
    psi = bridge.bispinor_from_fields(f, LAYOUT)
    dpsi_t = bridge.bispinor_from_fields(ft, LAYOUT)
    dpsi_u = bridge.bispinor_from_fields(fu, LAYOUT)
    spinor = (c / (4 * math.pi)) * (
        complex(psi.conj() @ dpsi_t) / c
        - complex(psi.conj() @ (CANON.a2 @ dpsi_u))
        - 1j * (mass * c / hbar) * complex(psi.conj() @ (CANON.a4 @ psi)))
    du = (complex(f.e.conj() @ ft.e) + complex(f.h.conj() @ ft.h)) / (4 * math.pi)
    div = (c / (4 * math.pi)) * (
        -f.e[0].conjugate() * fu.h[2] + f.e[2].conjugate() * fu.h[0]
        + f.h[0].conjugate() * fu.e[2] - f.h[2].conjugate() * fu.e[0])
    omega_e = 2 * mass * c * c / hbar
    e2 = complex(f.e.conj() @ f.e).real
    h2 = complex(f.h.conj() @ f.h).real
    em = du + div - 1j * (omega_e / (8 * math.pi)) * (e2 - h2)
    current = du + div - 0.5 * (
        complex(f.e.conj() @ (1j * omega_e / (4 * math.pi) * f.e))
        - complex(f.h.conj() @ (1j * omega_e / (4 * math.pi) * f.h)))
    return spinor, em, current


def point_rows(point):
    return [bridge.WavePoint(a, b, c) for a, b, c in
            zip(field_rows(point.f), field_rows(point.df_dt),
                field_rows(point.df_du))]


def point_scale(point):
    """A bound on the term magnitudes of each linear route (c = m = hbar = 1)."""
    f = np.hypot(norm(point.f.e), norm(point.f.h))
    ft = np.hypot(norm(point.df_dt.e), norm(point.df_dt.h))
    fu = np.hypot(norm(point.df_du.e), norm(point.df_du.h))
    return (f * ft + 2 * f * fu + 2 * f * f) / (4 * math.pi)


@settings(deadline=None, max_examples=100)
@given(wave_points())
def test_lagrangian_linear_matches_loop(point):
    got = dynamics.lagrangian_linear(point, 1.0)
    scale = point_scale(point)
    for i, one in enumerate(point_rows(point)):
        spinor, em, current = loop_linear(one)
        assert_close(got.spinor[i], spinor, scale[i])
        assert_close(got.em[i], em, scale[i])
        assert_close(got.current[i], current, scale[i])
        single = dynamics.lagrangian_linear(one, 1.0)
        assert (single.spinor, single.em, single.current) == (
            got.spinor[i], got.em[i], got.current[i])


@settings(deadline=None, max_examples=100)
@given(wave_points())
def test_lagrangian_nonlinear_matches_loop(point):
    # the quartic routes are real-field identities; keep the real parts
    f = EmField(point.f.e.real, point.f.h.real)
    point = bridge.WavePoint(f, point.df_dt, point.df_du)
    got = dynamics.lagrangian_nonlinear(point, MODEL)
    pref = MODEL.delta_tau / ((8 * math.pi) ** 2 * MODEL.units.m_e)
    for i, one in enumerate(point_rows(point)):
        e, h = one.f.e.real, one.f.h.real
        e2, h2, eh = e @ e, h @ h, e @ h
        u = (e2 + h2) / (8 * math.pi)
        g = np.cross(e, h) / (4 * math.pi)
        quartic_em = (u * MODEL.delta_tau * u
                      - float((g * MODEL.delta_tau) @ g))
        psi = bridge.bispinor_from_fields(one.f, LAYOUT)
        b = [(psi.conj() @ (m @ psi)).real for m in CANON.named().values()]
        quartic_scale = 4 * pref * (e2 + h2) ** 2
        assert_close(got.quartic_em[i], quartic_em, quartic_scale)
        assert_close(got.quartic_invariant[i],
                     pref * ((e2 - h2) ** 2 + 4 * eh ** 2), quartic_scale)
        assert_close(got.quartic_bilinear[i],
                     pref * (b[0] ** 2 - (b[1] ** 2 + b[2] ** 2 + b[3] ** 2)),
                     quartic_scale)
        assert_close(got.quartic_bilinear_fierz[i],
                     pref * (b[4] ** 2 + b[5] ** 2), quartic_scale)
        single = dynamics.lagrangian_nonlinear(one, MODEL)
        assert single.quartic_em == got.quartic_em[i]


@settings(deadline=None, max_examples=100)
@given(wave_points())
def test_maxwell_invariant_forms_match_loop(point):
    omega_e = 2.0
    lhs, rhs = dynamics.maxwell_invariant_forms(point, omega_e)
    for i, one in enumerate(point_rows(point)):
        e2 = complex(one.f.e.conj() @ one.f.e).real
        h2 = complex(one.f.h.conj() @ one.f.h).real
        assert_close(lhs[i], (e2 - h2) / (8 * math.pi),
                     (e2 + h2) / (8 * math.pi))
        _, em, _ = loop_linear(one)
        du_div = em + 1j * (omega_e / (8 * math.pi)) * (e2 - h2)
        assert_close(rhs[i], (1j / omega_e) * du_div,
                     point_scale(one) / omega_e)
        single = dynamics.maxwell_invariant_forms(one, omega_e)
        assert single == (lhs[i], rhs[i])


@st.composite
def residual_cases(draw):
    """A triad's layout and n points of fields and derivatives on its slots.

    Stacks of 4 rows are drawn on purpose: a matrix ``@`` applied to an
    (n, 4) stack instead of per row runs without error only at n == 4.
    """
    n = draw(st.one_of(st.just(1), st.just(4), st.integers(2, 32)))
    t = draw(st.sampled_from(dirac.axis_triads()))
    layout = bridge.layout_for_triad(t, charge_conjugated=draw(st.booleans()))
    slots = [bridge.AXIS_INDEX[ax] for ax in t.e_axes]

    def field():
        v = draw(stack(4, n)) + 1j * draw(stack(4, n))
        e, h = np.zeros((n, 3), dtype=complex), np.zeros((n, 3), dtype=complex)
        e[:, slots], h[:, slots] = v[:, :2], v[:, 2:]
        return EmField(e, h)

    return layout, field(), field(), field()


@settings(deadline=None, max_examples=100)
@given(residual_cases(), st.sampled_from(("plus", "minus")))
def test_residual_stacks_match_single_points(case, form):
    layout, f, ft, fu = case
    f, ft, fu = (EmField(g.e[None], g.h[None]) for g in (f, ft, fu))
    w = bridge.grid_stack(f, ft, fu)
    scalar = bridge.scalar_residuals(w, [layout], [form])[0]
    bisp = bridge.bispinor_residuals(w, [layout], CANON, [form])[0]
    assert scalar.shape == bisp.shape == (len(f.e[0]), 4)
    for i in range(len(scalar)):
        one = bridge.grid_stack(*(g[:, i:i + 1] for g in (f, ft, fu)))
        assert np.array_equal(
            bridge.scalar_residuals(one, [layout], [form])[0, 0],
            scalar[i])
        assert np.array_equal(
            bridge.bispinor_residuals(one, [layout], CANON, [form])[0, 0],
            bisp[i])


def test_residual_case_stack_matches_single_cases():
    """All 12 (triad, form) cases, plain and charge conjugated, with one
    off-shell case among them: each case of the stack equals its own call."""
    triads, forms = zip(*[(t, form) for t in dirac.axis_triads()
                          for form in ("plus", "minus")])
    on_shell = bridge.onshell_plane_wave(triads, forms, 0.8, 1.0, e2_amp=0.7)
    y_neg = dirac.triad("y", "negative")
    # the y-negative plus-form wave with its H amplitudes 10% too large
    off_shell = bridge.onshell_plane_wave([y_neg], ["plus"], 0.8,
                                          1.0).amps * [[1], [1], [1.1], [1.1]]
    # cases 0-5 and 7-12 plain, 6 off shell, 13-24 charge conjugated
    order = list(range(6)) + [None] + list(range(6, 12)) + list(range(12))
    stack_triads = [y_neg if j is None else triads[j] for j in order]
    stack_forms = ["plus" if j is None else forms[j] for j in order]
    conjugated = [False] * 13 + [True] * 12
    a = on_shell.amps
    wave = on_shell._replace(
        amps=np.concatenate([a[:, :6], off_shell, a[:, 6:], a], axis=1),
        layouts=[bridge.layout_for_triad(t, conj)
                 for t, conj in zip(stack_triads, conjugated)])
    grids = np.linspace(0.0, 2.0, 4), np.linspace(-1.0, 1.0, 5)
    rep = bridge.dirac_residual_em(wave, stack_forms, *grids)
    assert rep.max_scalar.shape == rep.cross_deviation.shape == (25,)
    for i in range(25):
        single = bridge.dirac_residual_em(
            wave._replace(amps=wave.amps[:, i:i + 1],
                          layouts=wave.layouts[i:i + 1]),
            stack_forms[i:i + 1], *grids)
        assert single.max_scalar[0] == rep.max_scalar[i], i
        assert single.cross_deviation[0] == rep.cross_deviation[i], i
    # the gathers read no other case: the off-shell case's neighbours stay
    # on shell, and the two routes agree for every case
    omega = wave.omega
    assert rep.max_scalar[6] > 0.01
    assert rep.max_scalar[[5, 7]].max() <= 1e-12 * omega
    assert np.delete(rep.max_scalar[:13], 6).max() <= 1e-12 * omega
    assert rep.max_scalar[13:].min() > 0.1
    scale = np.maximum(rep.max_scalar, omega)
    assert (rep.cross_deviation <= 1e-12 * scale).all()


def test_finite_difference_case_stack_matches_single_cases():
    triads, forms = zip(*[(t, form) for t in dirac.axis_triads()
                          for form in ("plus", "minus")])
    wave = bridge.onshell_plane_wave(triads, forms, 0.8, 1.0, e2_amp=0.7)
    grids = np.linspace(0.0, 1.0, 3), np.linspace(-0.5, 0.5, 3)
    rep = bridge.dirac_residual_em(wave, forms, *grids, fd_step=1e-4)
    assert rep.max_scalar.max() <= 1e-6
    for i in range(12):
        single = bridge.dirac_residual_em(
            wave._replace(amps=wave.amps[:, i:i + 1],
                          layouts=wave.layouts[i:i + 1]),
            forms[i:i + 1], *grids, fd_step=1e-4)
        assert single.max_scalar[0] == rep.max_scalar[i], i
        assert single.cross_deviation[0] == rep.cross_deviation[i], i


# The residual grid as it was computed before its tables were built at
# import: every call builds its slots (checked against the layouts'), slot
# tables and scalar rows again, and each route stacks the fields on its own.
REF_FLAT = {(kind, ax): 3 * j + i
            for j, kind in enumerate("eh") for ax, i in bridge.AXIS_INDEX.items()}


def ref_layout(t, conjugated):
    signs = (1, -1, 1, -1) if conjugated else (1, 1, 1, 1)
    return (("e", t.e_axes[0], signs[0] * (1 + 0j)),
            ("e", t.e_axes[1], signs[1] * (1 + 0j)),
            ("h", t.e_axes[0], signs[2] * 1j),
            ("h", t.e_axes[1], signs[3] * 1j))


def ref_gather(v, index):
    g = v[np.arange(len(v))[:, None], ..., index]
    return g.transpose(0, *range(2, g.ndim), 1)


def ref_stacked(f):
    return np.concatenate([f.e, f.h], axis=-1)


def ref_residual_em(fields, triads, forms, t_grid, u_grid, d_dt, d_du,
                    fd_step, conjugated):
    """(cross_deviation, max_scalar, truncation) of the grid, per case."""
    flags = np.broadcast_to(conjugated, (len(triads),))
    slots = [ref_layout(t, bool(conj)) for t, conj in zip(triads, flags)]
    layouts = [bridge.layout_for_triad(t, conj)
               for t, conj in zip(triads, flags)]
    assert [layout.slots for layout in layouts] == slots
    index = np.array([[REF_FLAT[k, ax] for k, ax, _ in sl] for sl in slots])
    factors = np.array([[fac for *_, fac in sl] for sl in slots])
    tt, uu = (g.ravel() for g in np.meshgrid(t_grid, u_grid, indexing="ij"))
    truncation = np.zeros(len(triads))
    if d_dt is None:
        def fd(t, u, steps):
            shifts = [(s * h, 0.0) if var == "t" else (0.0, s * h)
                      for h in steps for var in "tu" for s in (-2, -1, 1, 2)]
            v = ref_stacked(fields(np.concatenate([t + dt for dt, _ in shifts]),
                                   np.concatenate([u + du for _, du in shifts])))
            x = np.moveaxis(v.reshape(len(v), len(steps), 2, 4, len(t), 6), 0, 3)
            h = np.reshape(steps, (-1, 1, 1, 1, 1))
            return (x[:, :, 0] - 8 * x[:, :, 1] + 8 * x[:, :, 2]
                    - x[:, :, 3]) / (12 * h)

        full, half = fd(tt[:1], uu[:1], (fd_step, fd_step / 2))
        truncation = np.abs(full - half).max(axis=(0, 2, 3))
        fd_t, fd_u = (EmField(d[..., :3], d[..., 3:])
                      for d in fd(tt, uu, (fd_step,))[0])
    f = fields(tt, uu)
    ft = fd_t if d_dt is None else d_dt(tt, uu)
    fu = fd_u if d_du is None else d_du(tt, uu)

    rows = [bridge.scalar_rows(layout, form)
            for layout, form in zip(layouts, forms)]
    lhs, du = (np.array([[REF_FLAT[row[j:j + 2]] for row in r] for r in rows])
               for j in (0, 3))
    du_sign = np.array([[row[2] for row in r] for r in rows])
    mass_coef = np.array([[row[5] * 1j for row in r] for r in rows])
    v, vt, vu = (ref_stacked(g) for g in (f, ft, fu))
    scalar = (ref_gather(vt, lhs) + du_sign[:, None] * ref_gather(vu, du)
              + mass_coef[:, None] * ref_gather(v, lhs))

    s = np.array([bridge.SIGN_FORMS[form] for form in forms])[:, None, None]
    working = np.stack([CANON.named()[t.working] for t in triads])
    stack = np.stack([ref_stacked(g) for g in (f, ft, fu)], axis=1)
    spinors = factors.reshape(len(slots), 1, 1, 4) * ref_gather(stack, index)
    psi, dpsi_dt, dpsi_du = (spinors[:, j] for j in range(3))
    p_term = s * np.einsum("cij,c...j->c...i", working, -1j * dpsi_du)
    mass_term = s * mat_vec(CANON.a4, psi)
    bisp = (1j * dpsi_dt + p_term + mass_term) / 1j
    return (np.abs(scalar * factors[:, None] - bisp).max(axis=(1, 2)),
            np.abs(scalar).max(axis=(1, 2)), truncation)


CASES = [(t, form) for t in dirac.axis_triads() for form in ("plus", "minus")]
grid_axis = st.lists(st.floats(-2, 2, allow_nan=False), min_size=1,
                     max_size=4).map(np.array)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(CASES), min_size=1, max_size=12),
       st.data(), grid_axis, grid_axis, st.floats(0.2, 2), st.floats(-1, 1),
       st.sampled_from((1.0, 1.1)), st.sampled_from((None, 1e-4, 0.05, 0.5)))
def test_table_driven_grid_equals_per_call_tables(cases, data, t_grid, u_grid,
                                                  k, e2_amp, detune, fd_step):
    triads, forms = zip(*cases)
    conjugated = data.draw(st.one_of(
        st.booleans(), st.lists(st.booleans(), min_size=len(cases),
                                max_size=len(cases))))
    wave = bridge.onshell_plane_wave(triads, forms, k, 1.0, e2_amp=e2_amp)
    flags = np.broadcast_to(conjugated, (len(triads),))
    wave = wave._replace(omega=detune * wave.omega, layouts=[
        bridge.layout_for_triad(t, conj) for t, conj in zip(triads, flags)])
    fields = [lambda tt, uu, j=j: wave.at(tt, uu)[j] for j in range(3)]
    derivs = fields[1:] if fd_step is None else (None, None)
    rep = bridge.dirac_residual_em(wave, forms, t_grid, u_grid,
                                   fd_step=fd_step)
    ref = ref_residual_em(fields[0], triads, forms, t_grid, u_grid, *derivs,
                          fd_step, conjugated)
    got = (rep.cross_deviation, rep.max_scalar, rep.truncation)
    for a, b in zip(got, ref):
        assert a.shape == (len(cases),)
        assert a.tobytes() == b.tobytes()


def test_fixed_tables_are_built_once_and_read_only():
    assert dirac.axis_triads() is dirac.axis_triads()
    assert dirac.alpha_prime_set() is dirac.alpha_prime_set()
    assert dirac.s_matrix() is dirac.s_matrix()
    assert dirac.triad("y", "negative") is dirac.axis_triads()[0]
    with pytest.raises(KeyError):
        dirac.triad("w", "negative")
    layouts = [bridge.layout_for_triad(t, conj)
               for t in dirac.axis_triads() for conj in (False, True)]
    assert bridge.layout_for_triad(dirac.axis_triads()[0]) is layouts[0]
    y_neg = dirac.triad("y", "negative")
    assert bridge.electron_layout() is bridge.layout_for_triad(y_neg)
    assert bridge.positron_layout() is bridge.layout_for_triad(y_neg, True)
    tables = [dirac.s_matrix(), *dirac.alpha_prime_set().named().values()]
    for layout in layouts:
        tables += [layout.index, layout.factors, layout.outside,
                   layout.scalar_table]
        for i, form in enumerate(bridge.SIGN_FORMS):
            rows = bridge.scalar_rows(layout, form)
            assert layout.scalar_table[i].tolist() == [
                [REF_FLAT[k0, x0], REF_FLAT[k1, x1], s_du, s_m]
                for k0, x0, s_du, k1, x1, s_m in rows]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def test_stacks_are_validated(monkeypatch):
    with pytest.raises(ValueError):
        EmField(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        bridge.bilinears(np.zeros((2, 2, 4)), CANON)
    bad = np.zeros((5, 4), dtype=complex)
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        bridge.bilinears(bad, CANON)
    with pytest.raises(bridge.LayoutViolation):
        bridge.bispinor_from_fields(
            EmField(np.eye(3)[[0, 1]], np.zeros((2, 3))), LAYOUT)
    for value in (np.nan, np.inf, -np.inf):
        e = np.ones((2, 3))
        e[1, 2] = value
        with pytest.raises(ValueError):
            EmField(e, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            EmField(np.zeros((2, 3)), e)
    # checked once: a part of a checked stack is a view, not a checked copy
    f = EmField(np.ones((3, 3)), np.zeros((3, 3)))
    assert np.shares_memory(f[1].e, f.e) and np.shares_memory(f[1].h, f.h)
    # the plane waves are checked at entry: their amplitudes there, and the
    # waves never again (EmField.__init__ would call as_vec3)
    y_neg = dirac.triad("y", "negative")
    for e2_amp in (np.nan, np.inf):
        with pytest.raises(ValueError, match="amplitude"):
            bridge.onshell_plane_wave([y_neg], ["plus"], 0.8, 1.0,
                                      e2_amp=e2_amp)
    wave = bridge.onshell_plane_wave([y_neg] * 2, ["plus", "minus"], 0.8,
                                     1.0, e2_amp=0.7)
    calls = []
    monkeypatch.setattr(bridge, "as_vec3", lambda a: calls.append(a) or a)
    tt = np.linspace(0.0, 1.0, 3)
    for w in (wave, wave._replace(omega=1.1 * wave.omega)):
        w.at(tt, tt)
        w.at(0.3, 0.1)
    assert calls == []
    # a non-finite grid belongs to the caller: its residuals are NaN and FAIL
    rep = bridge.dirac_residual_em(wave, ["plus", "minus"],
                                   np.array([0.0, np.nan]), tt)
    assert np.isnan(rep.max_scalar).all()
    check = CheckReport.build("residual", "on shell", 0.0, rep.max_scalar)
    assert check.verdict == FAIL


def loop_closure(aset, mul=np.matmul):
    """The group closure one product and one class at a time.

    A product joins a class when it equals the class's first member times a
    phase exactly; rounds stop once they pass 16 classes, and the closure
    returns at most 17.  ``mul`` multiplies one pair; the stacked closure
    multiplies with ``einsum``, whose one-pair product is the same
    arithmetic as its stack.
    """
    def is_new(m, reps):
        return not any(np.array_equal(m, ph * r)
                       for r in reps for ph in dirac.PHASES)

    reps = []
    for m in (np.eye(4, dtype=complex), aset.a1, aset.a2, aset.a3, aset.a4,
              aset.a5):
        if is_new(m, reps):
            reps.append(np.asarray(m))
    while len(reps) <= 16:
        known = len(reps)
        for m in (mul(x, y) for x in reps[:known] for y in reps[:known]):
            if len(reps) > 16:
                break
            if is_new(m, reps):
                reps.append(m)
        if len(reps) == known:
            break
    return reps


def pair_einsum(x, y):
    return np.einsum("ij,jk->ik", x, y)


def random_unitaries(seed, n):
    x = np.random.default_rng(seed).normal(size=(n, 2, 4, 4))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def with_generators(aset, *mats, label="test"):
    return dirac.AlphaSet(label, aset.a0, *mats)


def open_set():
    """The canonical set with a1 = diag(1, i^(1/2), 1, 1), an irrational
    phase: its products never close."""
    rot = np.diag([1, 1j ** 0.5, 1, 1]).astype(complex)
    return with_generators(CANON, rot, CANON.a2, CANON.a3, CANON.a4, CANON.a5)


def closure_cases():
    """Similarity transforms, permuted generators and perturbed sets."""
    cases = [dirac.canonical_transform(u, CANON, "similarity")
             for u in random_unitaries(5, 6)]
    gens = CANON.generators()
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1), (0, 3, 1, 2)):
        cases.append(with_generators(CANON, *(gens[i] for i in perm), CANON.a5))
    rng = np.random.default_rng(17)
    for scale in (0.5e-9, -0.5e-9, 2e-9, -2e-9):
        for g in range(5):
            step = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mats = np.array((*gens, CANON.a5))
            mats[g] += scale * step / np.abs(step).max()
            cases.append(with_generators(CANON, *mats))
    return cases


def test_group_closure_matches_loop_on_the_canonical_set():
    got = dirac.generate_group(CANON)
    want = loop_closure(CANON)
    assert len(got) == len(want) == 16
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("aset", closure_cases())
def test_group_closure_matches_loop(aset):
    got = dirac.generate_group(aset)
    want = loop_closure(aset, pair_einsum)
    assert len(got) == len(want) <= 17
    assert np.array_equal(got, want)


def test_perturbed_closures_take_both_outcomes():
    """Permuted exact generators close; transformed and perturbed sets,
    whose products are equal up to phase only within rounding, do not."""
    counts = [len(dirac.generate_group(a)) for a in closure_cases()]
    assert counts == [17] * 6 + [16] * 4 + [17] * 20


def test_open_set_gives_17_classes_in_both_closures():
    assert len(dirac.generate_group(open_set())) == 17
    assert len(loop_closure(open_set())) == 17


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf),
                                 complex(np.nan, 1)])
@pytest.mark.parametrize("g", range(5))
def test_non_finite_generator_does_not_close(bad, g):
    mats = np.array((*CANON.generators(), CANON.a5))
    mats[g, 1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = dirac.generate_group(with_generators(CANON, *mats))
    assert len(reps) == 17


def test_open_closure_memory_stays_bounded():
    """A set that does not close stops after the round that passes 16
    classes: at most 16^2 products of one round are held at once."""
    aset = open_set()
    dirac.generate_group(aset)
    tracemalloc.start()
    try:
        reps = dirac.generate_group(aset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 17
    assert peak <= 5e5, peak


def loop_anticommutation(gens):
    dev = 0.0
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            target = 2 * np.eye(4) if i == j else 0.0
            dev = max(dev, float(np.abs(a @ b + b @ a - target).max()))
    return dev


def test_anticommutation_matches_loop():
    prime = dirac.alpha_prime_set()
    broken = with_generators(CANON, np.eye(4), CANON.a2, CANON.a3, CANON.a4,
                             CANON.a5)
    assert dirac.anticommutation_deviation(CANON) == 0.0
    assert dirac.a5_anticommutation_deviation(CANON) == 0.0
    assert dirac.anticommutation_deviation(broken) == 2.0
    assert dirac.anticommutation_deviation(prime) == 4.0
    for aset in (CANON, broken, prime):
        assert dirac.anticommutation_deviation(aset) == loop_anticommutation(
            aset.generators())
    assert dirac.a5_anticommutation_deviation(prime) == max(
        float(np.abs(prime.a5 @ g + g @ prime.a5).max())
        for g in prime.generators())
    # moved generators are unitary: each anticommutator entry has term scale 2
    us = random_unitaries(23, 8)
    moved = dirac.canonical_transform(us, CANON, "similarity")
    devs = [loop_anticommutation([u.conj().T @ g @ u for g in CANON.generators()])
            for u in us]
    assert abs(dirac.anticommutation_deviation(moved) - max(devs)) <= TOL * 4


def test_stacked_transform_matches_single_unitaries():
    us = random_unitaries(29, 8)
    for mode in ("similarity", "two_sided"):
        moved = dirac.canonical_transform(us, CANON, mode)
        for i, u in enumerate(us):
            one = dirac.canonical_transform(u, CANON, mode)
            left = u.conj().T if mode == "similarity" else u
            for name, m in CANON.named().items():
                assert np.array_equal(moved.named()[name][i], one.named()[name])
                assert_close(one.named()[name], left @ m @ u, 4.0)
    bad = us.copy()
    bad[5] *= 2
    with pytest.raises(dirac.NotUnitaryError):
        dirac.canonical_transform(bad, CANON, "similarity")


def loop_simpson(f, a, b, n):
    """Composite Simpson as generator sums over the nodes, summed exactly.

    Plain ``sum`` adds its own rounding, up to about 5 ulps at n = 2048.
    """
    h = (b - a) / n
    total = f(a) + f(b)
    total += 4 * math.fsum(f(a + h * i) for i in range(1, n, 2))
    total += 2 * math.fsum(f(a + h * i) for i in range(2, n, 2))
    return total * h / 3


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
def test_simpson_matches_generator_sums(n):
    lam = MODEL.lambda_p
    k = MODEL.k
    cases = [(lambda x: np.cos(k * x), lam / 4),
             (lambda x: np.cos(k * x) ** 2, lam / 4),
             (lambda x: np.cos(k * x) ** 2, lam / 2),
             (lambda x: x ** 3, 2.0), (np.exp, 1.0)]
    for f, b in cases:
        want = loop_simpson(f, 0.0, b, n)
        got = torus.simpson(f(b / n * np.arange(n + 1)), b / n)
        assert abs(got - want) <= TOL * abs(want)


def row_of(record, i):
    """Row i of a stacked torus record: its arrays as floats, nested too."""
    if hasattr(record, "_asdict"):
        return type(record)(**{k: row_of(v, i)
                               for k, v in record._asdict().items()})
    return float(record[i]) if isinstance(record, np.ndarray) else record


@pytest.mark.parametrize("mode", ["natural", "gaussian_cgs"])
@pytest.mark.parametrize("n", [64, 128, 256, 1024])
def test_torus_stack_rows_equal_single_evaluations(mode, n):
    units = torus.unit_system(mode)
    zetas = torus.zeta_grid(0.01, 1.0, 23) + [0.3, 0.123456, 0.759913]
    stacked = torus.evaluate(units, zetas, n)
    assert stacked.chain.alpha_q.shape == stacked.model.e0.shape == (len(zetas),)
    for i, zeta in enumerate(zetas):
        single = torus.evaluate(units, zeta, n)
        assert row_of(stacked, i) == single
        assert type(single.model.e0) is float and type(single.chain.q) is float
        assert type(single.spin.mu_s) is float


def loop_torus(units, zeta, n_points):
    """One zeta at a time on plain floats, as ``torus.evaluate`` ran before it
    took stacks: derive, calibrate by the converged quadrature, then the chain,
    spin and moment.  Raises what that evaluation raised, in its order."""
    if not 0 < zeta <= 1:
        raise torus.DomainError(f"zeta must be in (0, 1], got {zeta}")
    hbar, c, m_e = units.hbar, units.c, units.m_e
    omega_s = c / (hbar / (2 * m_e * c))
    r_s = (2 * math.pi * c / (2 * m_e * c * c / hbar)) / (2 * math.pi)
    lam = 2 * math.pi * r_s
    r_c = zeta * r_s
    s_c = math.pi * r_c * r_c
    pref = s_c * 1.0 * 1.0 / (math.pi * c * c)
    scale = abs(pref) * lam if pref else 1.0
    if n_points < 64:
        raise ValueError("n_points must be >= 64")
    n = n_points + n_points % 2

    def simpson(n):
        h = lam / 4 / n
        y = pref * np.cos(omega_s / c * (h * np.arange(n + 1))) ** 2
        return float((y[0] + y[-1] + 4 * y[1:-1:2].sum()
                      + 2 * y[2:-1:2].sum()) * h / 3)

    value, unit_mass = simpson(n), None
    for _ in range(torus.MAX_DOUBLINGS):
        n *= 2
        finer = simpson(n)
        delta = abs(finer - value)
        if delta <= torus.CONVERGENCE_TOL * max(abs(finer), scale):
            unit_mass = finer
            break
        value = finer
    if unit_mass is None:
        raise torus.QuadratureNotConverged(
            f"result still moving by {delta:.3e} at {n} points")
    if 0 < unit_mass < sys.float_info.min:
        raise torus.DomainError(
            f"the field mass at unit amplitude, {unit_mass!r}, is below the "
            f"normal float range at zeta={zeta!r}")
    if not 0 < unit_mass < math.inf or not math.isfinite(m_e / unit_mass):
        raise torus.DomainError(
            f"no finite amplitude gives field mass {m_e!r} at zeta={zeta!r}: "
            f"the mass at unit amplitude is {unit_mass!r}")
    e0 = math.sqrt(m_e / unit_mass)
    alpha_q = 2 * zeta ** 2 / math.pi
    if alpha_q < sys.float_info.min:
        raise torus.DomainError(
            f"the coupling 2 zeta^2 / pi underflows to 0 or below the normal "
            f"float range at zeta={zeta!r}")
    q = zeta ** 2 * e0 * r_s ** 2
    m_s = e0 * e0 * s_c / (4 * omega_s * c)
    return {
        "e0": e0, "s_c": s_c, "delta_tau": 2 * math.pi ** 2 * zeta ** 2 * r_s ** 3,
        "alpha_q": alpha_q, "q": q, "m_s": m_s,
        "mass_identity_ratio": math.pi * q * q / (
            4 * zeta ** 2 * omega_s * c * r_s ** 2) / m_s,
        "radius_identity_ratio": (math.pi / (2 * zeta ** 2)) * q * q / (
            2 * m_s * c ** 2) / r_s,
        "coupling_identity_ratio": q * q * m_e / (hbar * c * m_s) / alpha_q,
        "mu_s": q * omega_s / (2 * math.pi) * (math.pi * r_s ** 2),
        "mu_closed_form": 0.5 * q * hbar / (2 * m_e),
    }


def stacked_fields(ev):
    m, ch, sp = ev.model, ev.chain, ev.spin
    return {"e0": m.e0, "s_c": m.s_c, "delta_tau": m.delta_tau,
            "alpha_q": ch.alpha_q, "q": ch.q, "m_s": ch.m_s,
            "mass_identity_ratio": ch.mass_identity_ratio,
            "radius_identity_ratio": ch.radius_identity_ratio,
            "coupling_identity_ratio": ch.coupling_identity_ratio,
            "mu_s": sp.mu_s, "mu_closed_form": sp.mu_closed_form}


def loop_error(units, zetas, n_points):
    """(type, message) of the first failing zeta of the loop, or None."""
    try:
        for z in zetas:
            loop_torus(units, z, n_points)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return None


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=24),
       st.sampled_from(("natural", "gaussian_cgs")),
       st.sampled_from((64, 100, 256, 512)))
def test_torus_stack_matches_loop(zetas, mode, n):
    units = torus.unit_system(mode)
    if loop_error(units, zetas, n):
        return
    got = stacked_fields(torus.evaluate(units, zetas, n))
    for i, z in enumerate(zetas):
        for key, want in loop_torus(units, z, n).items():
            assert abs(got[key][i] - want) <= TOL * abs(want), (key, z)


BAD_STACKS = [
    ("natural", [0.3, 0.5, 1.5, 0.7]),          # out of range
    ("natural", [0.3, 0.0]),
    ("natural", [0.3, float("nan")]),
    ("natural", [0.3, 1e-160, 0.5]),            # unit mass below normal floats
    ("natural", [0.3, 1e-160, 2.0]),
    ("gaussian_cgs", [0.3, 1e-140, 0.5]),       # unit mass underflows to 0
    ("gaussian_cgs", [0.3, 0.2, 1e-150, 5.0]),
]


@pytest.mark.parametrize("mode, zetas", BAD_STACKS)
def test_torus_stack_raises_the_first_failing_zeta(mode, zetas):
    units = torus.unit_system(mode)
    want = loop_error(units, zetas, 256)
    assert want is not None
    with pytest.raises(want[0]) as info:
        torus.evaluate(units, zetas, 256)
    assert (type(info.value), str(info.value)) == want
    with pytest.raises(ValueError, match="n_points must be >= 64"):
        torus.evaluate(units, [0.3] + zetas, 10)


@pytest.mark.parametrize("n", [64, 256])
def test_torus_stack_rows_share_one_doubling(n, monkeypatch):
    # with no tolerance the quadrature is accepted only when a doubling
    # repeats the zeta-free shape integral exactly; every row of the stack is
    # that one integral times its own prefactor
    monkeypatch.setattr(torus, "CONVERGENCE_TOL", 0.0)
    units = torus.UnitSystem.natural()
    zetas = [0.05, 0.1, 0.3, 0.37, 0.5, 0.7, 1.0]
    stacked = torus.evaluate(units, zetas, n)
    got = stacked_fields(stacked)
    for i, z in enumerate(zetas):
        assert row_of(stacked, i) == torus.evaluate(units, z, n)
        for key, want in loop_torus(units, z, n).items():
            assert abs(got[key][i] - want) <= TOL * abs(want), (key, z)


@pytest.mark.parametrize("zetas", [[0.3, 0.5, 0.7], [0.05, 1.0, 1e-160],
                                   [0.7]])
def test_torus_stack_raises_the_first_unconverged_zeta(zetas, monkeypatch):
    # with no tolerance and one doubling, the natural cos^2 shape quadrature
    # from 64 points still moves, whatever the zeta
    monkeypatch.setattr(torus, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(torus, "MAX_DOUBLINGS", 1)
    units = torus.UnitSystem.natural()
    message = "result still moving by 5.551e-17 at 128 points"
    for stack in [zetas, *zetas]:
        with pytest.raises(torus.QuadratureNotConverged) as info:
            torus.evaluate(units, stack, 64)
        assert type(info.value) is torus.QuadratureNotConverged
        assert str(info.value) == message
    # the first failing zeta decides, whichever stage the later ones fail at
    with pytest.raises(torus.QuadratureNotConverged, match=message):
        torus.evaluate(units, [0.3, 2.0], 64)
    with pytest.raises(torus.DomainError, match="got 2.0$"):
        torus.evaluate(units, [2.0, 0.3], 64)


@pytest.mark.parametrize("argv", [
    ["--min", "1e-160", "--max", "0.5", "--steps", "3"],
    ["--min", "1e-140", "--max", "0.5", "--steps", "4", "--units",
     "gaussian_cgs"]])
def test_sweep_zeta_error_line_is_the_first_failing_zeta(argv, capsys):
    from semiphoton.cli import main
    assert main(["sweep-zeta"] + argv) == 2
    captured = capsys.readouterr()
    units = torus.unit_system("gaussian_cgs" if "--units" in argv else "natural")
    _, message = loop_error(units, torus.zeta_grid(
        float(argv[1]), float(argv[3]), int(argv[5])), 256)
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_centripetal_stack_matches_single_pairs():
    rng = np.random.default_rng(11)
    pairs = rng.uniform([0.1, 0.1], [5.0, 3.0], size=(16, 2))
    rng = np.random.default_rng(11)
    alternating = [float(rng.uniform(lo, hi))
                   for _ in range(16) for lo, hi in ((0.1, 5.0), (0.1, 3.0))]
    assert pairs.ravel().tolist() == alternating
    omega, r = pairs.T
    rep = dynamics.centripetal_check(omega, r)
    assert rep.curl.shape == (16, 3)
    for i in range(16):
        one = dynamics.centripetal_check(float(omega[i]), float(r[i]))
        assert np.array_equal(one.curl, rep.curl[i])
        assert one.acceleration_magnitude == rep.acceleration_magnitude[i]
        assert type(one.acceleration_magnitude) is float
    with pytest.raises(ValueError):
        dynamics.centripetal_check(omega, np.where(r > 1, 0.0, r))


def test_centripetal_spot_pair_is_row_zero_of_the_stack():
    pairs = np.random.default_rng(4).uniform([0.1, 0.1], [5.0, 3.0], (16, 2))
    omega, r = np.concatenate([[[2.0, 0.5]], pairs]).T
    rep = dynamics.centripetal_check(omega, r)
    one = dynamics.centripetal_check(2.0, 0.5)
    assert np.array_equal(one.curl, rep.curl[0])
    assert one.acceleration_magnitude == rep.acceleration_magnitude[0]


ROUND_TRIP_LAYOUTS = [bridge.layout_for_triad(t, charge_conjugated=conj)
                      for t in dirac.axis_triads() for conj in (False, True)]


def loop_layout_field(rng, layout, n):
    """One layout's draw, placed one slot at a time."""
    vals = rng.uniform(-2.0, 2.0, size=(n, 4))
    e, h = np.zeros((n, 3)), np.zeros((n, 3))
    for j, (kind, ax, _) in enumerate(layout.slots):
        (e if kind == "e" else h)[:, bridge.AXIS_INDEX[ax]] = vals[:, j]
    return e, h


def loop_fields_from_bispinor(psi, layout):
    """One layout's inverse map, one slot at a time."""
    e = np.zeros(psi.shape[:-1] + (3,), dtype=complex)
    h = np.zeros_like(e)
    for j, (kind, ax, factor) in enumerate(layout.slots):
        (e if kind == "e" else h)[..., bridge.AXIS_INDEX[ax]] = psi[..., j] / factor
    return e, h


def test_stacked_layout_draws_match_one_layout_at_a_time():
    f = suites._random_layout_field(np.random.default_rng(3),
                                    ROUND_TRIP_LAYOUTS, 16)
    assert f.e.shape == (12, 16, 3)
    rng = np.random.default_rng(3)
    for i, layout in enumerate(ROUND_TRIP_LAYOUTS):
        e, h = loop_layout_field(rng, layout, 16)
        assert np.array_equal(f.e[i], e) and np.array_equal(f.h[i], h)


def test_case_maps_match_one_layout_at_a_time():
    x = np.random.default_rng(5).normal(size=(2, 12, 16, 4))
    psi = x[0] + 1j * x[1]
    back = bridge.case_fields(psi, ROUND_TRIP_LAYOUTS)
    spinors = bridge.case_spinors(back, ROUND_TRIP_LAYOUTS)
    for i, layout in enumerate(ROUND_TRIP_LAYOUTS):
        e, h = loop_fields_from_bispinor(psi[i], layout)
        assert np.array_equal(back.e[i], e) and np.array_equal(back.h[i], h)
        one = bridge.fields_from_bispinor(psi[i], layout)
        assert np.array_equal(one.e, e) and np.array_equal(one.h, h)
        assert np.array_equal(spinors[i],
                              bridge.bispinor_from_fields(back[i], layout))


def loop_matter_motion(g_field, u_field, v_field, p, h=dynamics.FD_STEP):
    """The residual at one point, one central difference at a time."""
    def partial(field, axis):
        dp = np.zeros(3)
        dp[axis] = h
        return (np.asarray(field(p + dp)) - np.asarray(field(p - dp))) / (2 * h)

    dx, dy, dz = (partial(g_field, axis) for axis in range(3))
    curl = np.array([dy[2] - dz[1], dz[0] - dx[2], dx[1] - dy[0]])
    grad = np.array([partial(u_field, axis) for axis in range(3)])
    return grad - np.cross(v_field(p), curl)


def test_matter_motion_stack_matches_single_points():
    def g_field(p):
        return np.stack([p[..., 1] * p[..., 2], -p[..., 0] ** 2,
                         np.sin(p[..., 1])], axis=-1)

    def u_field(p):
        return p[..., 0] * p[..., 1] ** 2 + np.cos(p[..., 2])

    def v_field(p):
        return np.stack([p[..., 2], 1.5 * p[..., 0], -p[..., 1]], axis=-1)

    pts = np.random.default_rng(8).uniform(-1, 1, size=(9, 3))
    res = dynamics.matter_motion_residual(g_field, u_field, v_field, pts)
    assert res.shape == (9, 3)
    for i, p in enumerate(pts):
        assert np.array_equal(
            res[i], loop_matter_motion(g_field, u_field, v_field, p))


def test_hermiticity_stack_matches_each_matrix():
    x = np.random.default_rng(9).normal(size=(2, 6, 4, 4))
    odd = dirac.AlphaSet("random", *(x[0] + 1j * x[1]))
    for aset in (CANON, dirac.alpha_prime_set(), odd):
        got = dirac.hermiticity_deviations(aset)
        want = {k: float(np.abs(m - m.conj().T).max())
                for k, m in aset.named().items()}
        assert got == want
        assert all(type(v) is float for v in got.values())


def test_field_interpretation_stack_matches_single_states():
    p = np.array([0.0, 1.3, 0.0])
    states = [*planewave.make_states("positive", p),
              *planewave.make_states("negative", p)]
    stack = planewave.PlaneWaveState(
        np.array([s.energy for s in states]), np.tile(p, (4, 1)),
        np.stack([s.amplitudes for s in states]))
    got = planewave.field_interpretation(stack, LAYOUT)
    for i, state in enumerate(states):
        one = planewave.field_interpretation(state, LAYOUT)
        assert got.sparsity[i] == one.sparsity
        assert got.e_amplitude[i] == one.e_amplitude
        assert got.h_amplitude[i] == one.h_amplitude
        assert np.array_equal(got.field.e[i], one.field.e)
    off = stack._replace(momentum=np.tile([0.0, 1.3, 0.1], (4, 1)))
    with pytest.raises(planewave.AxisMismatch):
        planewave.field_interpretation(off, LAYOUT)


def test_ring_forces_stack_matches_single_amplitudes():
    e_amp, h_amp = np.array([(1.0, 1.0), (0.5, 2.0), (2.2, 0.0)]).T
    for pol in ("Ex_Hz", "Ez_Hx"):
        got = dynamics.lorentz_force_ring(MODEL, e_amp, pol, h_amp)
        for i in range(3):
            one = dynamics.lorentz_force_ring(MODEL, float(e_amp[i]), pol,
                                              float(h_amp[i]))
            assert (got.f2[i], got.f0[i]) == (one.f2, one.f0)
    with pytest.raises(ValueError):
        dynamics.lorentz_force_ring(MODEL, -e_amp, "Ex_Hz")
