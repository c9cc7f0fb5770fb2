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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semiphoton import bridge, dirac, dynamics, planewave, torus
from semiphoton.bridge import BilinearKind, EmField

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

    return dynamics.WavePoint(field(), field(), field())


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
        for kind in BilinearKind:
            k = int(kind.value[1])
            assert bridge.bilinear(kind, p, CANON) == got[i, k]
        assert np.array_equal(bridge.bilinear_vector(p, CANON), got[i, 1:4])


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


def loop_build_system(energy, p, mass, c=1.0):
    px, py, pz = p
    mc2 = mass * c * c
    return np.array([
        [energy + mc2, 0, c * pz, c * (px - 1j * py)],
        [0, energy + mc2, c * (px + 1j * py), -c * pz],
        [c * pz, c * (px - 1j * py), energy - mc2, 0],
        [c * (px + 1j * py), -c * pz, 0, energy - mc2],
    ], dtype=complex)


@st.composite
def momenta_and_energies(draw):
    n = draw(sizes)
    return draw(stack(3, n)) * 3, draw(stack(1, n))[:, 0] * 3


@settings(deadline=None, max_examples=100)
@given(momenta_and_energies())
def test_build_system_and_determinant_match_loop(pe):
    p, eps = pe
    got = planewave.build_system(eps, p, 1.0)
    want = np.array([loop_build_system(e, q, 1.0) for e, q in zip(eps, p)])
    assert np.array_equal(got, want)
    assert np.array_equal(np.linalg.det(got),
                          [np.linalg.det(m) for m in want])


@settings(deadline=None, max_examples=100)
@given(momenta_and_energies())
def test_solution_basis_matches_loop(pe):
    p, _ = pe
    for branch in ("positive", "negative"):
        got = planewave.solution_basis(branch, p, 1.0, phase=0.3)
        ph = complex(math.cos(0.3), math.sin(0.3))
        for i, (px, py, pz) in enumerate(p):
            eps = math.sqrt(px * px + py * py + pz * pz + 1.0)
            if branch == "positive":
                d = eps + 1.0
                first = [-pz / d, -(px + 1j * py) / d, 1, 0]
                second = [-(px - 1j * py) / d, pz / d, 0, 1]
            else:  # energy -eps, so the denominator is again eps + m c^2
                d = eps + 1.0
                first = [1, 0, pz / d, (px + 1j * py) / d]
                second = [0, 1, (px - 1j * py) / d, -pz / d]
            for vec, want in ((got[0][i], first), (got[1][i], second)):
                want = np.array(want, dtype=complex) * ph
                # entries are sums of at most two terms of size <= 1
                assert_close(vec, want, np.float64(4.0))
            one = planewave.solution_basis(branch, p[i], 1.0, phase=0.3)
            assert np.array_equal(one[0], got[0][i])
            assert np.array_equal(one[1], got[1][i])


@settings(deadline=None, max_examples=100)
@given(momenta_and_energies(), spinors())
def test_residual_matches_loop(pe, amps):
    p, eps = pe
    n = min(len(p), len(amps))
    state = planewave.PlaneWaveState(eps[:n], p[:n], amps[:n], 0.0, "positive")
    got = planewave.residual(state, CANON, 1.0)
    want, scale = [], []
    for e, q, a in zip(eps[:n], p[:n], amps[:n]):
        op = (e * CANON.a0 + (q[0] * CANON.a1 + q[1] * CANON.a2
                              + q[2] * CANON.a3) + CANON.a4)
        want.append(np.abs(op @ a).max())
        scale.append((np.abs(op) @ np.abs(a)).max())
    assert_close(got, want, np.array(scale))
    for i in range(n):
        one = planewave.PlaneWaveState(eps[i], p[i], amps[i], 0.0, "positive")
        assert planewave.residual(one, CANON, 1.0) == got[i]


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
    return [dynamics.WavePoint(a, b, c) for a, b, c in
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
    got = dynamics.lagrangian_linear(point, 1.0, LAYOUT, CANON)
    scale = point_scale(point)
    for i, one in enumerate(point_rows(point)):
        spinor, em, current = loop_linear(one)
        assert_close(got.spinor[i], spinor, scale[i])
        assert_close(got.em[i], em, scale[i])
        assert_close(got.current[i], current, scale[i])
        single = dynamics.lagrangian_linear(one, 1.0, LAYOUT, CANON)
        assert (single.spinor, single.em, single.current) == (
            got.spinor[i], got.em[i], got.current[i])


@settings(deadline=None, max_examples=100)
@given(wave_points())
def test_lagrangian_nonlinear_matches_loop(point):
    # the quartic routes are real-field identities; keep the real parts
    f = EmField(point.f.e.real, point.f.h.real)
    point = dynamics.WavePoint(f, point.df_dt, point.df_du)
    got = dynamics.lagrangian_nonlinear(point, MODEL, LAYOUT, CANON)
    pref = MODEL.delta_tau / ((8 * math.pi) ** 2 * MODEL.units.m_e)
    omega_e = 2.0
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
        assert_close(got.linear_invariant[i], (e2 - h2) / (8 * math.pi),
                     (e2 + h2) / (8 * math.pi))
        _, em, _ = loop_linear(one)
        linear_em = em + 1j * (omega_e / (8 * math.pi)) * (e2 - h2)
        assert_close(got.linear_em[i], (1j / omega_e) * linear_em,
                     point_scale(one) / omega_e)
        single = dynamics.lagrangian_nonlinear(one, MODEL, LAYOUT, CANON)
        assert single.total == got.total[i]


@st.composite
def residual_cases(draw):
    """A triad, its layout and n points of fields and derivatives on its slots.

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

    return t, layout, field(), field(), field()


@settings(deadline=None, max_examples=100)
@given(residual_cases(), st.sampled_from(("plus", "minus")),
       st.floats(0, 3, allow_nan=False))
def test_residual_stacks_match_single_points(case, form, mass):
    t, layout, f, ft, fu = case
    scalar = bridge.scalar_residuals(f, ft, fu, layout, mass, form)
    bisp = bridge.bispinor_residuals(f, ft, fu, t, layout, CANON, mass, form)
    assert scalar.shape == bisp.shape == (len(f.e), 4)
    for i, one in enumerate(zip(field_rows(f), field_rows(ft), field_rows(fu))):
        assert np.array_equal(
            bridge.scalar_residuals(*one, layout, mass, form), scalar[i])
        assert np.array_equal(
            bridge.bispinor_residuals(*one, t, layout, CANON, mass, form),
            bisp[i])


def test_stacks_are_validated():
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
