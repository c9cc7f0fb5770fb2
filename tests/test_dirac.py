from functools import reduce

import numpy as np
import pytest

from semiphoton import dirac, dynamics, linalg

I4 = np.eye(4, dtype=complex)


def test_canonical_entries_pinned():
    a = dirac.canonical_alpha_set()
    assert a.a2[0, 3] == -1j
    np.testing.assert_array_equal(np.diag(a.a4), [1, 1, -1, -1])
    np.testing.assert_array_equal(a.a1[0], [0, 0, 0, 1])
    np.testing.assert_array_equal(a.a3[1], [0, 0, 0, -1])
    # product matrix, multiplied out by hand
    expected_a5 = np.array([[0, 0, -1j, 0],
                            [0, 0, 0, -1j],
                            [1j, 0, 0, 0],
                            [0, 1j, 0, 0]])
    np.testing.assert_array_equal(a.a5, expected_a5)


def test_canonical_set_is_one_read_only_instance():
    a = dirac.canonical_alpha_set()
    assert a is dirac.canonical_alpha_set() is dynamics.ASET
    for m in a.named().values():
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    np.testing.assert_array_equal(np.diag(a.a4), [1, 1, -1, -1])


def test_canonical_algebra_exact():
    a = dirac.canonical_alpha_set()
    assert dirac.anticommutation_deviation(a) == 0.0
    product = reduce(linalg.mat_mul, a.generators())
    assert linalg.max_abs_diff(product, a.a5) == 0.0
    assert dirac.a5_anticommutation_deviation(a) == 0.0
    assert max(dirac.hermiticity_deviations(a).values()) == 0.0


def test_alpha_squares_are_identity():
    a = dirac.canonical_alpha_set()
    for m in a.generators():
        np.testing.assert_array_equal(m @ m, I4)


def test_anticommutation_detects_malformed_set():
    a = dirac.canonical_alpha_set()
    broken = dirac.AlphaSet(label="broken", a0=a.a0, a1=I4, a2=a.a2,
                            a3=a.a3, a4=a.a4, a5=a.a5)
    assert dirac.anticommutation_deviation(broken) == 2.0  # {I, a2} = 2 a2


def in_class(m, rep):
    return any(np.array_equal(m, ph * rep) for ph in dirac.PHASES)


def test_group_has_16_phase_classes():
    reps = dirac.generate_group(dirac.canonical_alpha_set())
    assert len(reps) == 16
    # no two representatives share a class
    assert not any(in_class(x, y) for i, x in enumerate(reps)
                   for y in reps[:i])
    # identity present, and a1 a4 is its own class
    a = dirac.canonical_alpha_set()
    classes = [[k for k, r in enumerate(reps) if in_class(m, r)]
               for m in (I4, a.a1 @ a.a4, a.a1, a.a4)]
    assert [len(c) for c in classes] == [1, 1, 1, 1]
    k = [c[0] for c in classes]
    assert k[0] == 0 and k[1] != k[2] and k[1] != k[3]


def test_group_closure_failure_gives_17_classes():
    a = dirac.canonical_alpha_set()
    rot = np.diag([1, 1j ** 0.5, 1, 1]).astype(complex)  # irrational phase
    broken = dirac.AlphaSet(label="open", a0=a.a0, a1=rot, a2=a.a2,
                            a3=a.a3, a4=a.a4, a5=a.a5)
    assert len(dirac.generate_group(broken)) == 17


def test_prime_set_defects_measured_not_patched():
    p = dirac.alpha_prime_set()
    devs = dirac.hermiticity_deviations(p)
    assert devs["a2"] == 2.0
    assert all(devs[k] == 0.0 for k in ("a0", "a1", "a3", "a4", "a5"))
    assert dirac.anticommutation_deviation(p) == 4.0
    product = reduce(linalg.mat_mul, p.generators())
    assert linalg.max_abs_diff(product, p.a5) == 2.0
    # spot values straight from the tabulated entries
    assert p.a3[0, 0] == 1
    assert p.a4[0, 3] == -1


def test_triads_pinned_to_tabulated_layouts():
    t = dirac.triad("y", "negative")
    assert t.e_axes == ("x", "z")
    assert t.matrix_axes == (("a1", "x"), ("a2", "y"), ("a3", "z"))
    assert t.sign == -1
    assert dirac.triad("x", "negative").e_axes == ("z", "y")
    assert dirac.triad("z", "negative").e_axes == ("y", "x")
    assert dirac.triad("y", "positive").e_axes == ("z", "x")
    assert dirac.triad("x", "positive").e_axes == ("y", "z")
    assert dirac.triad("z", "positive").e_axes == ("x", "y")
    assert all(t.working == "a2" for t in dirac.axis_triads())
    assert len(dirac.axis_triads()) == 6


def test_s_matrix_pinned_and_unitary():
    s = dirac.s_matrix()
    root_half = 1 / np.sqrt(2)
    assert s[0, 3] == pytest.approx(-root_half)
    assert s[3, 2] == pytest.approx(-root_half)
    assert s[0, 0] == pytest.approx(root_half)
    assert linalg.is_unitary(s, 1e-15)


def test_identity_transform_is_noop():
    a = dirac.canonical_alpha_set()
    for mode in ("two_sided", "similarity"):
        moved = dirac.canonical_transform(I4, a, mode)
        for name, m in moved.named().items():
            np.testing.assert_array_equal(m, a.named()[name])


def test_transform_requires_unitary():
    a = dirac.canonical_alpha_set()
    with pytest.raises(dirac.NotUnitaryError):
        dirac.canonical_transform(2 * I4, a, "similarity")


def test_similarity_mode_wins():
    """Exactly one mode carries the canonical set onto the tabulated prime set.

    The similarity mode reproduces every matrix except the defective a2
    block; the literal two-sided product reproduces none of them.
    """
    match = dirac.transform_mode_match(dirac.s_matrix(),
                                       dirac.canonical_alpha_set(),
                                       dirac.alpha_prime_set())
    sim = match["similarity"]
    assert max(v for k, v in sim.items() if k != "a2") <= 1e-15
    assert sim["a2"] == pytest.approx(2.0)
    assert min(match["two_sided"].values()) > 0.4


def test_similarity_preserves_anticommutation():
    rng = np.random.default_rng(11)
    a = dirac.canonical_alpha_set()
    for _ in range(5):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        moved = dirac.canonical_transform(u, a, "similarity")
        assert dirac.anticommutation_deviation(moved) <= 1e-12
