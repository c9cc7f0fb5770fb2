import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semiphoton
from semiphoton import linalg

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def rand_matrix(draw_vals):
    vals = np.array(draw_vals, dtype=float)
    return (vals[:16] + 1j * vals[16:]).reshape(4, 4)


matrix_strategy = st.lists(finite, min_size=32, max_size=32).map(rand_matrix)


def test_mat_mul_identity():
    eye = np.eye(4, dtype=complex)
    np.testing.assert_array_equal(linalg.mat_mul(eye, eye), eye)


def test_mat_mul_shape_checked():
    with pytest.raises(ValueError):
        linalg.mat_mul(np.eye(3), np.eye(3))


def test_non_finite_rejected():
    bad = np.eye(4, dtype=complex)
    bad = bad.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        linalg.as_matrix(bad)
    with pytest.raises(ValueError):
        linalg.as_vec3([1.0, np.inf, 0.0])


def test_vectors_stack_up_to_two_axes():
    assert linalg.as_vec3(np.zeros((2, 5, 3))).shape == (2, 5, 3)
    with pytest.raises(ValueError):
        linalg.as_vec3(np.zeros((2, 2, 5, 3)))
    with pytest.raises(ValueError):
        linalg.as_bispinor(np.zeros((2, 5, 4)))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 4, 4)))


# Each ``@`` allowed in the package, by module and function, with its reason.
MATMUL_ALLOWED = {}


def _matmul_sites(tree, module):
    """module.function (module for top-level code) of every ``@`` in tree."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            here = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                here = f"{where}.{child.name}" if where == module else where
            if isinstance(child, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(child.op, ast.MatMult):
                yield here, child.lineno
            yield from visit(child, here)
    return list(visit(tree, module))


def test_no_matrix_operator_in_the_package():
    """Complex 4x4 products go through einsum (``mat_mul``, ``mat_vec``).

    One complex ``@`` reaches OpenBLAS, and on some x86 CPUs later libm calls
    in the same process then run several times slower.
    """
    package = pathlib.Path(semiphoton.__file__).parent
    sites = [site for path in sorted(package.glob("*.py"))
             for site in _matmul_sites(ast.parse(path.read_text()), path.stem)]
    assert [s for s in sites if s[0] not in MATMUL_ALLOWED] == []
    # an allowlisted function that no longer uses ``@`` leaves the list
    assert sorted({where for where, _ in sites}) == sorted(MATMUL_ALLOWED)


def _np_cross_sites(tree):
    """Line of every ``np.cross``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cross" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            yield node.lineno


def test_no_np_cross_in_the_package():
    """``linalg.cross`` gives np.cross's bits without its axis handling."""
    package = pathlib.Path(semiphoton.__file__).parent
    sites = [(path.stem, line) for path in sorted(package.glob("*.py"))
             for line in _np_cross_sites(ast.parse(path.read_text()))]
    assert sites == []


@pytest.mark.parametrize("shape", [(3,), (7, 3), (1000, 3), (4, 7, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_cross_is_np_cross_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(len(shape) + shape[0])
    a, b = (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            for _ in range(2))
    if dtype is complex:
        a = a + 1j * rng.normal(size=shape)
        b = b - 1j * rng.normal(size=shape)
    want, got = np.cross(a, b), linalg.cross(a, b)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=50)
@given(matrix_strategy, matrix_strategy, matrix_strategy)
def test_associativity(a, b, c):
    left = (a @ b) @ c
    right = a @ (b @ c)
    scale = max(linalg.entry_norm(left), linalg.entry_norm(right), 1.0)
    assert linalg.max_abs_diff(left, right) / scale <= 1e-13


@settings(deadline=None, max_examples=50)
@given(matrix_strategy)
def test_adjoint_involution(a):
    np.testing.assert_array_equal(linalg.adjoint(linalg.adjoint(a)), a)


def test_adjoint_product_exact_for_integer_entries():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(-3, 4, size=(4, 4)) + 1j * rng.integers(-3, 4, size=(4, 4))
        b = rng.integers(-3, 4, size=(4, 4)) + 1j * rng.integers(-3, 4, size=(4, 4))
        lhs = linalg.adjoint(a @ b)
        rhs = linalg.adjoint(b) @ linalg.adjoint(a)
        assert linalg.max_abs_diff(lhs, rhs) == 0.0


def test_is_unitary():
    eye = np.eye(4, dtype=complex)
    assert linalg.is_unitary(eye)
    assert not linalg.is_unitary(2 * eye)


def test_unitary_closed_under_composition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        z2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q2, r2 = np.linalg.qr(z2)
        v = q2 * (np.diag(r2) / np.abs(np.diag(r2)))
        assert linalg.is_unitary(u)
        assert linalg.is_unitary(u @ v)
        assert linalg.is_unitary(v @ u)


def test_entry_norm():
    m = np.zeros((4, 4), dtype=complex)
    m[2, 1] = 3 - 4j
    assert linalg.entry_norm(m) == 5.0
