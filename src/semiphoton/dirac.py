"""Registry of the 4x4 anticommuting matrix sets and their machinery.

Holds the canonical alpha set (a1..a3 off-diagonal, a4 the diagonal parity
matrix, a5 their product), an alternate "primed" variant reproduced exactly as
tabulated (including its defects, which callers verify rather than assume),
the six axis triads that assign matrices and field slots to each propagation
direction, the 16-element phase-class group, and unitary changes of
representation.

The algebra kernels multiply stacks of matrices with ``einsum``, never a
complex matrix-matrix ``@``.  The group closure forms each round's products
as one stack and classifies them against the known classes CLASS_CHUNK
products at a time, so its temporaries stay small.  Each class is first
tested on one key entry, its largest in modulus, and only the (product,
phase, class) triples that pass it are compared on all 16 entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import (as_matrices, as_matrix, entry_norm, frozen,
                     hermiticity_deviation, is_unitary, mat_mul, max_abs_diff)

PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

PHASE_CLASS_TOL = 1e-9  # max entry gap of two matrices in one phase class
MAX_PRODUCT_ROUNDS = 5  # product rounds before the group must have closed
CLASS_CHUNK = 16  # products classified at a time; bounds the closure's memory


class NonClosureError(RuntimeError):
    """Product closure exceeded 16 phase classes; the input set is malformed."""


class NotUnitaryError(ValueError):
    pass


@dataclass(frozen=True)
class AlphaSet:
    label: str
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    a5: np.ndarray

    def named(self):
        return {"a0": self.a0, "a1": self.a1, "a2": self.a2,
                "a3": self.a3, "a4": self.a4, "a5": self.a5}

    def generators(self):
        return (self.a1, self.a2, self.a3, self.a4)


def _alpha_set(label, a1, a2, a3, a4, a5=None):
    a1, a2, a3, a4 = map(as_matrix, (a1, a2, a3, a4))
    if a5 is None:
        a5 = reduce(mat_mul, (a1, a2, a3, a4))
    return AlphaSet(label=label,
                    a0=frozen(np.eye(4, dtype=complex)),
                    a1=frozen(a1), a2=frozen(a2), a3=frozen(a3),
                    a4=frozen(a4), a5=frozen(as_matrix(a5)))


_CANONICAL = _alpha_set(
    "canonical",
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
    [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
)


def canonical_alpha_set():
    """The standard alpha set; a5 is computed as the product a1*a2*a3*a4.

    One read-only instance per process, built at import.
    """
    return _CANONICAL


def alpha_prime_set():
    """The alternate tabulated set, transcribed verbatim.

    Reproduced exactly as tabulated, defects included: a2 here is not
    hermitian (its lower-right block has the wrong conjugation) and the set
    does not anticommute cleanly.  Verification code measures and ledgers
    this instead of correcting it.
    """
    return _alpha_set(
        "prime",
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1j], [0, 0, 1j, 0]],
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
        a5=[[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
    )


def _pair_products(mats):
    """Every product m_a m_b of the k matrices of mats: (..., k, k, 4, 4)."""
    return np.einsum("...aij,...bjk->...abik", mats, mats)


def _anticommutators(mats):
    """{m_a, m_b} for every pair of the k matrices of mats: (..., k, k, 4, 4)."""
    prod = _pair_products(mats)
    return prod + np.swapaxes(prod, -4, -3)


_CLIFFORD = 2 * np.eye(4)[:, :, None, None] * np.eye(4)  # 2 delta_mu_nu I


def anticommutation_deviation(aset):
    """Max entry of {a_mu, a_nu} - 2 delta_mu_nu I over the four generators.

    The 16 anticommutators are one (4, 4, 4, 4) product stack.  A set whose
    matrices are stacks (n, 4, 4) gives the max over all n members.
    """
    gens = np.stack(aset.generators(), axis=-3)
    return entry_norm(_anticommutators(gens) - _CLIFFORD)


def a5_anticommutation_deviation(aset):
    """Max entry of {a5, a_mu} over the four generators, one product stack."""
    mats = np.stack((*aset.generators(), aset.a5), axis=-3)
    return entry_norm(_anticommutators(mats)[..., 4, :4, :, :])


def hermiticity_deviations(aset):
    """{name: max entry of m - m^+} over the six matrices, one stack."""
    names = aset.named()
    return dict(zip(names, hermiticity_deviation(
        np.stack(list(names.values()))).tolist()))


def _phase_matches(ms, classes):
    """Boolean (len(ms), len(classes)): ms[i] is phase * classes[j] for a phase.

    Equal means every entry within PHASE_CLASS_TOL, at any of the four PHASES.
    A row can equal phase * classes[j] only if it does on the key entry of
    classes[j], its largest in modulus; so each (row, phase, class) triple is
    tested on that one entry first, and on all 16 only if it passes, with the
    same products and comparison.  The rows of ms are taken CLASS_CHUNK at a
    time and the survivors of a chunk CLASS_CHUNK x len(classes) at a time, so
    the temporaries stay under CLASS_CHUNK x 4 x len(classes) matrices
    whatever the number of rows.
    """
    phases = np.asarray(PHASES)[:, None, None, None]
    phased = (phases * classes).reshape(4, -1, 16)
    k = phased.shape[1]
    key = np.abs(np.reshape(classes, (k, 16))).argmax(axis=1)
    keyed = phased[:, np.arange(k), key]  # (4, k)
    flat = np.reshape(ms, (-1, 16))
    out = np.zeros((len(flat), k), dtype=bool)
    batch = CLASS_CHUNK * max(k, 1)
    for start in range(0, len(flat), CLASS_CHUNK):
        rows = flat[start:start + CLASS_CHUNK]
        near = np.abs(rows[:, key][:, None] - keyed) <= PHASE_CLASS_TOL
        row, phase, cls = np.nonzero(near)
        for s in range(0, len(row), batch):
            i, p, j = row[s:s + batch], phase[s:s + batch], cls[s:s + batch]
            gap = rows[i]
            gap -= phased[p, j]
            hit = (np.abs(gap) <= PHASE_CLASS_TOL).all(axis=1)
            out[start + i[hit], j[hit]] = True
    return out


def _new_classes(candidates, classes):
    """The candidates, in order, in no class of classes or of an earlier pick.

    Reproduces appending the candidates one at a time to a growing list of
    classes: the first candidate of each new class is the one kept.
    """
    fresh = candidates[~_phase_matches(candidates, classes).any(axis=1)]
    same = _phase_matches(fresh, fresh)
    kept = []
    for i in range(len(fresh)):
        if not same[i, kept].any():
            kept.append(i)
    return fresh[kept]


def generate_group(aset):
    """Close {I, a1..a5} under products, identified up to phase in {1,-1,i,-i}.

    Returns the class representatives; a well-formed set closes at exactly 16.
    Each round multiplies the representatives known at its start with each
    other as one stack, classifies the products against those classes in
    chunks, and appends the unmatched ones in product order.
    """
    reps = np.eye(4, dtype=complex)[None]
    seeds = np.stack((aset.a1, aset.a2, aset.a3, aset.a4, aset.a5))
    reps = np.concatenate([reps, _new_classes(seeds, reps)])
    for _ in range(MAX_PRODUCT_ROUNDS):
        known = len(reps)
        products = _pair_products(reps).reshape(-1, 4, 4)
        reps = np.concatenate([reps, _new_classes(products, reps)])
        if len(reps) == known:
            break
        if len(reps) > 16:
            raise NonClosureError(
                f"closure reached {len(reps)} phase classes (expected 16)")
    else:
        products = _pair_products(reps).reshape(-1, 4, 4)
        if not _phase_matches(products, reps).any(axis=1).all():
            raise NonClosureError("closure not reached within product rounds")
    return list(reps)


@dataclass(frozen=True)
class AxisTriad:
    """Matrix assignment and field slot order for one propagation direction.

    ``matrix_axes`` names which generator acts for each coordinate derivative.
    ``e_axes``/``h_axes`` give the field components occupying the four spinor
    slots (the h slots carry a factor i).  Exactly one assigned matrix, the
    ``working`` one, produces a non-zero energy-flux bilinear, with the carried
    ``sign`` on the triad's axis.
    """
    axis: str
    orientation: str
    matrix_axes: tuple
    working: str
    e_axes: tuple
    h_axes: tuple
    sign: int

    @property
    def name(self):
        return f"{self.orientation}-{self.axis}"


_MATRIX_AXES = {
    "y": (("a1", "x"), ("a2", "y"), ("a3", "z")),
    "x": (("a2", "x"), ("a3", "y"), ("a1", "z")),
    "z": (("a3", "x"), ("a1", "y"), ("a2", "z")),
}

# Transverse slot order per direction; the positive orientation swaps the pair.
_NEGATIVE_SLOTS = {"y": ("x", "z"), "x": ("z", "y"), "z": ("y", "x")}


def axis_triads():
    """The six triads: one per axis and orientation, slots as tabulated."""
    triads = []
    for orientation, sign in (("negative", -1), ("positive", +1)):
        for axis in ("y", "x", "z"):
            pair = _NEGATIVE_SLOTS[axis]
            if orientation == "positive":
                pair = (pair[1], pair[0])
            triads.append(AxisTriad(axis=axis, orientation=orientation,
                                    matrix_axes=_MATRIX_AXES[axis],
                                    working="a2", e_axes=pair, h_axes=pair,
                                    sign=sign))
    return tuple(triads)


def triad(axis, orientation):
    for t in axis_triads():
        if t.axis == axis and t.orientation == orientation:
            return t
    raise KeyError((axis, orientation))


def s_matrix():
    """The 1/sqrt(2)-scaled unitary mixing matrix between the two sets."""
    return frozen(as_matrix([[1, 0, 0, -1],
                             [0, 1, 1, 0],
                             [1, 0, 0, 1],
                             [0, 1, -1, 0]]) / np.sqrt(2))


def canonical_transform(s, aset, mode):
    """Change of representation by the unitary s, or by each of a stack of them.

    ``two_sided`` applies S a S literally; ``similarity`` applies S^+ a S.
    Both are provided so the intended product can be adjudicated numerically
    instead of hard-coded.  The six matrices are moved as one stack; for s of
    shape (n, 4, 4) each matrix of the result is an (n, 4, 4) stack, one set
    per unitary.
    """
    s = as_matrices(s)
    if not is_unitary(s, 1e-12):
        raise NotUnitaryError("transform matrix is not unitary")
    if mode == "two_sided":
        left = s
    elif mode == "similarity":
        left = s.conj().swapaxes(-2, -1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    names = aset.named()
    mats = as_matrices(list(names.values()))
    moved = np.einsum("a...ij,...jk->a...ik",
                      np.einsum("...ij,ajk->a...ik", left, mats), s)
    return AlphaSet(label=f"{aset.label}:{mode}",
                    **{k: frozen(m) for k, m in zip(names, moved)})


def transform_mode_match(s, source, target):
    """Entrywise deviation of each transform mode from the target set.

    Returns {mode: {matrix name: max deviation}} for both modes, so the
    matching mode (if either) can be reported rather than assumed.
    """
    out = {}
    for mode in ("two_sided", "similarity"):
        moved = canonical_transform(s, source, mode)
        out[mode] = {k: max_abs_diff(m, target.named()[k])
                     for k, m in moved.named().items()}
    return out
