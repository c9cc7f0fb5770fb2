"""Registry of the 4x4 anticommuting matrix sets and their machinery.

Holds the canonical alpha set (a1..a3 off-diagonal, a4 the diagonal parity
matrix, a5 their product), an alternate "primed" variant reproduced exactly as
tabulated (including its defects, which callers verify rather than assume),
the six axis triads that assign field slots to each propagation direction,
the 16-element phase-class group, and unitary changes of representation.

The algebra kernels multiply stacks of matrices with ``einsum``, never a
complex matrix-matrix ``@``.  The group closure forms each round's products
as one stack and keys each product by its phase class, the bytes of the
product turned by a power of -i to a fixed phase, so a class is a set lookup
and two members match only when they are equal up to the phase exactly.  A
set that does not close returns 17 classes instead of raising.

The two alpha sets, the six triads and the mixing matrix are built once, at
import; their accessors return the same read-only objects on every call.
"""
from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .linalg import (as_matrices, as_matrix, entry_norm, frozen,
                     hermiticity_deviation, is_unitary, mat_mul, max_abs_diff)

PHASES = (1 + 0j, -1j, -1 + 0j, 1j)  # (-i)^q for q = 0..3

class NotUnitaryError(ValueError):
    pass


class AlphaSet(NamedTuple):
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
    """The standard alpha set, a5 = a1 a2 a3 a4, read-only and built at import.

    Every kernel that applies the set reads it here, when it is called."""
    return _CANONICAL


_PRIME = _alpha_set(
    "prime",
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1j], [0, 0, 1j, 0]],
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    a5=[[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
)


def alpha_prime_set():
    """The alternate tabulated set, transcribed verbatim.

    Reproduced exactly as tabulated, defects included: a2 here is not
    hermitian (its lower-right block has the wrong conjugation) and the set
    does not anticommute cleanly.  Verification code measures and ledgers
    this instead of correcting it.  One read-only instance, built at import.
    """
    return _PRIME


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
        np.array(list(names.values()))).tolist()))


def _class_keys(mats):
    """One bytes key per matrix of a (k, 4, 4) stack, equal exactly when two
    matrices differ by a phase in PHASES.

    Each matrix is turned by the power (-i)^q, PHASES[q], that brings its
    first non-zero entry to an angle in [0, pi/2); a phase moves that entry
    by whole quarter turns, so every member of a class turns to the same
    entries.  Multiplying by 0 or +-1 is exact, and + 0.0 folds the signed
    zeros it leaves.  A NaN leading entry is left unturned.
    """
    flat = mats.reshape(len(mats), 16)
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    re, im = lead.real, lead.imag
    quarter = np.select([(re <= 0) & (im > 0), (re < 0) & (im <= 0),
                         (re >= 0) & (im < 0)], [1, 2, 3])
    with np.errstate(invalid="ignore"):  # an inf entry times 0
        turned = flat * np.array(PHASES)[quarter, None] + 0.0
    return [row.tobytes() for row in turned]


def generate_group(aset):
    """Close {I, a1..a5} under products, identified up to phase in {1,-1,i,-i}.

    Returns the class representatives, the first member of each class in
    product order: 16 for a well-formed set, 17 for any set that does not
    close, whose rounds stop once they pass 16.  Each round multiplies the
    representatives known at its start with each other as one stack and
    keeps the products whose class key is new.
    """
    reps, keys = [], set()
    batch = np.array((np.eye(4, dtype=complex), aset.a1, aset.a2, aset.a3,
                      aset.a4, aset.a5))
    while len(reps) <= 16:
        known = len(reps)
        for m, key in zip(batch, _class_keys(batch)):
            if key not in keys:
                keys.add(key)
                reps.append(m)
        if len(reps) == known:
            break
        batch = _pair_products(np.array(reps)).reshape(-1, 4, 4)
    return reps[:17]


class AxisTriad(NamedTuple):
    """Field slot order for one propagation direction.

    ``e_axes`` names the transverse pair whose E and then H components occupy
    the four spinor slots (the h slots carry a factor i).  Of the vector
    matrices only a2 produces a non-zero energy-flux bilinear, with the
    carried ``sign`` on the triad's axis.
    """
    axis: str
    orientation: str
    e_axes: tuple
    sign: int

    @property
    def name(self):
        return f"{self.orientation}-{self.axis}"


# Transverse slot order per direction; the positive orientation swaps the pair.
_NEGATIVE_SLOTS = {"y": ("x", "z"), "x": ("z", "y"), "z": ("y", "x")}


# One triad per axis and orientation, slots as tabulated.
_TRIADS = tuple(
    AxisTriad(axis=axis, orientation=orientation, e_axes=pair, sign=sign)
    for orientation, sign in (("negative", -1), ("positive", +1))
    for axis in ("y", "x", "z")
    for pair in [_NEGATIVE_SLOTS[axis][::-sign]])  # positive: swapped
_TRIAD_BY_KEY = {(t.axis, t.orientation): t for t in _TRIADS}


def axis_triads():
    """The six triads: one per axis and orientation, slots as tabulated.

    The same tuple, built at import, on every call.
    """
    return _TRIADS


def triad(axis, orientation):
    """The triad of (axis, orientation); KeyError for any other pair."""
    return _TRIAD_BY_KEY[axis, orientation]


_S = frozen(as_matrix([[1, 0, 0, -1],
                       [0, 1, 1, 0],
                       [1, 0, 0, 1],
                       [0, 1, -1, 0]]) / np.sqrt(2))


def s_matrix():
    """The 1/sqrt(2)-scaled unitary mixing matrix between the two sets,
    read-only and built at import."""
    return _S


def canonical_transform(s, aset, mode):
    """Change of representation by the unitary s, or by each of a stack of them.

    ``two_sided`` applies S a S literally; ``similarity`` applies S^+ a S.
    Both are provided so the intended product can be adjudicated numerically
    instead of hard-coded.  The six matrices are moved as one stack; for s of
    shape (n, 4, 4) each matrix of the result is an (n, 4, 4) stack, one set
    per unitary.
    """
    s = as_matrices(s)
    if not is_unitary(s):
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
