"""Registry of the 4x4 anticommuting matrix sets and their machinery.

Holds the canonical alpha set (a1..a3 off-diagonal, a4 the diagonal parity
matrix, a5 their product), an alternate "primed" variant reproduced exactly as
tabulated (including its defects, which callers verify rather than assume),
the six axis triads that assign matrices and field slots to each propagation
direction, the 16-element phase-class group, and unitary changes of
representation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (adjoint, anticommutator, as_matrix, entry_norm, frozen,
                     hermiticity_deviation, is_unitary, max_abs_diff)

PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

AXES = ("x", "y", "z")


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
        a5 = a1 @ a2 @ a3 @ a4
    return AlphaSet(label=label,
                    a0=frozen(np.eye(4, dtype=complex)),
                    a1=frozen(a1), a2=frozen(a2), a3=frozen(a3),
                    a4=frozen(a4), a5=frozen(as_matrix(a5)))


def canonical_alpha_set():
    """The standard alpha set; a5 is computed as the product a1*a2*a3*a4."""
    return _alpha_set(
        "canonical",
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    )


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


def anticommutation_deviation(aset):
    """Max entry of {a_mu, a_nu} - 2 delta_mu_nu I over the four generators."""
    gens = aset.generators()
    eye2 = 2 * np.eye(4, dtype=complex)
    dev = 0.0
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            target = eye2 if i == j else 0.0
            dev = max(dev, entry_norm(anticommutator(a, b) - target))
    return dev


def a5_product_deviation(aset):
    return max_abs_diff(aset.a1 @ aset.a2 @ aset.a3 @ aset.a4, aset.a5)


def a5_anticommutation_deviation(aset):
    return max(entry_norm(anticommutator(aset.a5, g)) for g in aset.generators())


def hermiticity_deviations(aset):
    return {name: hermiticity_deviation(m) for name, m in aset.named().items()}


def phase_class_index(m, representatives, tol=1e-9):
    """Index of the phase class of m among representatives, or None."""
    for k, r in enumerate(representatives):
        for ph in PHASES:
            if max_abs_diff(m, ph * r) <= tol:
                return k
    return None


def generate_group(aset, max_rounds=5):
    """Close {I, a1..a5} under products, identified up to phase in {1,-1,i,-i}.

    Returns the class representatives; a well-formed set closes at exactly 16.
    """
    reps = [np.eye(4, dtype=complex)]
    for m in (aset.a1, aset.a2, aset.a3, aset.a4, aset.a5):
        if phase_class_index(m, reps) is None:
            reps.append(np.asarray(m))
    for _ in range(max_rounds):
        new = []
        for x in reps:
            for y in reps:
                m = x @ y
                if phase_class_index(m, reps) is None and phase_class_index(m, new) is None:
                    new.append(m)
        if not new:
            break
        reps.extend(new)
        if len(reps) > 16:
            raise NonClosureError(
                f"closure reached {len(reps)} phase classes (expected 16)")
    else:
        if any(phase_class_index(x @ y, reps) is None for x in reps for y in reps):
            raise NonClosureError("closure not reached within product rounds")
    return reps


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
    """Change of representation by the unitary s.

    ``two_sided`` applies S a S literally; ``similarity`` applies S^+ a S.
    Both are provided so the intended product can be adjudicated numerically
    instead of hard-coded.
    """
    s = as_matrix(s)
    if not is_unitary(s, 1e-12):
        raise NotUnitaryError("transform matrix is not unitary")
    if mode == "two_sided":
        def conv(a):
            return s @ a @ s
    elif mode == "similarity":
        def conv(a):
            return adjoint(s) @ a @ s
    else:
        raise ValueError(f"unknown mode {mode!r}")
    named = {k: frozen(conv(m)) for k, m in aset.named().items()}
    return AlphaSet(label=f"{aset.label}:{mode}", **named)


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
