"""Structured check reports, discrepancy records, and run configuration.

Every verification produces a :class:`CheckReport` comparing a claimed value
against an independently computed one; its verdict is PASS when the error is
within either tolerance and FAIL otherwise, and a claimed 0, which has no
scale, passes within ``tol_abs`` only.  Known internal inconsistencies of
the model's closed forms are never patched silently; they are emitted as
:class:`Discrepancy` records in the ledger, which does not fail a run.
Every JSON document goes through :func:`document_json`, which is
``json.dumps(doc, indent=2, allow_nan=False)``, so NaN and infinities raise.
The records are NamedTuples, so a document holds their ``to_dict()`` or
``_asdict()``, never a record, which would be written as a list.
:class:`RunConfig` is a plain record of a verify run's settings: ``cli``
checks every value before it builds one, and builds every ``meta.config``
dict that the writers take.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from . import __version__

PASS = "pass"
FAIL = "fail"

SUITE_IDS = {
    "algebra": 1,
    "bilinear": 2,
    "fierz": 3,
    "torus": 4,
    "planewave": 5,
    "dynamics": 6,
}
SUITES = tuple(SUITE_IDS)

DEFAULT_TOL = 1e-12  # loosest tolerance a run may ask for


def _number(value):
    """A float for JSON; NaN and infinities as the strings "nan", "inf", "-inf".

    Bare NaN/Infinity tokens are not JSON, so strict parsers reject them.
    """
    x = float(value)
    return x if math.isfinite(x) else repr(x)


def _scalarize(value):
    """Encode a real or complex scalar for JSON ([re, im] for complex)."""
    if isinstance(value, complex) or np.iscomplexobj(value):
        z = complex(value)
        if z.imag == 0.0:
            return _number(z.real)
        return [_number(z.real), _number(z.imag)]
    return _number(value)


class CheckReport(NamedTuple):
    id: str
    ref: str
    claimed: object
    computed: object
    abs_err: float
    rel_err: float
    tol_abs: float
    tol_rel: float
    verdict: str
    notes: str = ""

    @classmethod
    def build(cls, id, ref, claimed, computed, tol_abs=1e-12, tol_rel=1e-12,
              notes=""):
        """computed is a scalar, or errors (an array, or a list or tuple of
        them) reduced by a max that any NaN makes NaN, so NaN never passes."""
        if isinstance(computed, np.ndarray):
            computed = float(computed.max())
        elif isinstance(computed, (list, tuple)):
            computed = float(np.max([np.max(e) for e in computed]))
        tol_abs, tol_rel = float(tol_abs), float(tol_rel)
        c0 = complex(claimed)
        abs_err = abs(complex(computed) - c0)
        rel_err = abs_err / abs(c0) if abs(c0) > 0 else abs_err
        verdict = PASS if abs_err <= tol_abs or (
            abs(c0) > 0 and rel_err <= tol_rel) else FAIL
        return cls(id=id, ref=ref, claimed=claimed, computed=computed,
                   abs_err=abs_err, rel_err=rel_err, tol_abs=tol_abs,
                   tol_rel=tol_rel, verdict=verdict, notes=notes)

    def to_dict(self):
        d = self._asdict()
        d["claimed"] = _scalarize(self.claimed)
        d["computed"] = _scalarize(self.computed)
        d["abs_err"] = _number(self.abs_err)
        d["rel_err"] = _number(self.rel_err)
        return d


class Discrepancy(NamedTuple):
    """One place where a stated closed form and the computed value disagree."""
    claim: str
    stated: object
    computed: object
    ratio: float
    note: str = ""

    def to_dict(self):
        d = self._asdict()
        d["stated"] = _scalarize(self.stated)
        d["computed"] = _scalarize(self.computed)
        d["ratio"] = _number(self.ratio)
        return d


class RunConfig(NamedTuple):
    units: str = "natural"
    zeta: float = 1.0
    tol_abs: float = DEFAULT_TOL
    tol_rel: float = DEFAULT_TOL
    samples: int = 1000
    seed: int = 0
    format: str = "json"
    quadrature_points: int = 256


def rng_for_suite(seed, suite):
    """Independent deterministic stream per (seed, suite); order-insensitive."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(SUITE_IDS[suite],))
    return np.random.default_rng(ss)


def document_json(config, body):
    """meta (config is a dict), then body's keys, as strict JSON; NaN raises."""
    return json.dumps({"meta": {"version": __version__, "config": config},
                       **body}, indent=2, allow_nan=False)


def report_json(config, checks, ledger):
    return document_json(config, {
        "checks": [c.to_dict() for c in checks],
        "ledger": [e.to_dict() for e in ledger],
    })


def report_text(config, checks, ledger):
    lines = [f"semiphoton {__version__}  units={config['units']} "
             f"zeta={config['zeta']!r} seed={config['seed']} "
             f"samples={config['samples']}"]
    for c in checks:
        lines.append(f"[{c.verdict.upper():8s}] {c.id}: claimed={_scalarize(c.claimed)} "
                     f"computed={_scalarize(c.computed)} abs_err={_number(c.abs_err)}"
                     + (f"  ({c.notes})" if c.notes else ""))
    if ledger:
        lines.append("-- discrepancy ledger --")
        for e in ledger:
            lines.append(f"[LEDGER  ] {e.claim}: stated={_scalarize(e.stated)} "
                         f"computed={_scalarize(e.computed)} ratio={_number(e.ratio)}  {e.note}")
    n_fail = sum(1 for c in checks if c.verdict == FAIL)
    lines.append(f"{len(checks)} checks, {n_fail} failed, {len(ledger)} ledgered")
    return "\n".join(lines)


def csv_rows(header, rows):
    """Shortest round-trip float formatting so every value parses back exactly."""
    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)
    out = [",".join(header)]
    out.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(out)


def report_csv(checks):
    """Checks as CSV; complex scalars use the comma-free complex repr."""
    def cell(v):
        z = complex(v)
        return repr(z.real) if z.imag == 0.0 else repr(z)
    rows = [(c.id, c.verdict, cell(c.claimed), cell(c.computed),
             repr(c.abs_err), repr(c.rel_err), repr(c.tol_abs),
             repr(c.tol_rel)) for c in checks]
    return csv_rows(("id", "verdict", "claimed", "computed", "abs_err",
                     "rel_err", "tol_abs", "tol_rel"), rows)
