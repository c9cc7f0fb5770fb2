"""Structured check reports, discrepancy records, and run configuration.

Every verification produces a :class:`CheckReport` comparing a claimed value
against an independently computed one.  Known internal inconsistencies of the
model's closed forms are never patched silently; they are emitted as
:class:`Discrepancy` records with verdict ``ledgered``, which does not fail a
run.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
LEDGERED = "ledgered"

SUITE_IDS = {
    "algebra": 1,
    "bilinear": 2,
    "fierz": 3,
    "torus": 4,
    "planewave": 5,
    "dynamics": 6,
}
SUITES = tuple(SUITE_IDS)


def _number(value):
    """A float for JSON; NaN and infinities as the strings "nan", "inf", "-inf".

    Bare NaN/Infinity tokens are not JSON, so strict parsers reject them.
    """
    x = float(value)
    return x if math.isfinite(x) else repr(x)


def _scalarize(value):
    """Encode a real or complex scalar for JSON ([re, im] for complex)."""
    if value is None:
        return None
    if isinstance(value, complex) or np.iscomplexobj(value):
        z = complex(value)
        if z.imag == 0.0:
            return _number(z.real)
        return [_number(z.real), _number(z.imag)]
    return _number(value)


@dataclass
class CheckReport:
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
              notes="", ledgered=False):
        tol_abs, tol_rel = float(tol_abs), float(tol_rel)
        c0 = complex(claimed) if claimed is not None else 0.0
        c1 = complex(computed)
        abs_err = abs(c1 - c0)
        rel_err = abs_err / abs(c0) if abs(c0) > 0 else abs_err
        ok = abs_err <= tol_abs or rel_err <= tol_rel
        verdict = LEDGERED if ledgered else (PASS if ok else FAIL)
        return cls(id=id, ref=ref, claimed=claimed, computed=computed,
                   abs_err=abs_err, rel_err=rel_err, tol_abs=tol_abs,
                   tol_rel=tol_rel, verdict=verdict, notes=notes)

    def to_dict(self):
        d = asdict(self)
        d["claimed"] = _scalarize(self.claimed)
        d["computed"] = _scalarize(self.computed)
        d["abs_err"] = _number(self.abs_err)
        d["rel_err"] = _number(self.rel_err)
        return d

    @property
    def passed(self):
        return self.verdict != FAIL


@dataclass
class Discrepancy:
    """One place where a stated closed form and the computed value disagree."""
    claim: str
    stated: object
    computed: object
    ratio: float
    note: str = ""

    def to_dict(self):
        d = asdict(self)
        d["stated"] = _scalarize(self.stated)
        d["computed"] = _scalarize(self.computed)
        d["ratio"] = _number(self.ratio)
        return d


@dataclass
class RunConfig:
    units: str = "natural"
    zeta: float = 1.0
    tol_abs: float = 1e-12
    tol_rel: float = 1e-12
    samples: int = 1000
    seed: int = 0
    format: str = "json"
    quadrature_points: int = 256
    out: str | None = field(default=None)

    def validate(self):
        if self.units not in ("natural", "gaussian_cgs"):
            raise ValueError(f"unknown unit system {self.units!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for name in ("tol_abs", "tol_rel"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
        if self.quadrature_points < 64:
            raise ValueError("quadrature_points must be >= 64")
        if self.format not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.format!r}")
        return self

    def to_dict(self):
        d = asdict(self)
        d.pop("out")
        return d


def rng_for_suite(seed, suite):
    """Independent deterministic stream per (seed, suite); order-insensitive."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(SUITE_IDS[suite],))
    return np.random.default_rng(ss)


def document_json(config, body):
    """The meta block, then body's keys, as strict JSON (NaN raises ValueError)."""
    doc = {"meta": {"version": VERSION, "config": config.to_dict()}, **body}
    return json.dumps(doc, indent=2, allow_nan=False)


def report_json(config, checks, ledger):
    return document_json(config, {
        "checks": [c.to_dict() for c in checks],
        "ledger": [e.to_dict() for e in ledger],
    })


def report_text(config, checks, ledger):
    lines = [f"semiphoton {VERSION}  units={config.units} zeta={config.zeta!r} "
             f"seed={config.seed} samples={config.samples}"]
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
        if v is None:
            return ""
        z = complex(v)
        return repr(z.real) if z.imag == 0.0 else repr(z)
    rows = [(c.id, c.verdict, cell(c.claimed), cell(c.computed),
             repr(c.abs_err), repr(c.rel_err), repr(c.tol_abs),
             repr(c.tol_rel)) for c in checks]
    return csv_rows(("id", "verdict", "claimed", "computed", "abs_err",
                     "rel_err", "tol_abs", "tol_rel"), rows)
