"""Output oracle: decides for each request whether it succeeded.

A request fails when any of these hold: its exit code is not 0; its output
does not parse (JSON with NaN/Infinity rejected, CSV cells that do not read
back as numbers); a check id, column or key is missing; a value disagrees
with an independent recomputation or with the same quantity in another
request; or its bytes differ from a rerun.  Every failed request is counted,
never skipped.  A request is *complete* when the program produced its whole
output (exit 0, or exit 1 with a report that names its FAIL checks); an
incomplete one did not do its work, so its timing means nothing.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re

SUITES = ("algebra", "bilinear", "fierz", "torus", "planewave", "dynamics")
VERDICTS = ("pass", "fail", "ledgered")
CSV_HEADER = ["id", "verdict", "claimed", "computed", "abs_err", "rel_err",
              "tol_abs", "tol_rel"]
SWEEP_HEADER = ["zeta", "alpha_q", "q", "m_s", "mu_s"]
TORUS_KEYS = {"meta", "model", "derived", "ledger"}
CROSS_KEYS = ("alpha_q", "q", "m_s", "mu_s")
TEXT_CHECK = re.compile(r"^\[(PASS|FAIL|LEDGERED)\s*\] (\S+): claimed=")
TEXT_TOTAL = re.compile(r"^(\d+) checks, (\d+) failed, (\d+) ledgered$")
REL_TOL = 1e-12


class Malformed(ValueError):
    pass


def options(argv):
    """Option values of an argv list, e.g. {'--seed': '7'}."""
    return dict(zip(argv[1::2], argv[2::2]))


def _reject_constant(name):
    raise Malformed(f"non-finite JSON constant {name}")


def strict_json(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Malformed(f"JSON does not parse: {exc}") from None


def _finite(cell):
    if cell == "":
        return None
    try:
        value = complex(cell)
    except ValueError:
        raise Malformed(f"CSV cell {cell!r} is not a number") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise Malformed(f"CSV cell {cell!r} is not finite")
    return value


def _csv(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise Malformed(f"CSV header is not {header}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise Malformed(f"CSV row has {len(row)} cells: {row}")
    return rows[1:]


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def verify_checks(fmt, text, opts, problems):
    """(ids, fail ids) of a verify report in any of the three formats.

    Raises :class:`Malformed` when the report cannot be read; appends
    defects that leave it readable to ``problems``.
    """
    if fmt == "json":
        doc = strict_json(text)
        config = doc["meta"]["config"]
        if (config["seed"] != int(opts["--seed"])
                or config["samples"] != int(opts["--samples"])):
            raise Malformed("report config does not echo the request")
        if not isinstance(doc["ledger"], list):
            raise Malformed("ledger is not a list")
        pairs = [(c["id"], c["verdict"]) for c in doc["checks"]]
    elif fmt == "csv":
        rows = _csv(text, CSV_HEADER)
        pairs = [(row[0], row[1]) for row in rows]
        unreadable = []
        for row in rows:
            for cell in row[2:]:
                try:
                    _finite(cell)
                except Malformed:
                    unreadable.append(cell)
        if unreadable:
            problems.append(f"CSV cells do not read back as numbers, "
                            f"e.g. {unreadable[0]!r}")
    else:
        lines = text.rstrip("\n").split("\n")
        total = TEXT_TOTAL.match(lines[-1])
        matches = [TEXT_CHECK.match(line) for line in lines]
        pairs = [(m[2], m[1].lower()) for m in matches if m]
        n_ledger = sum(line.startswith("[LEDGER  ]") for line in lines)
        if not lines[0].startswith("semiphoton ") or total is None:
            raise Malformed("text report lacks its header or total line")
        if (int(total[1]), int(total[2]), int(total[3])) != (
                len(pairs), sum(v == "fail" for _, v in pairs), n_ledger):
            raise Malformed("text total line does not match its lines")
    ids = [i for i, _ in pairs]
    if any(v not in VERDICTS for _, v in pairs):
        raise Malformed("unknown verdict")
    if len(set(ids)) != len(ids):
        raise Malformed("duplicate check ids")
    missing = [s for s in SUITES if not any(i.startswith(s + "/") for i in ids)]
    if missing:
        raise Malformed(f"no checks of suites {missing}")
    return ids, [i for i, v in pairs if v == "fail"]


def torus_values(text, opts):
    doc = strict_json(text)
    if set(doc) != TORUS_KEYS:
        raise Malformed(f"torus keys are {sorted(doc)}")
    zeta = float(opts["--zeta"])
    config, model, derived = doc["meta"]["config"], doc["model"], doc["derived"]
    if (config["zeta"], config["units"], config["quadrature_points"]) != (
            zeta, opts["--units"], int(opts["--quad-points"])):
        raise Malformed("torus config does not echo the request")
    if model["zeta"] != zeta:
        raise Malformed("model zeta differs from the request")
    if not _close(derived["alpha_q"], 2 * zeta ** 2 / math.pi):
        raise Malformed("alpha_q is not 2 zeta^2 / pi")
    if not _close(derived["q"], zeta ** 2 * model["e0"] * model["r_s"] ** 2):
        raise Malformed("q is not zeta^2 E0 r_s^2")
    if not all(isinstance(e, dict) and "claim" in e for e in doc["ledger"]):
        raise Malformed("ledger entries lack a claim")
    return {k: derived[k] for k in CROSS_KEYS}


def sweep_rows(text, opts):
    rows = [[_finite(c).real for c in row] for row in _csv(text, SWEEP_HEADER)]
    zetas = [row[0] for row in rows]
    if len(rows) != int(opts["--steps"]):
        raise Malformed(f"{len(rows)} rows for {opts['--steps']} steps")
    if zetas[0] != float(opts["--min"]) or zetas[-1] != float(opts["--max"]):
        raise Malformed("sweep does not start at --min and end at --max")
    if zetas != sorted(zetas):
        raise Malformed("sweep zetas are not ascending")
    for row in rows:
        if not _close(row[1], 2 * row[0] ** 2 / math.pi):
            raise Malformed("alpha_q is not 2 zeta^2 / pi")
    return {row[0]: dict(zip(CROSS_KEYS, row[1:])) for row in rows}


def judge(requests, outputs):
    """Judge each distinct request of a run from its first output.

    Returns one dict per request: the reasons it failed (empty when it
    succeeded), its FAIL check ids and whether it is complete.  All verify
    reports of a run must list the same check ids in the same order, and
    every torus request must agree with the sweep row of its own units and
    quadrature points at the same zeta.
    """
    verdicts, id_lists, tori, sweeps = [], {}, [], {}
    for i, (argv, (code, out, _err)) in enumerate(zip(requests, outputs)):
        opts = options(argv)
        complete = code == 0 or (argv[0] == "verify" and code == 1)
        v = {"reasons": [], "fails": [], "complete": complete}
        try:
            if argv[0] == "verify":
                id_lists[i], v["fails"] = verify_checks(
                    opts["--format"], out, opts, v["reasons"])
                if code != (1 if v["fails"] else 0):
                    raise Malformed(f"exit code {code!r} does not match "
                                    f"{len(v['fails'])} FAIL verdicts")
                if v["fails"]:
                    v["reasons"].append("report has FAIL verdicts")
            elif code != 0:
                raise Malformed(f"exit code {code!r}")
            elif argv[0] == "torus":
                tori.append((i, opts, torus_values(out, opts)))
            elif argv[0] == "sweep-zeta":
                key = (opts["--units"], opts["--quad-points"])
                sweeps.setdefault(key, {}).update(sweep_rows(out, opts))
            else:
                raise Malformed(f"no oracle for {argv[0]!r}")
        except (Malformed, KeyError, TypeError, ValueError, IndexError) as exc:
            v["reasons"].append(f"{type(exc).__name__}: {exc}")
        verdicts.append(v)

    if id_lists:
        reference = id_lists[min(id_lists)]
        for i, ids in id_lists.items():
            if ids != reference:
                verdicts[i]["reasons"].append("check ids differ within the run")
    for i, opts, values in tori:
        row = sweeps.get((opts["--units"], opts["--quad-points"]), {}).get(
            float(opts["--zeta"]))
        if row is None:
            verdicts[i]["reasons"].append("no sweep row to compare with")
        elif not all(_close(values[k], row[k]) for k in CROSS_KEYS):
            verdicts[i]["reasons"].append("torus and sweep-zeta disagree")
    return verdicts
