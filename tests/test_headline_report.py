"""The headline report against its checked-in copy.

``fixtures/headline_report.json`` is the output of
``semiphoton verify --suite all --samples 1000 --seed 7 --format json``.
Ids, verdicts, claimed values, tolerances, notes and the ledger's claims and
notes must match exactly; computed values, errors and ledger numbers may move
by 1e-12, absolute or relative, so last-bit rounding on another CPU passes.
A change that moves the report refreshes the fixture and records the diff.
"""
import json
import pathlib

from semiphoton.cli import main

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "headline_report.json"
ARGV = ["verify", "--suite", "all", "--samples", "1000", "--seed", "7",
        "--format", "json"]
CHECK_EXACT = ("id", "ref", "verdict", "claimed", "tol_abs", "tol_rel", "notes")
CHECK_CLOSE = ("computed", "abs_err", "rel_err")
LEDGER_EXACT = ("claim", "note")
LEDGER_CLOSE = ("stated", "computed", "ratio")
TOL = 1e-12


def _close(a, b):
    """Numbers within TOL; [re, im] pairs per part; "nan"/"inf" exactly."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        gap = abs(a - b)
        return gap <= TOL or gap <= TOL * max(abs(a), abs(b))
    return a == b


def _mismatches(kind, old, new, exact, close):
    out = []
    for key in exact:
        if old[key] != new[key]:
            out.append(f"{kind} {old[exact[0]]}: {key} {old[key]!r} -> {new[key]!r}")
    for key in close:
        if not _close(old[key], new[key]):
            out.append(f"{kind} {old[exact[0]]}: {key} {old[key]!r} -> {new[key]!r}")
    return out


def test_headline_report_matches_fixture(capsys):
    assert main(ARGV) == 0
    new = json.loads(capsys.readouterr().out)
    old = json.loads(FIXTURE.read_text())
    assert new["meta"] == old["meta"]
    assert [c["id"] for c in new["checks"]] == [c["id"] for c in old["checks"]]
    assert [e["claim"] for e in new["ledger"]] == [
        e["claim"] for e in old["ledger"]]
    problems = []
    for o, n in zip(old["checks"], new["checks"]):
        problems += _mismatches("check", o, n, CHECK_EXACT, CHECK_CLOSE)
    for o, n in zip(old["ledger"], new["ledger"]):
        problems += _mismatches("ledger", o, n, LEDGER_EXACT, LEDGER_CLOSE)
    assert not problems, "\n".join(problems)


def test_close_tolerates_rounding_only():
    assert _close(1.0, 1.0 + 1e-15)
    assert _close(3e-17, 0.0)
    assert _close([1.0, -2.0], [1.0, -2.0 * (1 + 1e-14)])
    assert not _close(1.0, 1.0 + 1e-9)
    assert not _close(1e-6, 2e-6)
    assert not _close("nan", 0.0)
    assert not _close([1.0, 0.0], 1.0)
