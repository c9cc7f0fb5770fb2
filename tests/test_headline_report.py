"""The headline report against its checked-in copy.

``fixtures/headline_report.json`` is the output of
``semiphoton verify --suite all --samples 1000 --seed 7 --format json``.
Ids, verdicts, claimed values, tolerances, notes and the ledger's claims and
notes must match exactly; computed values, errors and ledger numbers may move
by 1e-12, absolute or relative, so last-bit rounding on another CPU passes.
A change that moves the report refreshes the fixture and records the diff.

``fixtures/documents/`` holds the ``torus``, ``dynamics``, ``planewave`` and
``sweep-zeta`` documents of ``DOCUMENTS``, under the same rule: keys and
strings exactly, numbers (CSV cells read as floats) within 1e-12.

Each check that only its own lines could fail in a mutation scan is kept
for a defect that FAILs it: ``PLANTS`` pins every id that each defect FAILs.
"""
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from semiphoton import bridge, dirac, planewave
from semiphoton.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE = FIXTURES / "headline_report.json"
ARGV = ["verify", "--suite", "all", "--samples", "1000", "--seed", "7",
        "--format", "json"]
CHECK_EXACT = ("id", "ref", "verdict", "claimed", "tol_abs", "tol_rel", "notes")
CHECK_CLOSE = ("computed", "abs_err", "rel_err")
LEDGER_EXACT = ("claim", "note")
LEDGER_CLOSE = ("stated", "computed", "ratio")
TOL = 1e-12
DOCUMENTS = {
    "torus_natural.json": ["torus", "--zeta", "0.3"],
    "torus_gaussian_cgs.json": ["torus", "--zeta", "0.3",
                                "--units", "gaussian_cgs"],
    "dynamics_natural.json": ["dynamics"],
    "dynamics_gaussian_cgs.json": ["dynamics", "--units", "gaussian_cgs"],
    "planewave_positive.json": ["planewave", "--px", "0.3", "--py", "1.2",
                                "--pz", "-0.4"],
    "planewave_negative.json": ["planewave", "--py", "1.3",
                                "--branch", "negative"],
    "sweep_zeta_natural.csv": ["sweep-zeta", "--min", "0.1", "--max", "0.9",
                               "--steps", "7"],
    "sweep_zeta_gaussian_cgs.csv": ["sweep-zeta", "--min", "0.1", "--max",
                                    "0.9", "--steps", "7",
                                    "--units", "gaussian_cgs"],
}


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


def _differences(old, new, path="$"):
    """Where new leaves old: keys and list lengths exactly, leaves by _close."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return [f"{path}: keys {list(old)} -> {list(new)}"]
        return [d for k in old for d in _differences(old[k], new[k],
                                                     f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (o, n) in enumerate(zip(old, new))
                for d in _differences(o, n, f"{path}[{i}]")]
    return [] if _close(old, new) else [f"{path}: {old!r} -> {new!r}"]


def _read(name, text):
    """A JSON document, or a CSV's header and its rows of floats."""
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = text.splitlines()
    return [header.split(",")] + [[float(x) for x in row.split(",")]
                                  for row in rows]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_document_matches_fixture(name, capsys):
    assert main(DOCUMENTS[name]) == 0
    new = _read(name, capsys.readouterr().out)
    old = _read(name, (FIXTURES / "documents" / name).read_text())
    problems = _differences(old, new)
    assert not problems, "\n".join(problems)


def _zero_scalar_residuals(monkeypatch):
    """The residual route stuck at 0: every expansion case still passes."""
    monkeypatch.setattr(bridge, "scalar_residuals", lambda w, layouts, forms:
                        np.zeros((len(layouts), w.shape[2], 4)))


def _swap_positive_x_slots(monkeypatch):
    t = dirac.triad("x", "positive")
    monkeypatch.setitem(dirac._TRIAD_BY_KEY, ("x", "positive"),
                        t._replace(e_axes=t.e_axes[::-1]))


def _scale_mixing_matrix(monkeypatch):
    """Off unitary by 2e-13, inside the 1e-12 guard of canonical_transform."""
    monkeypatch.setattr(dirac, "_S", dirac.s_matrix() * (1 + 1e-13))


def _fill_a_structural_zero(monkeypatch):
    basis = planewave.solution_basis

    def planted(branch, p, phase=0.0, energy=None):
        first, second = basis(branch, p, phase, energy)
        if branch == "positive":
            first[..., 3] = 1e-3
        return first, second

    monkeypatch.setattr(planewave, "solution_basis", planted)


PLANTS = [
    (_zero_scalar_residuals, ["planewave/expansion-detuned"]),
    (_swap_positive_x_slots, ["algebra/triad-layouts"]),
    (_scale_mixing_matrix, ["algebra/mixing-unitarity",
                            "algebra/transform-mode",
                            "algebra/mixing-components"]),
    (_fill_a_structural_zero, ["planewave/residual", "planewave/orthogonality",
                               "planewave/nullspace", "planewave/sparsity",
                               "planewave/special-values",
                               "planewave/continuity"]),
]


@pytest.mark.parametrize("plant, failed", PLANTS,
                         ids=[plant.__name__[1:] for plant, _ in PLANTS])
def test_each_kept_check_fails_under_its_plant(plant, failed, monkeypatch,
                                               capsys):
    plant(monkeypatch)
    assert main(ARGV) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["id"] for c in checks if c["verdict"] == "fail"] == failed


def test_close_tolerates_rounding_only():
    assert _close(1.0, 1.0 + 1e-15)
    assert _close(3e-17, 0.0)
    assert _close([1.0, -2.0], [1.0, -2.0 * (1 + 1e-14)])
    assert not _close(1.0, 1.0 + 1e-9)
    assert not _close(1e-6, 2e-6)
    assert not _close("nan", 0.0)
    assert not _close([1.0, 0.0], 1.0)


def _dynamic_openblas():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels at run
    time, so OPENBLAS_CORETYPE selects them."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return False
    return "DYNAMIC_ARCH" in str(config["Build Dependencies"].get("blas"))


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or not _dynamic_openblas(),
    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.xfail(strict=True, reason=(
    "np.linalg.qr in suites._random_unitaries and np.linalg.det in the "
    "planewave determinant checks round differently per OpenBLAS kernel, "
    "so algebra/similarity-preserves-anticommutation moves"))
def test_verify_bytes_do_not_depend_on_the_openblas_kernel():
    outputs = []
    for core in ("Prescott", "Nehalem"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "semiphoton", "verify", "--suite", "all",
             "--samples", "10", "--seed", "7"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
