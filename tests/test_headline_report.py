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
Each ledger entry is computed by its own route, so moving that route's input
moves the entry.
"""
import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from semiphoton import bridge, dirac, dynamics, planewave, suites, torus
from semiphoton.cli import main
from semiphoton.report import RunConfig

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


def test_the_byte_comparison_runs_every_document():
    """Every document's bytes are compared, not only its numbers to 1e-12."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    for argv in DOCUMENTS.values():
        assert ["-m", "semiphoton", *argv] in compare.COMMANDS


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

    def planted(branch, p, energy, phase=0.0):
        first, second = basis(branch, p, energy, phase)
        if branch == "positive":
            first[..., 3] = 1e-3
        return first, second

    monkeypatch.setattr(planewave, "solution_basis", planted)


def _divide_f2_by_h(monkeypatch):
    """``* h`` planted as ``/ h`` in the f2 of lorentz_force_ring."""
    exact = dynamics.lorentz_force_ring

    def planted(model, e_amplitude, polarization, h_amplitude=None):
        force = exact(model, e_amplitude, polarization, h_amplitude)
        h = e_amplitude if h_amplitude is None else h_amplitude
        return force._replace(f2=force.f2 / h / h)

    monkeypatch.setattr(dynamics, "lorentz_force_ring", planted)


def _ring_force_over_2_pi(monkeypatch):
    """4 pi planted as 2 pi in both components of lorentz_force_ring."""
    exact = dynamics.lorentz_force_ring
    monkeypatch.setattr(dynamics, "lorentz_force_ring", lambda *args:
                        dynamics.RingForce(*(2 * x for x in exact(*args))))


def _detune_omega_s(monkeypatch):
    """The ring's omega_s off by 1e-6 of itself in derive_parameters."""
    exact = torus.derive_parameters

    def planted(units, zeta):
        model = exact(units, zeta)
        return model._replace(omega_s=model.omega_s * (1 + 1e-6))

    monkeypatch.setattr(torus, "derive_parameters", planted)


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
    (_divide_f2_by_h, ["dynamics/centripetal-acceleration"]),
    (_ring_force_over_2_pi, ["dynamics/ring-force",
                             "dynamics/centripetal-acceleration"]),
    (_detune_omega_s, ["torus/frequency-radius", "torus/mass-quadrature",
                       "torus/chain-closure", "torus/magnetic-moment",
                       "torus/zitter-frequency", "dynamics/ring-force",
                       "dynamics/centripetal-acceleration"]),
]


@pytest.mark.parametrize("plant, failed", PLANTS,
                         ids=[plant.__name__[1:] for plant, _ in PLANTS])
def test_each_kept_check_fails_under_its_plant(plant, failed, monkeypatch,
                                               capsys):
    plant(monkeypatch)
    assert main(ARGV) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["id"] for c in checks if c["verdict"] == "fail"] == failed


def _ratios(ledger):
    return {d.claim: d.ratio for d in ledger}


def test_each_ledger_entry_moves_with_its_own_route(monkeypatch):
    """No ledger number is typed in: moving a route's input moves its entry."""
    def algebra():
        return _ratios(suites.suite_algebra(RunConfig(seed=7))[1])

    base = algebra()
    assert base["alpha-prime/a2-block"] == -0.9999999999999998
    assert base["mixing/psi-prime-fourth-component"] == -1.0
    # a tabulated (4,3) entry of 2i halves the a2 ratio
    prime = dirac.alpha_prime_set()
    a2 = prime.a2.copy()
    a2[3, 2] = 2j
    monkeypatch.setattr(dirac, "alpha_prime_set",
                        lambda: prime._replace(a2=a2))
    a2_block = "alpha-prime/a2-block"
    assert algebra()[a2_block] == base[a2_block] / 2
    monkeypatch.undo()
    # S diag(1, 1, 1, -1) negates the moved a2 entry and psi'_4
    monkeypatch.setattr(dirac, "_S", dirac.s_matrix() * [1, 1, 1, -1])
    moved = algebra()
    for claim in ("alpha-prime/a2-block", "mixing/psi-prime-fourth-component"):
        assert moved[claim] == -base[claim]
    monkeypatch.undo()

    # the 1/pi-prefactor quadrature is its own route, not the density's
    model = torus.evaluate(torus.NATURAL, 1.0, 256).model
    half = "ring-charge/half-wave"
    pref = "ring-charge/stated-prefactor-quadrature"
    base = _ratios(torus.discrepancy_ledger(model, 256))
    assert base[pref] == pytest.approx(2.0, rel=1e-10)
    density = torus.integrate_charge
    monkeypatch.setattr(torus, "integrate_charge",
                        lambda *args: 2 * density(*args))
    moved = _ratios(torus.discrepancy_ledger(model, 256))
    assert (moved[half], moved[pref]) == (2 * base[half], base[pref])
    monkeypatch.undo()
    cos_integral = torus._cos_integral
    monkeypatch.setattr(torus, "_cos_integral",
                        lambda *args: (1 + 1e-6) * cos_integral(*args))
    assert _ratios(torus.discrepancy_ledger(model, 256))[pref] == \
        pytest.approx((1 + 1e-6) * base[pref], rel=1e-12)


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
