"""Smoke test: every command of the README's CLI and script examples runs."""
import importlib.util
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _readme_examples():
    """Commands of the README's sh blocks under ## CLI and ## Experiment scripts."""
    commands, section, in_block = [], None, False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("## "):
            section = line[3:]
        elif line.startswith("```"):
            in_block = not in_block
        elif in_block and section in ("CLI", "Experiment scripts"):
            argv = shlex.split(line.split("#", 1)[0])
            if argv and argv[0] == "semiphoton":
                commands.append([sys.executable, "-m"] + argv)
            elif argv and argv[0] == "python":
                commands.append([sys.executable] + argv[1:])
    return commands


EXAMPLES = _readme_examples()


def test_readme_lists_the_examples():
    scripts = [argv[1] for argv in EXAMPLES if argv[1] != "-m"]
    assert scripts == ["scripts/residual_scan.py"]
    assert len(EXAMPLES) >= 8


def _example_id(argv):
    return " ".join(argv[3:] if argv[1] == "-m" else argv[1:])


def _run_example(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("argv", EXAMPLES, ids=_example_id)
def test_readme_example_exits_zero(argv):
    result = _run_example(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize("args", [
    ["--k", "0"], ["--k", "nan"], ["--k", "1e-310"], ["--k", "1e200"],
    ["--detunings", "inf"], ["--detunings", "nan"],
    ["--detunings", "1", "1e308"], ["--det", "1", "-2e-1"]],
    ids=lambda args: args[1] if args[0] == "--k" else " ".join(args))
def test_residual_scan_rejects_a_bad_k(args):
    """A zero k, a NaN k, a subnormal k, whose H amplitudes overflow, a k
    whose omega overflows, and a detuning whose residual is not finite each
    end in one error line, with no traceback and no warning."""
    result = _run_example(
        [sys.executable, "scripts/residual_scan.py", *args])
    assert result.returncode == 2
    assert len([line for line in result.stderr.splitlines()
                if "error:" in line]) == 1
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize("exponent, decimal", [
    (["--k", "-1e-1"], ["--k", "-0.1"]),
    (["--detunings", "1", "-2e-1"], ["--detunings", "1", "-0.2"])],
    ids=["k", "detunings"])
def test_residual_scan_reads_a_negative_exponent_as_a_value(exponent,
                                                            decimal):
    """argparse alone reads -1e-1 as an option; the script shares the CLI's
    rule, so both spellings of a negative value run alike."""
    got, want = (_run_example([sys.executable, "scripts/residual_scan.py",
                               *args]) for args in (exponent, decimal))
    assert want.returncode == 0, want.stderr
    assert (got.returncode, got.stdout, got.stderr) == (
        want.returncode, want.stdout, want.stderr)


def test_kernel_benchmark_prints_its_medians():
    result = subprocess.run(
        [sys.executable, "scripts/bench.py", "--repeat", "1", "--profile"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert set(doc["kernel_ms"]) == {
        "generate_group", "anticommutation_deviation", "canonical_transform",
        "bilinears_1000", "fierz_quantum_1000", "nullspace",
        "residual_1000", "cross_1000", "simpson",
        "calibrate_e0", "sweep_zeta_20", "dirac_residual_em_4x5",
        "expansion_12x4x5", "expansion_detuned_1x3x3", "expansion_fd_1x3x3",
        "report_json", "build_parser", "parse_sweep_request"}
    assert set(doc["suite_ms"]) == {"algebra", "bilinear", "fierz", "torus",
                                    "planewave", "dynamics"}
    assert set(doc["e2e_ms"]) == {"verify_all", "torus", "import_semiphoton",
                                  "import_numpy", "interpreter"}
    assert set(doc) == {"meta", "kernel_ms", "suite_ms", "e2e_ms"}
    # a probe before the first item, after each kernel and suite, and after
    # the one end-to-end round
    assert len(doc["meta"]["probe_ms"]) == (
        1 + len(doc["kernel_ms"]) + len(doc["suite_ms"]) + 1)
    times = [*doc["kernel_ms"].values(), *doc["suite_ms"].values(),
             *doc["e2e_ms"].values(), *doc["meta"]["probe_ms"]]
    assert all(t > 0 for t in times)
    assert doc["meta"]["repeat"] == 1
    assert set(doc["meta"]) >= {"commit", "PYTHONDONTWRITEBYTECODE"}
    assert "cumulative" in result.stderr


def _script(name):
    """The module of scripts/<name>.py, loaded without running main."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_benchmark_marks_an_uncommitted_tree(monkeypatch):
    bench = _script("bench")
    answers = {"rev-parse": "abc123", "status": "M src/semiphoton/report.py"}
    monkeypatch.setattr(bench, "git", lambda *args: answers[args[0]])
    assert bench.git_meta() == {"commit": "abc123", "dirty": True}
    answers["status"] = ""
    assert bench.git_meta() == {"commit": "abc123"}


def test_output_comparison_flags_each_differing_command(tmp_path):
    compare = _script("compare_outputs")
    commands = [["-m", "semiphoton", "torus", "--zeta", "0.3"],
                ["-m", "semiphoton", "torus", "--zeta", "0"]]
    assert compare.differing(ROOT, commands) == []
    # a tree whose CLI prints something else differs on every command
    fake = tmp_path / "src" / "semiphoton"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("print('other')\n")
    assert compare.differing(tmp_path, commands) == commands
    usage = subprocess.run(
        [sys.executable, "scripts/compare_outputs.py", str(tmp_path / "no")],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert usage.returncode == 2 and "OTHER_ROOT" in usage.stderr
