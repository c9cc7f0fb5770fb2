import argparse
import ast
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semiphoton
from semiphoton import bridge, dirac
from semiphoton.cli import build_parser, main
from semiphoton.report import CheckReport, Discrepancy, RunConfig, report_json


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_suite_exit_zero(capsys):
    code, out = run_cli(["verify", "--suite", "algebra", "--samples", "50"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "checks", "ledger"}
    assert doc["meta"]["version"]
    assert doc["meta"]["config"]["seed"] == 0
    assert doc["ledger"]
    for units in ("natural", "gaussian_cgs"):
        code, out = run_cli(["verify", "--suite", "all", "--samples", "50",
                             "--units", units], capsys)
        assert code == 0
        for c in json.loads(out)["checks"]:
            # "nan" errors are strings and must fail, so compare as floats
            ok = (float(c["abs_err"]) <= c["tol_abs"]
                  or float(c["rel_err"]) <= c["tol_rel"])
            assert c["verdict"] == ("pass" if ok else "fail"), c["id"]


def test_prime_set_checks_gate_the_tabulated_defect(monkeypatch, capsys):
    pinned = {"algebra/anticommutation-prime", "algebra/hermiticity-prime-a2"}
    code, out = run_cli(["verify", "--suite", "algebra"], capsys)
    verdicts = {c["id"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert code == 0 and {verdicts[i] for i in pinned} == {"pass"}
    # a transcription that lost the a2 defect moves both deviations to 0
    monkeypatch.setattr(dirac, "alpha_prime_set", dirac.canonical_alpha_set)
    code, out = run_cli(["verify", "--suite", "algebra"], capsys)
    failed = {c["id"] for c in json.loads(out)["checks"]
              if c["verdict"] == "fail"}
    assert code == 1
    assert pinned <= failed


def test_verify_deterministic(capsys):
    args = ["verify", "--suite", "all", "--samples", "60", "--seed", "42"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_changes_stream(capsys):
    _, out1 = run_cli(["verify", "--suite", "fierz", "--samples", "40",
                       "--seed", "1"], capsys)
    _, out2 = run_cli(["verify", "--suite", "fierz", "--samples", "40",
                       "--seed", "2"], capsys)
    assert out1 != out2


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["nonsense-command"]) == 2
    capsys.readouterr()
    assert main(["verify", "--samples", "0"]) == 2
    capsys.readouterr()
    assert main(["torus", "--zeta", "7"]) == 2
    capsys.readouterr()


def test_torus_command(capsys):
    code, out = run_cli(["torus", "--units", "natural", "--zeta", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["model"]["r_s"] == 0.5
    assert doc["derived"]["alpha_q"] == pytest.approx(2 / math.pi)
    assert doc["derived"]["sigma_s"] == 0.5
    assert len(doc["ledger"]) == 4


def test_sweep_zeta_csv_round_trips(capsys):
    code, out = run_cli(["sweep-zeta", "--min", "0.05", "--max", "1.0",
                         "--steps", "20"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "zeta,alpha_q,q,m_s,mu_s"
    assert len(lines) == 21
    for line in lines[1:]:
        zeta, alpha_q, q, m_s, mu_s = line.split(",")
        z = float(zeta)
        assert float(alpha_q) == 2 * z * z / math.pi
        # shortest round-trip formatting: parse back exactly
        assert repr(float(alpha_q)) == alpha_q
        assert repr(float(q)) == q
        assert repr(float(mu_s)) == mu_s


def test_verify_csv_format(capsys):
    code, out = run_cli(["verify", "--suite", "algebra", "--samples", "30",
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("id,verdict,claimed,computed")
    row = lines[1].split(",")
    assert row[0] == "algebra/anticommutation-canonical"
    assert row[1] == "pass"
    assert float(row[3]) == 0.0
    for line in lines[1:]:
        abs_err = line.split(",")[4]
        assert repr(float(abs_err)) == abs_err


def test_suite_streams_independent_of_selection(capsys):
    """A suite's check values match whether run alone or inside --suite all."""
    _, alone = run_cli(["verify", "--suite", "planewave", "--samples", "40",
                        "--seed", "3"], capsys)
    _, combined = run_cli(["verify", "--suite", "all", "--samples", "40",
                           "--seed", "3"], capsys)
    alone_checks = {c["id"]: c["computed"]
                    for c in json.loads(alone)["checks"]}
    all_checks = {c["id"]: c["computed"]
                  for c in json.loads(combined)["checks"]
                  if c["id"].startswith("planewave/")}
    assert alone_checks == all_checks


def test_dump_matrices(capsys):
    code, out = run_cli(["dump-matrices", "--set", "canonical"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["matrices"]["a2"][0][3] == [0.0, -1.0]
    assert doc["matrices"]["a4"][0][0] == [1.0, 0.0]
    assert set(doc["matrices"]) == {"a0", "a1", "a2", "a3", "a4", "a5"}
    code, out = run_cli(["dump-matrices", "--set", "prime"], capsys)
    assert json.loads(out)["matrices"]["a4"][0][3] == [-1.0, 0.0]


def test_planewave_command(capsys):
    code, out = run_cli(["planewave", "--py", "1.0", "--branch", "positive"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 2
    for state in doc["states"]:
        assert state["residual"] <= 1e-12
        assert state["fields"] is not None
    re_im = doc["states"][0]["amplitudes"][1]
    assert re_im[1] == pytest.approx(-1 / (math.sqrt(2) + 1), rel=1e-12)


def test_dynamics_command(capsys):
    code, out = run_cli(["dynamics"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ring_force"]["Ex_Hz"]["f0"] == pytest.approx(
        1 / (2 * math.pi), rel=1e-12)
    on_shell = doc["linear_lagrangian_on_shell"]
    for route in ("spinor", "em", "current"):
        assert abs(complex(*on_shell[route])) <= 1e-12


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--suite", "fierz", "--samples", "30",
                 "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["checks"]


@pytest.mark.parametrize("argv, target", [
    (["torus"], "missing/report.json"),
    (["verify", "--suite", "algebra", "--samples", "5"], ".")])
def test_unwritable_out_exits_two_with_message(argv, target, tmp_path,
                                               capsys):
    out = tmp_path / target
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out}: ")
    assert captured.err.count("\n") == 1


COMMAND_MODULES = {"cli", "report", "torus"}
CHECKER_MODULES = {"suites", "bridge", "dirac", "dynamics", "planewave",
                   "linalg"}


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["torus", "--zeta", "0.3"], COMMAND_MODULES),
    (["sweep-zeta", "--steps", "2"], COMMAND_MODULES),
    (["verify", "--suite", "all", "--samples", "10"],
     COMMAND_MODULES | CHECKER_MODULES)])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    """A fresh interpreter runs one command (or only imports the package)
    and lists the package modules it has loaded, and ``dataclasses`` if it
    is loaded: the records are NamedTuples and plain classes."""
    run = ("from semiphoton.cli import main\n"
           "code = main(sys.argv[1:])\n" if argv else
           "import semiphoton\ncode = 0\n")
    script = ("import sys\n" + run + "print(code, *(m.split('.')[-1] for m "
              "in sys.modules if m.startswith('semiphoton.') "
              "or m == 'dataclasses'))")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    args = argv + ["--out", os.devnull] if argv else []
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, check=True,
                            env=env)
    code, *modules = result.stdout.split()
    assert code == "0"
    assert set(modules) == loaded


def test_sweep_zeta_bad_range_exits_two_with_message(capsys):
    assert main(["sweep-zeta", "--min", "0.5", "--max", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: zeta sweep needs")


def test_torus_unreachable_zeta_exits_two_with_message(capsys):
    # the unit-amplitude mass underflows to 0: the zero text, not the
    # subnormal one
    assert main(["torus", "--zeta", "1e-200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no finite amplitude gives field mass 1.0 at zeta=1e-200: "
        "the mass at unit amplitude is 0.0\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zeta", ["1e-133", "1e-135"])
@pytest.mark.parametrize("command", [
    ["torus", "--zeta", "{zeta}"],
    ["sweep-zeta", "--min", "{zeta}", "--max", "{zeta}", "--steps", "1"]])
def test_subnormal_unit_mass_exits_two_with_message(command, zeta, capsys):
    """A unit-amplitude field mass below the normal float range has lost
    digits, so the amplitude calibrated from it would be wrong."""
    argv = [a.format(zeta=zeta) for a in command]
    assert main(argv + ["--units", "gaussian_cgs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: the field mass at unit amplitude, ")
    assert "is below the normal float range at zeta=" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert main(["torus", "--units", "gaussian_cgs", "--zeta", "1e-120"]) == 0


@pytest.mark.parametrize("units", ["natural", "gaussian_cgs"])
def test_torus_equals_sweep_row_at_same_zeta(units, capsys):
    zeta = "0.37"
    _, out = run_cli(["torus", "--units", units, "--zeta", zeta], capsys)
    derived = json.loads(out)["derived"]
    _, out = run_cli(["sweep-zeta", "--units", units, "--min", "0.1",
                      "--max", zeta, "--steps", "4"], capsys)
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[0]) == float(zeta)
    assert [float(v) for v in last[2:]] == [derived[k]
                                            for k in ("q", "m_s", "mu_s")]


def test_verify_csv_cells_read_back(capsys):
    code, out = run_cli(["verify", "--suite", "all", "--samples", "10",
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("planewave/expansion-") for line in lines)
    for line in lines[1:]:
        for cell in line.split(",")[2:]:
            if cell:
                complex(cell)


def strict_json(text):
    """json.loads that refuses the non-standard NaN/Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_nan_sample_fails_its_checks_and_the_run(monkeypatch, capsys):
    exact = bridge.fierz_em

    def planted(f):
        lhs, rhs = exact(f)
        lhs = np.array(lhs, dtype=float)
        lhs[3] = np.nan
        return lhs, rhs

    monkeypatch.setattr(bridge, "fierz_em", planted)
    code, out = run_cli(["verify", "--suite", "fierz", "--samples", "20"],
                        capsys)
    checks = {c["id"]: c for c in strict_json(out)["checks"]}
    assert code == 1
    for cid in ("fierz/field-form", "fierz/layout-agreement"):
        assert checks[cid]["verdict"] == "fail"
        assert checks[cid]["computed"] == "nan"
        assert checks[cid]["abs_err"] == "nan"
    assert checks["fierz/bilinear-form"]["verdict"] == "pass"


def test_report_json_encodes_non_finite_values():
    checks = [CheckReport.build("x/nan", "r", 0.0, math.nan),
              CheckReport.build("x/inf", "r", 1.0, math.inf),
              CheckReport.build("x/complex", "r", 0.0, complex(-math.inf, 1.0)),
              CheckReport.build("x/stack", "r", 0.0,
                                [np.array([5.0]), np.array([np.nan])])]
    ledger = [Discrepancy("y", stated=math.nan, computed=1.0, ratio=math.inf)]
    doc = strict_json(report_json(RunConfig(), checks, ledger))
    got = {c["id"]: c for c in doc["checks"]}
    assert all(c["verdict"] == "fail" for c in doc["checks"])
    assert (got["x/nan"]["computed"], got["x/nan"]["abs_err"],
            got["x/nan"]["rel_err"]) == ("nan", "nan", "nan")
    assert (got["x/inf"]["computed"], got["x/inf"]["abs_err"]) == ("inf", "inf")
    assert got["x/complex"]["computed"] == ["-inf", 1.0]
    # a NaN in any error array of a stack is the stack's worst error
    assert got["x/stack"]["computed"] == "nan"
    assert (doc["ledger"][0]["stated"], doc["ledger"][0]["ratio"]) == ("nan", "inf")
    # with finite tolerances a non-finite value can never pass
    for value in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        assert CheckReport.build("x", "r", 0.0, value, tol_abs=1e300,
                                 tol_rel=1e300).verdict == "fail"
    # a claimed 0 has no scale, so tol_rel cannot pass it
    assert CheckReport.build("x", "r", 0.0, 5e-13,
                             tol_abs=1e-15).verdict == "fail"


@pytest.mark.parametrize("option,value", [
    ("--tol-abs", "inf"), ("--tol-rel", "inf"), ("--tol-abs", "nan"),
    ("--tol-rel", "nan"), ("--tol-abs", "-1"), ("--tol-rel", "-1"),
    ("--tol-abs", "1e300"), ("--tol-rel", "1.1e-12")])
def test_tolerance_outside_its_domain_exits_two(option, value, capsys):
    assert main(["verify", "--suite", "fierz", "--samples", "10",
                 option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option[2:].replace('-', '_')} must be")


def test_torus_suite_runs_at_tiny_zeta(capsys):
    code, out = run_cli(["verify", "--suite", "torus", "--zeta", "1e-150"],
                        capsys)
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["torus/radius-ratio"]["verdict"] == "pass"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["planewave", "--px", "1e200"],
    ["planewave", "--py=-3e155", "--branch", "negative"]])
def test_planewave_infinite_energy_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: on-shell energy is not finite")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [
    ("--px", "nan"), ("--py", "inf"), ("--pz", "-inf")])
def test_planewave_non_finite_momentum_names_its_option(flag, value, capsys):
    assert main(["planewave", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be finite, got {value}\n"


@pytest.mark.parametrize("flag, value, code, err", [
    ("--px", "-1e-3", 0, ""), ("--py", "-1e-3", 0, ""),
    ("--pz", "-1e-3", 0, ""),
    ("--pz", "-inf", 2, "error: --pz must be finite, got -inf\n"),
    ("--pz", "-nan", 2, "error: --pz must be finite, got nan\n")])
def test_negative_momentum_written_apart_parses_as_joined(flag, value, code,
                                                          err, capsys):
    """argparse alone reads -1e-3 and -inf as options, not as values."""
    assert main(["planewave", flag, value]) == code
    apart = capsys.readouterr()
    assert apart.err == err
    assert main(["planewave", f"{flag}={value}"]) == code
    assert capsys.readouterr() == apart


@pytest.mark.parametrize("argv, err", [
    (["torus", "--zeta", "-1e-3"],
     "error: zeta must be in (0, 1], got -0.001\n"),
    (["planewave", "--pz", "--out", "x"],
     "planewave: error: argument --pz: expected one argument\n"),
    (["planewave", "--pz", "-h"],
     "planewave: error: argument --pz: expected one argument\n"),
    # flags are written in full, so none escapes the negative-value join
    (["torus", "--zet", "-1e-3"],
     "semiphoton: error: unrecognized arguments: --zet -1e-3\n"),
    (["torus", "--zet=-1e-3"],
     "semiphoton: error: unrecognized arguments: --zet=-1e-3\n"),
    (["torus", "--zet", "0.5"],
     "semiphoton: error: unrecognized arguments: --zet 0.5\n"),
    (["planewave", "--p", "-1e-3"],
     "semiphoton: error: unrecognized arguments: --p -1e-3\n"),
    (["verify", "--samp", "10"],
     "semiphoton: error: unrecognized arguments: --samp 10\n")])
def test_float_option_takes_only_a_number_as_its_next_token(argv, err,
                                                            capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["torus", "--zeta", "1e-150"], ["planewave", "--px", "1e150"],
    ["dynamics", "--zeta", "1e-150"],
    ["dynamics", "--units", "gaussian_cgs", "--zeta", "1e-138"],
    ["dump-matrices", "--set", "prime"]])
def test_documents_near_the_domain_edge_are_strict_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    doc = strict_json(out)
    assert list(doc)[0] == "meta"
    assert set(doc["meta"]) == {"version", "config"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["dynamics", "--zeta", "1e-170"], ["dynamics", "--zeta", "1e-162"],
    ["dynamics", "--zeta", "1e-161"], ["dynamics", "--zeta", "1e-160"],
    ["dynamics", "--units", "gaussian_cgs", "--zeta", "1e-150"],
    ["verify", "--suite", "dynamics", "--zeta", "1e-162"],
    ["dynamics", "--units", "gaussian_cgs", "--zeta", "1e-145"],
    ["dynamics", "--units", "gaussian_cgs", "--zeta", "1e-140"],
    ["dynamics", "--zeta", "1e-153"]])
def test_dynamics_underflowing_zeta_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "underflows to 0" in captured.err


def test_dynamics_suite_runs_at_tiny_zeta(capsys):
    code, out = run_cli(["verify", "--suite", "dynamics", "--zeta", "1e-150"],
                        capsys)
    assert code == 0
    assert all(c["verdict"] != "fail" for c in strict_json(out)["checks"])


def test_loose_tolerances_cannot_hide_a_planted_fault(monkeypatch, capsys):
    exact = bridge.fierz_em

    def planted(f):
        lhs, rhs = exact(f)
        return lhs + 1e-3, rhs

    monkeypatch.setattr(bridge, "fierz_em", planted)
    argv = ["verify", "--suite", "fierz", "--samples", "20"]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(argv + ["--tol-abs", "1e300", "--tol-rel", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tol_abs must be")
    assert main(argv + ["--tol-abs", "1e-12", "--tol-rel", "0"]) == 1
    capsys.readouterr()


# the options each command reads, written out independently of cli.COMMANDS
READS = {
    "verify": ["--suite", "--units", "--zeta", "--tol-abs", "--tol-rel",
               "--samples", "--seed", "--format", "--quad-points", "--out"],
    "torus": ["--units", "--zeta", "--quad-points", "--out"],
    "planewave": ["--px", "--py", "--pz", "--branch", "--out"],
    "dynamics": ["--units", "--zeta", "--out"],
    "sweep-zeta": ["--min", "--max", "--steps", "--units", "--quad-points",
                   "--out"],
    "dump-matrices": ["--set", "--out"],
}
VALUES = {
    "--suite": "fierz", "--units": "gaussian_cgs", "--zeta": "0.5",
    "--tol-abs": "1e-13", "--tol-rel": "1e-14", "--samples": "10", "--seed": "3",
    "--format": "csv", "--quad-points": "128", "--out": "report.out",
    "--px": "0.1", "--py": "0.2", "--pz": "0.3", "--branch": "negative",
    "--min": "0.2", "--max": "0.4", "--steps": "3", "--set": "prime",
}
PAIRS = [(command, option) for command in READS for option in VALUES]


def _options(parser):
    """Each command's option strings, -h and --help left out."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [s for a in p._actions for s in a.option_strings
                   if s not in ("-h", "--help")]
            for name, p in sub.choices.items()}


def test_each_command_has_exactly_the_options_it_reads():
    assert _options(build_parser()) == READS
    assert sum(map(len, READS.values())) == 30


def test_a_request_builds_only_the_options_of_the_command_it_names():
    argv = ["sweep-zeta", "--min", "0.1", "--max", "0.9", "--steps", "5"]
    assert _options(build_parser(argv)) == {
        name: flags if name == "sweep-zeta" else []
        for name, flags in READS.items()}


def _parse(parser, argv):
    """repr of the Namespace, or the exit code, with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


COMMAND = st.sampled_from(list(READS))
FLAG = st.sampled_from([*VALUES, "-h", "--bogus"])
TOKENS = st.lists(st.one_of(
    COMMAND, FLAG,
    st.sampled_from(["0.5", "-1", "-0.5", "-1e-3", "-inf", "nan", "x",
                     *VALUES.values()]),
    st.floats().map(str)), max_size=6)


@settings(deadline=None, max_examples=300)
@given(argv=st.one_of(TOKENS, st.builds(
    lambda head, name, rest: [*head, name, *rest],
    st.lists(FLAG, max_size=2), COMMAND, TOKENS)))
def test_filtered_parser_decides_like_the_full_one(argv):
    """argparse picks a command only by a token equal to its name, so the
    parser that gives only the named commands options is enough.  Command
    names also come as option values, and unknown flags before a command
    leave it the command."""
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


@pytest.mark.parametrize("command,option", [
    p for p in PAIRS if p[1] in READS[p[0]]])
def test_option_a_command_reads_parses(command, option):
    default = vars(build_parser().parse_args([command]))
    args = vars(build_parser().parse_args([command, option, VALUES[option]]))
    changed = [k for k in args if args[k] != default[k]]
    assert len(changed) == 1
    assert str(args[changed[0]]) == VALUES[option]


@pytest.mark.parametrize("command,option", [
    p for p in PAIRS if p[1] not in READS[p[0]]])
def test_option_a_command_ignores_is_a_usage_error(command, option, capsys):
    assert main([command, option, VALUES[option]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv,config", [
    (["verify", "--suite", "algebra", "--samples", "10"],
     [("units", "natural"), ("zeta", 1.0), ("tol_abs", 1e-12),
      ("tol_rel", 1e-12), ("samples", 10), ("seed", 0), ("format", "json"),
      ("quadrature_points", 256)]),
    (["torus", "--units", "gaussian_cgs", "--zeta", "0.25", "--quad-points",
      "128"],
     [("units", "gaussian_cgs"), ("zeta", 0.25), ("quadrature_points", 128)]),
    (["dynamics"], [("units", "natural"), ("zeta", 1.0)]),
    (["planewave"], []), (["dump-matrices"], [])])
def test_meta_config_lists_only_the_settings_read(argv, config, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert list(strict_json(out)["meta"]["config"].items()) == config


@pytest.mark.parametrize("command", ["torus", "sweep-zeta"])
def test_too_few_quadrature_points_exit_two(command, capsys):
    assert main([command, "--quad-points", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "1000001"],
    ["verify", "--quad-points", "1000001"],
    ["torus", "--quad-points", "1000001"],
    ["sweep-zeta", "--quad-points", "1000001"],
    ["sweep-zeta", "--steps", "1000001"]])
def test_size_above_its_cap_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[1]} must be <= 1000000, got 1000001\n"


def test_negative_seed_exits_two(capsys):
    assert main(["verify", "--suite", "fierz", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


# One run of every command in both unit systems and all three verify
# formats, an off-axis plane wave, and three runs that exit 2.
REACH_ARGV = [
    ["verify", "--samples", "20", "--format", "json"],
    ["verify", "--samples", "20", "--format", "text"],
    ["verify", "--samples", "20", "--format", "csv"],
    ["verify", "--samples", "20", "--units", "gaussian_cgs"],
    ["torus"], ["torus", "--units", "gaussian_cgs"],
    ["planewave", "--py", "1.3"],
    ["planewave", "--px", "1", "--branch", "negative"],
    ["dynamics"], ["dynamics", "--units", "gaussian_cgs"],
    ["sweep-zeta", "--steps", "2"],
    ["sweep-zeta", "--steps", "2", "--units", "gaussian_cgs"],
    ["dump-matrices"], ["dump-matrices", "--set", "prime"],
    ["torus", "--zeta", "2"], ["verify", "--tol-abs", "1"],
    ["torus", "--units", "gaussian_cgs", "--zeta", "1e-133"],
]


def _package_defs():
    """(path, first line, name) of every def in the package source.

    A decorated function's code object starts at its first decorator.
    """
    for path in sorted(pathlib.Path(semiphoton.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                yield str(path), first, node.name


# Runs REACH_ARGV (argv[1], JSON) under a profiler in a fresh interpreter,
# imports included, so the tables that a module builds at import count as
# reached; prints the exit codes and the (file, first line) of every call.
REACH_SCRIPT = """
import contextlib, io, json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    from semiphoton.cli import main
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def test_every_function_is_reached_by_a_command():
    src = pathlib.Path(semiphoton.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT, json.dumps(REACH_ARGV)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout)
    assert run["codes"] == [0] * 14 + [2, 2, 2]
    entered = {(str(pathlib.Path(path).resolve()), line)
               for path, line in run["entered"]}
    unreached = [name for path, line, name in _package_defs()
                 if (str(pathlib.Path(path).resolve()), line) not in entered]
    assert unreached == []


# Parameters with a default that no call in the package or its scripts sets,
# each kept on purpose.
UNSET_DEFAULTS = {
    "cli.main.argv": "the entry point; None reads sys.argv",
}


_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression, or _NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _defaulted_parameters(module, tree):
    """(function name, position, name, qualified name, default) of every
    parameter with a default of the module-level functions and methods.

    ``position`` counts from the first argument a call passes, so a method's
    self or cls is skipped; it is None for keyword-only parameters.  The
    default is its literal value, or _NOT_LITERAL.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node, None)]
        elif isinstance(node, ast.ClassDef):
            defs = [(d, node.name) for d in node.body
                    if isinstance(d, ast.FunctionDef)]
        else:
            continue
        for d, cls in defs:
            qual = ".".join(filter(None, (module, cls, d.name)))
            positional = d.args.posonlyargs + d.args.args
            first = len(positional) - len(d.args.defaults)
            bound = 0 if cls is None else 1
            for i, (a, default) in enumerate(
                    zip(positional[first:], d.args.defaults), first):
                yield (d.name, i - bound, a.arg, f"{qual}.{a.arg}",
                       _literal(default))
            for a, default in zip(d.args.kwonlyargs, d.args.kw_defaults):
                if default is not None:
                    yield (d.name, None, a.arg, f"{qual}.{a.arg}",
                           _literal(default))


def _passed_parameters(trees):
    """{called name: {position or keyword: the values passed there}} over
    every call; a value that is not a literal is _NOT_LITERAL."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            got = passed.setdefault(name, {})
            for key, value in [*enumerate(node.args),
                               *((k.arg, k.value) for k in node.keywords)]:
                got.setdefault(key, []).append(_literal(value))
    return passed


def test_every_default_is_set_by_some_caller():
    package = pathlib.Path(semiphoton.__file__).parent
    scripts = pathlib.Path(__file__).resolve().parents[1] / "scripts"
    sources = sorted(package.glob("*.py")) + sorted(scripts.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    passed = _passed_parameters(trees.values())
    unset, one_value = [], []
    for path in sources:
        if path.parent != package:
            continue
        for func, position, name, qual, default in _defaulted_parameters(
                path.stem, trees[path]):
            got = passed.get(func, {})
            values = got.get(position, []) + got.get(name, [])
            if not values:
                unset.append(qual)
            elif all(v is not _NOT_LITERAL and v == default for v in values):
                one_value.append(qual)
    assert [q for q in unset if q not in UNSET_DEFAULTS] == []
    # an allowlisted parameter that a caller now sets leaves the list
    assert [q for q in UNSET_DEFAULTS if q not in unset] == []
    # a parameter that every caller sets to its default holds one value
    assert one_value == []


def test_open_alpha_set_fails_group_order(monkeypatch, capsys):
    canon = dirac.canonical_alpha_set()
    rot = np.diag([1, 1j ** 0.5, 1, 1]).astype(complex)  # irrational phase
    open_set = dirac.AlphaSet("open", canon.a0, rot, canon.a2, canon.a3,
                              canon.a4, canon.a5)
    monkeypatch.setattr(dirac, "canonical_alpha_set", lambda: open_set)
    code, out = run_cli(["verify", "--suite", "algebra"], capsys)
    checks = {c["id"]: c for c in strict_json(out)["checks"]}
    assert code == 1
    assert checks["algebra/group-order"]["verdict"] == "fail"
    assert checks["algebra/group-order"]["computed"] == 17
