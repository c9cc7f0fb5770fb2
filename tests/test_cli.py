import json
import math

import numpy as np
import pytest

from semiphoton import bridge
from semiphoton.cli import main
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
    assert all(c["verdict"] in ("pass", "fail", "ledgered")
               for c in doc["checks"])
    assert any(c["verdict"] == "ledgered" for c in doc["checks"])
    assert doc["ledger"]


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


def test_sweep_zeta_bad_range_exits_two_with_message(capsys):
    assert main(["sweep-zeta", "--min", "0.5", "--max", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: zeta sweep needs")


def test_torus_unreachable_zeta_exits_two_with_message(capsys):
    assert main(["torus", "--zeta", "1e-200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no finite amplitude")


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
              CheckReport.build("x/complex", "r", 0.0, complex(-math.inf, 1.0))]
    ledger = [Discrepancy("y", stated=math.nan, computed=1.0, ratio=math.inf)]
    doc = strict_json(report_json(RunConfig(), checks, ledger))
    got = {c["id"]: c for c in doc["checks"]}
    assert all(c["verdict"] == "fail" for c in doc["checks"])
    assert (got["x/nan"]["computed"], got["x/nan"]["abs_err"],
            got["x/nan"]["rel_err"]) == ("nan", "nan", "nan")
    assert (got["x/inf"]["computed"], got["x/inf"]["abs_err"]) == ("inf", "inf")
    assert got["x/complex"]["computed"] == ["-inf", 1.0]
    assert (doc["ledger"][0]["stated"], doc["ledger"][0]["ratio"]) == ("nan", "inf")
    # with finite tolerances a non-finite value can never pass
    for value in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        assert CheckReport.build("x", "r", 0.0, value, tol_abs=1e300,
                                 tol_rel=1e300).verdict == "fail"


@pytest.mark.parametrize("option,value", [
    ("--tol-abs", "inf"), ("--tol-rel", "inf"), ("--tol-abs", "nan"),
    ("--tol-rel", "nan"), ("--tol-abs", "-1"), ("--tol-rel", "-1")])
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["torus", "--zeta", "1e-150"], ["planewave", "--px", "1e150"],
    ["dynamics", "--zeta", "1e-160"],
    ["dynamics", "--units", "gaussian_cgs", "--zeta", "1e-145"],
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
    ["dynamics", "--units", "gaussian_cgs", "--zeta", "1e-150"],
    ["verify", "--suite", "dynamics", "--zeta", "1e-162"]])
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
