import json
import math

import pytest

from semiphoton.cli import main


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
