import hashlib
import json
import subprocess
import sys

import pytest

from schurlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_example(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--name", "L5_8", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_e1"] == 6
    assert doc["bound_e2"] == 6
    assert doc["attains_e2"] is True
    assert doc["schema_version"] == "1"
    assert doc["name"] == "L5_8"


def test_capable_example(capsys):
    code, out, _ = run_cli(
        capsys, "capable", "--name", "A1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["capable"] is False


def test_multiplier_example(capsys):
    code, out, _ = run_cli(
        capsys, "multiplier", "--name", "L5_7", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_M"] == 3
    assert doc["dim_exterior_square"] == 6
    assert doc["capable"] is True


def test_json_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "multiplier", "--name", "H(2)", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "multiplier", "--name", "H(2)", "--format", "json"
    )
    assert first == second


def test_check_json_golden_digest(capsys):
    # Pins the output across versions: the 2.5 and 2.6 witnesses carry
    # the gamma dims.  A deliberate output change (such as new catalog
    # entries) updates the digest and records the change in CHANGES.md.
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "all", "--max-dim", "6", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d707524524b5743892b05f25b09943f58ffd1bb7fe53b8d4c4da414a0ac55ce"
    )


def test_table_output(capsys):
    code, out, _ = run_cli(capsys, "info", "--name", "L5_9")
    assert code == 0
    assert "n: 5" in out
    assert "c: 3" in out


def test_file_input_with_digest(tmp_path, capsys):
    source = tmp_path / "heis.alg"
    source.write_text("algebra H dim 3\n[x1, x2] = x3\n")
    code, out, _ = run_cli(
        capsys, "multiplier", "--file", str(source), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_M"] == 2
    assert doc["file"] == str(source)
    assert len(doc["sha256"]) == 64


def test_param_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiplier",
        "--name",
        "L6_22",
        "--param",
        "eps=1/2",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["name"] == "L6_22(1/2)"


def test_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "info", "--name", "NOPE")
    assert code == 2 and "unknown" in err.lower()
    code, _, err = run_cli(capsys, "sweep", "--max-dim", "9")
    assert code == 3
    bad = tmp_path / "bad.alg"
    bad.write_text(
        "algebra B dim 4\n[x1,x2]=x3\n[x1,x3]=x4\n[x2,x4]=x3\n"
    )
    code, _, err = run_cli(capsys, "info", "--file", str(bad))
    assert code == 2 and "Jacobi" in err
    code, _, err = run_cli(capsys, "info", "--file", str(tmp_path / "no.alg"))
    assert code == 2
    code, _, err = run_cli(capsys, "multiplier", "--name", "L6_22")
    assert code == 2 and "eps" in err


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--max-dim", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["attainers"] == ["H(1)", "H(1)+A(1)"]
    names = [entry["name"] for entry in doc["entries"]]
    assert "L4_3" in names


def test_check_all(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "all", "--max-dim", "5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True
    assert any(r["theorem"].startswith("strict") for r in doc["reports"])


def test_check_single_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--theorem", "2.9", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["witnesses"]["class_two_matches"] == ["L6_26"]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schurlab", "bounds", "--name", "H(1)",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["bound_e1"] == 2 and doc["attains_e2"] is True


def test_log_env_smoke(monkeypatch, capsys):
    monkeypatch.setenv("SCHURLAB_LOG", "INFO")
    code, out, _ = run_cli(
        capsys, "info", "--name", "H(1)", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["n"] == 3
