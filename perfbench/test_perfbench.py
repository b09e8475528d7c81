"""Tests of the benchmark harness itself (not part of the Tier-1 suite).

    python3 -m pytest -q perfbench

The smoke runs take a few seconds: small inputs, one pass, answer
checks and the traced run from start to end.
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import schurlab  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {f"{w['name']}/{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"] == want[name], name
    if trace == "1":
        diag = json.loads(proc.stdout.strip().splitlines()[-2])["diagnostics"]
        for load in diag.values():
            checks = [p["trace_additivity"] for p in load["passes"] if p["traced"]]
            assert checks
            for check in checks:
                assert check["missing"] == []
                assert check["self_sum_s"] + check["process_s"] == pytest.approx(
                    check["traced_pass_s"], rel=1e-6)


def test_single_workload_prints_contract_names():
    proc = _run("--workload", "wide-info", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    passes = len(json.loads(proc.stdout.strip().splitlines()[-2])["diagnostics"]["wide-info"]["passes"])
    assert result["attempted"] == passes * (1 + 3)  # one file, three setup probes


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = _run("--workload", "wide-info", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_list_matches_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == list(workloads.WHY.items())


def test_inputs_depend_only_on_the_seed(tmp_path):
    texts = []
    for run in range(3):
        workdir = tmp_path / str(run)
        workdir.mkdir()
        invs = workloads.build("file-reports", 7 if run < 2 else 8, str(workdir), True, schurlab)
        texts.append(open(invs[0].argv[2], encoding="utf-8").read())
    assert texts[0] == texts[1] != texts[2]


@pytest.mark.parametrize("name, want", [
    ("A(1)", (0, 0, 1)), ("H(1)", (2, 3, 0)), ("L5_8", (6, 8, 0)), ("L4_3", (2, 4, 0)),
])
def test_oracle_on_known_algebras(name, want):
    n, sc = oracle.parse_presentation_text(
        schurlab.format_presentation(schurlab.catalog_get(name)))
    assert oracle.wedge_invariants(n, sc) == want


def test_random_basis_keeps_the_invariants(tmp_path):
    n, sc = workloads._catalog_algebra(schurlab, "L5_9+A(1)")
    p, p_inv = workloads._unimodular(n, random.Random(5))
    changed = oracle.parse_presentation_text(
        workloads.format_lie("B", n, workloads._change_basis(n, sc, p, p_inv)))
    assert oracle.wedge_invariants(*changed) == oracle.wedge_invariants(n, sc)
    assert oracle.series_invariants(*changed) == oracle.series_invariants(n, sc)


def test_checks_reject_a_wrong_answer(tmp_path):
    inv = workloads.build("file-reports", 1, str(tmp_path), True, schurlab)[0]
    proc = subprocess.run([sys.executable, "-m", "schurlab"] + inv.argv, cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    inv.check(proc.returncode, proc.stdout)
    doc = json.loads(proc.stdout)
    doc["dim_M"] += 1
    with pytest.raises(workloads.CheckFailed):
        inv.check(0, json.dumps(doc))
    with pytest.raises(workloads.CheckFailed):
        inv.check(4, proc.stdout)


def test_cpu_of_reads_a_cpu_this_process_may_use():
    import run
    assert run.cpu_of(os.getpid()) in os.sched_getaffinity(0)
    assert run.cpu_of(-1) is None
