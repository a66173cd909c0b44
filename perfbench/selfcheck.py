"""Fast self-check of the benchmark harness, at reduced problem sizes.

    python3 -m pytest -q perfbench/selfcheck.py

Checks that run.py prints every metric BENCHMARK.json names, with its unit,
on every workload; that a wrong expected digest is counted as a failed
operation; and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = ["setup_s", "norm_cpu_s", "cpu_s", "wall_s", "peak_rss_mb", "fail_rate", "calibration_s",
       "coeffs_s", "query_s", "waldspurger_s", "oracles_s", "jutila_s"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0",
                           "--size", "small", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout: str) -> tuple:
    """(metric -> unit of the human-readable lines, final JSON object)."""
    lines = stdout.strip().splitlines()
    units = {line.split()[1]: line.split()[-1] for line in lines[:-1]
             if not line.startswith(("#", "FAILED"))}
    return units, json.loads(lines[-1])


def test_all_workloads_print_every_end_to_end_metric():
    proc = bench("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    units, result = printed(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(E2E) <= set(units)
    assert units["fail_rate"] == "ratio"
    for w in run.WORKLOADS:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"] == units[m["name"]]
            assert got["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    units, result = printed(proc.stdout)
    assert result["correct"] and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"] == units[m["name"]]
    assert result["metrics"]["trace.top_level_coverage"]["value"] > 0.5


def test_wrong_expected_digest_is_a_failed_operation():
    exp, pins = workloads.load_expected("small")
    inp = workloads.make_inputs("twists", 1, workloads.SIZES["small"])
    good = workloads.run_iteration("twists", inp, "small", exp, pins)
    assert all(op["ok"] for op in good.ops)
    bad = copy.deepcopy(exp)
    bad["tau_digest"] = "0" * 32
    it = workloads.run_iteration("twists", inp, "small", bad, pins)
    assert [op["name"] for op in it.ops if not op["ok"]] == ["waldspurger.tau"]


def test_refuses_to_run_without_the_program():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "table", cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
