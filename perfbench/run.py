"""The halfint benchmark.

    python3 perfbench/run.py --workload {table,twists,certify,all} --seed N
        [--seconds S] [--trace 0|1] [--size full|small]

Each iteration of a workload runs in its own fresh Python process
(workloads.py), one process at a time. A run first starts SETUP_RUNS
processes that only import halfint and draw their inputs, then repeats the
workload while the next iteration is expected to end no more than half an
iteration after --seconds (run_seconds of BENCHMARK.json by default) from
the start of the run. With --trace 1 every other iteration records spans
(tracing.py); the untraced ones give the end-to-end numbers and the
difference is the tracing overhead.

The gated times are CPU seconds at the reference speed, rescaled in each
process by a calibration kernel timed around every operation
(workloads.calibrate), so that a shared host running all code slower or
faster for a while moves them less.

Prints every metric by name and unit, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). Exits 1
without that line if a workload process cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table", "twists", "certify")
# end-to-end stage metrics: phase of workloads.py operations -> metric
PHASES = {"coeffs": "coeffs_s", "query": "query_s", "waldspurger": "waldspurger_s",
          "oracles": "oracles_s", "jutila": "jutila_s"}
SETUP_RUNS = 3
RUN_DEADLINE_S = 170  # a run that is not done by then is a failed run


class WorkloadError(RuntimeError):
    """A workload process exited abnormally or printed no result."""


def child(workload: str, seed: int, size: str, deadline: float, *extra: str) -> dict:
    """Run one workload process to completion; `deadline` is a monotonic time."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkloadError(f"{workload}: not done within {RUN_DEADLINE_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _wall(it: dict) -> float:
    return sum(op["seconds"] for op in it["ops"])


def _cpu(it: dict, phase=None, key: str = "cpu_seconds") -> float:
    return sum(op[key] for op in it["ops"] if phase in (None, op["phase"]))


def _norm(it: dict, phase=None) -> float:
    """CPU seconds of an iteration's operations at the reference speed."""
    return _cpu(it, phase, "ref_cpu_seconds")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run of one workload; returns every number it measured."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups = [child(workload, seed, size, deadline, "--setup-only") for _ in range(SETUP_RUNS)]
    trace_file = ROOT / ".perfbench" / f"trace-{workload}.jsonl"
    plain, traced, took = [], [], []

    def more() -> bool:
        if not plain or (trace and not traced):
            return True
        return time.monotonic() - start + statistics.median(took) / 2 <= seconds

    while more():
        t0 = time.monotonic()
        if trace and len(traced) <= len(plain):
            traced.append(child(workload, seed, size, deadline, "--trace", str(trace_file)))
        else:
            plain.append(child(workload, seed, size, deadline))
        took.append(time.monotonic() - t0)
    iterations = plain + traced
    ops = [op for it in iterations for op in it["ops"]]
    failures = [f"{op['name']}: {op['error']}" for op in ops if not op["ok"]]
    e2e = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups + iterations),
        "norm_cpu_s": statistics.median(map(_norm, plain)),
        "cpu_s": statistics.median(map(_cpu, plain)),
        "wall_s": statistics.median(map(_wall, plain)),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
        "fail_rate": len(failures) / len(ops),
        "calibration_s": statistics.median(c for p in setups + iterations for c in p["cal"]),
    }
    stages = {}
    for phase, name in PHASES.items():
        if any(op["phase"] == phase for op in plain[0]["ops"]):
            stages[name] = statistics.median(_norm(it, phase) for it in plain)
    out = {"workload": workload, "seed": seed, "size": size,
           "iterations": len(plain), "traced_iterations": len(traced),
           "run_s": time.monotonic() - start,
           "attempted": len(ops), "failed": len(failures), "failures": failures,
           "e2e": {**e2e, **stages}, "versions": plain[0]["versions"],
           "nproc": os.cpu_count()}
    if trace:
        layers = {name: statistics.median([it["layers"][name] for it in traced])
                  for name in traced[0]["layers"]}
        for fact in ("qseries.alpha_max_bits", "qseries.hicf_bytes"):
            layers[fact] = statistics.median([it["facts"].get(fact, 0) for it in traced])
        layers["trace.overhead_s"] = statistics.median(map(_norm, traced)) - e2e["norm_cpu_s"]
        layers["trace.top_level_coverage"] = (layers.pop("top_level_s")
                                              / statistics.median(map(_wall, traced)))
        layers.update({name: stages.get(name, 0.0) for name in PHASES.values()})
        for name in ("cpu_s", "wall_s", "calibration_s"):
            layers[name] = e2e[name]
        out["layers"] = layers
    return out


def report(res: dict, spec: dict) -> None:
    """Human-readable lines: every end-to-end metric, then per-layer ones."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_rate"] = "ratio"
    v = res["versions"]
    print(f"# {res['workload']} seed={res['seed']} size={res['size']}: "
          f"{res['iterations']} untraced + {res['traced_iterations']} traced iterations "
          f"in {res['run_s']:.1f} s; "
          f"python {v['python']} numpy {v['numpy']} scipy {v['scipy']} nproc {res['nproc']}")
    for name, value in {**res["e2e"], **res.get("layers", {})}.items():
        print(f"{res['workload']:8s} {name:40s} {value:>16.6g} {units[name]}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            res = run(name, args.seed, seconds, bool(args.trace), args.size)
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(res, spec)
        values = {**res["e2e"], **res.get("layers", {})}
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
