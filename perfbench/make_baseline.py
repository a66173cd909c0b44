"""Measure the baseline: ten seeds per workload and one traced run each.

    python3 perfbench/make_baseline.py

Runs every workload untraced once per seed (run.run, the same code the
benchmark command uses, for run_seconds of BENCHMARK.json), then once traced,
and writes perfbench/baseline.json:
the median, quartiles and all values of every end-to-end metric per
workload, the spread (quartile distance over median), how long each run
took, the traced per-layer
breakdown with its tracing overhead, and the machine it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics

import run

SEEDS = list(range(100, 110))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"seconds": seconds, "seeds": SEEDS, "nproc": os.cpu_count(),
           "cpu": cpu_model(), "workloads": {}}
    for w in run.WORKLOADS:
        runs = []
        for seed in SEEDS:
            res = run.run(w, seed, seconds, trace=False)
            runs.append(res)
            print(w, seed, {k: round(v, 4) for k, v in res["e2e"].items()}, flush=True)
        traced = run.run(w, SEEDS[0], seconds, trace=True)
        out["versions"] = runs[0]["versions"]
        out["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "iterations": [r["iterations"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
            "e2e": {m: summarize([r["e2e"][m] for r in runs]) for m in runs[0]["e2e"]},
            "traced": {"seed": SEEDS[0], "failed": traced["failed"],
                       "layers": traced["layers"]},
        }
        for m, s in out["workloads"][w]["e2e"].items():
            print(f"{w:8s} {m:14s} median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
    with open(run.HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
