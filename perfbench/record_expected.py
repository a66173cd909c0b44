"""Record the benchmark's expected outputs from the code as it is now.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json: the integer digests, counts and floats that
workloads.py checks, for every candidate query point a seed can draw and for
both sizes. Run it only on the commit whose outputs are the reference (the
seed commit of the benchmark); re-recording to make a change pass defeats the
checks.
"""

from __future__ import annotations

import json
import os
import tempfile

import workloads as w
from workloads import cli, hecke, lvalue, qseries


def record(size: dict) -> dict:
    out = {"alpha_digest": {}}

    def alpha(n):
        t = qseries.delta_halfintegral(n)
        out["alpha_digest"][str(n)] = w.int_digest(t.alpha)[0]
        return t

    N = size["table_n"]
    table = alpha(N)
    (w.ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=w.ROOT / ".perfbench") as tmp:
        path = os.path.join(tmp, "delta.hicf")
        qseries.save_coeffs(table, path)
        out["hicf_digest"] = w.file_digest(path)
    out["signchanges"] = {
        which: {str(X): [r.S, r.N_set] for X in size["sign_grid"]
                for r in [cli.cmd_signchanges(X, which, table)]}
        for which in ("all_supported", "nflat")}
    rows = cli.cmd_moments(sorted(size["blocks"] + size["block_choices"]), table,
                           *w.mollify_setup())
    out["moments"] = {str(r.pop("X")): r for r in rows}
    out["shifted"] = {
        f"{h},{v},{D}": {str(r["X"]): [r["re"], r["im"]]
                         for r in cli.cmd_shifted(h, v, D, size["xgrid"], table)}
        for h, v, D in w.SHIFT_CANDIDATES}
    del table

    htab = hecke.build_hecke_table(size["hecke_n"])
    out["tau_digest"] = w.int_digest(htab.tau)[0]
    out["waldspurger"] = [[r["d"], r["alpha"], r["lvalue"], r["ratio"]]
                          for r in cli.cmd_waldspurger(size["dmax"], w.TOL, hecke_table=htab)]
    out["first_moment"] = {str(u): lvalue.first_moment_scan(size["scan_x"], u, htab)
                           for u in w.SCAN_U_CANDIDATES}
    pairs, failures = w.shimura_grid(alpha(size["shimura_n"]), htab, size["shimura_n"])
    assert failures == 0, "the reference commit fails the Shimura identity"
    out["shimura_pairs"] = pairs
    alpha(size["ref_n"])
    alpha(size["modularity_n"])
    out["jutila"] = {str(r["Q"]): [r["arcs"], r["defect"]]
                     for r in cli.cmd_jutila(size["qgrid"], 0.5, 1)}
    return out


def main() -> None:
    expected = {name: record(size) for name, size in w.SIZES.items()}
    with open(w.HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
