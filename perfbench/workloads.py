"""One iteration of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload table --seed 1
        [--size small] [--trace FILE] [--setup-only]

Imports halfint from the checkout's src/, draws the iteration's query points
from the seed, then runs the workload's operations one after another. Each
operation is timed on its own, in wall seconds and in process CPU seconds,
and its output is checked after the clocks stop; a failed check or an
exception marks the operation failed. The last line of stdout is one JSON
object with the set-up time, every operation's times and status, the peak
RSS, and, with --trace, the per-layer numbers.

CPU seconds exclude the time the hypervisor steals from the process (the
kernel's paravirtual steal accounting), which wall seconds include. They
still follow how fast the shared host runs this process's CPU at the time,
so right after set-up, between operations and after the last one the
process times a fixed calibration kernel (`calibrate`, no halfint code).
Each operation's CPU seconds are also given at the reference speed: times
CAL_REF_S over the mean of the samples just before and just after it. The
set-up time is rescaled the same way by the first samples of the process.

Expected outputs come from expected.json (recorded from the seed commit by
record_expected.py) and from tests/data/regression_pins.json where a pin
covers the same number. Floats recorded here must match to REL_RECORDED;
pinned floats to the tolerance their tests use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import halfint  # noqa: E402
import tracing  # noqa: E402
from halfint import cli, expsums, hecke, lvalue, mollifier, qseries  # noqa: E402
from halfint.arith import enumerate_nflat  # noqa: E402

REL_RECORDED = 1e-9  # recorded floats: same code, possibly another numpy build
REL_PINNED = 1e-6  # tolerance of the regression-pin tests
REL_JUTILA_PINNED = 1e-9  # tests/test_expsums.py pins the defects this tightly

SIZES = {
    "full": {
        "table_n": 2_100_000,
        "sign_grid": [100_000 * k for k in range(1, 21)],
        "sign_pins": {200_000: {"all_supported": 50291, "nflat": 5049},
                      2_000_000: {"all_supported": 501_163, "nflat": 50_734}},
        "blocks": [16384, 65536, 262144],
        "block_choices": [32768, 131072],
        "xgrid": [4096, 16384, 65536],
        "hecke_n": 26_000,
        "dmax": 3250,
        "scan_x": 3200,
        "scan_pinned_u": [1, 5, 9, 25],
        "shimura_n": 100_000,
        "gauss_nmax": 300,
        "gauss_samples": 200,
        "gauss_sample_nmax": 1000,
        "moll_mmax": 400,
        "ref_n": 2000,
        "modularity_n": 10_000,
        "jutila_certify_q": 600,
        "qgrid": [2000, 4000, 8000, 16000],
    },
    # the harness self-check: same code paths, seconds per workload
    "small": {
        "table_n": 210_000,
        "sign_grid": [10_000 * k for k in range(1, 21)],
        "sign_pins": {200_000: {"all_supported": 50291, "nflat": 5049}},
        "blocks": [2048, 4096, 16384],
        "block_choices": [8192],
        "xgrid": [4096, 16384],
        "hecke_n": 4000,
        "dmax": 500,
        "scan_x": 400,
        "scan_pinned_u": [],
        "shimura_n": 10_000,
        "gauss_nmax": 40,
        "gauss_samples": 20,
        "gauss_sample_nmax": 100,
        "moll_mmax": 20,
        "ref_n": 300,
        "modularity_n": 10_000,
        "jutila_certify_q": 200,
        "qgrid": [500, 1000],
    },
}
TOL = 1e-8  # the README waldspurger tolerance
MOLLIFY = {"x": 2097152.0, "theta0_override": 0.08, "eta2": 0.2, "c0": 2.0}
SHIFT_README = (1, 1, 3)
SHIFT_CANDIDATES = [(h, v, D) for h in (1, 2, 3, 4)
                    for v, D in ((1, 1), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5))]
SCAN_U_CANDIDATES = list(range(1, 100, 2))
SIGN_EXTRA = 2
SCAN_EXTRA = 4
GAUSS_LMAX = 60
# calibration kernel: a CPython big-integer product, an interpreter loop and
# numpy passes over 2 MB arrays allocated once (4 MB of every process's peak
# RSS), about 20 ms each on the reference machine
CAL_INT_A = random.Random(0).getrandbits(1 << 18)
CAL_INT_B = random.Random(1).getrandbits(1 << 18)
CAL_LOOP = 200_000
CAL_ARRAY = np.arange(1 << 18, dtype=np.float64)[::-1].copy()
CAL_OUT = np.empty_like(CAL_ARRAY)
CAL_PASSES = 8
CAL_SAMPLES = 2  # samples before each operation and after the last one
# median CPU seconds of one calibrate() pass on the reference machine
# (2 vCPU "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy 2.4.6)
CAL_REF_S = 0.060


def calibrate() -> float:
    """CPU seconds of one pass of the fixed calibration kernel."""
    c0 = time.process_time()
    CAL_INT_A * CAL_INT_B
    s = 0
    for i in range(CAL_LOOP):
        s += i * i % 7
    for _ in range(CAL_PASSES):
        np.sqrt(CAL_ARRAY, out=CAL_OUT)
        CAL_OUT.sort()
    return time.process_time() - c0


def speed(cal: list, j: int) -> float:
    """Reference over measured speed around operation j: the mean of the
    calibration samples just before and just after it. j = 0 also brackets
    the set-up, which ends right before them."""
    return CAL_REF_S / statistics.mean(cal[j * CAL_SAMPLES:(j + 2) * CAL_SAMPLES])


def mollify_setup() -> tuple:
    """Mollifier parameters and Hecke table of the README `moments --mollify`,
    sized as the CLI sizes them."""
    params = mollifier.build_params(**MOLLIFY)
    return params, hecke.build_hecke_table(max(200, math.ceil(params.intervals[-1][1]) + 1))


def make_inputs(workload: str, seed: int, size: dict) -> dict:
    """Query points of one run. The seed picks points from fixed candidate
    grids; it never changes problem sizes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        pins = sorted(size["sign_pins"])
        others = [x for x in size["sign_grid"] if x not in pins]
        return {
            "sign_xs": pins + sorted(rng.sample(others, SIGN_EXTRA)),
            "blocks": sorted(size["blocks"] + [rng.choice(size["block_choices"])]),
            "shift": rng.choice([s for s in SHIFT_CANDIDATES if s != SHIFT_README]),
        }
    if workload == "twists":
        pinned = size["scan_pinned_u"]
        others = [u for u in SCAN_U_CANDIDATES if u not in pinned]
        return {"us": pinned + sorted(rng.sample(others, SCAN_EXTRA))}
    if workload == "certify":
        lo = size["gauss_nmax"] + 1  # odd: gauss_nmax is even
        return {"gauss_samples": [
            (rng.choice([l for l in range(-GAUSS_LMAX, GAUSS_LMAX + 1) if l]),
             rng.randrange(lo, size["gauss_sample_nmax"], 2))
            for _ in range(size["gauss_samples"])]}
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -----------------------------------------------------------------------


def int_digest(values) -> tuple:
    """(BLAKE2b hex digest, max bit length) of an integer sequence, the same
    for a list of Python ints and an int64 array holding the same values."""
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        ints = [int(v) for v in values]
        data = b"".join(v.to_bytes(16, "little", signed=True) for v in ints)
        bits = max(abs(v) for v in ints).bit_length()
    else:
        data = arr.astype("<i8").tobytes()
        bits = int(np.abs(arr).max()).bit_length()
    return hashlib.blake2b(data, digest_size=16).hexdigest(), bits


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


class Check:
    """Collects mismatches of one operation's output."""

    def __init__(self):
        self.problems: list = []

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)

    def eq(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, what: str, got, want, rel: float, abs_: float = 0.0) -> None:
        if isinstance(want, float) and math.isnan(want) and math.isnan(got):
            return
        if not abs(got - want) <= rel * abs(want) + abs_:
            self.problems.append(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


class Iteration:
    """Times operations and records their checks, failures and facts."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.ops: list = []
        self.facts: dict = {}
        self.cal: list = []

    def calibrate(self) -> None:
        self.cal.extend(calibrate() for _ in range(CAL_SAMPLES))

    def op(self, name: str, phase, fn, check):
        self.calibrate()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = fn()
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.ops.append({"name": name, "phase": phase, "ok": False,
                             "seconds": time.perf_counter() - t0,
                             "cpu_seconds": time.process_time() - c0, "error": repr(exc)})
            return None
        seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
        c = Check()
        try:
            check(out, c)
        except Exception as exc:
            c.problems.append(f"check raised {exc!r}")
        self.ops.append({"name": name, "phase": phase, "ok": not c.problems,
                         "seconds": seconds, "cpu_seconds": cpu_seconds,
                         "error": "; ".join(c.problems)})
        return out

    def alpha_digest(self, table) -> str:
        """Digest of a table's alpha; also records the widest |alpha(n)| seen,
        the bit-length certificate an int64 table would rely on."""
        digest, bits = int_digest(table.alpha)
        key = "qseries.alpha_max_bits"
        self.facts[key] = max(bits, self.facts.get(key, 0))
        return digest


# -- workloads ----------------------------------------------------------------------


def run_table(it: Iteration, inp: dict, exp: dict, size: dict, pins: dict) -> None:
    """coeffs (build + HICF save), then the four read commands, each reloading
    the table as its CLI invocation does."""
    N = size["table_n"]
    path = os.path.join(it.tmp, "delta.hicf")
    built = {}

    def check_build(t, c):
        built["digest"] = it.alpha_digest(t)
        c.eq("alpha digest", built["digest"], exp["alpha_digest"][str(N)])

    table = it.op("coeffs.build", "coeffs", lambda: qseries.delta_halfintegral(N), check_build)

    def check_save(_, c):
        c.eq("HICF file digest", file_digest(path), exp["hicf_digest"])
        it.facts["qseries.hicf_bytes"] = os.path.getsize(path)

    it.op("coeffs.save", "coeffs", lambda: qseries.save_coeffs(table, path), check_save)
    del table

    def read(name, query, check_rows):
        def run():
            t = qseries.load_coeffs(path)
            return t, query(t)

        def check(out, c):
            t, rows = out
            c.eq("HICF load equals build", it.alpha_digest(t), built.get("digest"))
            check_rows(rows, c)

        it.op(name, "query", run, check)

    for which in ("all_supported", "nflat"):
        def check_sign(reps, c, which=which):
            for rep in reps:
                want = exp["signchanges"][which][str(rep.X)]
                c.eq(f"{which} S,N_set at {rep.X}", [rep.S, rep.N_set], want)
                pin = size["sign_pins"].get(rep.X)
                if pin:
                    c.eq(f"{which} pinned S at {rep.X}", rep.S, pin[which])

        read(f"signchanges.{which}",
             lambda t, which=which: [cli.cmd_signchanges(X, which, t) for X in inp["sign_xs"]],
             check_sign)

    def moments(t):
        return cli.cmd_moments(inp["blocks"], t, *mollify_setup())

    def check_moments(rows, c):
        c.eq("moment blocks", [r["X"] for r in rows], inp["blocks"])
        for r in rows:
            X = str(r["X"])
            for key in ("second", "mollified_second", "mollified_fourth"):
                c.close(f"{key} at {X}", r[key], exp["moments"][X][key], REL_RECORDED)
            if X in pins["dyadic_second"]:
                c.close(f"pinned second at {X}", r["second"], pins["dyadic_second"][X], REL_PINNED)
            if X in pins["mollified"]:
                for key in ("second", "fourth"):
                    c.close(f"pinned mollified {key} at {X}", r[f"mollified_{key}"],
                            pins["mollified"][X][key], REL_PINNED)

    read("moments", moments, check_moments)

    shifts = [SHIFT_README, tuple(inp["shift"])]

    def check_shifted(per_shift, c):
        for (h, v, D), rows in zip(shifts, per_shift):
            for r in rows:
                X = str(r["X"])
                want = complex(*exp["shifted"][f"{h},{v},{D}"][X])
                c.close(f"shifted {h},{v},{D} at {X}", complex(r["re"], r["im"]), want,
                        REL_RECORDED)
                if (h, v, D) == SHIFT_README and X in pins["shifted_abs"]:
                    c.close(f"pinned |shifted| at {X}", r["abs"], pins["shifted_abs"][X],
                            REL_PINNED)

    read("shifted",
         lambda t: [cli.cmd_shifted(h, v, D, size["xgrid"], t) for h, v, D in shifts],
         check_shifted)


def shimura_grid(coeffs, htab, limit: int) -> tuple:
    """(pairs checked, failures) of the exact lift identity over d n^2 <= limit."""
    pairs = failures = 0
    for d in [1] + enumerate_nflat(limit):
        for n in range(1, math.isqrt(limit // d) + 1):
            pairs += 1
            failures += not hecke.shimura_identity_check(d, n, coeffs, htab)
    return pairs, failures


def run_twists(it: Iteration, inp: dict, exp: dict, size: dict, pins: dict) -> None:
    """waldspurger (tau build + central-value sweep), the twisted first moment
    over seeded twists, and the exact Shimura identity grid."""

    def check_tau(t, c):
        c.eq("tau digest", int_digest(t.tau)[0], exp["tau_digest"])

    htab = it.op("waldspurger.tau", "waldspurger",
                 lambda: hecke.build_hecke_table(size["hecke_n"]), check_tau)

    def check_sweep(rows, c):
        want = exp["waldspurger"]
        c.eq("index set", [r["d"] for r in rows], [w[0] for w in want])
        for r, (d, alpha, lval, ratio) in zip(rows, want):
            c.eq(f"alpha({d})", r["alpha"], alpha)
            c.close(f"L(1/2) at {d}", r["lvalue"], lval, REL_RECORDED, 1e-12)
            c.close(f"ratio at {d}", r["ratio"], ratio, REL_RECORDED)
        vals = np.array([r["ratio"] for r in rows if not math.isnan(r["ratio"])])
        rel_std = float(vals.std() / vals.mean()) if vals.size else float("inf")
        c.true(f"ratio rel std {rel_std:.2e} >= 1e-12", rel_std < 1e-12)

    it.op("waldspurger.sweep", "waldspurger",
          lambda: cli.cmd_waldspurger(size["dmax"], TOL, hecke_table=htab), check_sweep)

    x = size["scan_x"]

    def check_scan(vals, c):
        for u, val in zip(inp["us"], vals):
            c.close(f"first moment u={u}", val, exp["first_moment"][str(u)], REL_RECORDED)
            pin = pins["first_moment"].get(f"x{x}_u{u}")
            if pin is not None:
                c.close(f"pinned first moment u={u}", val, pin, REL_PINNED)

    it.op("first_moment_scan", None,
          lambda: [lvalue.first_moment_scan(x, u, htab) for u in inp["us"]], check_scan)

    limit = size["shimura_n"]

    def check_alpha(t, c):
        c.eq("alpha digest", it.alpha_digest(t), exp["alpha_digest"][str(limit)])

    coeffs = it.op("shimura.alpha", None, lambda: qseries.delta_halfintegral(limit), check_alpha)

    def check_shimura(res, c):
        c.eq("identity pairs", res[0], exp["shimura_pairs"])
        c.eq("identity failures", res[1], 0)

    it.op("shimura.check", None, lambda: shimura_grid(coeffs, htab, limit), check_shimura)


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


def gauss_oracle(nmax: int, samples: list) -> float:
    """Worst relative gap between brute-force and closed-form Gauss sums over
    odd n < nmax and 0 < |l| <= 60, the l = 0 degenerations, and the seeded
    (l, n) samples."""
    worst = 0.0

    def gap(l, n):
        cf = expsums.gauss_sum_closed(l, n)
        return abs(expsums.gauss_sum_bruteforce(l, n) - cf) / max(1.0, abs(cf))

    for n in range(1, nmax, 2):
        for l in range(-GAUSS_LMAX, GAUSS_LMAX + 1):
            if l:
                worst = max(worst, gap(l, n))
        root = math.isqrt(n)
        g0 = expsums.gauss_sum_closed(0, n)
        expect = float(_phi(n)) if root * root == n else 0.0
        worst = max(worst, abs(expsums.gauss_sum_bruteforce(0, n) - g0), abs(g0 - expect))
    for l, n in samples:
        worst = max(worst, gap(l, n))
    return worst


def mollifier_identities(mmax: int) -> dict:
    """The selftest mollifier suite: enumerate-vs-identity block factors,
    positivity, the Dirichlet expansion on the tiny configurations, and the
    truncated-exponential Taylor bound."""
    tab = hecke.build_hecke_table(200)
    params = mollifier.build_params(x=1.0e6, l=2.0, kappa=0.5, eta2=0.2, c0=2.0,
                                    theta0_override=0.1)
    worst = 0.0
    positive = True
    for m in range(1, mmax):
        positive &= mollifier.mollifier_value(8 * m, 0.5, params, tab).value > 0
        for j in range(params.J + 1):
            enum = mollifier.m_factor(8 * m, j, 0.5, params, tab, method="enumerate")
            iden = mollifier.m_factor(8 * m, j, 0.5, params, tab, method="identity")
            worst = max(worst, abs(enum - iden) / max(1.0, abs(iden)))
    expansion = all(
        mollifier.dirichlet_expansion_check(m, 0.5, l, cfg, tab)
        for cfg, l in zip(cli.tiny_mollifier_configs(), (2.0, 4.0, 2.0))
        for m in (8, 24, 40, 104))
    taylor = all(
        math.exp(t) <= (1 + math.exp(-ell / 2)) * mollifier.e_truncated(float(t), ell)
        * (1 + 1e-12)
        for ell in (4, 8, 16, 64) for t in np.linspace(-3 * ell, ell / math.e**2, 41))
    return {"worst": worst, "positive": positive, "expansion": expansion, "taylor": taylor}


def run_certify(it: Iteration, inp: dict, exp: dict, size: dict, pins: dict) -> None:
    """The oracle pairs behind selftest at the selftest thresholds, then the
    README jutila grid."""

    def below(limit):
        def check(worst, c):
            c.true(f"worst {worst:.2e} >= {limit:g}", worst < limit)
        return check

    it.op("gauss_oracle", "oracles",
          lambda: gauss_oracle(size["gauss_nmax"], inp["gauss_samples"]), below(1e-10))

    def check_moll(res, c):
        c.true(f"block identity worst {res['worst']:.2e}", res["worst"] < 1e-12)
        for key in ("positive", "expansion", "taylor"):
            c.true(f"mollifier {key}", res[key])

    it.op("mollifier_identities", "oracles",
          lambda: mollifier_identities(size["moll_mmax"]), check_moll)

    ref_n = size["ref_n"]

    def check_reference(pair, c):
        fast, ref = pair
        digest = it.alpha_digest(fast)
        c.eq("fast builder equals reference", digest, int_digest(ref.alpha)[0])
        c.eq("alpha digest", digest, exp["alpha_digest"][str(ref_n)])
        c.eq("support violations", fast.support_violations().size, 0)

    it.op("delta_reference", "oracles",
          lambda: (qseries.delta_halfintegral(ref_n), qseries.delta_halfintegral_reference(ref_n)),
          check_reference)

    def wkernel():
        return max(abs(lvalue.w_kernel(x, k) - lvalue.w_kernel_oracle(x, k))
                   for k in (2, 6) for x in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0))

    it.op("w_kernel_oracle", "oracles", wkernel, below(1e-10))
    it.op("poisson", "oracles",
          lambda: max(max(expsums.poisson_check(n, 5.0), expsums.poisson_check(n, 3.0))
                      for n in range(1, 46, 2)),
          below(1e-8))

    mod_n = size["modularity_n"]

    def modularity():
        coeffs = qseries.delta_halfintegral(mod_n)
        panel = cli.modularity_panel()
        return coeffs, max(expsums.modularity_check(g, z, coeffs) for g, z in panel)

    def check_modularity(out, c):
        coeffs, worst = out
        c.eq("alpha digest", it.alpha_digest(coeffs), exp["alpha_digest"][str(mod_n)])
        below(1e-8)(worst, c)

    it.op("modularity_panel", "oracles", modularity, check_modularity)
    q = size["jutila_certify_q"]
    it.op("jutila_certify", "oracles",
          lambda: abs(expsums.jutila_l2_defect(q, 0.5, 1)
                      - expsums.jutila_l2_defect(q, 0.5, 1, exact=True)),
          below(1e-9))

    def check_jutila(rows, c):
        c.eq("Q grid", [r["Q"] for r in rows], size["qgrid"])
        for r in rows:
            Q = str(r["Q"])
            arcs, defect = exp["jutila"][Q]
            c.eq(f"arcs at {Q}", r["arcs"], arcs)
            c.close(f"defect at {Q}", r["defect"], defect, REL_RECORDED)
            if Q in pins["jutila_defects"]:
                c.close(f"pinned defect at {Q}", r["defect"], pins["jutila_defects"][Q],
                        REL_JUTILA_PINNED)
        c.true("defects decrease", all(a["defect"] > b["defect"] for a, b in zip(rows, rows[1:])))

    it.op("jutila_grid", "jutila", lambda: cli.cmd_jutila(size["qgrid"], 0.5, 1), check_jutila)


WORKLOADS = {"table": run_table, "twists": run_twists, "certify": run_certify}


def load_expected(size_name: str) -> tuple:
    with open(HERE / "expected.json") as fh:
        exp = json.load(fh)[size_name]
    with open(ROOT / "tests" / "data" / "regression_pins.json") as fh:
        pins = json.load(fh)
    return exp, pins


def run_iteration(workload: str, inp: dict, size_name: str, exp: dict, pins: dict,
                  tracer=None) -> Iteration:
    """Run one workload once in this process, under `tracer` if given."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    restore = tracing.install(tracer) if tracer is not None else None
    try:
        it = Iteration(tmp)
        WORKLOADS[workload](it, inp, exp, SIZES[size_name], pins)
        it.calibrate()
        return it
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--trace", help="record spans and write them to this JSONL file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inp = make_inputs(args.workload, args.seed, SIZES[args.size])
    exp, pins = load_expected(args.size)
    # CPU seconds of the main thread since the process started; numpy's
    # BLAS threads spin for a varying time at import and are left out
    out = {"setup_s": time.thread_time()}
    if args.setup_only:
        cal = [calibrate() for _ in range(2 * CAL_SAMPLES)]
    else:
        tracer = None
        if args.trace:
            run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
            tracer = tracing.Tracer(run_id)
        it = run_iteration(args.workload, inp, args.size, exp, pins, tracer)
        cal = it.cal
        for j, op in enumerate(it.ops):
            op["ref_cpu_seconds"] = op["cpu_seconds"] * speed(cal, j)
        out.update(ops=it.ops, facts=it.facts,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   versions={"python": sys.version.split()[0], "numpy": np.__version__,
                             "scipy": scipy.__version__, "halfint": halfint.__version__})
        if tracer is not None:
            tracer.write(args.trace)
            out["layers"] = tracing.layer_metrics(tracer)
    out.update(setup_ref_s=out["setup_s"] * speed(cal, 0), cal=cal)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
