"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its headline numbers. Tolerances are pinned here, not configurable.

Run with: pytest tests/test_acceptance.py -v
"""

import math
import subprocess
import sys
import time

import numpy as np

from halfint import mollifier as mo
from halfint.arith import enumerate_nflat
from halfint.cli import (
    cmd_signchanges,
    cmd_waldspurger,
    expansion_identity_holds,
    gauss_oracle_worst,
    modularity_panel,
    modularity_worst,
    poisson_worst,
    shimura_failures,
    taylor_bound_holds,
    w_kernel_worst,
    waldspurger_verdict,
)
from halfint.errors import InconsistencyError
from halfint.expsums import jutila_l2_defect, shifted_convolution
from halfint.hecke import find_signflip_prime, signflip_verify


def _report(criterion: str, ok: bool, detail: str) -> None:
    from conftest import ACCEPTANCE_LINES

    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_sign_change_tables(big_table):
    t0 = time.time()
    results = {}
    for X in (200_000, 2_000_000):
        results[X] = (
            cmd_signchanges(X, "all_supported", big_table),
            cmd_signchanges(X, "nflat", big_table),
        )
    ok = (
        results[200_000][0].S == 50291
        and results[200_000][0].N_set == 100_000
        and results[200_000][1].S == 5049
        and results[200_000][1].N_set == 10134
        and results[2_000_000][0].S == 501_163
        and results[2_000_000][1].S == 50_734
    )
    _report(
        "1 sign-change tables",
        ok,
        f"S={results[200_000][0].S},{results[200_000][1].S},"
        f"{results[2_000_000][0].S},{results[2_000_000][1].S}; "
        f"scan {time.time() - t0:.1f}s",
    )


def test_criterion_02_exact_shimura_identity(big_table, hecke26k):
    t0 = time.time()
    failures = shimura_failures(100_000, big_table, hecke26k)
    checked = sum(math.isqrt(100_000 // d) for d in [1] + enumerate_nflat(100_000))
    _report(
        "2 exact lift identity",
        failures == 0,
        f"{checked} pairs, {failures} failures, {time.time() - t0:.1f}s",
    )


def test_criterion_03_ratio_constancy(hecke26k):
    # the ratios and the verdict of `halfint waldspurger --dmax 2000`; a
    # coefficient and central value of which only one vanishes is a FAIL
    t0 = time.time()
    try:
        count, rel_std, ok = waldspurger_verdict(cmd_waldspurger(2000, 1e-8, hecke_table=hecke26k))
    except InconsistencyError as exc:
        _report("3 ratio constancy", False, f"vanishing inconsistent: {exc}")
    _report(
        "3 ratio constancy",
        ok,
        f"{count} ratios, rel std {rel_std:.2e}, {time.time() - t0:.1f}s",
    )


def test_criterion_04_gauss_oracle_equivalence():
    t0 = time.time()
    worst = gauss_oracle_worst(1000, 60)
    _report(
        "4 gauss-sum oracle",
        worst < 1e-10,
        f"odd n<=999, |l|<=60, worst {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_criterion_05_modularity_panel(table10k):
    t0 = time.time()
    worst = modularity_worst(table10k)
    _report(
        "5 modularity panel",
        len(modularity_panel()) == 20 and worst < 1e-8,
        f"20 pairs, worst rel discrepancy {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_criterion_06_kernel_derivation():
    t0 = time.time()
    worst = w_kernel_worst()
    _report(
        "6 kernel vs contour oracle",
        worst < 1e-10,
        f"20-point grid, worst {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_criterion_07_poisson_identity():
    t0 = time.time()
    worst = poisson_worst(46)
    _report(
        "7 poisson identity",
        worst < 1e-8,
        f"odd n<=45, worst {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_criterion_08_mollifier_identity_suite(hecke26k):
    t0 = time.time()
    tab = hecke26k
    params = mo.build_params(x=1.0e6, l=2.0, kappa=0.5, eta2=0.2, c0=2.0,
                             theta0_override=0.1)
    rng = np.random.default_rng(2024)
    positive = all(
        mo.mollifier_value(int(m), 0.5, params, tab).value > 0
        for m in rng.integers(1, 10**8, size=10_000)
    )
    taylor_ok = taylor_bound_holds((4, 8, 16, 24, 32, 48, 64), 61)
    ident_worst = 0.0
    for m in (1, 8, 40, 88, 123, 2024):
        for j in range(params.J + 1):
            enum = mo.m_factor(m, j, 0.5, params, tab, method="enumerate")
            iden = mo.m_factor(m, j, 0.5, params, tab, method="identity")
            ident_worst = max(ident_worst, abs(enum - iden) / max(1e-12, abs(iden)))
    expansion_ok = expansion_identity_holds(tab)
    nu_ok = (
        mo.nu_fold(2, 9) == 2
        and all(
            mo.nu_truncated(2, n, 6) == mo.nu_fold(2, n) for n in (2, 12, 30, 36)
        )
        and all(
            mo.nu_truncated(3, n, 1) <= mo.nu_fold(3, n) for n in range(2, 40)
        )
    )
    ok = positive and taylor_ok and ident_worst < 1e-12 and expansion_ok and nu_ok
    _report(
        "8 mollifier identity suite",
        ok,
        f"positivity {positive}, taylor {taylor_ok}, block identity "
        f"{ident_worst:.2e}, expansion {expansion_ok}, nu laws {nu_ok}, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_09_property_substitutes(big_table, hecke26k, pins):
    t0 = time.time()
    # (a) dyadic second-moment band
    from halfint.arith import odd_squarefree_flags

    nmax = 2**18
    flags = odd_squarefree_flags(nmax)
    n = np.arange(nmax + 1)
    c = big_table.c_array()
    c8sq = np.where(flags, c[8 * n] ** 2, 0.0)
    cum = np.cumsum(c8sq)
    ratios = [float(cum[2**k] / 2**k) for k in range(14, 19)]
    band_ok = max(ratios) < 3 * min(ratios)
    pin_ok = all(
        abs(r - pins["dyadic_second"][str(2**k)]) < 1e-6 * abs(r)
        for k, r in zip(range(14, 19), ratios)
    )
    # (b) shifted-convolution slope
    xs = [2.0**k for k in range(12, 18)]
    vals = [abs(shifted_convolution(1, 1, 3, X, big_table)) for X in xs]
    slope = float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
    slope_ok = slope < 0.999
    # (c) strictly decreasing defect
    defects = [jutila_l2_defect(Q, 0.5, 1) for Q in (2000, 4000, 8000, 16000)]
    jutila_ok = all(a > b for a, b in zip(defects, defects[1:]))
    # (d) sign-flip mechanism for every eligible index
    p = find_signflip_prime(hecke26k, 26_000)
    flips_ok = p == 17
    count = 0
    for d in enumerate_nflat(big_table.N // (p * p)):
        if big_table.a(d) == 0:
            continue
        if not signflip_verify(d, p, big_table):
            flips_ok = False
        count += 1
    ok = band_ok and pin_ok and slope_ok and jutila_ok and flips_ok
    _report(
        "9 property substitutes",
        ok,
        f"band {min(ratios):.3f}..{max(ratios):.3f} pinned {pin_ok}, slope "
        f"{slope:.3f}, defects {['%.3f' % d for d in defects]}, sign-flips "
        f"{count} at p={p}, {time.time() - t0:.1f}s",
    )


def test_criterion_10_selftest_determinism():
    t0 = time.time()

    def run():
        return subprocess.run(
            [sys.executable, "-m", "halfint.cli", "selftest"],
            capture_output=True,
            text=True,
        )

    a = run()
    b = run()
    ok = a.returncode == 0 and a.stdout == b.stdout and "FAIL" not in a.stdout
    _report(
        "10 selftest determinism",
        ok,
        f"exit {a.returncode}, identical across runs: {a.stdout == b.stdout}, "
        f"{time.time() - t0:.1f}s",
    )
