"""Command-line orchestration: sign-change statistics, moment scans,
central-value sweeps, exponential-sum grids, and the self-test suite.

Subcommands: coeffs, signchanges, waldspurger, moments, shifted, jutila,
selftest. Output is CSV (header row, LF endings, 6-decimal ratios) or JSON
lines with --format jsonl. A `key = value` config file may set any long
option; flags win, and a config value passes the flag's parser and checks.
Exit codes: 0 success, 1 suite/verification failure, 2 usage error, 3
resource/budget error or a truncation bound that misses its tolerance.

All reductions run in a fixed order, so reports are byte-identical across
runs within one numpy build.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import expsums, lvalue, mollifier, qseries
from .arith import (
    enumerate_nflat,
    euler_phi,
    factorize_small,
    index_set_flags,
    is_fundamental_discriminant,
    kronecker,
    odd_squarefree_flags,
    sigma3_table,
)
from .errors import (
    BudgetExceededError,
    CapacityError,
    ChecksumError,
    ConvergenceError,
    FormatError,
    InconsistencyError,
    InsufficientTableError,
)
from .hecke import HeckeTable, build_hecke_table, shimura_identity_check
from .qseries import CoeffTable, delta_halfintegral, load_coeffs, replacing, save_coeffs

__all__ = [
    "SignChangeReport",
    "cmd_signchanges",
    "cmd_moments",
    "cmd_waldspurger",
    "cmd_shifted",
    "cmd_jutila",
    "cmd_selftest",
    "main",
]


@dataclass(frozen=True)
class SignChangeReport:
    X: int
    index_set: str
    S: int
    N_set: int
    ratio: float
    zeros_skipped: int


def cmd_signchanges(X: int, index_set: str, coeffs: CoeffTable) -> SignChangeReport:
    """Count adjacent sign changes of alpha over the index set named
    "all_supported" or "nflat"; arith.index_set_flags defines both. Zero
    entries inside the set are skipped in the count of changes but kept in
    N_set.
    """
    if X < 1:
        raise ValueError(f"limit must be positive, got {X}")
    if X > coeffs.N:
        raise InsufficientTableError(f"need coefficients to {X}, table holds {coeffs.N}")
    signs = coeffs.sign_array(X + 1)[index_set_flags(index_set, X)]
    N_set = signs.size
    nz = signs[signs != 0]
    changes = int(np.count_nonzero(nz[1:] != nz[:-1]))
    return SignChangeReport(
        X=X,
        index_set=index_set,
        S=changes,
        N_set=N_set,
        ratio=changes / N_set if N_set else 0.0,
        zeros_skipped=N_set - nz.size,
    )


def cmd_moments(
    X_list: list,
    coeffs: CoeffTable,
    mollifier_params=None,
    hecke_table=None,
) -> list:
    """Per-block ratios (1/X) sum_{n<=X, 2n square-free} c(8n)^2, plus the
    mollified second and fourth moment ratios when params are given."""
    if min(X_list) < 1:
        raise ValueError(f"block sizes must be positive, got {min(X_list)}")
    xmax = max(X_list)
    if 8 * xmax > coeffs.N:
        raise InsufficientTableError(f"need coefficients to {8 * xmax}")
    c = coeffs.c_array(8 * xmax + 1, 8)  # c(8n), n = 0..xmax
    # 2n square-free <=> n odd square-free <=> 8n in nflat
    flags = index_set_flags("nflat", 8 * xmax)[::8]
    n = np.arange(xmax + 1)
    csq = np.where(flags, c**2, 0.0)
    rows = []
    if mollifier_params is not None:
        msq = mollifier.mollifier_value(
            8 * n, mollifier_params.kappa, mollifier_params, hecke_table
        ).value ** 2
    for X in X_list:
        row = {"X": X, "second": float(np.add.reduce(csq[: X + 1])) / X}
        if mollifier_params is not None:
            m2 = csq[: X + 1] * msq[: X + 1]
            row["mollified_second"] = float(np.add.reduce(m2)) / X
            row["mollified_fourth"] = float(
                np.add.reduce(csq[: X + 1] * m2 * msq[: X + 1])
            ) / X
        rows.append(row)
    return rows


def cmd_waldspurger(d_max: int, tol: float, hecke_table=None) -> list:
    need = lvalue.truncation_length(d_max, tol)  # the longest AFE sum, at d = d_max
    if hecke_table is None or hecke_table.N < need:
        hecke_table = build_hecke_table(need)
    coeffs = delta_halfintegral(d_max)
    rows = []
    for d in enumerate_nflat(d_max):
        ratio = lvalue.waldspurger_ratio(d, coeffs, hecke_table, tol)
        rows.append(
            {
                "d": d,
                "alpha": coeffs.a(d),
                "lvalue": lvalue.central_lvalue_cached(d, hecke_table, tol).value,
                "ratio": float("nan") if ratio is None else ratio,
            }
        )
    return rows


WALDSPURGER_SPREAD = 1e-3  # a run passes when its ratios' relative std is below this


def waldspurger_verdict(rows: list) -> tuple:
    """The number of finite ratios in cmd_waldspurger rows, their relative
    std (nan when there are none), and whether the run passes."""
    vals = np.array([r["ratio"] for r in rows if not math.isnan(r["ratio"])])
    rel_std = float(vals.std() / vals.mean()) if vals.size else float("nan")
    return vals.size, rel_std, rel_std < WALDSPURGER_SPREAD


def cmd_shifted(h: int, v: int, Delta: int, xgrid: list, coeffs: CoeffTable) -> list:
    rows = []
    for X in xgrid:
        val = expsums.shifted_convolution(h, v, Delta, X, coeffs)
        rows.append({"X": X, "re": val.real, "im": val.imag, "abs": abs(val)})
    return rows


def cmd_jutila(qgrid: list, eta: float, Delta: int) -> list:
    rows = []
    for Q in qgrid:
        sys_ = expsums.build_jutila_system(Q, eta, Delta)
        rows.append(
            {
                "Q": Q,
                "arcs": sys_.L,
                "defect": expsums.jutila_l2_defect(Q, eta, Delta),
            }
        )
    return rows


# -- self-test suites ------------------------------------------------------------
# Each oracle check takes its grid and returns its metric; selftest and the
# acceptance criteria call it at their own sizes with their own thresholds.


def gauss_oracle_worst(n_max: int, l_max: int) -> float:
    """Worst brute-force vs closed-form Gauss-sum gap over odd n < n_max:
    relative for 0 < |l| <= l_max, absolute at l = 0, where the closed form
    must also be phi(n) (counted by gcds) on squares and 0 elsewhere."""
    worst = 0.0
    for n in range(1, n_max, 2):
        for l in range(-l_max, l_max + 1):
            if l == 0:
                continue
            bf = expsums.gauss_sum_bruteforce(l, n)
            cf = expsums.gauss_sum_closed(l, n)
            worst = max(worst, abs(bf - cf) / max(1.0, abs(cf)))
        root = math.isqrt(n)
        g0 = expsums.gauss_sum_closed(0, n)
        expect = sum(math.gcd(a, n) == 1 for a in range(1, n + 1)) if root * root == n else 0
        worst = max(worst, abs(expsums.gauss_sum_bruteforce(0, n) - g0), abs(g0 - expect))
    return worst


def w_kernel_worst() -> float:
    """Worst closed-form vs contour-oracle AFE kernel gap on a 20-point grid."""
    return max(
        abs(lvalue.w_kernel(x, k) - lvalue.w_kernel_oracle(x, k))
        for k in (2, 6)
        for x in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
    )


def poisson_worst(n_max: int) -> float:
    """Worst Poisson-identity discrepancy over odd n < n_max, widths 5 and 3."""
    return max(
        max(expsums.poisson_check(n, 5.0), expsums.poisson_check(n, 3.0))
        for n in range(1, n_max, 2)
    )


def modularity_worst(coeffs: CoeffTable) -> float:
    """Worst relative modularity discrepancy over modularity_panel()."""
    return max(expsums.modularity_check(g, z, coeffs) for g, z in modularity_panel())


def shimura_failures(limit: int, coeffs: CoeffTable, tab: HeckeTable) -> int:
    """Failures of the exact lift identity over d = 1 or d in the index set,
    n >= 1, d n^2 <= limit."""
    return sum(
        not shimura_identity_check(d, n, coeffs, tab)
        for d in [1] + enumerate_nflat(limit)
        for n in range(1, math.isqrt(limit // d) + 1)
    )


def taylor_bound_holds(ells: tuple, points: int) -> bool:
    """e^t <= (1 + e^{-ell/2}) E_ell(t) at `points` t in [-3 ell, ell/e^2]."""
    return all(
        math.exp(t)
        <= (1 + math.exp(-ell / 2)) * mollifier.e_truncated(float(t), ell) * (1 + 1e-12)
        for ell in ells
        for t in np.linspace(-3 * ell, ell / math.e**2, points)
    )


def expansion_identity_holds(tab: HeckeTable) -> bool:
    """The Dirichlet expansion identity on the tiny mollifier configurations."""
    return all(
        mollifier.dirichlet_expansion_check(m, 0.5, l, cfg, tab)
        for cfg, l in zip(tiny_mollifier_configs(), (2.0, 4.0, 2.0))
        for m in (8, 24, 40, 104)
    )


def _suite_sieves():
    """The arithmetic primitives the commands use, against brute force for
    n < 2000: sigma_3, the odd square-free flags and the mu carried by
    squarefree_divisors from each n's divisor list, phi from gcd counts;
    chi_d against the per-n symbol for the positive fundamental d < 200.
    The metric is the worst |sum mu(r)| over squarefree_divisors(n), n >= 2,
    or inf when a brute-force comparison fails."""
    lim = 2000
    sig = sigma3_table(lim)
    odd_sf = odd_squarefree_flags(lim)
    ok = sig[1] == 1 and odd_sf[1] and euler_phi(1) == 1
    ok = ok and factorize_small(1).squarefree_divisors() == [(1, 1)]
    ok = ok and all(lvalue.chi_array(d, 2 * d)[1:].tolist()
                    == [kronecker(d, n) for n in range(1, 2 * d + 1)]
                    for d in range(1, 200) if is_fundamental_discriminant(d))
    least = [0, 0]  # least divisor > 1, which is prime
    worst = 0
    for n in range(2, lim):
        a = np.arange(1, n + 1)
        divs = a[n % a == 0].tolist()
        least.append(divs[1])
        primes = [q for q in divs[1:] if least[q] == q]
        mu = {r: (-1) ** sum(r % q == 0 for q in primes)
              for r in divs if all(r % (q * q) for q in primes)}
        pairs = factorize_small(n).squarefree_divisors()
        worst = max(worst, abs(sum(m for _, m in pairs)))
        ok = (ok and sig[n] == sum(d**3 for d in divs)
              and odd_sf[n] == (n % 2 == 1 and n in mu) and dict(pairs) == mu
              and euler_phi(n) == np.count_nonzero(np.gcd(a, n) == 1))
    return float(worst) if ok else math.inf


def _suite_delta():
    """1 unless the fast alpha builder equals the reference and has no
    support violations, and the tau series equals the naive product."""
    fast = delta_halfintegral(2000)
    ref = qseries.delta_halfintegral_reference(2000)
    return float(not (np.array_equal(fast.alpha, ref.alpha)
                      and fast.support_violations().size == 0
                      and qseries.delta_integral(2000) == _tau_naive(2000)))


def _tau_naive(N: int) -> list:
    """q prod (1 - q^n)^24 to q^N; each factor is expanded by the binomial
    theorem, its terms C(24, j) (-q^n)^j read from a copy of the series
    before it."""
    coeffs = np.zeros(N, dtype=object)
    coeffs[0] = 1
    for n in range(1, N):
        prev = coeffs[: N - n].copy()
        for j in range(1, min(24, (N - 1) // n) + 1):
            coeffs[n * j :] += (-1) ** j * math.comb(24, j) * prev[: N - n * j]
    return [0] + coeffs.tolist()


def modularity_panel() -> list:
    """20 fixed matrix/point pairs with both Im z and Im gamma(z) above the
    series guard."""
    pairs = []
    cds = [
        (4, 1), (4, 3), (4, 5), (4, 7), (4, 9), (4, 11),
        (8, 1), (8, 3), (8, 5), (8, 7), (8, 9), (8, 11),
        (12, 1), (12, 5), (12, 7), (12, 11),
        (16, 1), (16, 3), (16, 5), (16, 7),
    ]
    for c, d in cds:
        a = pow(d, -1, c)
        b = (a * d - 1) // c
        z = complex(-d / c + 0.01, 1.0 / c)
        pairs.append(((a, b, c, d), z))
    return pairs


def _suite_mollifier():
    tab = build_hecke_table(200)
    params = mollifier.build_params(
        x=1.0e6, l=2.0, kappa=0.5, eta2=0.2, c0=2.0, theta0_override=0.1
    )
    ms = 8 * np.arange(1, 400)
    mollifier.mollifier_value(ms, 0.5, params, tab)  # raises unless positive
    worst = 0.0
    for j in range(params.J + 1):
        iden = mollifier.m_factor(ms, j, 0.5, params, tab, method="identity")
        enum = [mollifier.m_factor(int(m), j, 0.5, params, tab, method="enumerate") for m in ms]
        gap = np.abs(np.array(enum) - iden) / np.maximum(1.0, np.abs(iden))
        worst = max(worst, float(gap.max()))
    ok = expansion_identity_holds(tab) and taylor_bound_holds((4, 8, 16, mollifier.ELL_MAX), 41)
    return worst if ok else 1.0


def tiny_mollifier_configs() -> list:
    """Three enumerable mollifier configurations for the expansion identity:
    one block of three primes, one single-prime block, and a two-block split
    whose leading block holds no prime."""
    logx = math.log(1.0e6)
    return [mollifier.build_params(x=1.0e6, kappa=0.5, eta2=eta2, c0=2.0,
                                   theta0_override=math.log(edge) / logx)
            for eta2, edge in ((0.12, 8.0), (0.08, 3.5), (0.1, 2.4))]


# (name, metric, bound): a suite passes when its metric is below its bound
_SUITES = [
    ("sieves", _suite_sieves, 1),
    ("gauss_oracle", lambda: gauss_oracle_worst(1000, 60), 1e-10),
    ("w_kernel_oracle", w_kernel_worst, 1e-10),
    ("poisson_identity", lambda: poisson_worst(46), 1e-8),
    ("delta_tables", _suite_delta, 1),
    ("shimura_identity", lambda: shimura_failures(
        10_000, delta_halfintegral(10_000), build_hecke_table(110)), 1),
    ("modularity_panel", lambda: modularity_worst(delta_halfintegral(10_000)), 1e-8),
    ("mollifier_identities", _suite_mollifier, 1e-12),
    ("jutila_certify", lambda: abs(expsums.jutila_l2_defect(600, 0.5, 1)
                                   - expsums.jutila_l2_defect(600, 0.5, 1, exact=True)), 1e-9),
]


def cmd_selftest() -> list:
    rows = []
    for name, suite, bound in _SUITES:
        metric = float(suite())
        rows.append({"suite": name, "status": "pass" if metric < bound else "FAIL",
                     "metric": metric})
    return rows


# -- output, options, entry point --------------------------------------------------


def _emit(rows: list, fmt: str, out) -> None:
    if not rows:
        return
    if fmt == "jsonl":
        for r in rows:
            out.write(json.dumps(r, sort_keys=True) + "\n")
        return
    cols = list(rows[0].keys())
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for r in rows:
        cells = []
        for c in cols:
            v = r[c]
            if isinstance(v, float):
                cells.append(f"{v:.6f}" if c == "ratio" else repr(v))
            else:
                cells.append(str(v))
        writer.writerow(cells)


def _number(kind, noun: str):
    """A parser for one number; its message says what the text is not."""
    def parse(text: str, what: str = "value"):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"{what} {text.strip()!r} is not {noun}") from None
    return parse


_int = _number(int, "an integer")
_float = _number(float, "a number")


def _int_list(text: str) -> list:
    values = [_int(tok, "entry") for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"value {text!r} lists no integers")
    return values


def _dmax(text: str) -> int:
    """The largest discriminant; the least one checked is 8."""
    d = _int(text)
    if d < 8:
        raise ValueError(f"value {d} is below 8, the least discriminant 8m, so nothing is checked")
    return d


def _out_path(text: str) -> str:
    """A file to write: not a directory, and in a directory that exists."""
    if os.path.isdir(text):
        raise ValueError(f"value {text!r} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise ValueError(f"value {text!r} is in a directory that does not exist")
    return text


_MOLLIFY_KEYS = ("x", "kappa", "eta2", "c0", "theta0")


def _parse_mollify(text: str) -> dict:
    """build_params keyword arguments from the given keys, each given at
    most once; theta0 is required, x defaults to 2e6, the other keys to the
    build_params defaults."""
    kv = {}
    for tok in text.split(","):
        if not tok.strip():
            continue
        if "=" not in tok:
            raise ValueError(f"token {tok.strip()!r} is not key=value")
        k, v = tok.split("=", 1)
        k = k.strip()
        if k not in _MOLLIFY_KEYS:
            raise ValueError(f"key {k!r} is not one of {', '.join(_MOLLIFY_KEYS)}")
        if (dest := "theta0_override" if k == "theta0" else k) in kv:
            raise ValueError(f"key {k!r} is set twice")
        kv[dest] = _float(v, f"key {k} value")
    if "theta0_override" not in kv:
        raise ValueError(f"value {text!r} does not set the required key theta0")
    return {"x": 2.0e6, **kv}


_REQUIRED = object()  # the default of an option that must be set


@dataclass(frozen=True)
class _Opt:
    """A long option: its parser, default text (None: unset), allowed
    values, --help line, and flag when that is not "--" + its config key."""

    parse: Callable
    default: object = None
    choices: tuple = ()
    help: str = ""
    flag: str = ""


# The program's options, then each subcommand's; argparse, --help and the
# config merge are all built from these tables.
_GLOBAL = {
    "format": _Opt(str, "csv", ("csv", "jsonl")),
    "out": _Opt(_out_path, help="write the report here instead of stdout"),
}
_COEFFS = _Opt(str, _REQUIRED, help="coefficient table file")
_INTS = "comma-separated integers"
_COMMANDS = {
    "coeffs": ("build and save the coefficient table", {
        "limit": _Opt(_int, _REQUIRED),
        "coeffs_out": _Opt(_out_path, _REQUIRED, help="table file to write", flag="--out")}),
    "signchanges": ("sign-change statistics", {
        "limit": _Opt(_int, _REQUIRED), "set": _Opt(str, "all", ("all", "nflat")),
        "coeffs": _COEFFS}),
    "waldspurger": ("squared-coefficient / central-value ratios", {
        "dmax": _Opt(_dmax, "2000"), "tol": _Opt(_float, "1e-8")}),
    "moments": ("dyadic moment ratios", {
        "blocks": _Opt(_int_list, _REQUIRED, help=_INTS),
        "coeffs": _COEFFS,
        "mollify": _Opt(_parse_mollify, help="key=value,... mollifier params, x=2e6 unless set")}),
    "shifted": ("shifted convolution on an X grid", {
        "h": _Opt(_int, _REQUIRED),
        "delta": _Opt(_int, "1"), "v": _Opt(_int, "0"),
        "xgrid": _Opt(_int_list, _REQUIRED, help=_INTS),
        "coeffs": _COEFFS}),
    "jutila": ("circle-method L2 defect on a Q grid", {
        "qgrid": _Opt(_int_list, _REQUIRED, help=_INTS),
        "eta": _Opt(_float, "0.5"), "delta": _Opt(_int, "1")}),
    "selftest": ("oracle-equivalence and identity suites", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="halfint",
        description="Half-integral weight form coefficients, twisted central "
        "values, mollifiers, and sign-change statistics.",
    )
    ap.add_argument("--config", action="append",
                    help="key = value file setting any long option; flags win")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = [(ap, _GLOBAL)] + [
        (sub.add_parser(cmd, help=about), table) for cmd, (about, table) in _COMMANDS.items()]
    # argparse lists the texts; _resolve refuses two and parses one, whatever its source
    for parser, table in parsers:
        for key, opt in table.items():
            note = ("required" if opt.default is _REQUIRED
                    else opt.default and f"default {opt.default}")
            parser.add_argument(
                opt.flag or "--" + key, dest=key, action="append",
                metavar="{" + ",".join(opt.choices) + "}" if opt.choices else None,
                help="; ".join(filter(None, (opt.help, note))))
    return ap


def _resolve(cmd: str, flags: dict) -> dict:
    """Each option of the program and of `cmd` from its flag, else its key
    in the --config file (`key = value` lines, # comments, each key on one
    line at most), else its default, through the option's parser and choice
    check. A ValueError names the flag or key at fault, or the flag given
    twice."""
    table = {**_GLOBAL, **_COMMANDS[cmd][1]}
    flag = {"config": "--config", **{key: opt.flag or "--" + key for key, opt in table.items()}}
    texts = {}
    for key, name in flag.items():
        texts[key], *again = flags[key] or [None]
        if again:
            raise ValueError(f"{name} is given twice")
    given = {}
    if (config := texts["config"]) is not None:
        with open(config, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{config}:{lineno}: expected key = value")
                key, text = (part.strip() for part in line.split("=", 1))
                if (dest := key.replace("-", "_")) not in table:
                    raise ValueError(f"unknown config key {key!r}")
                if dest in given:
                    raise ValueError(f"{config}:{lineno}: config key {key!r} is set twice")
                given[dest] = (f"config key {key!r}", text)
    values = {}
    for key, opt in table.items():
        name, text = ((flag[key], texts[key]) if texts[key] is not None
                      else given.get(key, (flag[key], opt.default)))
        if text is _REQUIRED:
            raise ValueError(f"{flag[key]} is required (config key {key})")
        try:
            values[key] = None if text is None else opt.parse(text)
            if opt.choices and values[key] not in opt.choices:
                raise ValueError(
                    f"value {text!r} is not one of {', '.join(opt.choices)}")
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    return values


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    try:
        opts = _resolve(flags["command"], flags)
        rows, status = _dispatch(flags["command"], opts)
        # the report replaces --out only once it is written in full
        with replacing(opts["out"], "w") if opts["out"] else nullcontext(sys.stdout) as out:
            _emit(rows, opts["format"], out)
        return status
    except (BudgetExceededError, CapacityError, ConvergenceError, InsufficientTableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ChecksumError, InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(cmd: str, o: dict):
    """Run `cmd` on its resolved options; return the rows and exit status."""
    if cmd == "coeffs":
        table = delta_halfintegral(o["limit"])
        save_coeffs(table, o["coeffs_out"])
        return [{"written": o["coeffs_out"], "N": table.N}], 0
    if cmd == "signchanges":
        which = "all_supported" if o["set"] == "all" else "nflat"
        return [dict(vars(cmd_signchanges(o["limit"], which, load_coeffs(o["coeffs"]))))], 0
    if cmd == "waldspurger":
        rows = cmd_waldspurger(o["dmax"], o["tol"])
        _, rel_std, ok = waldspurger_verdict(rows)
        print(f"# rel_std_dev = {rel_std:.3e}", file=sys.stderr)
        return rows, 0 if ok else 1
    if cmd == "moments":
        table = load_coeffs(o["coeffs"])
        params = htab = None
        if o["mollify"] is not None:
            params = mollifier.build_params(**o["mollify"])
            htab = build_hecke_table(max(200, math.ceil(params.intervals[-1][1]) + 1))
        return cmd_moments(o["blocks"], table, params, htab), 0
    if cmd == "shifted":
        return cmd_shifted(o["h"], o["v"], o["delta"], o["xgrid"], load_coeffs(o["coeffs"])), 0
    if cmd == "jutila":
        return cmd_jutila(o["qgrid"], o["eta"], o["delta"]), 0
    rows = cmd_selftest()
    return rows, 0 if all(r["status"] == "pass" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
