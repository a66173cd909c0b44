"""Euler-product mollifier for the twisted central values, and the
combinatorial identities behind its Dirichlet-series expansion.

Construction. A scale x is split into prime blocks I_0 = (c0, x^{t_0}],
I_j = (x^{t_{j-1}}, x^{t_j}] with geometrically growing exponents
t_j = t_0 e^j, stopped once t_J lands in [eta2, e*eta2]. Each block carries
an even truncation length ell_j = 2 floor(t_j^{-3/4}). One smooth damping
w(p) = w(p; J), which vanishes at the top edge x^{t_J}, gives every prime
the coefficient a(p) = lambda(p) w(p). The mollifier at twist m is

    M(m; 1/kappa) = (log x)^{1/(2 kappa)} prod_j M_j(m; 1/kappa),

where M_j is the truncated multiplicative sum over I_j-smooth n with at most
ell_j prime factors. By the multinomial identity

    sum_{Omega(n) = s, p|n => p in I} a(n) nu(n) (m|n) / sqrt(n) = P^s / s!,
    P = sum_{p in I} a(p) (m|p) / sqrt(p),

with nu the multiplicative weight nu(p^a) = 1/a!, the block factor
collapses to the truncated exponential M_j(m) = E_{ell_j}(-P_j(m)/kappa),
which is strictly positive for even ell_j. Both routes are implemented: the
definitional divisor enumeration (`m_factor` with method="enumerate") and
the collapsed form (method="identity"); their agreement is one of the
verification suites. The collapsed form also takes an int array of twists,
and `halfint moments --mollify` evaluates it so.

`build_params` takes the leading exponent t_0 as given. The paper's
asymptotic shape t_0 = eta_1 / (log log x)^5 with the total-length bound
sum ell_j t_j < 1/2 cannot be built here. The cap ell_0 <= ELL_MAX = 64
means m = floor(t_0^(-3/4)) <= 32 and t_0 > (m + 1)^(-4/3), so
ell_0 t_0 > 2m (m + 1)^(-4/3) >= 64 * 33^(-4/3) = 0.6046 > 1/2 at every x.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .arith import factorize_small, kronecker, kronecker_row, primes_up_to
from .errors import BudgetExceededError, CapacityError, InconsistencyError
from .hecke import HeckeTable

__all__ = [
    "MollifierParams",
    "MollifierValue",
    "build_params",
    "weight_w",
    "coeff_a",
    "p_sum",
    "e_truncated",
    "m_factor",
    "mollifier_value",
    "nu_fold",
    "nu_truncated",
    "dirichlet_expansion_check",
]


@dataclass
class MollifierParams:
    x: float
    kappa: float
    theta: list
    ell: list
    intervals: list
    primes: list = field(repr=False)
    # per-block memos for one table: the prime weights keyed by j (see
    # _prime_weights) and the enumerated supports keyed by (j, max_omega)
    # (see _support)
    _supports: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def J(self) -> int:
        return len(self.theta) - 1


@dataclass(frozen=True)
class MollifierValue:
    value: float | np.ndarray


# nodes one block-support enumeration may visit
_BUDGET = 10_000_000
# relative tolerance of dirichlet_expansion_check
_EXPANSION_TOL = 1e-12
# relative error bound past which e_truncated recomputes an entry exactly
_E_REL = 2.0**-43
# the largest truncation length ell_j a mollifier may use: the largest ell
# that the selftest Taylor check certifies
ELL_MAX = 64


def build_params(
    x: float,
    l: float | None = None,
    kappa: float = 0.5,
    eta2: float = 0.2,
    c0: float = 2.0,
    *,
    theta0_override: float,
) -> MollifierParams:
    """Prime blocks (c0, x^theta0], then up by exponent factors e to the
    first theta_J >= eta2, for a mollifier of length x and exponent kappa.
    l, when given, is only checked: l*kappa must be an integer in [1, 4]; it
    sets no field. theta0_override keeps its name because perfbench/ passes
    it. Raises ValueError naming an x, kappa, eta2, c0 or theta0 out of
    range, and CapacityError when the top edge x^theta_J is past 5e7."""
    if not 1 < x < math.inf:
        raise ValueError(f"mollifier length x must satisfy 1 < x < inf, got {x}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    expo = math.log(math.log(x)) / (2.0 * kappa)  # the log of the prefactor
    if not math.log(sys.float_info.min) <= expo <= math.log(sys.float_info.max):
        raise ValueError(f"kappa must keep the prefactor (log x)^(1/(2 kappa)) = e^{expo:.4g} "
                         f"within the float range, got {kappa}")
    if not math.isfinite(c0):
        raise ValueError(f"lowest block edge c0 must be finite, got {c0}")
    if l is not None:
        _moment_order(l, kappa)
    theta0 = float(theta0_override)
    if not 0 < theta0 < math.inf:
        raise ValueError(f"leading exponent theta0 must be positive and finite, got {theta0}")
    if not 0 < eta2 < math.inf:
        raise ValueError(f"eta2 must be positive and finite, got {eta2}")
    theta = [theta0]
    while theta[-1] < eta2:
        theta.append(theta[-1] * math.e)
    ell = [max(2, 2 * math.floor(t ** (-0.75))) for t in theta]
    if ell[0] > ELL_MAX:
        raise ValueError(
            f"leading exponent theta0 must give ell_0 = 2 floor(theta0^(-3/4)) <= {ELL_MAX}, "
            f"the largest ell the Taylor check certifies, got {theta0}"
        )
    J = len(theta) - 1
    if not eta2 <= theta[J] <= math.e * eta2 + 1e-12:
        raise ValueError(
            f"theta_J = {theta[J]:.4g} outside [eta2, e*eta2] = "
            f"[{eta2:.4g}, {math.e * eta2:.4g}]"
        )
    top = theta[J] * math.log(x)  # the top edge in logs, so that no x^t overflows
    if top > math.log(5.0e7):
        raise CapacityError(f"largest block edge x^theta_J = e^{top:.4g} needs an infeasible sieve")
    bounds = [c0] + [x**t for t in theta]
    if not c0 < bounds[1]:
        raise ValueError(f"lowest block edge c0 must lie below x^theta0 = {bounds[1]:.4g}, "
                         f"got {c0}")
    intervals = [(bounds[j], bounds[j + 1]) for j in range(J + 1)]
    allp = primes_up_to(math.floor(bounds[-1]))
    primes = [[p for p in allp if lo < p <= hi] for lo, hi in intervals]
    return MollifierParams(
        x=x,
        kappa=kappa,
        theta=theta,
        ell=ell,
        intervals=intervals,
        primes=primes,
    )


def _moment_order(l: float, kappa: float) -> int:
    """The moment l*kappa, an integer in [1, 4]: mollifiers go up to the fourth moment."""
    lk = l * kappa
    if not math.isfinite(lk) or abs(lk - round(lk)) > 1e-9 or not 1 <= round(lk) <= 4:
        raise ValueError(f"l*kappa must be an integer in [1, 4], got {lk}")
    return round(lk)


def weight_w(t: float, params: MollifierParams) -> float:
    """Damping w(t) = t^{-1/(theta_J log x)} (1 - log t / (theta_J log x)):
    tends to 1 as t -> 1+, vanishes at the top block edge t = x^{theta_J}."""
    if t <= 1:
        raise ValueError("weight argument must exceed 1")
    tl = params.theta[params.J] * math.log(params.x)
    return t ** (-1.0 / tl) * (1.0 - math.log(t) / tl)


def coeff_a(p: int, params: MollifierParams, t: HeckeTable) -> float:
    """a(p) = lambda(p) w(p) at a prime p."""
    if p > t.N:
        raise ValueError(f"prime {p} beyond eigenvalue table {t.N}")
    return float(t.lam[p]) * weight_w(p, params)


@dataclass(frozen=True, eq=False)
class _PrimeWeights:
    """a(p) and a(p)/sqrt(p) over the primes of one block, in order, for the
    table they were built from."""

    table: HeckeTable
    a: list
    a_over_sqrt: list


def _prime_weights(j: int, params: MollifierParams, t: HeckeTable) -> _PrimeWeights:
    """The weights of block j, computed once per block and table."""
    entry = params._supports.get(j)
    if entry is not None and entry.table is t:
        return entry
    a = [coeff_a(p, params, t) for p in params.primes[j]]
    entry = _PrimeWeights(
        table=t, a=a, a_over_sqrt=[ap / math.sqrt(p) for ap, p in zip(a, params.primes[j])]
    )
    params._supports[j] = entry
    return entry


def p_sum(m, j: int, params: MollifierParams, t: HeckeTable):
    """P_{I_j}(m) = sum over primes p in I_j of a(p)(m|p)/sqrt(p), for an int
    m or an int array. A scalar reads kronecker(m, p) and an array the row of
    (r|p); both add a(p)/sqrt(p) times the same +-1 or 0, so both round alike.
    a(p)/sqrt(p) is read from the block's memo (_prime_weights)."""
    scalar = np.ndim(m) == 0
    acc = 0.0 if scalar else np.zeros(np.shape(m))
    for p, w in zip(params.primes[j], _prime_weights(j, params, t).a_over_sqrt):
        if scalar:
            sym = kronecker(m, p)
        else:
            row = kronecker_row(p)
            sym = row[np.asarray(m) % row.size]
        acc = acc + w * sym
    return acc


def e_truncated(t, ell: int):
    """Partial exponential E_ell(t) = sum_{s <= ell} t^s/s! of a float or an
    array; strictly positive for even ell.

    Each term takes at most 2 ell roundings (term * t / s) and the sum ell
    more, so the float result is within gamma_{3 ell} sum |t^s/s!| of the
    exact value, gamma_n = n u / (1 - n u), u = 2^-53. Entries where that
    bound exceeds 2^-43 of the result (the cancellation zone of negative t)
    are recomputed exactly, which also settles their sign. A float argument
    returns a float: its sum is done in Python floats, and when it needs no
    exact recompute it is returned as it is, with no array made."""
    if ell < 2 or ell % 2:
        raise ValueError("truncation length must be even and >= 2")
    scalar = np.ndim(t) == 0
    ts = float(t) if scalar else np.asarray(t, dtype=np.float64)
    term = acc = mass = 1.0
    for s in range(1, ell + 1):
        term = term * ts / s
        acc = acc + term
        mass = mass + abs(term)
    g = 3 * ell * 2.0**-53
    risky = g / (1 - g) * mass > _E_REL * abs(acc)
    if scalar and not risky:
        return acc
    risky = np.flatnonzero(risky)
    acc, ts = np.atleast_1d(acc, ts)
    for i in risky:
        # t = a/b: E = sum_s a^s w_s / w_0, w_s = b^(ell-s) ell!/s!, rounded once
        a, b = float(ts.flat[i]).as_integer_ratio()
        num, w = 0, 1
        for s in range(ell, 0, -1):
            num = num * a + w
            w *= b * s
        acc.flat[i] = (num * a + w) / w
    return float(acc[0]) if scalar else acc


@dataclass(frozen=True, eq=False)
class _Support:
    """The I_j-smooth n with Omega(n) <= max_omega in DFS order, for the table
    they were built from: expo[i, k] is the exponent of params.primes[j][k]
    in n[i], and nu[i] = 1 / prod e!. Two memos ride on it: signed[kappa]
    holds kappa^{-Omega} a(n) (-1)^Omega (see _block_sum), and h[l kappa]
    the weights of dirichlet_expansion_check; neither depends on m."""

    table: HeckeTable
    n: list
    expo: np.ndarray
    omega: np.ndarray
    aval: np.ndarray
    nu: np.ndarray
    sqrt_n: np.ndarray
    signed: dict = field(default_factory=dict, repr=False)
    h: dict = field(default_factory=dict, repr=False)


def _support(j: int, max_omega: int, params: MollifierParams, t: HeckeTable) -> _Support:
    """The block support, enumerated once per (j, max_omega) and table by a
    DFS over the block primes; a(n) is the running product of the a(p)."""
    entry = params._supports.get((j, max_omega))
    if entry is not None and entry.table is t:
        return entry
    plist = params.primes[j]
    a_at = _prime_weights(j, params, t).a
    ns, expo, omega, aval, nu = [], [], [], [], []
    cur = [0] * len(plist)

    def rec(i: int, n: int, om: int, av: float, fac: int):
        if len(ns) >= _BUDGET:
            raise BudgetExceededError(
                f"block {j}: more than {_BUDGET} nodes with Omega <= {max_omega}"
            )
        ns.append(n)
        expo.append(cur[:])
        omega.append(om)
        aval.append(av)
        nu.append(1 / fac)
        for k in range(i, len(plist)):
            pe, ak = n, av
            for e in range(1, max_omega - om + 1):
                pe *= plist[k]
                ak *= a_at[k]
                cur[k] = e
                rec(k + 1, pe, om + e, ak, fac * factorial(e))
            cur[k] = 0

    rec(0, 1, 0, 1.0, 1)
    entry = _Support(
        table=t,
        n=ns,
        expo=np.array(expo, dtype=np.min_scalar_type(max_omega)),
        omega=np.array(omega, dtype=np.int64),
        aval=np.array(aval, dtype=np.float64),
        nu=np.array(nu, dtype=np.float64),
        sqrt_n=np.array([math.sqrt(n) for n in ns], dtype=np.float64),
    )
    params._supports[(j, max_omega)] = entry
    return entry


def _twist_signs(m: int, j: int, params: MollifierParams, s: _Support) -> np.ndarray:
    """(m|n) over the support: 0 if some p | n has (m|p) = 0, else -1 to the
    sum of the exponents at the p with (m|p) = -1."""
    K = np.array([kronecker(m, p) for p in params.primes[j]], dtype=np.int64)
    dead = (s.expo[:, K == 0] > 0).any(axis=1)
    odd = s.expo[:, K == -1].sum(axis=1, dtype=np.int64) % 2 == 1
    return np.where(dead, 0.0, np.where(odd, -1.0, 1.0))


def _block_sum(
    m: int, j: int, kappa: float, weight: np.ndarray, params: MollifierParams, s: _Support
) -> float:
    """sum of kappa^{-Omega} a(n) (-1)^Omega weight(n) (m|n)/sqrt(n) over
    the support: each term is rounded as that product is, left to right, and
    the terms are added in DFS order, so the result is bit-identical to a
    Python loop over the support. The first three factors do not depend on
    m, so their product is formed once per support and kappa (s.signed);
    the sign factor is exact, so the product is the one a loop rounds."""
    signed = s.signed.get(kappa)
    if signed is None:
        kpow = np.array([kappa ** (-w) for w in range(int(s.omega.max()) + 1)])
        sgn = np.where(s.omega % 2 == 1, -1.0, 1.0)
        signed = s.signed[kappa] = kpow[s.omega] * s.aval * sgn
    terms = signed * weight * _twist_signs(m, j, params, s) / s.sqrt_n
    return float(np.cumsum(terms)[-1])


def m_factor(
    m,
    j: int,
    kappa: float,
    params: MollifierParams,
    t: HeckeTable,
    method: str = "identity",
):
    """Block factor M_j(m; 1/kappa).

    method="enumerate": the defining truncated sum over I_j-smooth n with
    Omega(n) <= ell_j of kappa^{-Omega(n)} a(n) (-1)^{Omega(n)} nu(n)
    (m|n)/sqrt(n), for an int m; a(n) = prod a(p) already carries lambda.
    method="identity": the collapsed form E_{ell_j}(-P_{I_j}(m)/kappa), for
    an int m or an int array.
    """
    if method == "identity":
        return e_truncated(-p_sum(m, j, params, t) / kappa, params.ell[j])
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")
    s = _support(j, params.ell[j], params, t)
    return _block_sum(m, j, kappa, s.nu, params, s)


def mollifier_value(
    m, kappa: float, params: MollifierParams, t: HeckeTable
) -> MollifierValue:
    """M(m; 1/kappa) for an int m or an int array: the (log x)^{1/(2 kappa)}
    prefactor times each block factor in order. Raises InconsistencyError at
    the first m whose value is not positive."""
    value = math.log(params.x) ** (1.0 / (2.0 * kappa))
    for j in range(params.J + 1):
        value = value * m_factor(m, j, kappa, params, t, method="identity")
    bad = np.flatnonzero(~(np.asarray(value) > 0))
    if bad.size:
        i = bad[0]
        raise InconsistencyError(
            f"mollifier must be positive, got {np.ravel(value)[i]} at m={np.ravel(m)[i]}"
        )
    return MollifierValue(value=value)


# -- factorial-weight combinatorics --------------------------------------------


def nu_fold(j: int, n: int) -> Fraction:
    """j-fold convolution of nu; equals j^a/a! on p^a."""
    out = Fraction(1)
    for _, e in factorize_small(n).prime_powers:
        out *= Fraction(j**e, factorial(e))
    return out


def nu_truncated(r: int, n: int, ell: int) -> Fraction:
    """sum over ordered factorizations n = n_1 ... n_r with every
    Omega(n_i) <= ell of nu(n_1) ... nu(n_r). For n = prod p^{a_p} with
    Omega(n) = sum a_p this is _capped_maps(r, Omega(n), ell) / prod a_p!:
    the sum of prod_p x_p^{v_p} / v_p! over the exponent vectors v with
    |v| = c is s^c / c!, s = sum_p x_p, so the r slots give the coefficient
    of prod_p x_p^{a_p} in E_ell(s)^r."""
    if r < 1:
        raise ValueError("need r >= 1 slots")
    omega, den = 0, 1
    for _, a in factorize_small(n).prime_powers:
        omega += a
        den *= factorial(a)
    return Fraction(_capped_maps(r, omega, ell), den)


@lru_cache(maxsize=None)
def _capped_maps(r: int, omega: int, ell: int) -> int:
    """The maps from an omega-element set to r slots with no slot taking
    more than ell elements, omega! [s^omega] E_ell(s)^r."""
    if r == 0:
        return int(omega == 0)
    return sum(comb(omega, c) * _capped_maps(r - 1, omega - c, ell)
               for c in range(min(ell, omega) + 1))


def dirichlet_expansion_check(
    m: int,
    kappa: float,
    l: float,
    params: MollifierParams,
    t: HeckeTable,
) -> bool:
    """Compare M(m; 1/kappa)^{l kappa} with its expanded Dirichlet series

        (log x)^{l/2} sum_n h(n) kappa^{-Omega(n)} a(n) (-1)^{Omega(n)} (m|n)/sqrt(n),

    the sum running over products of block parts n_j with Omega(n_j) <=
    lk ell_j, a(n) the completely multiplicative a(p) = lambda(p) w(p), and
    h(n) the product over blocks of nu_truncated(lk, n_j, ell_j). True when
    the two agree to a relative _EXPANSION_TOL. Only enumerable configurations
    (at most 3 primes per block, J <= 2) and l*kappa in [1, 4] are accepted.

    h is one Fraction per support element, an integer count from
    _capped_maps over prod a_p!, so it is kept with the block support, keyed
    by l*kappa (s.h), and later m reuse it. On cli.tiny_mollifier_configs()[0]
    at m = 8 (2 925 support elements at l*kappa = 3) one fresh call took
    0.003, 0.005, 0.015 and 0.040 s CPU at l*kappa = 1, 2, 3 and 4, and a
    second m 0.0003 s (2-vCPU Xeon)."""
    lk = _moment_order(l, kappa)
    if params.J > 2 or any(len(ps) > 3 for ps in params.primes):
        raise ValueError("expansion check needs a tiny configuration")
    lhs = mollifier_value(m, kappa, params, t).value ** lk
    rhs = math.log(params.x) ** (l / 2.0)
    for j in range(params.J + 1):
        s = _support(j, lk * params.ell[j], params, t)
        h = s.h.get(lk)
        if h is None:
            h = s.h[lk] = np.array([float(nu_truncated(lk, n, params.ell[j])) for n in s.n])
        rhs *= _block_sum(m, j, kappa, h, params, s)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale <= _EXPANSION_TOL
