"""Central values of quadratic-twist L-functions by the approximate
functional equation, with a rigorous truncation bound, plus the ratio test
against the squared coefficients and the self-normalized twisted first
moment.

Kernel. The smoothing kernel is the vertical-line integral of
Gamma(s+k)/(Gamma(k) s) (2 pi x)^{-s}; by the Mellin pair
int_0^inf Gamma(k, y) y^{s-1} dy = Gamma(s+k)/s it equals the normalized
upper incomplete gamma

    W(x) = Gamma(k, 2 pi x) / Gamma(k) = e^{-2 pi x} sum_{m<k} (2 pi x)^m/m!.

`w_kernel` implements the closed form, on a float or an array;
`w_kernel_oracle` evaluates the contour integral numerically (ln Gamma from
the Stirling series) to certify the derivation. The lift is the weight-12
discriminant form, so the central values below use k = K = 6.

Central value. For a fundamental discriminant d > 0 (the sign that makes the
completed function even, k being even) the two halves of the functional
equation coincide at the center, so

    L(1/2) = 2 sum_{n <= N0} lambda(n) chi_d(n) n^{-1/2} W(n/d),

and for d < 0 the value is an exact forced zero. The tail past N0 is bounded
using |lambda(n)| <= d(n) <= sqrt(3 n) and the inequality
W(x + u) <= W(x) e^{-pi u} for x >= (k-1)/pi, which follows from
sum_{m<k} y^m/m! <= 2 y^{k-1}/(k-1)! for y >= 2(k-1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    enumerate_nflat,
    factorize_small,
    is_fundamental_discriminant,
    kronecker,
    kronecker_row,
)
from .errors import ConvergenceError, InconsistencyError, InsufficientTableError
from .hecke import HeckeTable
from .qseries import K, CoeffTable

__all__ = [
    "LValueResult",
    "w_kernel",
    "w_kernel_oracle",
    "central_lvalue",
    "central_lvalue_cached",
    "waldspurger_ratio",
    "first_moment_scan",
    "chi_array",
    "truncation_length",
]


@dataclass(frozen=True)
class LValueResult:
    value: float
    truncation_bound: float
    terms_used: int
    root_number: int


def w_kernel(x, k: int):
    """W(x) = e^{-2 pi x} sum_{m<k} (2 pi x)^m / m! for x > 0: a float for a
    float x, an array for an array."""
    if not np.all(np.greater(x, 0)):
        raise ValueError("kernel argument must be positive")
    if k < 2:
        raise ValueError("k must be an integer >= 2")
    y = 2.0 * np.pi * x
    term = acc = 1.0
    for m in range(1, k):
        term = term * y / m
        acc += term
    out = np.exp(-y) * acc
    return out if isinstance(out, np.ndarray) else float(out)


# the oracle's trapezoidal grid on the contour Re s = 1: step _CONTOUR_STEP
# over |Im s| <= _CONTOUR_SPAN, whose two ends together may drop at most
# _CONTOUR_TAIL
_CONTOUR_STEP = 0.02
_CONTOUR_SPAN = 60.0
_CONTOUR_TAIL = 1e-12

# B_2m / (2m (2m - 1)) for B_2 ... B_20; at |w| > 8 the first omitted term,
# B_22 / (462 w^21), is below 2e-18
_STIRLING = [float(b / (2 * m * (2 * m - 1))) for m, b in enumerate((
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
    Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
    Fraction(-174611, 330)), 1)]


def _log_gamma(z):
    """A logarithm of Gamma(z) for Re z > 0, the principal one up to a
    multiple of 2 pi i: the Stirling series (DLMF 5.11.1) at w = z + 8, less
    the log of the product z (z + 1) ... (z + 7)."""
    z = np.asarray(z, dtype=complex)
    w = z + 8
    r = 1.0 / (w * w)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * r + c
    return ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + series / w
            - np.log(np.prod([z + j for j in range(8)], axis=0)))


def w_kernel_oracle(x: float, k: int) -> float:
    """Trapezoidal evaluation of the defining vertical-line integral.

    Validation oracle only: independent of the closed form above (complex
    ln Gamma from the Stirling series, plain quadrature).
    """
    if x <= 0:
        raise ValueError("kernel argument must be positive")
    t = np.arange(-_CONTOUR_SPAN, _CONTOUR_SPAN + _CONTOUR_STEP, _CONTOUR_STEP)
    s = 1.0 + 1j * t
    vals = np.exp(_log_gamma(s + k) - math.lgamma(k) - s * math.log(2 * math.pi * x)) / s
    # Gamma decay e^{-pi|t|/2} bounds the discarded tail by ~ endpoint/(pi/2)
    tail = (abs(vals[0]) + abs(vals[-1])) / (math.pi / 2)
    if tail > _CONTOUR_TAIL:
        raise ConvergenceError(f"contour tail estimate {tail:.2e} > {_CONTOUR_TAIL:.2e}")
    integral = np.trapezoid(vals, dx=_CONTOUR_STEP) / (2 * math.pi)
    return float(integral.real)


# -- Kronecker character tables ------------------------------------------------

def chi_array(d: int, N: int) -> np.ndarray:
    """chi_d(n) = (d|n) for 0 <= n <= N as int8 (0 at n = 0), for a
    discriminant d (d = 0 or 1 mod 4, d != 0).

    With d = 2^v d', d' odd of the sign of d, and e = 1 if d' = 3 mod 4
    else 0: for odd n > 0, (2|n) = (n|2), and Jacobi reciprocity (Cohen, A
    Course in Computational Algebraic Number Theory, 1.4.2) gives
    (d'|n) = (n | |d'|) chi_{-4}(n)^e, so chi_d(n) = (n | |d|) chi_{-4}(n)^e.
    At n = 2 both sides are 0 for even d, and (d|2) = (2 | |d|) for odd d,
    where e = 0. Both are completely multiplicative in n, so chi_d is the row
    kronecker_row(|d|), times chi_{-4} when e = 1 (then 4 | d), tiled to N."""
    if d == 0 or d % 4 > 1:
        raise ValueError(f"{d} is not a discriminant (d = 0 or 1 mod 4, d != 0)")
    period = kronecker_row(abs(d))
    if d // (d & -d) % 4 == 3:
        period *= np.resize(np.array([0, 1, 0, -1], dtype=np.int8), abs(d))  # chi_{-4}
    chi = np.resize(period, N + 1)
    chi[:1] = 0
    return chi


def truncation_length(d: int, tol: float) -> int:
    """Length N0 = ceil(|d| max(8, (k + log(1/tol)) / 2 pi)) of the AFE sum
    at d for tolerance tol, in integers, so that no |d| overflows a float.
    tol must be a normal float: below that the tail bound underflows."""
    if not sys.float_info.min <= tol < math.inf:
        raise ValueError(
            f"tolerance must be finite and at least {sys.float_info.min:.4g}, the least "
            f"normal float, got {tol}")
    num, den = max(8.0, (K + math.log(1.0 / tol)) / (2 * math.pi)).as_integer_ratio()
    return -(-abs(d) * num // den)


def _tail_bound(N0: int, d: int) -> float:
    """2 sum_{n>N0} |lambda chi| n^{-1/2} W(n/|d|) <= 2 sqrt(3) W(N0/|d|)
    sum_{j>=1} e^{-pi j/|d|}; valid since N0/|d| >= 8 > (k-1)/pi."""
    ad = abs(d)
    w_edge = w_kernel(N0 / ad, K)
    geom = math.exp(-math.pi / ad) / (1.0 - math.exp(-math.pi / ad))
    return 2.0 * math.sqrt(3.0) * w_edge * geom


def central_lvalue(d: int, t: HeckeTable, tol: float = 1e-8) -> LValueResult:
    """L(1/2) for the lift twisted by chi_d; exact zero when the functional
    equation sign (-1)^k sgn(d) = sgn(d) is -1."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if d < 0:
        return LValueResult(value=0.0, truncation_bound=0.0, terms_used=0, root_number=-1)
    N0 = truncation_length(d, tol)
    if N0 > t.N:
        raise InsufficientTableError(
            f"need eigenvalues to {N0} for d={d}, table holds {t.N}"
        )
    chi = chi_array(d, N0).astype(np.float64)
    n = np.arange(N0 + 1, dtype=np.float64)
    n[0] = 1.0
    w = w_kernel(n / abs(d), K)
    terms = t.lam[: N0 + 1] * chi * w / np.sqrt(n)
    value = 2.0 * float(np.add.reduce(terms[1:]))
    bound = _tail_bound(N0, d)
    if not bound < tol:
        raise ConvergenceError(
            f"tail bound {bound:.2e} does not meet tolerance {tol:.2e} at d={d}"
        )
    return LValueResult(value=value, truncation_bound=bound, terms_used=N0, root_number=1)


def waldspurger_ratio(
    d: int, coeffs: CoeffTable, t: HeckeTable, tol: float = 1e-8
) -> float | None:
    """alpha(d)^2 / (d^{k-1/2} L(1/2)) for d in the positive index set, with
    L(1/2) from central_lvalue_cached.

    None when the coefficient and the central value vanish together;
    InconsistencyError when exactly one of them is small.
    """
    alpha = coeffs.a(d)
    lval = central_lvalue_cached(d, t, tol).value
    small_l = abs(lval) < 10 * tol
    if alpha == 0 and small_l:
        return None
    if alpha == 0 or small_l:
        raise InconsistencyError(
            f"d={d}: alpha={alpha} but L={lval:.3e} (tol {tol:.1e})"
        )
    return alpha * alpha / (d ** (K - 0.5) * lval)


def central_lvalue_cached(d: int, t: HeckeTable, tol: float = 1e-8) -> LValueResult:
    """central_lvalue(d, t, tol), computed once per table and kept on it."""
    key = (d, tol)
    if key not in t._central:
        t._central[key] = central_lvalue(d, t, tol)
    return t._central[key]


# the support of the first moment's window _bump
_WINDOW = (0.5, 1.0)


def _bump(t: float) -> float:
    """Smooth compactly-supported weight exp(-1/((t-lo)(hi-t))) on
    (lo, hi) = _WINDOW."""
    lo, hi = _WINDOW
    if t <= lo or t >= hi:
        return 0.0
    return math.exp(-1.0 / ((t - lo) * (hi - t)))


def first_moment_scan(x: int, u: int, t: HeckeTable) -> float:
    """Self-normalized twisted average of central values:

        S(u; x) sqrt(u1) / S(1; x),

    where S(u; x) = sum over odd square-free m of L(1/2, chi_{8m})
    chi_{8m}(u) phi(8m/x), phi = _bump on (0.5, 1.0), the central values
    are taken at tolerance 1e-8, and u = u1 u2^2 with u1 square-free. The
    unknown global constant cancels in the ratio; to leading order the
    statistic tracks a multiplicative function that is lambda(p)+O(1/p) at
    odd prime powers p^{2j+1} and 1+O(1/p) at even ones.
    """
    if u < 1 or u % 2 == 0:
        raise ValueError("twist u must be odd and positive")
    lo, hi = _WINDOW
    window = [d for d in enumerate_nflat(x) if lo < d / x < hi]
    if not window:
        raise ValueError(f"window {_WINDOW} times x={x} contains no index 8m")
    s_u = 0.0
    s_1 = 0.0
    for d in window:
        lw = central_lvalue_cached(d, t).value * _bump(d / x)
        s_1 += lw
        s_u += lw * kronecker(d, u)
    if s_1 == 0.0:
        raise InconsistencyError("normalizing sum vanished")
    u1 = 1
    for p, e in factorize_small(u).prime_powers:
        if e % 2 == 1:
            u1 *= p
    return s_u * math.sqrt(u1) / s_1
