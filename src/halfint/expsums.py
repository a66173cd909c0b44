"""Complete exponential sums and the circle-method objects: twisted quadratic
Gauss sums with their prime-power closed form, the L^2 defect of the
Farey-arc approximation to the unit interval, a Poisson-summation identity
check over odd moduli, the shifted convolution of the half-integral form's
coefficients, and the numerical modularity self-test that exercises the
whole coefficient pipeline.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .arith import euler_phi, factorize_small, kronecker, kronecker_row, primes_up_to
from .errors import BudgetExceededError, CapacityError, ConvergenceError, InsufficientTableError
from .qseries import K, WEIGHT_TIMES_TWO, CoeffTable

__all__ = [
    "gauss_sum_bruteforce",
    "gauss_sum_closed",
    "JutilaSystem",
    "build_jutila_system",
    "jutila_l2_defect",
    "poisson_check",
    "shifted_convolution",
    "AutomorphyFactor",
    "automorphy_factor",
    "modularity_check",
]


# -- Gauss sums ----------------------------------------------------------------


def gauss_sum_bruteforce(l: int, n: int) -> complex:
    """((1-i)/2 + (-1|n)(1+i)/2) sum_{a mod n} (a|n) e(a l / n), evaluated
    directly. O(n); odd n only."""
    if n < 1 or n % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    pref, a, row, roots = _gauss_tables(n)
    phase = roots[(a * (l % n)) % n]
    return complex(pref * np.dot(row, phase))


@lru_cache(maxsize=1)
def _gauss_tables(n: int) -> tuple:
    """Everything of the brute-force sum at modulus n that l does not touch:
    the prefactor (1-i)/2 + (-1|n)(1+i)/2, the residues a = 0..n-1, the
    Kronecker row of n as complex, and the roots e(k/n) for 0 <= k < n. A
    sweep over l at one n builds them once and per l only gathers and dots.
    Gathering the roots at k = a l mod n gives the same floats as calling exp
    at each a, since each root is the same exp of the same argument."""
    a = np.arange(n)
    pref = (1 - 1j) / 2 + kronecker(-1, n) * (1 + 1j) / 2
    return pref, a, kronecker_row(n).astype(np.complex128), np.exp(2j * np.pi * a / n)


def _gauss_prime_power(l: int, p: int, beta: int) -> float:
    """Closed form at p^beta with alpha = v_p(l), l != 0. Real-valued."""
    alpha = 0
    ll = abs(l)
    while ll % p == 0:
        ll //= p
        alpha += 1
    if beta <= alpha:
        if beta % 2 == 1:
            return 0.0
        return float(p ** (beta - 1) * (p - 1))  # phi(p^beta)
    if beta == alpha + 1:
        if beta % 2 == 0:
            return float(-(p**alpha))
        return kronecker(l // p**alpha, p) * p**alpha * math.sqrt(p)
    return 0.0


def gauss_sum_closed(l: int, n: int) -> float:
    """Multiplicative evaluation over the prime powers of odd n.

    For l = 0 the sum degenerates to phi(n) on squares and 0 otherwise.
    All values are real.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    if l == 0:
        root = isqrt(n)
        if root * root != n:
            return 0.0
        return float(euler_phi(n))
    out = 1.0
    for p, e in factorize_small(n).prime_powers:
        out *= _gauss_prime_power(l, p, e)
        if out == 0.0:
            return 0.0
    return out


# -- Jutila's circle-method measure ---------------------------------------------


# arc endpoints one defect sweep may cover. The float sweep holds one slice
# of centres and one block of terms at a time, so its memory does not grow
# with the count; the budget bounds its time, about 30 ns of CPU per
# endpoint (4.5e7 endpoints at Q = 48000 took 1.3 s on a 2-vCPU Xeon), so
# about 1.5 s at the budget
_ENDPOINT_BUDGET = 50_000_000
# arc endpoints the exact sweep may cover. It holds one Python list of 2L + 2
# events whose integers grow with the common denominator, widest per endpoint
# at Delta = 1: ru_maxrss grew 82 MB at Q = 4000 (2L = 396 288) and 102 MB at
# Q = 4500 (476 960), about 220 B per endpoint, so the list stays near 100 MB
_EXACT_ENDPOINT_BUDGET = 450_000
# centres in one slice of the float sweep, on average
_SWEEP_BLOCK = 1 << 14
# terms the float sweep holds before it reduces them: the largest subtree of
# numpy's pairwise sum that it reduces in one call
_SUM_LEAF = 1 << 16
# numpy's pairwise float64 sum adds runs of at most this many terms unsplit
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class JutilaSystem:
    Qset: tuple
    L: int


def build_jutila_system(Q: float, eta: float, Delta: int) -> JutilaSystem:
    """Moduli q = 4 Delta r in [Q, 2Q] with r = 1 mod 4 prime, and the exact
    count L = sum phi(q). Raises BudgetExceededError when the 2L arc
    endpoints would exceed the sweep's budget.

    Each r is an odd prime, so phi(q) = phi(4 Delta) (r - 1) when r does not
    divide Delta and phi(4 Delta) r when it does. Every r >= r_lo thus adds
    at least phi(4 Delta) (r_lo - 1) to L. When that alone passes the
    budget, the system is refused before anything is sieved: every r lies in
    [x, 2x] with x = Q / (4 Delta) >= sqrt(Q)/4, far above 7 there, and for
    x >= 7 Breusch's theorem (Math. Z. 34, 1932) puts a prime = 1 mod 4 in
    (x, 2x), so some r is admissible."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not Q >= 1:
        raise ValueError(f"Q must be at least 1, got {Q}")
    if Q > sys.float_info.max:
        raise ValueError(f"Q must be at most {sys.float_info.max:.4g}, the largest float")
    if Delta < 1 or Delta > Q ** (eta / 2) + 1e-9:
        raise ValueError("Delta must satisfy 1 <= Delta <= Q^{eta/2}")
    r_lo = math.ceil(Q / (4 * Delta))
    r_hi = math.floor(2 * Q / (4 * Delta))
    phi4 = euler_phi(4 * Delta)
    if 2 * phi4 * (r_lo - 1) > _ENDPOINT_BUDGET and Q / (4 * Delta) >= 7:
        raise BudgetExceededError(
            f"at least {2 * phi4 * (r_lo - 1)} arc endpoints exceed budget"
        )
    rs = [
        r
        for r in primes_up_to(max(r_hi, 2))
        if r >= r_lo and r % 4 == 1 and Q <= 4 * Delta * r <= 2 * Q
    ]
    L = phi4 * sum(r if Delta % r == 0 else r - 1 for r in rs)
    if 2 * L > _ENDPOINT_BUDGET:
        raise BudgetExceededError(f"{2 * L} arc endpoints exceed budget")
    return JutilaSystem(Qset=tuple(4 * Delta * r for r in rs), L=L)


def _odd_runs(first: np.ndarray, n: np.ndarray) -> tuple:
    """The runs first[i], first[i] + 2, ... of n[i] terms each, laid end to
    end, and the offset at which each run starts."""
    off = np.cumsum(n) - n
    return 2 * np.arange(int(n.sum())) + np.repeat(first - 2 * off, n), off


def _centre_slices(Qset: tuple, Delta: int, L: int):
    """Yield the L centres d/q (q in Qset, 1 <= d <= q, gcd(d, q) = 1) in
    ascending order, as K = ceil(L / _SWEEP_BLOCK) sorted slices, of which
    some may be empty.

    Slice k holds the d/q in (k/K, (k+1)/K], that is floor(k q/K) < d <=
    floor((k+1) q/K), an integer test. Division is correctly rounded, hence
    monotone, so the slices laid end to end are the sorted floats of all the
    centres. Every q is 4 Delta r with r prime: 2 divides each q, so only
    odd d are laid out, and the odd multiples of q's other primes (r and the
    odd primes of Delta) are struck out at their positions. No array holds
    more than one slice's odd d.
    """
    q = np.array(Qset, dtype=np.int64)
    odd = [p for p, _ in factorize_small(Delta).prime_powers if p > 2]
    # one row per modulus and odd prime of it; r may repeat a prime of Delta
    row = np.tile(np.arange(q.size), len(odd) + 1)
    prime = np.concatenate([q // (4 * Delta)] + [np.full(q.size, p) for p in odd])
    K = -(-L // _SWEEP_BLOCK)  # K q <= L q stays far below 2^63 within the budget
    hi = np.zeros_like(q)
    for k in range(K):
        lo, hi = hi, (k + 1) * q // K
        first = (lo + 1) | 1
        n = (hi - first) // 2 + 1
        d, off = _odd_runs(first, n)
        keep = np.ones(d.size, dtype=bool)
        # the odd m with first <= p m <= hi, at offset (p m - first) / 2
        m0 = -(-first[row] // prime) | 1
        m1 = (hi[row] // prime - 1) | 1
        count = np.maximum(m1 - m0, -2) // 2 + 1
        m, _ = _odd_runs(m0, count)
        at = np.repeat(row, count)
        keep[off[at] + (np.repeat(prime, count) * m - first[at]) // 2] = False
        centres = d[keep] / np.repeat(q, n)[keep]
        centres.sort()
        yield centres


def jutila_l2_defect(Q: float, eta: float, Delta: int, exact: bool = False) -> float:
    """integral over R of (I - Itilde)^2, where I is the indicator of [0,1]
    and Itilde is the normalized union of Farey arcs [d/q +- Q^{eta-2}] over
    q in the modulus set.

    The integrand is piecewise constant, so the integral is a finite sweep
    over arc endpoints. Float mode lays out the centres d/q in ascending
    exact slices (_centre_slices) and sweeps the float endpoints d/q +-
    delta one slice at a time (_float_sweep), so no array it holds grows
    with the number of arcs. The term val^2 * seglen of each segment comes
    out in sorted order, and the terms are summed as they come, leaf by
    leaf of numpy's pairwise tree (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 4), into the float that one np.add.reduce
    over all of them gives, as after one sort of all endpoints. The order of tied endpoints is free: a segment of
    nonzero length starts at the last event of its tie group, so its
    coverage, index and length do not depend on that order, and the segments
    inside a tie group have length 0 and add +0.0 wherever they fall.
    Exact mode runs the sweep over the rational centres d/q +- Fraction(delta),
    so its endpoints are not the float ones: every endpoint is an integer
    over one common denominator D = lcm(Qset, denominator of delta), and the
    integer numerators of val^2 * seglen are summed before one division.
    The two modes agree to the 1e-9 that the selftest allows. Exact mode
    holds all 2L + 2 events in one list, so it raises BudgetExceededError
    past _EXACT_ENDPOINT_BUDGET endpoints, before the list is built.
    """
    sys_ = build_jutila_system(Q, eta, Delta)
    if sys_.L == 0:
        return 1.0
    delta = float(Q) ** (eta - 2.0)
    weight = float(Q) ** (2.0 - eta) / (2.0 * sys_.L)
    if exact:
        if 2 * sys_.L > _EXACT_ENDPOINT_BUDGET:
            raise BudgetExceededError(f"{2 * sys_.L} arc endpoints exceed the exact sweep's "
                                      f"budget of {_EXACT_ENDPOINT_BUDGET}")
        # val = inside - weight cov = (inside wd - wn cov) / wd, seglen = seg / D
        dn, dd = delta.as_integer_ratio()
        wn, wd = weight.as_integer_ratio()
        D = lcm(*sys_.Qset, dd)
        dk = dn * (D // dd)
        events = [(0, 0), (D, 0)]
        for q in sys_.Qset:
            step = D // q
            for d in range(1, q + 1):
                if gcd(d, q) == 1:
                    events.append((d * step - dk, 1))
                    events.append((d * step + dk, -1))
        events.sort()
        total = 0
        cov = 0
        for (x, s), (y, _) in zip(events, events[1:]):
            cov += s
            if y == x:
                continue
            val = (wd if x >= 0 and y <= D else 0) - wn * cov
            total += val * val * (y - x)
        return float(Fraction(total, wd * wd * D))
    slices = _centre_slices(sys_.Qset, Delta, sys_.L)
    return _streamed_sum(_float_sweep(slices, delta, weight), 2 * sys_.L + 1)


def _float_sweep(slices, delta: float, weight: float):
    """Yield, block by block, the float defect's terms val^2 * seglen of the
    segments between the events over the centres c that the sorted slices
    hold, laid end to end: starts fl(c - delta) (+1), ends fl(c + delta)
    (-1) and the two step-0 events 0.0 and 1.0.

    Rounding is monotone, so the starts and the ends are each sorted. Each
    nonempty slice is a block: its starts, the ends below the next block's
    first start nxt = fl(c_next - delta) and whichever of 0.0, 1.0 lies
    there too. An end fl(c + delta) below nxt has c < c_next, so one
    searchsorted over the ends not yet passed (those carried over from
    earlier blocks, then this block's) cuts them exactly, and every event of
    a later block is at or above every event of this one. A stable argsort
    merges the block; the coverage is carried in, and nxt closes the
    block's last segment. The blocks yield the 2L + 1 terms in sorted
    order, and _streamed_sum adds them up as they come: the caller holds
    one block of terms and one leaf of numpy's pairwise tree at a time,
    never all 2L + 1.
    """
    blocks = (c for c in slices if c.size)
    unit = np.array([0.0, 1.0])
    cov = 0.0
    u_lo = 0
    held = np.empty(0)  # the ends of earlier blocks at or above their cut
    block = next(blocks, None)
    while block is not None:
        later = next(blocks, None)
        nxt = later[0] - delta if later is not None else math.inf
        ends = np.concatenate((held, block + delta))
        n_end = int(np.searchsorted(ends, nxt))
        n_unit = int(np.searchsorted(unit[u_lo:], nxt))
        pos = np.concatenate((block - delta, ends[:n_end], unit[u_lo : u_lo + n_unit]))
        held = ends[n_end:]
        step = np.zeros(pos.size, dtype=np.int8)
        step[: block.size] = 1
        step[block.size : block.size + n_end] = -1
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        if later is not None:
            pos = np.append(pos, nxt)
        val = np.cumsum(step[order][: pos.size - 1], dtype=np.float64)
        del step, order
        val += cov
        cov = val[-1]
        inside = pos[:-1] >= 0.0
        inside &= pos[1:] <= 1.0
        val *= weight
        np.subtract(inside, val, out=val)
        val *= val
        val *= np.diff(pos)
        u_lo += n_unit
        block = later
        yield val


def _streamed_sum(pieces, n: int) -> float:
    """np.add.reduce over the n terms that pieces yields in order, as
    contiguous float64 arrays of any sizes, holding at most one leaf of them.

    numpy sums a contiguous float64 array pairwise (Higham, "Accuracy and
    Stability of Numerical Algorithms", ch. 4): a run of at most
    _PAIRWISE_BLOCK terms unsplit, a longer one as the sum of its first
    n//2 - (n//2) % 8 terms and the rest. A subtree that np.add.reduce sums
    alone has the value it has inside the whole sum, so the tree is walked
    down to runs of at most _SUM_LEAF terms (or _PAIRWISE_BLOCK, below which
    numpy does not split), each reduced as soon as its last term arrives,
    straight from the piece when one piece holds it all, else from one leaf
    buffer, and the run sums are added up the same tree.
    np.add.reduce starts from +0.0, so no run sum is -0.0, and a zero total
    has the sign of the one-call reduce's. ValueError if pieces does not
    hold exactly n terms.
    """
    pieces = iter(pieces)
    leaf = max(_SUM_LEAF, _PAIRWISE_BLOCK)
    buf = np.empty(min(n, leaf))
    rest = buf[:0]  # the unread tail of the current piece

    def take(k: int) -> np.ndarray:
        nonlocal rest
        fill = 0
        while rest.size < k - fill:
            buf[fill : fill + rest.size] = rest
            fill += rest.size
            rest = next(pieces, None)
            if rest is None:
                raise ValueError(f"the pieces hold fewer than {n} terms")
        if fill:
            buf[fill:k] = rest[: k - fill]
            run = buf[:k]
        else:
            run = rest[:k]
        rest = rest[k - fill :]
        return run

    def tree(m: int):
        if m <= leaf:
            return np.add.reduce(take(m))
        h = m // 2 - m // 2 % 8
        return tree(h) + tree(m - h)

    total = tree(n)
    if rest.size or any(p.size for p in pieces):
        raise ValueError(f"the pieces hold more than {n} terms")
    return float(total)


# -- Poisson summation over odd moduli -------------------------------------------


def poisson_check(n: int, gaussian_width: float) -> float:
    """Absolute discrepancy between

        sum_{d odd} (d|n) F(d)

    and

        (1/2n) (2|n) sum_l (-1)^l G_l(n) Ftilde(l/2n),

    for the Gaussian F(x) = exp(-pi (x/s)^2), whose cosine-plus-sine
    transform is Ftilde(y) = s exp(-pi s^2 y^2) in closed form.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    s = float(gaussian_width)
    if s <= 0:
        raise ValueError("width must be positive")
    dmax = math.ceil(4.0 * s) + 1
    lhs = 0.0
    for d in range(-dmax, dmax + 1):
        if d % 2 == 0:
            continue
        lhs += kronecker(d, n) * math.exp(-math.pi * (d / s) ** 2)
    lmax = math.ceil(2 * n * 4.5 / s) + 1
    rhs = 0.0
    for l in range(-lmax, lmax + 1):
        g = gauss_sum_closed(l, n)
        if g == 0.0:
            continue
        lam = l / (2.0 * n)
        rhs += (-1) ** l * g * s * math.exp(-math.pi * (s * lam) ** 2)
    rhs *= kronecker(2, n) / (2.0 * n)
    return abs(lhs - rhs)


# -- shifted convolution ----------------------------------------------------------


def shifted_convolution(
    h: int, v: int, Delta: int, X: float, coeffs: CoeffTable
) -> complex:
    """X^{-(k-1/2)} sum_n alpha(n) alpha(n+h) e(n v / Delta)
    e^{-2 pi (2n+h)/X}, truncated at n0 = X log(1e12)/(4 pi). No bound on
    the tail past n0 is computed yet; on the README grid (h = 1, v = 1,
    Delta = 3, X = 4096 to 131072) it measured 6e-7 to 1.8e-6 of |value|.
    """
    if h == 0:
        raise ValueError("shift must be nonzero")
    if not 0 < X < math.inf:
        raise ValueError(f"X must be positive and finite, got {X}")
    if Delta < 1 or gcd(v, Delta) != 1:
        raise ValueError("need Delta >= 1 and gcd(v, Delta) = 1")
    v %= Delta  # the phase depends on v mod Delta alone
    top = v * (Delta - 1)  # the largest v (n mod Delta)
    if top >= 2**63:
        raise CapacityError(f"phase numerator v (n mod Delta) reaches {top}, past int64")
    if X >= coeffs.N:  # n0 > X; checked before X meets a float
        raise InsufficientTableError(f"need coefficients past X = {X}, table holds {coeffs.N}")
    n0 = math.ceil(X * math.log(1e12) / (4 * math.pi))
    if coeffs.N < n0 + abs(h):
        raise InsufficientTableError(
            f"need coefficients to {n0 + abs(h)}, table holds {coeffs.N}"
        )
    af = coeffs.float_array(n0 + abs(h) + 1)
    lo = max(1, 1 - h)
    n = np.arange(lo, n0 + 1)
    a1 = af[n]
    a2 = af[n + h]
    damp = np.exp(-2.0 * math.pi * (2 * n + h) / X)
    phase = np.exp(2j * np.pi * (v * (n % Delta)) / Delta)
    total = np.add.reduce(a1 * a2 * damp * phase)
    return complex(total / X ** (K - 0.5))


# -- modularity self-test ----------------------------------------------------------


@dataclass(frozen=True)
class AutomorphyFactor:
    gamma: tuple
    nu: complex
    j_power: complex


def _normalize_gamma(gamma: tuple) -> tuple:
    a, b, c, d = (int(x) for x in gamma)
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c % 4 != 0:
        raise ValueError("lower-left entry must be divisible by 4")
    if d < 0 or (d == 0 and c < 0):
        a, b, c, d = -a, -b, -c, -d
    if d % 2 == 0:
        raise ValueError("lower-right entry must be odd")
    return a, b, c, d


def automorphy_factor(gamma: tuple, z: complex) -> AutomorphyFactor:
    """Theta-multiplier automorphy data of the weight-(k+1/2) form at gamma,
    k = K: nu = (c|d) conj(eps_d) with eps_d = 1 for d = 1 mod 4 and
    i^{2k+1} for d = 3 mod 4, and j^(k+1/2) = (cz+d)^k sqrt(cz+d) on the
    principal branch. The matrix is replaced by its negative if needed so
    d > 0 (same Moebius action)."""
    a, b, c, d = _normalize_gamma(gamma)
    eps = 1.0 + 0.0j if d % 4 == 1 else 1j ** (WEIGHT_TIMES_TWO % 4)
    nu = kronecker(c, d) * eps.conjugate()
    j = c * z + d
    jpow = j**K * cmath.sqrt(j)
    return AutomorphyFactor(gamma=(a, b, c, d), nu=nu, j_power=jpow)


def _series_eval(coeffs: CoeffTable, z: complex) -> complex:
    y = z.imag
    if y < 0.05:
        raise ConvergenceError(f"Im z = {y:.4f} below the 0.05 guard")
    ncut = math.ceil(20.0 / y)
    if ncut > coeffs.N:
        raise ConvergenceError(
            f"series needs {ncut} coefficients at Im z = {y:.4f}, table holds {coeffs.N}"
        )
    n = np.arange(1, ncut + 1)
    af = coeffs.float_array(ncut + 1)[1:]
    return complex(np.add.reduce(af * np.exp(2j * np.pi * n * z)))


def modularity_check(gamma: tuple, z: complex, coeffs: CoeffTable) -> float:
    """Relative discrepancy |g(gamma z) - nu j^{k+1/2} g(z)| / |g(gamma z)|,
    with g evaluated by the truncated Fourier series. Exercises the entire
    coefficient pipeline: a single wrong alpha(n) in the first few hundred
    terms shows up here."""
    fac = automorphy_factor(gamma, z)
    a, b, c, d = fac.gamma
    gz = (a * z + b) / (c * z + d)
    lhs = _series_eval(coeffs, gz)
    rhs = fac.nu * fac.j_power * _series_eval(coeffs, z)
    return abs(lhs - rhs) / abs(lhs)
