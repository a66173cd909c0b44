"""Number-theoretic kernel: the prime and odd square-free sieves, the
sigma_3 table, factorization with phi and mu, the Kronecker symbol and its
vectorized rows (a|n), fundamental discriminants, and the index sets of
discriminants the sign scans read: the support lattice n = 0, 1 mod 4 and the
set 8m with m odd and square-free. Every other module takes these primitives
from here.

All tables are built once and then treated as immutable; every query here is
pure, so concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError

# sigma3(n) <= zeta(3) n^3 stays below 2^63 for n <= ~1.96e6, so an int64
# divisor fill is exact up to here.
SIGMA3_INT64_LIMIT = 1_950_000


@dataclass(frozen=True)
class Factorization:
    prime_powers: tuple[tuple[int, int], ...]

    def squarefree_divisors(self) -> list[tuple[int, int]]:
        """Pairs (r, mu(r)) over the square-free divisors r, the only ones
        with mu(r) != 0."""
        out = [(1, 1)]
        for p, _ in self.prime_powers:
            out += [(r * p, -m) for r, m in out]
        return out


def sigma3_table(M: int) -> np.ndarray:
    """sigma_3(n) for 0 <= n <= M as int64 (index 0 is 0), by divisor fill.

    Hyperbola split at s = isqrt(M): each divisor d <= s adds d^3 to all its
    multiples in one slice; each cofactor k <= M/(s+1) adds d^3 at n = k d
    for all d in (s, M/k] in one slice. About 2 sqrt(M) slices in all.
    """
    if M > SIGMA3_INT64_LIMIT:
        raise CapacityError(f"sigma3 table to {M} overflows int64 past {SIGMA3_INT64_LIMIT}")
    sig = np.zeros(M + 1, dtype=np.int64)
    s = isqrt(M)
    for d in range(1, s + 1):
        sig[d::d] += d * d * d
    cubes = np.arange(M + 1, dtype=np.int64) ** 3
    for k in range(1, M // (s + 1) + 1):
        top = M // k
        sig[k * (s + 1) : k * top + 1 : k] += cubes[s + 1 : top + 1]
    return sig


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        # strip 2^v from a in one shift; (2|n)^v is -1 for odd v at n = 3, 5 mod 8
        v = (a & -a).bit_length() - 1
        a >>= v
        if v % 2 and n % 8 in (3, 5):
            t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), fully multiplicative in n.

    Coincides with the Jacobi symbol for odd positive n; (d|2) is 0 for even
    d, +1 for d = ±1 mod 8 and -1 for d = ±3 mod 8; (d|0) is 1 iff d = ±1;
    (d|-1) is the sign of d (with (0|-1) = 1 by convention).
    """
    if d == 0 and n == 0:
        raise ValueError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -1
    if n % 2 == 0:
        if d % 2 == 0:
            return 0
        two_sym = 1 if d % 8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            result *= two_sym
    return result * _jacobi(d % n, n)


# (a|2) by a mod 8
_KRONECKER_TWO = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)


def kronecker_row(n: int) -> np.ndarray:
    """(a|n) over one period of a, as a new int8 array: 0 <= a < n, or
    0 <= a < 4n when n = 2 mod 4. One row serves a sweep at a fixed n.

    By multiplicativity in n the row is the product over p^e || n of
    (a|p)^e, read from a table of (a|2) by a mod 8 at p = 2 and from the
    Legendre table of p (squares +1, non-residues -1, 0 at 0) at odd p."""
    period = 4 * n if n % 4 == 2 else n
    a = np.arange(period)
    row = np.ones(period, dtype=np.int8)
    for p, e in factorize_small(n).prime_powers:
        if p == 2:
            leg = _KRONECKER_TWO
        else:
            leg = np.full(p, -1, dtype=np.int8)
            leg[0] = 0
            r = np.arange(1, p)
            leg[r * r % p] = 1
        row *= leg[a % leg.size] ** e
    return row


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d = 1 mod 4 square-free, or d = 4m with m = 2,3 mod 4 square-free."""
    if d == 0:
        raise ValueError("0 is not a discriminant")
    if d % 4 == 0 and (d // 4) % 4 in (2, 3):
        d //= 4
    elif d % 4 != 1:
        return False
    return all(e == 1 for _, e in factorize_small(abs(d)).prime_powers)


def odd_squarefree_flags(limit: int) -> np.ndarray:
    """Boolean array f with f[m] = True iff m <= limit is odd and square-free."""
    f = np.ones(limit + 1, dtype=bool)
    f[0] = False
    f[2::2] = False
    for p in range(3, isqrt(limit) + 1, 2):
        q = p * p
        if f[p]:  # p prime is enough; composite p has smaller prime whose square divides q
            f[q::q] = False
    return f


def index_set_flags(name: str, X: int) -> np.ndarray:
    """Boolean mask f over 0..X (X >= 0) of the named index set.

    "all_supported": the support lattice n = 0, 1 mod 4 with n >= 1.
    "nflat": the discriminants 8m with m odd and square-free.
    """
    f = np.zeros(X + 1, dtype=bool)
    if name == "all_supported":
        f[1::4] = True
        f[4::4] = True
    elif name == "nflat":
        f[8::8] = odd_squarefree_flags(X // 8)[1:]
    else:
        raise ValueError(f"unknown index set {name!r}")
    return f


def enumerate_nflat(X: int) -> list[int]:
    """All discriminants 8m <= X with m > 0 odd and square-free, ascending."""
    return np.flatnonzero(index_set_flags("nflat", X)).tolist()


def factorize_small(n: int) -> Factorization:
    """Trial-division factorization; no table needed. Fine for n up to ~1e12.

    The power of 2 is stripped in one shift (its exponent is the trailing
    zero count), then only odd p are tried, up to sqrt of the cofactor."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    e = (n & -n).bit_length() - 1
    m = n >> e
    pps = [(2, e)] if e else []
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pps.append((p, e))
        p += 2
    if m > 1:
        pps.append((m, 1))
    return Factorization(prime_powers=tuple(pps))


def euler_phi(n: int) -> int:
    """phi(n) from the prime powers of n."""
    out = 1
    for p, e in factorize_small(n).prime_powers:
        out *= p ** (e - 1) * (p - 1)
    return out


def primes_up_to(n: int) -> list[int]:
    """Primes p <= n, ascending, by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.nonzero(flags)[0]]
