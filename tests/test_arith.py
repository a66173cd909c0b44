import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint.arith import (
    SIGMA3_INT64_LIMIT,
    Factorization,
    enumerate_nflat,
    euler_phi,
    factorize_small,
    index_set_flags,
    is_fundamental_discriminant,
    kronecker,
    kronecker_row,
    odd_squarefree_flags,
    primes_up_to,
    sigma3_table,
)
from halfint.errors import CapacityError

LIMIT = 10_000


@pytest.fixture(scope="module")
def sig():
    return sigma3_table(LIMIT)


def sigma3_direct(n):
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def spf_direct(n):
    return next(d for d in range(2, n + 1) if n % d == 0)


def spf_sieve(limit):
    """Smallest prime factors to limit by a sieve of Eratosthenes (0 at 0, 1):
    each prime p marks the multiples of p not yet marked, from p^2 on."""
    out = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if out[p] == 0:
            out[p] = p
            if p * p <= limit:
                multiples = out[p * p :: p]
                multiples[multiples == 0] = p
    return out


@pytest.fixture(scope="module")
def spf():
    """Smallest prime factors to LIMIT by trial division (0 at 0, 1)."""
    return np.array([0, 0] + [spf_direct(n) for n in range(2, LIMIT + 1)])


def mu_direct(n):
    """Moebius function by trial division."""
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def mu(n):
    """mu(n) as squarefree_divisors carries it; 0 off the square-free n."""
    return dict(factorize_small(n).squarefree_divisors()).get(n, 0)


class TestSieves:
    def test_spot_values(self, sig):
        assert mu(6) == 1
        assert mu(4) == 0
        assert int(sig[6]) == 252 == sigma3_direct(6)

    def test_empty_product_conventions(self, sig):
        assert euler_phi(1) == 1
        assert mu(1) == 1
        assert int(sig[1]) == 1

    def test_mu_squared_is_squarefree(self):
        flags = odd_squarefree_flags(LIMIT)
        for n in range(1, LIMIT + 1, 2):
            assert flags[n] == (mu(n) != 0)
        assert not flags[2::2].any()

    def test_sigma3_at_primes(self, sig):
        for p in primes_up_to(LIMIT)[:200]:
            assert int(sig[p]) == 1 + p**3

    def test_sigma3_against_divisor_enumeration(self, sig):
        for n in range(1, 300):
            assert int(sig[n]) == sigma3_direct(n)

    def test_multiplicativity_spot(self, sig):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(2, 90))
            n = int(rng.integers(2, 90))
            if np.gcd(m, n) != 1:
                continue
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
            assert int(sig[m * n]) == int(sig[m]) * int(sig[n])

    def test_mobius_inversion(self):
        # sum_{d|n} mu(d) = [n == 1]
        for n in range(1, 10_000, 97):
            acc = sum(mu(d) for d in range(1, n + 1) if n % d == 0)
            assert acc == (1 if n == 1 else 0)

    def test_sigma3_int64_range(self):
        # the int64 fill is exact up to the limit and refused beyond it
        assert 1.2021 * SIGMA3_INT64_LIMIT**3 < 2**63
        with pytest.raises(CapacityError):
            sigma3_table(SIGMA3_INT64_LIMIT + 1)
        assert sigma3_table(0).tolist() == [0]

    def test_primes_up_to_matches_spf(self, spf):
        idx = np.arange(LIMIT + 1)
        assert primes_up_to(LIMIT) == idx[(idx >= 2) & (spf == idx)].tolist()
        assert primes_up_to(2000) == [n for n in range(2, 2001) if spf_direct(n) == n]
        assert primes_up_to(1) == [] and primes_up_to(2) == [2]
        assert spf[:2].tolist() == [0, 0]
        for n in range(2, 2000):
            assert spf[n] == spf_direct(n)

    def test_euler_phi_matches_table(self):
        # against gcd counts
        for n in range(1, 2000):
            assert euler_phi(n) == sum(math.gcd(a, n) == 1 for a in range(1, n + 1))

    def test_squarefree_divisors_carry_mu(self):
        for n in range(1, 2000):
            pairs = factorize_small(n).squarefree_divisors()
            expect = [(r, mu_direct(r)) for r in range(1, n + 1)
                      if n % r == 0 and mu_direct(r) != 0]
            assert sorted(pairs) == expect


class TestKronecker:
    def test_unit_top(self):
        assert kronecker(1, 57) == 1

    def test_at_two(self):
        # bottom 2 depends on d mod 8
        assert kronecker(5, 2) == -1
        assert kronecker(7, 2) == 1
        assert kronecker(4, 2) == 0

    def test_eight_over_three(self):
        # (8|3) = (2|3)^3 = -1; Euler criterion 2^((3-1)/2) = 2 = -1 mod 3
        assert kronecker(8, 3) == -1
        assert pow(2, 1, 3) == 3 - 1

    def test_conventions_at_zero_and_minus_one(self):
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(5, 0) == 0
        assert kronecker(7, -1) == 1
        assert kronecker(-7, -1) == -1
        with pytest.raises(ValueError):
            kronecker(0, 0)

    def test_euler_criterion_oracle(self):
        for d in (1, 5, 8, 12, 13, -3, -4, 21):
            for p in primes_up_to(200):
                if p == 2 or d % p == 0:
                    continue
                euler = pow(d % p, (p - 1) // 2, p)
                expect = 1 if euler == 1 else -1
                assert kronecker(d, p) == expect

    @settings(max_examples=200, derandomize=True)
    @given(
        d=st.integers(min_value=-400, max_value=400),
        m=st.integers(min_value=1, max_value=400),
        n=st.integers(min_value=1, max_value=400),
    )
    def test_completely_multiplicative(self, d, m, n):
        if d == 0:
            return
        assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)

    def test_jacobi_row_periodic(self):
        for n in (9, 15, 45):
            for a in range(-n, 2 * n):
                assert kronecker(a, n) == kronecker(a % n, n)

    def test_row_covers_one_period(self):
        # (a|n) has period n, or 4n when n = 2 mod 4
        for n in (1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 45):
            row = kronecker_row(n)
            assert row.size == (4 * n if n % 4 == 2 else n)
            for a in range(-3 * row.size, 3 * row.size):
                assert row[a % row.size] == kronecker(a, n), (a, n)

    def test_row_matches_the_symbol_to_600(self):
        # the row is built from Legendre tables; the per-a symbol is the
        # reference, over n = 2 mod 4 (period 4n) and n = 2^v m alike
        for n in range(1, 601):
            row = kronecker_row(n)
            expect = [kronecker(a, n) for a in range(4 * n if n % 4 == 2 else n)]
            assert row.dtype == np.int8 and np.array_equal(row, expect), n


class TestFundamentalDiscriminants:
    def test_examples(self):
        assert is_fundamental_discriminant(8)
        assert is_fundamental_discriminant(1)
        assert not is_fundamental_discriminant(9)

    def test_negative_side(self):
        assert is_fundamental_discriminant(-3)
        assert is_fundamental_discriminant(-4)
        assert is_fundamental_discriminant(-8)
        assert not is_fundamental_discriminant(-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_fundamental_discriminant(0)

    def test_matches_the_definition_below_1e4(self):
        # square-free by a sieve of squares, apart from factorize_small
        lim = 10_000
        squarefree = [True] * lim
        for k in range(2, math.isqrt(lim) + 1):
            squarefree[k * k :: k * k] = [False] * len(squarefree[k * k :: k * k])
        for d in range(-lim + 1, lim):
            if d == 0:
                continue
            m = d // 4
            expect = (d % 4 == 1 and squarefree[abs(d)]) or (
                d % 4 == 0 and m % 4 in (2, 3) and squarefree[abs(m)]
            )
            assert is_fundamental_discriminant(d) == expect, d


class TestNflat:
    def test_small(self):
        assert enumerate_nflat(50) == [8, 24, 40]
        assert enumerate_nflat(7) == []

    def test_count_at_2e5(self):
        # consistent with the count used by the sign-change tables
        assert len(enumerate_nflat(200_000)) == 10134

    def test_members_are_fundamental_and_sorted(self):
        lst = enumerate_nflat(3000)
        assert lst == sorted(lst)
        for d in lst:
            assert is_fundamental_discriminant(d)
            m = d // 8
            assert m % 2 == 1

    def test_roundtrip_predicate(self):
        flags = odd_squarefree_flags(400)
        members = set(enumerate_nflat(3200))
        for m in range(1, 401):
            assert ((8 * m) in members) == bool(flags[m])


def _in_index_set(name, n):
    """Per-n membership: the lattice by n mod 4, nflat from factorize_small."""
    if name == "all_supported":
        return n >= 1 and n % 4 in (0, 1)
    m = n // 8
    return (n > 0 and n % 8 == 0 and m % 2 == 1
            and all(e == 1 for _, e in factorize_small(m).prime_powers))


class TestIndexSetFlags:
    @pytest.mark.parametrize("name", ["all_supported", "nflat"])
    def test_matches_per_n_definition(self, name):
        for X in [*range(41), 10_000]:
            flags = index_set_flags(name, X)
            assert flags.dtype == bool and flags.shape == (X + 1,)
            assert flags.tolist() == [_in_index_set(name, n) for n in range(X + 1)], X

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown index set 'foo'"):
            index_set_flags("foo", 100)

    def test_enumerate_nflat_reads_the_mask(self):
        for X in (0, 7, 8, 3200, 10_000):
            nflat = enumerate_nflat(X)
            assert nflat == np.flatnonzero(index_set_flags("nflat", X)).tolist()
            assert all(type(d) is int for d in nflat)


def spf_factorization(n, spf):
    """Prime powers of n read off the smallest-prime-factor table."""
    pps = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        pps.append((p, e))
    return tuple(pps)


class TestFactorize:
    def test_examples(self):
        assert factorize_small(12).prime_powers == ((2, 2), (3, 1))
        assert factorize_small(1).prime_powers == ()
        assert factorize_small(9800).prime_powers == ((2, 3), (5, 2), (7, 2))

    def test_product_reconstructs(self):
        rng = np.random.default_rng(3)
        for n in rng.integers(1, 10_000, size=200):
            f = factorize_small(int(n))
            prod = 1
            for p, e in f.prime_powers:
                prod *= p**e
            assert prod == n

    def test_out_of_range(self):
        for n in (0, -5):
            with pytest.raises(ValueError):
                factorize_small(n)

    def test_small_matches_sieved(self, spf):
        # every n below 2e5 against a smallest-prime-factor sieve, which
        # equals the trial-division table on its range; then 2^k p, where the
        # power of 2 is stripped in one shift and p is left as the cofactor
        sieved = spf_sieve(200_000)
        assert np.array_equal(sieved[: LIMIT + 1], spf)
        for n in range(1, 200_000):
            expect = Factorization(spf_factorization(n, sieved))
            assert factorize_small(n) == expect
        for p in (3, 5, 199_999, 1_000_003):
            for k in range(1, 41):
                assert factorize_small(2**k * p).prime_powers == ((2, k), (p, 1))
