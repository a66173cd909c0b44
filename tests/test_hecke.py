import hashlib
import math

import numpy as np
import pytest

from halfint import cli, hecke
from halfint.arith import enumerate_nflat
from halfint.errors import InconsistencyError
from halfint.hecke import (
    HeckeTable,
    build_hecke_table,
    find_signflip_prime,
    shimura_identity_check,
    signflip_verify,
)

@pytest.fixture(scope="module")
def tab():
    return build_hecke_table(2000)


@pytest.fixture(scope="module")
def tab100k():
    return build_hecke_table(100_000)


def tau_checksum(tau):
    """BLAKE2b-8 of tau(1..N), each as 16 signed little-endian bytes: the
    format of the tau_checksum_* pins."""
    h = hashlib.blake2b(digest_size=8)
    for v in tau[1:]:
        h.update(v.to_bytes(16, "little", signed=True))
    return h.hexdigest()


class TestTauTable:
    def test_checksum_26000(self, hecke26k, pins):
        assert tau_checksum(hecke26k.tau) == pins["tau_checksum_26000"]

    def test_checksum_100000(self, tab100k, pins):
        assert tau_checksum(tab100k.tau) == pins["tau_checksum_100000"]

    def test_ramanujan_congruence_691(self, tab100k):
        # tau(n) = sigma_11(n) mod 691, with sigma_11 from divisor slices
        N = tab100k.N
        sig = np.zeros(N + 1, dtype=np.int64)
        for d in range(1, N + 1):
            sig[d::d] += pow(d, 11, 691)
        tau = np.array([t % 691 for t in tab100k.tau], dtype=np.int64)
        assert np.array_equal(tau[1:], sig[1:] % 691)

    def test_deligne_violation_is_typed(self, monkeypatch):
        delta_integral = hecke.delta_integral

        def corrupted(N):
            tau = delta_integral(N)
            tau[13] = 2 * 13**6  # tau(13)^2 = 4 13^12 > 4 13^11
            return tau

        monkeypatch.setattr(hecke, "delta_integral", corrupted)
        with pytest.raises(InconsistencyError, match="Deligne"):
            build_hecke_table(100)
        assert cli.main(["waldspurger", "--dmax", "50"]) == 1

    def test_fft_rounding_failure_exits_1(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(InconsistencyError, match="off the integers"):
            build_hecke_table(100)
        assert cli.main(["waldspurger", "--dmax", "50"]) == 1


class TestLambda:
    def test_normalization(self, tab):
        assert tab.lam[1] == 1.0
        assert tab.lam[2] == pytest.approx(-24 / 2**5.5, rel=1e-14)

    def test_multiplicative(self, tab):
        assert tab.lam[6] == pytest.approx(tab.lam[2] * tab.lam[3], rel=1e-12)

    def test_deligne_bound_at_primes(self, tab):
        for p in (2, 3, 5, 7, 11, 13, 997, 1999):
            assert abs(tab.lam[p]) <= 2.0
            assert tab.tau[p] ** 2 <= 4 * p**11

    def test_hecke_relation(self, tab):
        for p in (2, 3, 5, 7, 11):
            for j in range(1, 6):
                if p ** (j + 1) > tab.N:
                    break
                lhs = tab.lam[p] * tab.lam[p**j]
                rhs = tab.lam[p ** (j + 1)] + tab.lam[p ** (j - 1)]
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestTableRecord:
    def test_size_is_the_length_of_tau(self, tab):
        t = HeckeTable(tau=tab.tau[:51])
        assert t.N == 50
        assert len(t.lam) == t.N + 1
        assert np.array_equal(t.lam, tab.lam[:51])
        # a size that disagrees with tau cannot be passed
        with pytest.raises(TypeError):
            HeckeTable(tau=tab.tau[:51], N=60)

    def test_tables_compare_by_identity(self):
        a, b = build_hecke_table(300), build_hecke_table(300)
        # fill the lambda arrays, which a field-wise == would compare
        assert np.array_equal(a.lam, b.lam)
        assert a != b
        assert a == a


class TestShimuraIdentity:
    def test_base_cases(self, tab, table10k):
        assert shimura_identity_check(1, 1, table10k, tab)
        assert shimura_identity_check(1, 2, table10k, tab)
        # alpha(4) = alpha(1) (tau(2) - chi_1(2) 2^5) = -56
        assert table10k.a(4) == table10k.a(1) * (tab.tau[2] - 2**5)

    def test_d8_n2(self, tab, table10k):
        assert shimura_identity_check(8, 2, table10k, tab)

    def test_exhaustive_to_1e5(self, big_table, hecke26k):
        assert cli.shimura_failures(100_000, big_table, hecke26k) == 0
        assert sum(math.isqrt(100_000 // d) for d in [1] + enumerate_nflat(100_000)) > 3000

    def test_deep_range_sample(self, big_table, hecke26k):
        # sampled pairs with n^2 d spread over the full table range; a defect
        # anywhere in the accumulation (e.g. an overflow at large indices)
        # breaks the exact identity loudly
        rng = np.random.default_rng(31)
        nflat = enumerate_nflat(big_table.N // 4)
        checked = 0
        while checked < 200:
            d = int(rng.choice(nflat))
            nmax = math.isqrt(big_table.N // d)
            if nmax < 2:
                continue
            n = int(rng.integers(2, nmax + 1))
            assert shimura_identity_check(d, n, big_table, hecke26k), (d, n)
            checked += 1

    def test_range_errors(self, tab, table10k):
        with pytest.raises(ValueError):
            shimura_identity_check(8, 100, table10k, tab)
        with pytest.raises(ValueError):
            shimura_identity_check(-8, 2, table10k, tab)


class TestSignFlip:
    def test_no_witness_below_17(self, tab):
        assert find_signflip_prime(tab, 2) is None
        assert find_signflip_prime(tab, 7) is None
        assert tab.tau[7] == -16744 > -2 * 7**5

    def test_first_witness(self, tab, pins):
        # tau(17) = -6905934 < -2*17^5 = -2839714; frozen regression constant
        p = find_signflip_prime(tab, 100)
        assert p == 17 == pins["signflip_prime"]
        assert tab.tau[17] < -2 * 17**5

    def test_witness_is_smallest_even_with_big_bound(self, tab100k):
        assert find_signflip_prime(tab100k, 100_000) == 17

    def test_flip_for_all_eligible_d(self, big_table):
        p = 17
        flipped = 0
        for d in enumerate_nflat(big_table.N // (p * p)):
            if big_table.a(d) == 0:
                continue
            assert signflip_verify(d, p, big_table)
            flipped += 1
        assert flipped > 300

    def test_zero_coefficient_rejected(self, big_table):
        # no alpha(d) vanishes on the index set in the real table (checked
        # separately), so the precondition violation is staged synthetically
        from halfint.qseries import CoeffTable

        alpha = list(big_table.alpha[: 8 * 17 * 17 + 1])
        alpha[8] = 0
        synth = CoeffTable(alpha)
        with pytest.raises(ValueError):
            signflip_verify(8, 17, synth)

    def test_no_vanishing_on_index_set(self, big_table):
        s = big_table.sign_array()
        for d in enumerate_nflat(big_table.N):
            assert s[d] != 0

    def test_non_witness_prime_is_not_an_error(self, big_table):
        # p = 2 fails the eigenvalue inequality yet still flips every d here:
        # chi_d(2) = 0 on this index set, so alpha(4d) = tau(2) alpha(d).
        # p = 3 has a positive eigenvalue and never flips. Both are legal
        # queries; neither raises.
        for d in enumerate_nflat(2000):
            if big_table.a(d) == 0:
                continue
            assert signflip_verify(d, 2, big_table) is True
            assert signflip_verify(d, 3, big_table) is False
