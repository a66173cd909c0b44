import math
import time
from fractions import Fraction

import numpy as np
import pytest

from halfint import mollifier as mo
from halfint.arith import kronecker
from halfint.cli import taylor_bound_holds, tiny_mollifier_configs
from halfint.errors import BudgetExceededError, InconsistencyError
from halfint.hecke import HeckeTable, build_hecke_table


@pytest.fixture(scope="module")
def tab():
    return build_hecke_table(2000)


def two_block_params():
    # two blocks: (2, 3.98] = {3} and (3.98, 43.1] = 12 primes
    return mo.build_params(x=1.0e6, l=2.0, kappa=0.5, eta2=0.2, c0=2.0,
                           theta0_override=0.1)


@pytest.fixture(scope="module")
def params(tab):
    return two_block_params()


class TestBuildParams:
    def test_override_geometry(self):
        # x^0.05 = 1.995, so c0 must sit below it for a nonempty lead block
        p = mo.build_params(x=1.0e6, eta2=0.2, c0=1.5, theta0_override=0.05)
        assert p.J == 2
        assert 0.2 <= p.theta[p.J] <= math.e * 0.2
        assert all(l % 2 == 0 and l >= 2 for l in p.ell)
        for lo, hi in p.intervals:
            assert lo < hi

    def test_theta_growth_and_ell_formula(self, params):
        for j, t in enumerate(params.theta):
            assert t == pytest.approx(0.1 * math.e**j, rel=1e-12)
            assert params.ell[j] == 2 * math.floor(t ** (-0.75))

    def test_lk_validation(self):
        with pytest.raises(ValueError):
            mo.build_params(x=1e6, l=1.0, kappa=0.7, theta0_override=0.1)

    def test_ell_is_capped_at_the_taylor_check(self):
        # theta0 = 0.0098 gives ell_0 = 64, the largest ell the selftest
        # Taylor check runs; 0.0094 gives 66. x^0.0098 = 1.153, so c0 = 1
        # keeps block 0 nonempty
        for theta0, ell0 in ((0.0098, 64), (0.01, 62), (0.08, 12)):
            p = mo.build_params(x=2097152, eta2=0.2, c0=1.0, theta0_override=theta0)
            assert p.ell[0] == ell0 <= mo.ELL_MAX
        assert all(cfg.ell[0] <= mo.ELL_MAX for cfg in tiny_mollifier_configs())
        assert mo.ELL_MAX == 64
        with pytest.raises(ValueError, match="<= 64, the largest ell the Taylor check"):
            mo.build_params(x=2097152, eta2=0.2, theta0_override=0.0094)


class TestWeightAndCoeff:
    def test_vanishes_at_upper_edge(self, params):
        x_edge = params.x ** params.theta[params.J]
        assert mo.weight_w(x_edge, params) == pytest.approx(0.0, abs=1e-12)

    def test_tends_to_one(self, params):
        assert mo.weight_w(1.0 + 1e-12, params) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_interior(self, params):
        mid = params.x ** (params.theta[params.J] / 2)
        assert 0.0 < mo.weight_w(mid, params) < 1.0

    def test_domain_error(self, params):
        with pytest.raises(ValueError):
            mo.weight_w(1.0, params)

    def test_coeff_bounded_by_two(self, params, tab):
        for j in range(params.J + 1):
            for p in params.primes[j]:
                assert abs(mo.coeff_a(p, params, tab)) <= 2.0

    def test_coeff_approaches_lambda_for_tiny_prime(self, tab):
        # w(p) -> 1 as the block edge grows, at rate (1-w) log(edge) -> 2 log p
        gaps = []
        for x in (1.0e6, 1.0e8, 1.0e10):
            p = mo.build_params(x=x, l=2.0, kappa=0.5, eta2=0.45, c0=2.0,
                                theta0_override=0.5)
            a3 = mo.coeff_a(3, p, tab)
            w3 = a3 / float(tab.lam[3])
            gaps.append((1.0 - w3) * math.log(p.x ** p.theta[p.J]))
        # scaled gaps rise toward the first-order limit 2 log 3 from below
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert all(g < 2 * math.log(3) for g in gaps)
        assert gaps[-1] == pytest.approx(2 * math.log(3), rel=0.10)


class TestPSum:
    def test_blocked_twist_vanishes(self, params, tab):
        m = 1
        for p in params.primes[0]:
            m *= p
        assert mo.p_sum(m * m, 0, params, tab) == 0.0

    def test_trivial_twist_sums_all(self, params, tab):
        expect = sum(
            mo.coeff_a(p, params, tab) / math.sqrt(p)
            for p in params.primes[1]
        )
        assert mo.p_sum(1, 1, params, tab) == pytest.approx(expect, rel=1e-12)

    def test_array_equals_the_scalar(self, tab):
        # c0 = 1.5 puts p = 2 in the lead block, where (m|2) has period 8
        params = mo.build_params(x=1.0e6, eta2=0.2, c0=1.5, theta0_override=0.06)
        assert params.primes[0][0] == 2
        ms = np.arange(-60, 400)
        for j in range(params.J + 1):
            arr = mo.p_sum(ms, j, params, tab)
            assert [mo.p_sum(int(m), j, params, tab) for m in ms] == arr.tolist()

    def test_power_identity(self, params, tab):
        # P^s = s! sum over n with Omega(n)=s of a(n) nu(n) (m|n)/sqrt(n)
        for m in (5, 11, 17):
            p1 = mo.p_sum(m, 0, params, tab)
            for s in (2, 3):
                rhs = _omega_layer_sum(m, 0, s, params, tab)
                assert p1**s == pytest.approx(math.factorial(s) * rhs, rel=1e-10)


def _support_rows(j, max_omega, params, tab):
    """The block support in DFS order, one (n, Omega, a(n), nu(n), [(p, e)])
    per n, in Python numbers."""
    s = mo._support(j, max_omega, params, tab)
    pairs = [[(p, e) for p, e in zip(params.primes[j], row) if e] for row in s.expo.tolist()]
    return zip(s.n, s.omega.tolist(), s.aval.tolist(), s.nu.tolist(), pairs)


def _omega_layer_sum(m, j, s, params, tab):
    acc = 0.0
    for n, omega, aval, nuval, expo in _support_rows(j, s, params, tab):
        if omega != s:
            continue
        sym = 1
        for p, e in expo:
            sym *= kronecker(m, p) ** e
        acc += aval * nuval * sym / math.sqrt(n)
    return acc


class TestTruncatedExponential:
    def test_at_zero(self):
        assert mo.e_truncated(0.0, 4) == 1.0

    def test_hand_value(self):
        assert mo.e_truncated(-3.0, 2) == pytest.approx(2.5, rel=1e-15)

    def test_positivity_on_grid(self):
        for ell in (4, 8, 16, 32, 64):
            for t in np.linspace(-3 * ell, 3 * ell, 97):
                assert mo.e_truncated(float(t), ell) > 0.0

    def test_taylor_inequality(self):
        assert taylor_bound_holds((4, 8, 16, 32, 64), 61)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            mo.e_truncated(1.0, 3)

    def test_within_its_bound_of_the_exact_sum(self):
        # dense grids over the cancellation zone and beyond; the array call
        # and the scalar call round alike
        for ell in (2, 4, 10, 16, 32, 64):
            ts = np.linspace(-3.0 * ell, 3.0 * ell, 601)
            got = mo.e_truncated(ts, ell)
            assert isinstance(mo.e_truncated(float(ts[0]), ell), float)
            for t, g in zip(ts, got):
                assert mo.e_truncated(float(t), ell) == g
                x = Fraction(float(t))
                term = exact = Fraction(1)
                for s in range(1, ell + 1):
                    term = term * x / s
                    exact += term
                assert abs(Fraction(float(g)) - exact) <= Fraction(2) ** -43 * abs(exact)

    def test_taylor_inequality_through_the_cancellation_zone(self):
        # e^t <= (1 + e^{-ell/2}) E_ell(t) on 1001 points of [-20, 0] at
        # ell = 64, where the float sum alone loses every digit
        ts = np.linspace(-20.0, 0.0, 1001)
        got = mo.e_truncated(ts, 64)
        assert np.all(np.exp(ts) <= (1 + math.exp(-32)) * got * (1 + 1e-12))


class TestMFactor:
    def test_single_prime_ell2_closed_form(self, tab):
        # one block {3} with truncation length exactly 2:
        # M = 1 - a (m|p)/(kappa sqrt p) + a^2 (m|p)^2/(2 kappa^2 p)
        p = mo.build_params(x=16.2, l=2.0, kappa=0.5, eta2=0.3, c0=2.0,
                            theta0_override=0.45)
        assert p.J == 0 and p.ell[0] == 2 and p.primes[0] == [3]
        prime = 3
        kappa = 0.5
        for m in (1, 5, 7):
            a3 = mo.coeff_a(prime, p, tab)
            sym = kronecker(m, prime)
            expect = (
                1
                - a3 * sym / (kappa * math.sqrt(prime))
                + a3**2 * sym**2 / (2 * kappa**2 * prime)
            )
            for method in ("enumerate", "identity"):
                got = mo.m_factor(m, 0, kappa, p, tab, method=method)
                assert got == pytest.approx(expect, rel=1e-12)

    def test_enumerate_equals_identity(self, params, tab):
        for m in (1, 8, 40, 88, 123, 2024):
            for j in range(params.J + 1):
                enum = mo.m_factor(m, j, 0.5, params, tab, method="enumerate")
                iden = mo.m_factor(m, j, 0.5, params, tab, method="identity")
                assert enum == pytest.approx(iden, rel=1e-12, abs=1e-12)

    def test_budget_guard(self, tab, monkeypatch):
        monkeypatch.setattr(mo, "_BUDGET", 5)
        with pytest.raises(BudgetExceededError):
            mo.m_factor(1, 1, 0.5, two_block_params(), tab, method="enumerate")

    def test_enumerate_equals_the_loop_bit_for_bit(self, params, tab):
        # the defining sum as a Python loop over the DFS support, in its order
        for j in range(params.J + 1):
            support = list(_support_rows(j, params.ell[j], params, tab))
            for m in (1, 8, 15, 40, 123, 2024):
                for kappa in (0.5, 1.5):
                    acc = 0.0
                    for n, omega, aval, nuval, expo in support:
                        sym = math.prod(kronecker(m, p) ** e for p, e in expo)
                        if sym:
                            acc += (kappa ** (-omega) * aval * (-1) ** omega
                                    * nuval * sym / math.sqrt(n))
                    assert mo.m_factor(m, j, kappa, params, tab, method="enumerate") == acc

    def test_support_record_matches_its_exponents(self, params, tab):
        # each I_j-smooth n with Omega(n) <= ell_j once, with n, Omega, nu and
        # a(n) as its exponent row gives them
        for j in range(params.J + 1):
            ps, ell = params.primes[j], params.ell[j]
            rows = list(_support_rows(j, ell, params, tab))
            assert len(rows) == math.comb(len(ps) + ell, ell)
            assert len({n for n, *_ in rows}) == len(rows)
            for n, omega, aval, nuval, expo in rows:
                assert n == math.prod(p**e for p, e in expo)
                assert omega == sum(e for _, e in expo) <= ell
                assert nuval == 1 / math.prod(math.factorial(e) for _, e in expo)
                assert aval == pytest.approx(
                    math.prod(mo.coeff_a(p, params, tab) ** e for p, e in expo), rel=1e-13)

    def test_memo_follows_the_table(self, params, tab):
        # lambda(5) negated; 5 is a prime of block 1 and (8|5) = -1
        other = HeckeTable(tau=[-v if n == 5 else v for n, v in enumerate(tab.tau)])
        before = mo.m_factor(8, 1, 0.5, params, tab, method="enumerate")
        got = mo.m_factor(8, 1, 0.5, params, other, method="enumerate")
        assert got != before
        assert got == mo.m_factor(8, 1, 0.5, two_block_params(), other, method="enumerate")
        assert got == pytest.approx(mo.m_factor(8, 1, 0.5, params, other), rel=1e-12)
        assert mo.m_factor(8, 1, 0.5, params, tab, method="enumerate") == before
        # the identity side keeps its prime weights per table too
        psum_before = mo.p_sum(8, 1, params, tab)
        iden_before = mo.m_factor(8, 1, 0.5, params, tab, method="identity")
        psum = mo.p_sum(8, 1, params, other)
        iden = mo.m_factor(8, 1, 0.5, params, other, method="identity")
        assert psum != psum_before and iden != iden_before
        assert psum == mo.p_sum(8, 1, two_block_params(), other)
        assert iden == mo.m_factor(8, 1, 0.5, two_block_params(), other, method="identity")
        assert mo.p_sum(8, 1, params, tab) == psum_before
        assert mo.m_factor(8, 1, 0.5, params, tab, method="identity") == iden_before

    def test_memo_follows_kappa(self, tab):
        # kappa^{-Omega} a(n) (-1)^Omega is kept per kappa: back at 0.5 after
        # 0.7, one params gives what a fresh one gives
        params = two_block_params()
        seen = {}
        for kappa in (0.5, 0.7, 0.5):
            for j in range(params.J + 1):
                got = mo.m_factor(40, j, kappa, params, tab, method="enumerate")
                assert got == mo.m_factor(40, j, kappa, two_block_params(), tab,
                                          method="enumerate"), (kappa, j)
                assert seen.setdefault((kappa, j), got) == got
        assert all(seen[(0.5, j)] != seen[(0.7, j)] for j in range(params.J + 1))

    def test_enumerate_never_calls_the_identity_side(self, tab, monkeypatch):
        def identity_side(*args):
            raise AssertionError("the enumerate oracle reached the identity side")

        monkeypatch.setattr(mo, "p_sum", identity_side)
        monkeypatch.setattr(mo, "e_truncated", identity_side)
        params = two_block_params()
        for _ in range(2):  # a memo miss, then a hit
            for j in range(params.J + 1):
                assert math.isfinite(mo.m_factor(40, j, 0.5, params, tab, method="enumerate"))

    def test_positivity_ten_thousand_samples(self, params, tab):
        rng = np.random.default_rng(17)
        for m in rng.integers(1, 10**7, size=10_000):
            val = mo.mollifier_value(int(8 * m), 0.5, params, tab)
            assert val.value > 0

    def test_nonpositive_value_is_typed(self, params, tab, monkeypatch):
        # a zero truncated exponential makes the product zero
        monkeypatch.setattr(mo, "e_truncated", lambda t, ell: 0.0)
        with pytest.raises(InconsistencyError):
            mo.mollifier_value(8, 0.5, params, tab)

    def test_nonpositive_entry_is_named(self, params, tab, monkeypatch):
        # zero from the fourth twist on: the error names m = 24 alone
        monkeypatch.setattr(mo, "e_truncated",
                            lambda t, ell: np.where(np.arange(t.size) < 3, 1.0, 0.0))
        with pytest.raises(InconsistencyError, match=r"at m=24$") as err:
            mo.mollifier_value(8 * np.arange(5000), 0.5, params, tab)
        assert len(str(err.value)) < 100


class TestNuFunctions:
    def test_nu_fold_prime_square(self):
        assert mo.nu_fold(2, 9) == Fraction(2)  # 2^2/2!

    def test_nu_values(self):
        assert nu(12) == Fraction(1, 2)  # 1/2! * 1/1!
        assert nu(8) == Fraction(1, 6)

    def test_nu_fold_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            j = int(rng.integers(1, 5))
            m = int(rng.integers(2, 60))
            n = int(rng.integers(2, 60))
            if math.gcd(m, n) != 1:
                continue
            assert mo.nu_fold(j, m * n) == mo.nu_fold(j, m) * mo.nu_fold(j, n)

    def test_truncated_equals_full_when_omega_small(self):
        for n in (2, 6, 12, 30, 36):
            omega = sum(e for _, e in _factor(n))
            for r in (1, 2, 3):
                assert mo.nu_truncated(r, n, omega) == mo.nu_fold(r, n)

    def test_truncated_below_full(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 600))
            r = int(rng.integers(1, 4))
            ell = int(rng.integers(1, 4))
            assert mo.nu_truncated(r, n, ell) <= mo.nu_fold(r, n)

    def test_truncated_equals_ordered_factorizations(self):
        # brute force over every ordered r-tuple of divisors with product n
        def omega(n):
            return sum(e for _, e in _factor(n))

        def brute(r, n, ell):
            if r == 1:
                return nu(n) if omega(n) <= ell else Fraction(0)
            return sum((nu(d) * brute(r - 1, n // d, ell) for d in range(1, n + 1)
                        if n % d == 0 and omega(d) <= ell), Fraction(0))

        for r in (1, 2, 3):
            for ell in (1, 2, 3, 5):
                for n in range(1, 130):
                    assert mo.nu_truncated(r, n, ell) == brute(r, n, ell), (r, n, ell)

    def test_nu_fold_is_convolution(self):
        # direct 2-fold Dirichlet convolution of nu with itself
        for n in (4, 12, 36, 48):
            conv = sum(nu(d) * nu(n // d) for d in range(1, n + 1) if n % d == 0)
            assert conv == mo.nu_fold(2, n)


def _factor(n):
    from halfint.arith import factorize_small

    return factorize_small(n).prime_powers


def nu(n):
    """The multiplicative weight nu(p^a) = 1/a!, the oracle nu_fold is the
    Dirichlet convolution power of."""
    out = Fraction(1)
    for _, e in _factor(n):
        out /= math.factorial(e)
    return out


class TestExpansionCheck:
    def test_tiny_configs(self, tab):
        for cfg in tiny_mollifier_configs():
            for l in (2.0, 4.0, 6.0, 8.0):
                for m in (8, 24, 40, 104, 168):
                    assert mo.dirichlet_expansion_check(m, 0.5, l, cfg, tab), (l, m)

    def test_weights_match_nu_truncated(self, tab):
        # the gathered h(n) against the exact Fraction, rounded once, on
        # every support element of the tiny configurations at l kappa = 1..4
        u = 2.0**-53
        for cfg in tiny_mollifier_configs():
            for lk in (1, 2, 3, 4):
                for j, ell in enumerate(cfg.ell):
                    s = mo._support(j, lk * ell, cfg, tab)
                    got = mo._expansion_weights(s, lk, ell)
                    want = np.array([float(mo.nu_truncated(lk, n, ell)) for n in s.n])
                    assert got.shape == want.shape
                    assert np.all(np.abs(got - want) <= 4 * u * want), (lk, j)

    def test_reused_configuration_gives_the_fresh_verdicts(self, tab):
        # one configuration's memo across l kappa and m against fresh ones
        cfg = tiny_mollifier_configs()[0]
        for l in (2.0, 4.0, 6.0, 8.0):
            for m in (8, 24, 40, 104):
                fresh = mo.dirichlet_expansion_check(m, 0.5, l, tiny_mollifier_configs()[0], tab)
                assert fresh
                assert mo.dirichlet_expansion_check(m, 0.5, l, cfg, tab) == fresh, (l, m)

    def test_lk1_reduces_to_m_itself(self, tab):
        cfg = tiny_mollifier_configs()[0]
        m = 40
        lhs = mo.mollifier_value(m, 0.5, cfg, tab).value
        rhs = mo.m_factor(m, 0, 0.5, cfg, tab) * math.log(cfg.x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sign_flip_against_leading_term(self, tab):
        # expansion coefficient at n = p carries the Liouville sign: with
        # a(p) > 0 it is negative while the n = 1 term is +1
        cfg = tiny_mollifier_configs()[1]
        p = cfg.primes[0][0]
        a_p = mo.coeff_a(p, cfg, tab)
        assert a_p > 0
        # h(n) is nu_truncated(l kappa, n, ell_0) on the single block
        lk = round(4.0 * cfg.kappa)  # this configuration is checked at l = 4
        coef_1 = float(mo.nu_truncated(lk, 1, cfg.ell[0]))
        h_p = float(mo.nu_truncated(lk, p, cfg.ell[0]))
        coef_p = h_p * a_p * (-1) / (0.5 * math.sqrt(p))
        assert coef_1 > 0
        assert coef_p < 0

    def test_fourth_order_under_a_second(self, tab):
        # l kappa = 4 on a fresh configuration, so the support and its
        # weights h are built inside the timed call
        cfg = tiny_mollifier_configs()[0]
        t0 = time.process_time()
        assert mo.dirichlet_expansion_check(8, 0.5, 8.0, cfg, tab)
        assert time.process_time() - t0 < 1.0

    def test_big_config_rejected(self, params, tab):
        with pytest.raises(ValueError):
            mo.dirichlet_expansion_check(8, 0.5, 2.0, params, tab)

    @pytest.mark.parametrize("l", [0.0, 10.0])
    def test_moment_order_outside_build_range_rejected(self, tab, l):
        # the moments build_params accepts: l*kappa = 0 and 5 are refused at once
        with pytest.raises(ValueError, match=r"l\*kappa must be an integer in \[1, 4\], got"):
            mo.dirichlet_expansion_check(8, 0.5, l, tiny_mollifier_configs()[0], tab)


class TestMollifiedMoments:
    def test_array_equals_the_scalar(self, hecke26k):
        # the README configuration: one call over n = 0..2000 against one
        # call per n, bit for bit
        params = mo.build_params(x=float(2**21), l=2.0, kappa=0.5, eta2=0.2,
                                 c0=2.0, theta0_override=0.08)
        n = np.arange(2001)
        arr = mo.mollifier_value(8 * n, 0.5, params, hecke26k).value
        assert arr.shape == n.shape
        for k in range(2001):
            assert mo.mollifier_value(8 * k, 0.5, params, hecke26k).value == arr[k]

    def test_blocks_positive_and_fourth_bounded(self, big_table, hecke26k, pins):
        from halfint.cli import cmd_moments

        params = mo.build_params(x=float(2**21), l=2.0, kappa=0.5, eta2=0.2,
                                 c0=2.0, theta0_override=0.08)
        blocks = [2**k for k in range(14, 19)]
        rows = cmd_moments(blocks, big_table, params, hecke26k)
        seconds = [r["mollified_second"] for r in rows]
        fourths = [r["mollified_fourth"] for r in rows]
        assert all(s > 0 for s in seconds)
        # band stability and a fixed cap on fourth / second^2
        assert max(seconds) < 1.5 * min(seconds)
        assert all(f / s**2 < 12.0 for f, s in zip(fourths, seconds))
        for r in rows:
            pinned = pins["mollified"][str(r["X"])]
            assert r["mollified_second"] == pytest.approx(pinned["second"], rel=1e-6)
            assert r["mollified_fourth"] == pytest.approx(pinned["fourth"], rel=1e-6)
