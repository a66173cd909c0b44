import math
import subprocess
import sys

import numpy as np
import pytest

from halfint import lvalue
from halfint.arith import enumerate_nflat
from halfint.errors import InsufficientTableError
from halfint.hecke import build_hecke_table
from halfint.lvalue import (
    central_lvalue,
    chi_array,
    first_moment_scan,
    w_kernel,
    w_kernel_oracle,
    waldspurger_ratio,
)
from halfint.cli import cmd_waldspurger, w_kernel_worst


class TestWKernel:
    def test_near_zero_is_one(self):
        assert w_kernel(1e-8, 6) == pytest.approx(1.0, abs=1e-15)

    def test_k6_at_one(self):
        y = 2 * math.pi
        expect = math.exp(-y) * sum(y**m / math.factorial(m) for m in range(6))
        assert w_kernel(1.0, 6) == pytest.approx(expect, rel=1e-15)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.1, 5.0, 50)
        vals = [w_kernel(float(x), 6) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            w_kernel(0.0, 6)

    def test_against_contour_oracle(self):
        assert w_kernel_worst() < 1e-10

    def test_oracle_richardson_stable(self, monkeypatch):
        b = w_kernel_oracle(0.5, 6)
        monkeypatch.setattr(lvalue, "_CONTOUR_STEP", 0.04)
        a = w_kernel_oracle(0.5, 6)
        assert a == pytest.approx(b, abs=1e-11)

    def test_oracle_tail_guard(self, monkeypatch):
        from halfint.errors import ConvergenceError

        monkeypatch.setattr(lvalue, "_CONTOUR_SPAN", 5.0)
        with pytest.raises(ConvergenceError):
            w_kernel_oracle(0.5, 6)

    def test_array_is_the_scalar_elementwise(self):
        x = np.array([1e-8, 0.01, 0.3, 1.0, 2.5, 7.0, 30.0])
        for k in (2, 6):
            w = w_kernel(x, k)
            assert isinstance(w, np.ndarray) and isinstance(w_kernel(0.3, k), float)
            assert w.tolist() == [w_kernel(float(v), k) for v in x]
        with pytest.raises(ValueError):
            w_kernel(np.array([1.0, 0.0]), 6)


class TestLogGamma:
    """lvalue._log_gamma against identities of Gamma, on the real axis and
    on the oracle's lines Re z = 1 + k for k = 2 and 6."""

    T = np.concatenate([np.linspace(-60.0, -0.01, 600), np.linspace(0.01, 60.0, 600)])

    def test_real_axis_is_lgamma(self):
        x = np.linspace(0.5, 80.0, 400)
        exact = np.array([math.lgamma(v) for v in x])
        got = lvalue._log_gamma(x)
        assert np.all(np.abs(got.real - exact) <= 1e-14 * np.maximum(1.0, np.abs(exact)))
        assert np.all(got.imag == 0.0)

    def test_modulus_on_the_oracle_lines(self):
        # |Gamma(n + 1 + it)|^2 = pi t / sinh(pi t) prod_{j=1..n} (j^2 + t^2)
        t = self.T
        for n in (2, 6):
            exact = (np.log(np.pi * np.abs(t)) - np.log(np.sinh(np.pi * np.abs(t)))
                     + sum(np.log(j * j + t * t) for j in range(1, n + 1)))
            got = 2.0 * lvalue._log_gamma(n + 1 + 1j * t).real
            assert np.max(np.abs(got - exact)) < 5e-13

    def test_phase_by_duplication_and_recurrence(self):
        # Gamma(z) Gamma(z + 1/2) = 2^{1-2z} sqrt(pi) Gamma(2z) and
        # Gamma(z + 1) = z Gamma(z), compared through exp so that the 2 pi i
        # freedom of the logarithm drops out
        lg = lvalue._log_gamma
        for k in (2, 6):
            z = 1 + k + 1j * self.T
            dup = (lg(z) + lg(z + 0.5) - lg(2 * z)
                   - (1 - 2 * z) * math.log(2) - 0.5 * math.log(math.pi))
            rec = lg(z + 1) - lg(z) - np.log(z)
            assert np.max(np.abs(np.exp(dup) - 1)) < 1e-12
            assert np.max(np.abs(np.exp(rec) - 1)) < 1e-12


def test_cli_import_leaves_scipy_out():
    code = "import sys, halfint.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestChiArray:
    def test_matches_kronecker(self):
        from halfint.arith import kronecker

        for d in (8, 24, -3, 40):
            chi = chi_array(d, 200)
            for n in range(1, 201):
                assert chi[n] == kronecker(d, n)

    def test_tiled_rows_match_kronecker(self):
        from halfint.arith import kronecker

        # discriminants are tiled by one period |d|; d = 2, 3 mod 4 and d = 0
        # are refused
        for d in (5, 8, 12, 13, 24, 40, 3224, -3, -4, 1):
            N = 3 * abs(d) + 7
            chi = chi_array(d, N)
            assert chi.dtype == np.int8
            assert chi.tolist() == [0] + [kronecker(d, n) for n in range(1, N + 1)]
        for d in (0, -1, 3, 6):
            with pytest.raises(ValueError, match=f"{d} is not a discriminant"):
                chi_array(d, 3 * abs(d) + 7)

    def test_every_discriminant_to_400_matches_kronecker(self):
        # the gather by reciprocity against the per-n symbol, both signs,
        # over two periods and a partial third
        from halfint.arith import kronecker

        for d in range(-400, 401):
            if d == 0 or d % 4 > 1:
                continue
            N = 2 * abs(d) + 9
            expect = [0] + [kronecker(d, n) for n in range(1, N + 1)]
            assert chi_array(d, N).tolist() == expect, d


class TestCentralValue:
    def test_forced_zero_branch(self, hecke26k):
        res = central_lvalue(-8, hecke26k)
        assert res.value == 0.0
        assert res.root_number == -1
        assert res.terms_used == 0

    def test_positive_branch_metadata(self, hecke26k):
        res = central_lvalue(8, hecke26k)
        assert res.root_number == 1
        assert res.terms_used >= 8 * 8
        assert 0 <= res.truncation_bound < 1e-10

    def test_truncation_stability(self, hecke26k):
        # value at the default truncation vs a 4x longer one
        res = central_lvalue(8, hecke26k, tol=1e-8)
        long = _afe_sum(8, hecke26k, 4 * res.terms_used)
        assert abs(res.value - long) <= max(res.truncation_bound, 1e-12)

    def test_d8_nonnegative(self, hecke26k):
        assert central_lvalue(8, hecke26k).value >= -1e-8

    def test_insufficient_table(self):
        small = build_hecke_table(100)
        with pytest.raises(InsufficientTableError):
            central_lvalue(8 * 101, small)

    def test_non_fundamental_rejected(self, hecke26k):
        for bad in (9, 15, 20):
            with pytest.raises(ValueError):
                central_lvalue(bad, hecke26k)


def _afe_sum(d, t, n_terms):
    n_terms = min(n_terms, t.N)
    chi = chi_array(d, n_terms).astype(float)
    n = np.arange(n_terms + 1, dtype=float)
    n[0] = 1.0
    y = 2 * math.pi * n / d
    poly = np.ones_like(y)
    term = np.ones_like(y)
    for m in range(1, 6):
        term = term * y / m
        poly += term
    w = np.exp(-y) * poly
    vals = t.lam[: n_terms + 1] * chi * w / np.sqrt(n)
    return 2.0 * float(np.add.reduce(vals[1:]))


class TestWaldspurger:
    def test_constancy(self, big_table, hecke26k, pins):
        ratios = []
        for d in enumerate_nflat(2000):
            r = waldspurger_ratio(d, big_table, hecke26k)
            if r is not None:
                ratios.append(r)
        arr = np.array(ratios)
        assert arr.size >= 100
        assert float(arr.std() / arr.mean()) < 1e-3
        assert arr.mean() == pytest.approx(pins["waldspurger_mean"], rel=1e-6)

    def test_all_positive(self, big_table, hecke26k):
        for d in enumerate_nflat(600):
            r = waldspurger_ratio(d, big_table, hecke26k)
            assert r is None or r > 0

    def test_vanishing_equivalence(self, big_table, hecke26k):
        # alpha(d) = 0 <=> |L| < 10 tol, with no inconsistency errors raised
        tol = 1e-8
        for d in enumerate_nflat(2000):
            res = central_lvalue(d, hecke26k, tol)
            assert (big_table.a(d) == 0) == (abs(res.value) < 10 * tol)

    def test_inconsistency_flagged(self, big_table, hecke26k):
        # a zeroed coefficient against a visibly nonzero central value
        from halfint.errors import InconsistencyError
        from halfint.qseries import CoeffTable

        alpha = list(big_table.alpha[:101])
        alpha[8] = 0
        synth = CoeffTable(alpha)
        with pytest.raises(InconsistencyError):
            waldspurger_ratio(8, synth, hecke26k)

    def test_one_central_value_per_d_and_tol(self, table10k, monkeypatch):
        # the CLI's rows, the ratios and the first moment all read the central
        # values kept on the table; below 3200 entries cmd_waldspurger(400)
        # would build a table of its own
        t = build_hecke_table(3200)
        rows = cmd_waldspurger(400, 1e-8, hecke_table=t)
        computed = []
        real = lvalue.central_lvalue

        def counting(d, *args, **kwargs):
            computed.append(d)
            return real(d, *args, **kwargs)

        monkeypatch.setattr(lvalue, "central_lvalue", counting)
        ratios = [waldspurger_ratio(d, table10k, t, 1e-8) for d in enumerate_nflat(400)]
        first_moment_scan(400, 3, t)
        assert computed == []
        assert ratios == [row["ratio"] for row in rows]


class TestFirstMoment:
    def test_self_normalization(self, hecke26k):
        assert first_moment_scan(1600, 1, hecke26k) == 1.0

    def test_square_twist_near_one(self, hecke26k):
        # u = 25: leading behavior 1 + O(1/5)
        for x in (1600, 3200):
            val = first_moment_scan(x, 25, hecke26k)
            assert abs(val - 1.0) < 0.25

    def test_square_twist_stability(self, hecke26k, pins):
        a = first_moment_scan(1600, 25, hecke26k)
        b = first_moment_scan(3200, 25, hecke26k)
        assert abs(a - b) / abs(b) < 0.25
        assert a == pytest.approx(pins["first_moment"]["x1600_u25"], rel=1e-6)
        assert b == pytest.approx(pins["first_moment"]["x3200_u25"], rel=1e-6)

    def test_prime_twist_regression(self, hecke26k, pins):
        # Desk-scale values for prime twists are pinned, not derived: the
        # window-to-window agreement the leading term would suggest is not
        # reachable at these x (the error term dominates for u = p).
        for x in (1600, 3200):
            got = first_moment_scan(x, 5, hecke26k)
            assert got == pytest.approx(pins["first_moment"][f"x{x}_u5"], rel=1e-6)

    def test_table_not_kept_alive(self):
        import gc
        import weakref

        t = build_hecke_table(1600)
        first_moment_scan(200, 1, t)
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None

    def test_window_rows_stay_on_table(self, monkeypatch):
        # the central values of every x scanned on a table are reused while
        # the table lives, for every twist and however many other x were
        # scanned in between
        t = build_hecke_table(1600)
        xs = [200 - 10 * i for i in range(9)]
        first = [first_moment_scan(x, 3, t) for x in xs]
        computed = []
        real = lvalue.central_lvalue

        def counting(d, *args, **kwargs):
            computed.append(d)
            return real(d, *args, **kwargs)

        monkeypatch.setattr(lvalue, "central_lvalue", counting)
        again = [first_moment_scan(x, 3, t) for x in xs]
        first_moment_scan(xs[0], 5, t)
        assert computed == []
        assert again == first

    def test_even_twist_rejected(self, hecke26k):
        with pytest.raises(ValueError):
            first_moment_scan(1600, 2, hecke26k)

    def test_bump_window_support(self):
        phi = lvalue._bump
        assert phi(0.5) == 0.0
        assert phi(1.0) == 0.0
        assert phi(0.75) > 0.0
