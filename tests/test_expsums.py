import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint import cli, expsums
from halfint.arith import euler_phi, kronecker, kronecker_row, primes_up_to
from halfint.errors import BudgetExceededError, ConvergenceError, InsufficientTableError
from halfint.expsums import (
    automorphy_factor,
    build_jutila_system,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    jutila_l2_defect,
    modularity_check,
    poisson_check,
    shifted_convolution,
)
from halfint.cli import modularity_panel, modularity_worst, poisson_worst
from halfint.qseries import delta_halfintegral


class TestGaussSums:
    def test_square_modulus_gives_phi(self):
        assert gauss_sum_closed(0, 9) == 6.0
        assert abs(gauss_sum_bruteforce(0, 9) - 6.0) < 1e-10

    def test_nonsquare_modulus_vanishes(self):
        assert gauss_sum_closed(0, 3) == 0.0
        assert abs(gauss_sum_bruteforce(0, 3)) < 1e-10

    def test_prime_case(self):
        assert gauss_sum_closed(1, 5) == pytest.approx(math.sqrt(5), rel=1e-14)

    def test_high_power_vanishes(self):
        assert gauss_sum_closed(1, 9) == 0.0  # beta >= alpha + 2

    def test_even_square_power(self):
        # beta = 2 <= alpha = 2, even: phi(p^2)
        for p in (3, 5, 7):
            assert gauss_sum_closed(p * p, p * p) == p * (p - 1)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            gauss_sum_closed(1, 4)
        with pytest.raises(ValueError):
            gauss_sum_bruteforce(1, 4)

    def test_prime_magnitudes_match_case_analysis(self):
        # at a prime modulus: 0 when p | l, else magnitude sqrt(p)
        for p in primes_up_to(97):
            if p == 2:
                continue
            for l in range(1, 13):
                val = abs(gauss_sum_closed(l, p))
                if l % p == 0:
                    assert val == 0.0
                else:
                    assert val == pytest.approx(math.sqrt(p), rel=1e-12)

    def test_root_table_phases_equal_the_direct_exp(self):
        # the direct exp at every a is the reference for the gathered roots,
        # and the sum over it for the brute force: the same floats, not close
        for n in range(1, 200, 2):
            pref_held, a_held, _, roots = expsums._gauss_tables(n)
            a = np.arange(n)
            pref = (1 - 1j) / 2 + kronecker(-1, n) * (1 + 1j) / 2
            assert pref_held == pref and np.array_equal(a_held, a), n
            for l in range(-60, 61):
                phase = np.exp(2j * np.pi * ((a * (l % n)) % n) / n)
                assert np.array_equal(roots[(a * (l % n)) % n], phase), (l, n)
                direct = complex(pref * np.dot(kronecker_row(n), phase))
                assert gauss_sum_bruteforce(l, n) == direct, (l, n)

    def test_multiplicativity_against_bruteforce(self):
        for n1, n2 in ((9, 25), (3, 35), (15, 49)):
            for l in (1, 2, 7):
                lhs = gauss_sum_bruteforce(l, n1 * n2)
                rhs = gauss_sum_closed(l, n1) * gauss_sum_closed(l, n2)
                assert abs(lhs - rhs) < 1e-8


def _list_sweep(Q, eta, D):
    """The float defect from Python endpoint lists in a stable sort, and the
    number of tied endpoints."""
    sys_ = build_jutila_system(Q, eta, D)
    delta = float(Q) ** (eta - 2.0)
    weight = float(Q) ** (2.0 - eta) / (2.0 * sys_.L)
    centres = [d / q for q in sys_.Qset for d in range(1, q + 1) if math.gcd(d, q) == 1]
    pos = np.array([c - delta for c in centres] + [c + delta for c in centres] + [0.0, 1.0])
    step = np.array([1.0] * len(centres) + [-1.0] * len(centres) + [0.0, 0.0])
    order = np.argsort(pos, kind="stable")
    pos, step = pos[order], step[order]
    cov = np.cumsum(step)[:-1]
    inside = (pos[:-1] >= 0.0) & (pos[1:] <= 1.0)
    val = inside.astype(np.float64) - weight * cov
    ties = int(np.count_nonzero(np.diff(pos) == 0.0))
    return float(np.add.reduce(val * val * np.diff(pos))), ties


def _coprime_rows(Qset):
    """(d, q) for 1 <= d <= q with gcd(d, q) = 1 by np.gcd, q in Qset, in
    modulus order."""
    rows = []
    for q in Qset:
        d = np.arange(1, q + 1)
        d = d[np.gcd(d, q) == 1]
        rows.append((d, np.full(d.size, q)))
    return np.concatenate([d for d, _ in rows]), np.concatenate([q for _, q in rows])


def _argsort_sweep(Q, eta, D):
    """The float defect with every endpoint in one argsort over arrays, in
    modulus order: the sweep before the block merge."""
    sys_ = build_jutila_system(Q, eta, D)
    delta = float(Q) ** (eta - 2.0)
    weight = float(Q) ** (2.0 - eta) / (2.0 * sys_.L)
    L = sys_.L
    d, q = _coprime_rows(sys_.Qset)
    centres = d / q
    pos = np.concatenate((centres - delta, centres + delta, [0.0, 1.0]))
    step = np.zeros(2 * L + 2, dtype=np.int8)
    step[:L] = 1
    step[L : 2 * L] = -1
    order = np.argsort(pos)
    pos, step = pos[order], step[order]
    cov = np.cumsum(step[:-1], dtype=np.float64) * weight
    inside = (pos[:-1] >= 0.0) & (pos[1:] <= 1.0)
    val = np.subtract(inside, cov)
    return float(np.add.reduce(val * val * np.diff(pos)))


def _fraction_sweep(Q, eta, D):
    """The exact defect with a Fraction for every endpoint and segment."""
    sys_ = build_jutila_system(Q, eta, D)
    dfrac = Fraction(float(Q) ** (eta - 2.0))
    wfrac = Fraction(float(Q) ** (2.0 - eta) / (2.0 * sys_.L))
    events = [(Fraction(0), 0), (Fraction(1), 0)]
    for q in sys_.Qset:
        for d in range(1, q + 1):
            if math.gcd(d, q) == 1:
                events += [(Fraction(d, q) - dfrac, 1), (Fraction(d, q) + dfrac, -1)]
    events.sort()
    total = Fraction(0)
    cov = 0
    for (x, s), (y, _) in zip(events, events[1:]):
        cov += s
        if y != x:
            val = (1 if x >= 0 and y <= 1 else 0) - wfrac * cov
            total += val * val * (y - x)
    return float(total)


class TestStreamedSum:
    # the float sweep's defect is bit-identical to one np.add.reduce over all
    # its terms only while numpy splits its pairwise float64 sum where
    # _streamed_sum does; a failure here means numpy's rule changed, and the
    # sweep is still a pairwise sum with the same error bound

    @staticmethod
    def _check(n, rng, most):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
        cuts = np.cumsum(rng.integers(1, most + 1, n))
        pieces = (p for p in np.split(a, cuts[cuts < n]))
        assert expsums._streamed_sum(pieces, n) == np.add.reduce(a), n

    def test_lengths_up_to_300(self):
        rng = np.random.default_rng(1)
        for leaf in (8, 129, expsums._SUM_LEAF):
            with mock.patch.object(expsums, "_SUM_LEAF", leaf):
                for n in range(1, 301):
                    self._check(n, rng, 40)

    def test_leaf_multiples(self):
        rng = np.random.default_rng(2)
        leaf = expsums._SUM_LEAF
        for k in (1, 2, 3, 4):
            for n in (k * leaf - 1, k * leaf, k * leaf + 1):
                self._check(n, rng, 3 * leaf)

    def test_past_two_to_the_twenty(self):
        rng = np.random.default_rng(3)
        n = (1 << 20) + 3
        self._check(n, rng, 3 * expsums._SUM_LEAF)
        with mock.patch.object(expsums, "_SUM_LEAF", 8):
            self._check(n, rng, 1000)

    def test_refuses_a_wrong_term_count(self):
        a = np.ones(10)
        with pytest.raises(ValueError, match="fewer"):
            expsums._streamed_sum([a], 11)
        with pytest.raises(ValueError, match="more"):
            expsums._streamed_sum([a, a[:1]], 10)


class TestJutila:
    def test_empty_modulus_set(self):
        # r must run over primes = 1 mod 4 in [6, 12]: there are none
        sys_ = build_jutila_system(24, 1.0, 1)
        assert sys_.L == 0
        assert jutila_l2_defect(24, 1.0, 1) == 1.0

    def test_q_below_one_is_refused(self):
        # Q^(eta/2) is complex for Q < 0; Q = 1..3 still give no moduli
        for Q in (-5, 0, 0.5):
            with pytest.raises(ValueError, match=f"Q must be at least 1, got {Q}"):
                build_jutila_system(Q, 0.5, 1)
        for Q in (1, 2, 3):
            assert build_jutila_system(Q, 0.5, 1).L == 0
            assert jutila_l2_defect(Q, 0.5, 1) == 1.0

    def test_modulus_set_structure(self):
        sys_ = build_jutila_system(2000, 0.5, 1)
        assert sys_.L == sum(math.gcd(a, q) == 1 for q in sys_.Qset for a in range(1, q + 1))
        for q in sys_.Qset:
            r = q // 4
            assert 4 * r == q and r % 4 == 1
            assert all(r % p for p in range(2, math.isqrt(r) + 1))
            assert 2000 <= q <= 4000

    def test_delta_two_structure(self):
        sys_ = build_jutila_system(2000, 1.0, 2)
        assert sys_.Qset
        for q in sys_.Qset:
            assert q % 8 == 0
            r = q // 8
            assert r % 4 == 1
            assert all(r % p for p in range(2, math.isqrt(r) + 1))

    def test_single_modulus_hand_formula(self):
        # Q=20, Delta=1: only q=20 (r=5); disjoint arcs of half-width delta
        sys_ = build_jutila_system(20, 0.5, 1)
        assert sys_.Qset == (20,)
        L = sys_.L
        assert L == 8
        delta = 20.0 ** (0.5 - 2.0)
        w = 20.0 ** (2.0 - 0.5) / (2 * L)
        # integral = 1 - 2*w*(2 delta)*L + w^2 (2 delta) L  (arcs inside [0,1])
        hand = 1.0 - 2 * w * 2 * delta * L + w * w * 2 * delta * L
        assert jutila_l2_defect(20, 0.5, 1) == pytest.approx(hand, rel=1e-12)

    def test_float_certified_by_exact(self):
        # rational mode sweeps the rational centres d/q +- delta, not the
        # float endpoints; the certification point is the lower end of the
        # acceptance grid
        for Q in (300, 600, 2000):
            f = jutila_l2_defect(Q, 0.5, 1)
            e = jutila_l2_defect(Q, 0.5, 1, exact=True)
            assert f == pytest.approx(e, abs=1e-9)

    def test_array_sweep_equals_the_list_sweep(self):
        # both must give the same float, not a close one; (100, 1, 10) has
        # tied endpoints, where the array sweep's sort order may differ
        ties = 0
        for Q, eta, D in ((20, 0.5, 1), (300, 0.5, 1), (2000, 0.5, 1), (2000, 1.0, 2),
                          (100, 1.0, 10), (3000, 0.8, 3)):
            defect, tied = _list_sweep(Q, eta, D)
            assert jutila_l2_defect(Q, eta, D) == defect
            ties += tied
        assert ties > 0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(r=st.sampled_from([5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]),
           D=st.integers(1, 6), k=st.sampled_from([1, 2]),
           eta=st.one_of(st.just(1.0), st.floats(0.3, 1.0)))
    def test_any_order_of_ties_gives_the_stable_defect(self, r, D, k, eta):
        # at eta = 1 the half-width is 1/Q, and Q = 4 D r / k puts arc ends
        # of the modulus 4 D r on arc starts or on 0: those grids tie
        Q = 4 * D * r // k
        D = max(1, min(D, math.floor(Q ** (eta / 2))))
        if build_jutila_system(Q, eta, D).L == 0:
            assert jutila_l2_defect(Q, eta, D) == 1.0
            return
        defect, tied = _list_sweep(Q, eta, D)
        assert jutila_l2_defect(Q, eta, D) == defect
        assert tied or eta != 1.0

    def test_block_sweep_equals_the_argsort_sweep(self):
        # the README grid, where each sweep spans many blocks
        for Q in (2000, 4000, 8000, 16000):
            assert jutila_l2_defect(Q, 0.5, 1) == _argsort_sweep(Q, 0.5, 1), Q

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(r=st.sampled_from([5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]),
           D=st.integers(1, 6), k=st.sampled_from([1, 2]),
           eta=st.one_of(st.just(1.0), st.floats(0.3, 1.0)), block=st.integers(1, 4),
           leaf=st.sampled_from([8, 9, 128, 129]))
    def test_small_blocks_give_the_argsort_defect(self, r, D, k, eta, block, leaf):
        # blocks of a few starts put tied endpoints, and 0.0, on block edges,
        # and small leaves put leaf edges among them
        Q = 4 * D * r // k
        D = max(1, min(D, math.floor(Q ** (eta / 2))))
        if build_jutila_system(Q, eta, D).L == 0:
            return
        with mock.patch.object(expsums, "_SWEEP_BLOCK", block), \
                mock.patch.object(expsums, "_SUM_LEAF", leaf):
            assert jutila_l2_defect(Q, eta, D) == _argsort_sweep(Q, eta, D)

    def test_block_edges_on_ties_and_on_zero(self):
        # each nonempty slice is a block, and slice k of K = ceil(L / block)
        # holds the d/q in (k/K, (k+1)/K]; a block edge is the first start
        # of a block after the first. On every grid some edge ties an arc
        # end of an earlier slice; on the second an edge is the start 0.0;
        # on the third some slice holds no centre; on the last r = 5
        # divides Delta
        for grid, block, zero, empty in (((68, 1.0, 1), 4, False, False),
                                         ((52, 1.0, 1), 1, True, True),
                                         ((156, 1.0, 3), 2, False, True),
                                         ((100, 1.0, 10), 2, False, False)):
            sys_ = build_jutila_system(*grid)
            d, q = _coprime_rows(sys_.Qset)
            K = -(-sys_.L // block)
            k = (d * K - 1) // q
            order = np.lexsort((d / q, k))
            centres, k = (d / q)[order], k[order]
            delta = float(grid[0]) ** (grid[1] - 2.0)
            firsts = np.flatnonzero(k[1:] != k[:-1]) + 1
            edges = centres[firsts] - delta
            assert any(e in centres[:i] + delta for e, i in zip(edges, firsts)), grid
            assert (0.0 in edges) == zero, grid
            assert (np.bincount(k, minlength=K) == 0).any() == empty, grid
            with mock.patch.object(expsums, "_SWEEP_BLOCK", block):
                assert jutila_l2_defect(*grid) == _argsort_sweep(*grid)

    def test_float_sweep_memory(self):
        # in a fresh interpreter (ru_maxrss in KiB, as Linux reports it): the
        # centres come one slice at a time and the terms are summed as the
        # sweep runs, so the growth does not follow L (2.8e6 arcs at Q =
        # 16000, 1.0e7 at 32000). Sorting all centres at once grew 28 and
        # 85 MB; the slices grew about 2.5 and 2.8
        code = ("import resource, sys; from halfint.expsums import jutila_l2_defect as j\n"
                "j(20, 0.5, 1); r = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "j(int(sys.argv[1]), 0.5, 1)\n"
                "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - r) / 1024)")
        grown = [float(subprocess.run([sys.executable, "-c", code, str(Q)], capture_output=True,
                                      text=True, check=True, timeout=120).stdout)
                 for Q in (16000, 32000)]
        assert grown[0] <= 8
        assert grown[1] <= grown[0] + 2, grown

    def test_integer_sweep_equals_the_fraction_sweep(self):
        for Q, eta, D in ((20, 0.5, 1), (200, 0.5, 1), (600, 0.5, 1), (100, 1.0, 10)):
            assert jutila_l2_defect(Q, eta, D, exact=True) == _fraction_sweep(Q, eta, D)

    def test_defect_bounds_and_trend(self, pins):
        defects = {}
        for Q in (2000, 4000, 8000, 16000):
            d = jutila_l2_defect(Q, 0.5, 1)
            defects[Q] = d
            assert 0.0 <= d <= 1.0 + 1e-9
            assert d == pytest.approx(pins["jutila_defects"][str(Q)], rel=1e-9)
        assert defects[2000] > defects[4000] > defects[8000] > defects[16000]

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            build_jutila_system(100, 0.5, 50)

    def test_arc_count_is_the_phi_sum(self):
        # (100, 1, 10) has r = 5 dividing Delta
        grid = [(Q, eta, D) for Q in (20, 100, 300, 1000, 2000, 4100)
                for eta in (0.5, 0.8, 1.0) for D in (1, 2, 3, 5, 6, 10, 12)
                if D <= Q ** (eta / 2)]
        assert (100, 1.0, 10) in grid
        for Q, eta, D in grid:
            sys_ = build_jutila_system(Q, eta, D)
            assert sys_.L == sum(euler_phi(q) for q in sys_.Qset), (Q, eta, D)
        assert build_jutila_system(100, 1.0, 10).Qset == (200,)

    def test_oversized_grid_refused_before_phi_per_modulus(self, monkeypatch, capsys):
        calls = []

        def counted(n):
            calls.append(n)
            return euler_phi(n)

        monkeypatch.setattr(expsums, "euler_phi", counted)
        assert cli.main(["jutila", "--qgrid", "2000000"]) == 3
        assert "arc endpoints exceed budget" in capsys.readouterr().err
        assert len(calls) <= 1


    def test_oversized_grid_refused_before_sieving(self, monkeypatch):
        # at Q = 2e8 the first admissible r (above 5e7) alone puts 2L past
        # the endpoint budget, so no sieve may run
        def no_sieve(n):
            raise AssertionError(f"sieved to {n}")

        monkeypatch.setattr(expsums, "primes_up_to", no_sieve)
        with pytest.raises(BudgetExceededError, match="arc endpoints exceed budget"):
            build_jutila_system(2e8, 0.5, 1)

    def test_exact_sweep_has_its_own_budget(self, monkeypatch):
        # Q = 8000 is well inside the float sweep's budget, but its 2L =
        # 1 446 640 integer events would hold about 300 MB: the exact sweep
        # refuses it before its common denominator or any event is made
        assert 2 * build_jutila_system(8000, 0.5, 1).L == 1_446_640

        def no_events(*args):
            raise AssertionError("the exact sweep started building its events")

        monkeypatch.setattr(expsums, "lcm", no_events)
        with pytest.raises(BudgetExceededError, match="exceed the exact sweep's budget"):
            jutila_l2_defect(8000, 0.5, 1, exact=True)

    def test_oversized_grid_refused_without_a_search(self, monkeypatch):
        # Breusch's theorem guarantees an admissible r in (Q/4, Q/2), so no
        # trial division or sieve may look for one
        def no_search(n):
            raise AssertionError(f"searched at {n}")

        monkeypatch.setattr(expsums, "factorize_small", no_search)
        monkeypatch.setattr(expsums, "primes_up_to", no_search)
        with pytest.raises(BudgetExceededError, match="arc endpoints exceed budget"):
            build_jutila_system(1e16, 0.5, 1)


class TestPoisson:
    def test_trivial_character(self):
        assert poisson_check(1, 5.0) < 1e-12

    def test_examples(self):
        assert poisson_check(9, 5.0) < 1e-8
        assert poisson_check(15, 3.0) < 1e-8

    def test_all_odd_moduli_to_45(self):
        assert poisson_worst(46) < 1e-8


class TestShiftedConvolution:
    def test_trivial_bound(self, big_table):
        val = shifted_convolution(1, 0, 1, 1.0e4, big_table)
        assert abs(val) < 1.0e4

    def test_conjugation_symmetry(self, big_table):
        a = shifted_convolution(1, 1, 3, 4096.0, big_table)
        b = shifted_convolution(1, -1, 3, 4096.0, big_table)
        assert a == pytest.approx(b.conjugate(), rel=1e-12)

    def test_slope_below_one(self, big_table, pins):
        xs = [2.0**k for k in range(12, 18)]
        vals = [abs(shifted_convolution(1, 1, 3, X, big_table)) for X in xs]
        slope = float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
        assert slope < 0.999
        assert slope == pytest.approx(pins["shifted_slope"], abs=1e-6)

    def test_table_guard(self, table10k):
        with pytest.raises(InsufficientTableError):
            shifted_convolution(1, 1, 3, 1.0e4, table10k)

    def test_bad_arguments(self, big_table):
        with pytest.raises(ValueError):
            shifted_convolution(0, 1, 3, 100.0, big_table)
        with pytest.raises(ValueError):
            shifted_convolution(1, 2, 4, 100.0, big_table)


class TestModularity:
    def test_identity(self, table10k):
        assert modularity_check((1, 0, 0, 1), 0.3 + 0.8j, table10k) == 0.0

    def test_translation(self, table10k):
        assert modularity_check((1, 1, 0, 1), 0.3 + 0.8j, table10k) < 1e-10

    def test_inversion_like_element(self, table10k):
        assert modularity_check((1, 0, 4, 1), 0.5j, table10k) < 1e-8

    def test_panel(self, table10k):
        assert len(modularity_panel()) == 20
        assert modularity_worst(table10k) < 1e-8

    def test_negative_d_normalized(self, table10k):
        # gamma and -gamma act identically
        a = modularity_check((1, 0, 4, 1), 0.5j, table10k)
        b = modularity_check((-1, 0, -4, -1), 0.5j, table10k)
        assert a == b

    def test_negative_entries(self, table10k):
        for gamma in [(1, 0, -4, 1), (3, -1, -8, 3), (1, -1, 4, -3), (-5, -1, 16, 3)]:
            a, b, c, d = gamma
            z = complex(-d / c + 0.01, 1.0 / abs(c))
            assert modularity_check(gamma, z, table10k) < 1e-8

    def test_gauss_negative_twists_prime_powers(self):
        for n in (27, 81, 135, 375, 675):
            for l in (-54, -27, -18, -9, -45, -25, 45, 135):
                bf = gauss_sum_bruteforce(l, n)
                cf = gauss_sum_closed(l, n)
                assert abs(bf - cf) < 1e-10

    def test_multiplier_unit_modulus(self):
        fac = automorphy_factor((1, 0, 4, 1), 0.5j)
        assert abs(abs(fac.nu) - 1.0) < 1e-15
        fac3 = automorphy_factor((3, 2, 4, 3), 0.25 + 0.5j)
        assert fac3.nu == kronecker(4, 3) * (1j ** (13 % 4)).conjugate()

    def test_bad_matrices_rejected(self, table10k):
        with pytest.raises(ValueError):
            modularity_check((1, 0, 2, 1), 0.5j, table10k)
        with pytest.raises(ValueError):
            modularity_check((2, 0, 4, 1), 0.5j, table10k)

    def test_low_point_guarded(self, table10k):
        with pytest.raises(ConvergenceError):
            modularity_check((1, 0, 4, 1), 0.001 + 0.001j, table10k)

    def test_short_table_guarded(self):
        # the series at Im z = 1/8 needs 20 / (1/8) = 160 terms
        with pytest.raises(ConvergenceError, match="needs 160 coefficients at Im z = 0.1250, "
                                                   "table holds 100"):
            modularity_check((1, 0, 0, 1), 0.3 + 0.125j, delta_halfintegral(100))
