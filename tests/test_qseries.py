import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint import cli, qseries
from halfint.arith import SIGMA3_INT64_LIMIT
from halfint.errors import CapacityError, ChecksumError, FormatError, InconsistencyError
from halfint.qseries import (
    CoeffTable,
    delta_halfintegral,
    delta_halfintegral_reference,
    delta_integral,
    load_coeffs,
    save_coeffs,
)


def divisors(n):
    """The divisors of n >= 1, from a trial-division factorization of its own
    (independent of halfint.arith)."""
    divs = [1]
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        p += 1 if p == 2 else 2
    if n > 1:
        divs += [d * n for d in divs]
    return divs


def alpha_bruteforce(n):
    """alpha(n) = (E*B - 60*C*D)(n) summed over n = m^2 + 4b in Python ints,
    with sigma3 from divisor lists (independent of the builder's tables)."""
    total = 0
    for m in range(math.isqrt(n) + 1):
        if (n - m * m) % 4:
            continue
        b = (n - m * m) // 4
        s3 = sum(d**3 for d in divisors(b)) if b else 0
        if m:
            total += m * m * (240 * s3 if b else 1)
        if b:
            total -= 60 * (2 if m else 1) * b * s3
    return total


@st.composite
def faulty_csv_rows(draw):
    """A valid table's (n, alpha) rows in any order, and the same rows with
    one fault: an index n missing below the largest, an index repeated, or
    an index n <= 0."""
    N = draw(st.integers(2, 30))
    ns = draw(st.permutations(range(1, N + 1)))
    i = draw(st.integers(0, N - 1))
    fault = draw(st.sampled_from(["gap", "duplicate", "nonpositive"]))
    bad = list(ns)
    if fault == "gap":
        if draw(st.booleans()):
            bad[i] = draw(st.integers(N + 1, 2 * N))
        else:
            bad.remove(draw(st.integers(1, N - 1)))
    elif fault == "duplicate":
        again = draw(st.integers(1, N))
        if draw(st.booleans()):
            bad.insert(i, again)
        elif bad[i] != again:
            bad[i] = again
        else:
            bad.append(again)
    else:
        low = draw(st.integers(-(2**70), 0))
        if draw(st.booleans()):
            bad.insert(i, low)
        else:
            bad[i] = low
    values = draw(st.lists(st.integers(-(2**70), 2**70), min_size=N + 1, max_size=N + 1))
    return list(zip(ns, values)), list(zip(bad, values)), fault


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=faulty_csv_rows(), header=st.booleans())
def test_csv_with_gap_duplicate_or_nonpositive_index_is_rejected(tmp_path_factory, case, header):
    good, bad, fault = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    head = "n,alpha\n" if header else ""
    path.write_text(head + "".join(f"{n},{v}\n" for n, v in good))
    back = load_coeffs(str(path))
    assert back.N == len(good)
    assert [int(back.alpha[n]) for n, _ in good] == [v for _, v in good]
    path.write_text(head + "".join(f"{n},{v}\n" for n, v in bad))
    with pytest.raises(FormatError):
        load_coeffs(str(path))


@pytest.fixture(scope="module")
def table_past_int64():
    return delta_halfintegral(3_952_000)


class TestDeltaHalfIntegral:
    def test_divisor_oracle(self):
        for n in range(1, 500):
            assert sorted(divisors(n)) == [d for d in range(1, n + 1) if n % d == 0], n
        assert sorted(divisors(987_840)) == [d for d in range(1, 987_841) if 987_840 % d == 0]

    def test_leading_values(self):
        t = delta_halfintegral(20)
        assert t.a(1) == 1
        assert t.a(4) == -56
        assert t.a(2) == 0 and t.a(3) == 0

    def test_fast_equals_reference_to_2000(self):
        # whole tables: at every small N the builder's rows and its one tile
        # are partial
        for N in [*range(1, 65), 2000]:
            fast = delta_halfintegral(N)
            ref = delta_halfintegral_reference(N)
            assert np.array_equal(fast.alpha, ref.alpha), N

    @pytest.mark.parametrize("build", [delta_halfintegral, delta_halfintegral_reference])
    def test_builders_refuse_n_below_one(self, build):
        with pytest.raises(ValueError, match="N must be >= 1"):
            build(0)

    def test_high_limbs_match_bruteforce(self):
        # the builder splits sigma3(b) at 2^32 and b sigma3(b) at 2^42; the
        # reference test above has b <= 500, where both high limbs are 0.
        # Here n = 5500..8000 reaches b up to 2000, past the first b with
        # either high limb nonzero
        s3 = [sum(d**3 for d in divisors(b)) for b in range(1, 2001)]
        first_sig = 1 + min(i for i, v in enumerate(s3) if v >= 2**qseries._SIG_BITS)
        first_bsig = 1 + min(i for i, v in enumerate(s3) if (i + 1) * v >= 2**qseries._BSIG_BITS)
        assert (first_sig, first_bsig) == (1548, 1392)
        assert 5500 <= 4 * first_bsig < 4 * first_sig <= 8000
        t = delta_halfintegral(8000)
        band = [n for n in range(5500, 8001) if n % 4 in (0, 1)]
        assert len(band) == 1251
        for n in band:
            assert t.a(n) == alpha_bruteforce(n), n

    def test_tile_width_does_not_change_alpha(self, monkeypatch):
        default = delta_halfintegral(20_000)
        monkeypatch.setattr(qseries, "_TILE", 64)
        assert np.array_equal(delta_halfintegral(20_000).alpha, default.alpha)

    def test_limb_sums_stay_exact(self):
        # every limb is below max(2^32, 2^63 >> 32, 2^42, (b 2^63) >> 42)
        # with b <= SIGMA3_INT64_LIMIT, and an entry sums one term per m of
        # one parity; below 2^53 each sum is exact in int64 (no wrap) and
        # in float64, whatever the two constants become
        b_max = qseries._FAST_N_CAP // 4
        assert b_max <= SIGMA3_INT64_LIMIT
        sig_max = 2**63 - 1
        limb = max(1 << qseries._SIG_BITS, sig_max >> qseries._SIG_BITS,
                   1 << qseries._BSIG_BITS, (b_max * sig_max) >> qseries._BSIG_BITS)
        terms = math.isqrt(qseries._FAST_N_CAP) // 2 + 1
        assert terms == 1397
        assert terms * limb < 2**53

    def test_matches_bruteforce_past_int64(self, table_past_int64):
        # sigma3(b) passes 2^60 at b = 987840, i.e. from n = 3951361 on, and
        # alpha(3799816) passes 2^63, so its int64 residue must be lifted
        t = table_past_int64
        for n in (1_000_001, 2_100_000, 3_000_001, 3_099_996,
                  3_799_816, 3_951_361, 3_951_364, 3_951_369, t.N):
            assert t.a(n) == alpha_bruteforce(n), n
        assert abs(t.a(3_799_816)) >= 2**63
        assert t.alpha.dtype == object

    def test_wide_table_is_kept_as_built(self, table_past_int64, tmp_path, monkeypatch):
        # the table's HICF checksum, recorded while CoeffTable still
        # converted every entry of the builder's array again
        path = tmp_path / "t.hicf"
        save_coeffs(table_past_int64, str(path))
        assert path.read_bytes()[-8:].hex() == "2b5db0c97e5b809b"

        # an object array is taken as it is: no entry is converted again
        def refuse(v):
            raise AssertionError("an entry was converted")

        monkeypatch.setattr(qseries.operator, "index", refuse)
        again = CoeffTable(alpha=table_past_int64.alpha)
        assert again.alpha is table_past_int64.alpha and again.N == 3_952_000

    def test_lift_window_guard(self, monkeypatch):
        # the window at N = 1e4 is about 2^10.8; a cap below it must refuse
        monkeypatch.setattr(qseries, "_LIFT_WINDOW_CAP", 2.0**8)
        with pytest.raises(CapacityError):
            delta_halfintegral(10_000)

    def test_fresh_build_checksum_2100000(self, big_table, tmp_path, pins):
        # the one save/load round trip at full size
        path = tmp_path / "t.hicf"
        save_coeffs(big_table, str(path))
        data = path.read_bytes()
        assert data[-8:].hex() == pins["hicf_checksum_2100000"]
        # the loader's lane walk certifies the record starts of the full table
        buf = np.frombuffer(data, dtype=np.uint8)
        walked = qseries._lane_offsets(buf, 20, len(data) - 8, big_table.N)
        assert walked is not None
        sequential = np.fromiter(qseries._record_offsets(data, 20, big_table.N), np.int64)
        assert np.array_equal(walked, sequential)
        back = load_coeffs(str(path))
        assert back.alpha.dtype == np.int64
        assert np.array_equal(back.alpha, big_table.alpha)

    def test_plus_space_support(self, big_table):
        assert big_table.support_violations().size == 0

    def test_integrality_via_reference(self):
        # the 1/240 constant term must cancel; the reference asserts this
        ref = delta_halfintegral_reference(300)
        assert ref.alpha.dtype == np.int64

    def test_parseval_band(self, big_table, pins):
        c2 = big_table.c_array() ** 2
        cs = np.cumsum(c2)
        ratios = []
        X = 16384
        while X <= big_table.N:
            ratios.append(cs[X] / X)
            X *= 2
        lo, hi = min(ratios), max(ratios)
        assert 0 < lo <= hi
        pinned = pins["parseval_ratios"]
        for X_str, val in pinned.items():
            got = cs[int(X_str)] / int(X_str)
            assert got == pytest.approx(val, rel=1e-6)


class TestTau:
    def test_leading_values(self):
        tau = delta_integral(10)
        assert tau[1] == 1
        assert tau[2] == -24

    def test_hecke_multiplicativity(self):
        tau = delta_integral(40)
        assert tau[6] == tau[2] * tau[3]
        assert tau[10] == tau[2] * tau[5]
        assert tau[4] == tau[2] ** 2 - 2**11

    def test_sparse_route_vs_naive_product(self):
        from halfint.cli import _tau_naive

        assert delta_integral(2000) == _tau_naive(2000)

    def test_sparse_square_matches_dense_product(self):
        for N in [*range(1, 40), 1000, 2999, 3000]:
            m = np.arange(N)
            m = m[m * (m + 1) // 2 < N]
            cube = np.zeros(N, dtype=np.int64)
            cube[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
            assert np.array_equal(qseries._eta3_squared(N), np.convolve(cube, cube)[:N]), N

    def test_int64_bounds_hold_to_the_budget(self):
        # from the prime selection alone: each run of primes the lift joins
        # in int64 multiplies to below 2^64, every prime is odd (balanced
        # digits) and below 2^16, and the exact square's entries, at most
        # M (2M+1)^2 for M terms, stay below 2^37
        budget = qseries._TAU_BUDGET
        grid = sorted({*range(1, 50), *np.geomspace(50, budget, 120).astype(int).tolist(),
                       26_000, 100_000, budget})
        for N in grid:
            primes = qseries._tau_primes(N)
            groups = qseries._lift_groups(primes)
            assert [p for g in groups for p in g] == primes
            assert all(math.prod(g) < 2**64 for g in groups), N
            assert all(p % 2 == 1 and p < 2**16 for p in primes), N
            assert math.prod(primes) > 4 * N**6
            M = sum(1 for m in range(math.isqrt(2 * N) + 1) if m * (m + 1) // 2 < N)
            assert M * (2 * M + 1) ** 2 < 2**37 < 2**63, N
        # at N = 26000, six primes join as runs of four and two
        assert [len(g) for g in qseries._lift_groups(qseries._tau_primes(26_000))] == [4, 2]

    def test_fft_product_mod_p(self):
        rng = np.random.default_rng(7)
        p, h = 65521, 65521 // 2
        a = rng.integers(-h, h + 1, 300)
        b = rng.integers(-h, h + 1, 200)
        exact = [sum(int(a[i]) * int(b[k - i]) for i in range(max(0, k - 199), min(k, 299) + 1))
                 for k in range(250)]
        want = (np.array([v % p for v in exact]) + h) % p - h
        assert np.array_equal(qseries._fft_mul_mod(a, b, p, 250), want)
        # Percival's bound is checked on the operands before any FFT
        big = np.full(20_000, h, dtype=np.int64)
        with pytest.raises(InconsistencyError, match="error bound"):
            qseries._fft_mul_mod(big, big, p, 20_000)


class TestCoeffCache:
    def test_roundtrip(self, tmp_path):
        t = delta_halfintegral(10_000)
        path = tmp_path / "t.hicf"
        save_coeffs(t, str(path))
        back = load_coeffs(str(path))
        assert back.N == t.N
        assert np.array_equal(back.alpha, t.alpha)

    def test_save_leaves_only_the_target(self, tmp_path):
        t = delta_halfintegral(300)
        for name in ("t.hicf", "t.csv"):
            save_coeffs(t, str(tmp_path / name))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.hicf"]

    def test_truncated_file_fails_checksum(self, tmp_path):
        t = delta_halfintegral(500)
        path = tmp_path / "t.hicf"
        save_coeffs(t, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(ChecksumError):
            load_coeffs(str(path))

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        t = delta_halfintegral(500)
        path = tmp_path / "t.hicf"
        save_coeffs(t, str(path))
        data = bytearray(path.read_bytes())
        data[40] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_coeffs(str(path))

    def test_wrong_magic_is_format_error(self, tmp_path):
        path = tmp_path / "t.hicf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_coeffs(str(path))

    def test_csv_roundtrip(self, tmp_path):
        t = delta_halfintegral(300)
        path = tmp_path / "t.csv"
        save_coeffs(t, str(path))
        back = load_coeffs(str(path))
        assert np.array_equal(back.alpha, t.alpha)

    def test_csv_headerless_accepted(self, tmp_path):
        t = delta_halfintegral(50)
        path = tmp_path / "bare.csv"
        path.write_text("".join(f"{n},{t.alpha[n]}\n" for n in range(1, 51)))
        assert np.array_equal(load_coeffs(str(path)).alpha, t.alpha)

    def test_csv_nonpositive_index_rejected(self, tmp_path):
        # -1 would index alpha(N) from the end, 0 would set alpha(0)
        for bad in ("-1,99", "0,7"):
            path = tmp_path / "neg.csv"
            path.write_text(f"n,alpha\n1,1\n2,0\n{bad}\n3,0\n")
            with pytest.raises(FormatError):
                load_coeffs(str(path))

    def test_csv_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("n,alpha\n1,1\n2,0\n2,5\n3,0\n")
        with pytest.raises(FormatError):
            load_coeffs(str(path))

    def test_csv_gap_rejected(self, tmp_path):
        # the one-row file claims N = 1e11: rejected before allocating N slots
        for text in ("n,alpha\n1,1\n2,0\n4,-4\n", "99999999999,1\n"):
            path = tmp_path / "gap.csv"
            path.write_text(text)
            with pytest.raises(FormatError):
                load_coeffs(str(path))

    def test_csv_row_without_two_fields_rejected(self, tmp_path):
        # a row 1,1,7 must not load as alpha(1) = 1
        for bad in ("1,1,7", "1"):
            path = tmp_path / "fields.csv"
            path.write_text(f"n,alpha\n{bad}\n2,0\n")
            with pytest.raises(FormatError, match=f"line 2 has {bad.count(',') + 1} fields"):
                load_coeffs(str(path))

    def test_csv_oversized_field_rejected(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("1," + "9" * 200_000 + "\n")  # over the csv module's field limit
        with pytest.raises(FormatError):
            load_coeffs(str(path))

    def test_hicf_header_beyond_records(self, tmp_path):
        # a valid checksum over a header N = 1e11 that 20 records cannot hold
        path = tmp_path / "t.hicf"
        save_coeffs(delta_halfintegral(20), str(path))
        body = bytearray(path.read_bytes()[:-8])
        body[12:20] = (10**11).to_bytes(8, "little")
        h = qseries._checksum()
        h.update(body)
        path.write_bytes(bytes(body) + h.digest())
        with pytest.raises(FormatError):
            load_coeffs(str(path))
        assert cli.main(["signchanges", "--limit", "10", "--coeffs", str(path)]) == 1

    def test_table_validation(self):
        # N is len(alpha) - 1, so alpha must be one nonempty row
        for shape in ([[0, 1], [2, 3]], []):
            with pytest.raises(ValueError):
                CoeffTable(alpha=shape)
        # every entry is checked, not only the first few
        for bad in (1.5, None, "7"):
            with pytest.raises(ValueError):
                CoeffTable(alpha=[0] * 20 + [bad])

    def test_object_array_of_non_integers_is_refused(self):
        # an object array is kept as it is only when every entry is a Python
        # int; any other entry goes through the same check as a list's
        for bad in (1.5, None, "x"):
            with pytest.raises(ValueError, match="exact integers"):
                CoeffTable(alpha=np.array([0, 1, bad], dtype=object))
        # integer entries that are not Python ints are converted
        t = CoeffTable(alpha=np.array([0, np.int64(5), 2**63], dtype=object))
        assert t.alpha.dtype == object and [type(v) for v in t.alpha] == [int] * 3

    def test_strided_c_array_is_the_full_one(self, big_table):
        # cmd_moments reads c(8n) alone, n <= 262144 at the README's blocks
        c8 = big_table.c_array(8 * 262_144 + 1, 8)
        assert c8.size == 262_145
        full = big_table.c_array()[: 8 * 262_144 + 1 : 8]
        assert np.array_equal(c8.view(np.int64), full.view(np.int64))

    def test_sign_array_is_np_sign(self, big_table, table_past_int64):
        # two boolean masks instead of np.sign's int64 (or object) copy; the
        # wide table's entries past 2^63 are Python ints
        for t, stops in ((big_table, (None, 1, 2, 1000, 2_000_001, big_table.N + 5)),
                         (table_past_int64, (None, 3_799_817))):
            for stop in stops:
                s = t.sign_array(stop)
                assert s.dtype == np.int8, stop
                assert np.array_equal(s, np.sign(t.alpha[:stop]).astype(np.int8)), stop

    def test_table_dtype(self):
        assert CoeffTable([0, 1, -2]).alpha.dtype == np.int64
        wide = CoeffTable([0, 1, -(2**63) - 1])
        assert wide.alpha.dtype == object and wide.N == 2
        assert wide.a(2) == -(2**63) - 1 and type(wide.a(2)) is int
        assert wide.sign_array().tolist() == [0, 1, -1]
        assert wide.float_array()[2] == float(-(2**63) - 1)
