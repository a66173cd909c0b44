"""Coefficient tables of the weight-13/2 form, tau of its lift, and the
coefficient files.

`CoeffTable` holds the integer coefficients alpha(n) = c(n) n^{(k-1/2)/2}
of the one form this program has, the weight-13/2 plus-space form on
Gamma_0(4) whose Shimura lift is the discriminant form of weight 2k = 12
(WEIGHT_TIMES_TWO and K below). They are built by a fast exact convolution
and saved to HICF coefficient files; alpha(n) vanishes for n = 2,3 mod 4.
alpha is an int64 array, or an object array of Python ints once some
alpha(n) lies outside int64, which first happens at n = 3799816. A
reference builder evaluates the defining composition directly in exact
rationals and certifies the fast one.

All integer arithmetic is exact. The fast builder writes alpha(n) =
240 n V(n) - 1080 W(n), plus two constant-term corrections, where V and W
sum sigma3(b) and b sigma3(b) over n = m^2 + 4b. It sums them exactly as
int64 limbs below 2^42 (every limb sum stays below 2^53), takes alpha(n)
mod 2^64 from the limb sums in wrapping arithmetic, and lifts each residue
to the one integer inside a float64 error window built from the same sums.
That window is about 2^45.5 at N = 2.1e6 and 2^54.0 at the builder's cap
N = 7.8e6, below the 2^62 the lift allows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from .arith import SIGMA3_INT64_LIMIT, primes_up_to, sigma3_table
from .errors import CapacityError, ChecksumError, FormatError, InconsistencyError

# the weight of the form, doubled: 13/2
WEIGHT_TIMES_TWO = 13
# half the weight of its Shimura lift, the discriminant form of weight 12
K = 6

__all__ = [
    "WEIGHT_TIMES_TWO",
    "K",
    "CoeffTable",
    "delta_halfintegral",
    "delta_halfintegral_reference",
    "delta_integral",
    "save_coeffs",
    "load_coeffs",
]


# ----------------------------------------------------------------------------
# coefficient tables


@dataclass(eq=False)
class CoeffTable:
    """Integer coefficients alpha(n), 1 <= n <= N, of the weight-13/2 form.

    alpha is an array indexed 0..N with alpha[0] = 0, so N = len(alpha) - 1:
    int64, or an object array of Python ints once some alpha(n) lies
    outside int64 (from n = 3799816 on). An object array of Python ints,
    such as the builder's and the loader's, is kept as it is. Any other
    sequence is converted the same way, and an entry that is not an integer
    raises ValueError. Tables compare by identity; np.array_equal compares
    their alpha. The normalized coefficients are c(n) = alpha(n) / n^{11/4}.
    """

    alpha: np.ndarray
    N: int = field(init=False)

    def __post_init__(self):
        self.alpha = _exact_integers(self.alpha)
        if self.alpha.ndim != 1 or self.alpha.size == 0:
            raise ValueError("alpha must be a nonempty 1-D array (index 0 unused)")
        self.N = self.alpha.size - 1

    def a(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise ValueError(f"n={n} outside table range 1..{self.N}")
        return int(self.alpha[n])

    def sign_array(self, stop: int | None = None) -> np.ndarray:
        """int8 array s with s[n] = sign(alpha(n)) over alpha[:stop]; compact
        scan view. Built from two boolean masks, so no int64 (or object)
        temporary of the table's length, also on the object table."""
        alpha = self.alpha[:stop]
        s = np.greater(alpha, 0).view(np.int8)
        s -= np.less(alpha, 0)
        return s

    def float_array(self, stop: int | None = None, step: int = 1) -> np.ndarray:
        """alpha[:stop:step] as float64, each entry rounded on its own."""
        return self.alpha[:stop:step].astype(np.float64)

    def c_array(self, stop: int | None = None, step: int = 1) -> np.ndarray:
        """Normalized coefficients c(n) = alpha(n) n^{-11/4} (c(0) = 0) at
        n = 0..N, sliced [:stop:step] like float_array."""
        out = self.float_array(stop, step)
        n = np.arange(out.size, dtype=np.float64)
        n *= step
        n[0] = 1.0
        np.power(n, (WEIGHT_TIMES_TWO - 2) / 4.0, out=n)
        out /= n
        out[0] = 0.0
        return out

    def support_violations(self) -> np.ndarray:
        """Indices n = 2,3 mod 4 with alpha(n) != 0 (must be empty for the
        plus-space form)."""
        n = np.flatnonzero(self.alpha)
        return n[n % 4 >= 2]


def _exact_integers(values) -> np.ndarray:
    """values as an int64 array, or as an object array of Python ints when
    some value lies outside int64. ValueError if an entry is not an integer.
    An object array of Python ints, such as the builder's and the loader's,
    is returned as it is."""
    if (isinstance(values, np.ndarray) and values.dtype == object
            and all(map(int.__instancecheck__, values.flat))):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    # a float or object array: Python ints past int64, or non-integers
    try:
        ints = [operator.index(v) for v in values]
    except TypeError as exc:
        raise ValueError("alpha entries must be exact integers") from exc
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


# -- fast exact builder -------------------------------------------------------

# the int64 sigma3 table runs to N/4
_FAST_N_CAP = 4 * SIGMA3_INT64_LIMIT
# the lift picks the one integer = residue mod 2^64 within the float window;
# a window at 2^62 would leave less than a quarter-period of margin
_LIFT_WINDOW_CAP = 2.0**62
# columns per tile of the builder's slice loop: every m adds into one tile of
# the accumulator while it is still in cache
_TILE = 1 << 14
# the limb splits sigma3(b) = s1 2^32 + s0 and b sigma3(b) = w1 2^42 + w0
_SIG_BITS = 32
_BSIG_BITS = 42


def _limb_source(Q: int) -> np.ndarray:
    """(Q+1, 4) int64 rows [s0, s1, w0, w1], b = 0..Q, with sigma3(b) =
    s1 2^32 + s0 and b sigma3(b) = w1 2^42 + w0 exactly, 0 <= s0 < 2^32 and
    0 <= w0 < 2^42. Below SIGMA3_INT64_LIMIT < 2^21, sigma3(b) < 2^63 and
    b < 2^21, so s1 < 2^31 and w1 < 2^42."""
    sig3 = sigma3_table(Q)
    src = np.empty((Q + 1, 4), dtype=np.int64)
    np.bitwise_and(sig3, (1 << _SIG_BITS) - 1, out=src[:, 0])
    np.right_shift(sig3, _SIG_BITS, out=src[:, 1])
    del sig3
    b = np.arange(Q + 1, dtype=np.int64)
    hi = src[:, 1] * b  # < 2^52
    # b sigma3(b) = hi 2^32 + b s0 = (hi >> 10) 2^42 + t with t below 2^54
    split = _BSIG_BITS - _SIG_BITS
    t = (hi & ((1 << split) - 1)) << _SIG_BITS
    t += src[:, 0] * b
    np.bitwise_and(t, (1 << _BSIG_BITS) - 1, out=src[:, 2])
    np.right_shift(hi, split, out=src[:, 3])
    src[:, 3] += t >> _BSIG_BITS
    return src


def delta_halfintegral(N: int) -> CoeffTable:
    """Exact alpha(n), n <= N, of the weight-13/2 plus-space form whose
    Shimura lift is the discriminant form.

    The form is 60/(2 pi i) * (2 G4(4z) theta'(z) - G4'(4z) theta(z)), where
    G4' is the derivative of G4 in its own argument evaluated at 4z (no
    chain-rule factor). Writing E = 240*G4(4z), B = sum m^2 q^{m^2},
    C = sum n sigma3(n) q^{4n} and D = theta, the coefficients are

        alpha = E*B - 60*C*D,

    which is manifestly integral. Both products run over representations
    n = m^2 + 4b; with m^2 = n - 4b each term 240 m^2 sigma3(b) - 120 b
    sigma3(b) is sigma3(b) (240 n - 1080 b), so

        alpha(n) = 240 n V(n) - 1080 W(n) + [n = m^2] m^2 - [n = 4b] 60 b sigma3(b)

    with V = sum sigma3(b) and W = sum b sigma3(b) over m >= 1, b >= 1.
    V and W are sums of shifted copies of the limbs of _limb_source, one
    add per (m, tile) into an int64 accumulator per residue class n mod 4
    (0 for even m, 1 for odd m), the classes one after the other. Each
    limb is below 2^42 and an entry takes at most isqrt(N)/2 + 1 <= 1397
    terms up to the cap, so every limb sum is exact and below 2^53. From
    those sums, wrapping uint64 arithmetic gives alpha mod 2^64, and float64
    arithmetic an estimate within a window that fixes the multiple of 2^64;
    a window of 2^62 or more raises CapacityError. The window is about
    2^45.5 at N = 2.1e6 and 2^54.0 at the cap N = 7.8e6. The limb sums are
    exact integers, so alpha does not depend on the tile width.

    alpha is int64, or an object array once some |alpha(n)| >= 2^63.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > _FAST_N_CAP:
        raise CapacityError(f"fast builder caps at N={_FAST_N_CAP}")
    src = _limb_source(N // 4)
    alpha = np.zeros(N + 1, dtype=np.int64)
    acc = np.empty((_TILE, 4), dtype=np.int64)
    wide_n, wide_by = [], []
    M = isqrt(N)
    for row in (0, 1):
        top = (N - row) // 4  # the last column: n = 4 top + row <= N
        sq = np.arange(2 - row, M + 1, 2, dtype=np.int64) ** 2
        sq_col = sq >> 2  # where E's constant term times B adds m^2
        for lo in range(0, top + 1, _TILE):
            hi = min(lo + _TILE, top + 1)
            a = acc[: hi - lo]
            a.fill(0)
            for m in range(2 - row, M + 1, 2):
                off = (m * m) >> 2  # column off + b holds n = m^2 + 4b, 1 <= b <= (N - m^2)/4
                if off + 1 >= hi:
                    break
                # m = row (mod 2), so m^2 = row (mod 4) and off + ((N - m^2) >> 2) = top >= hi - 1
                c0 = max(lo, off + 1)
                np.add(a[c0 - lo :], src[c0 - off : hi - off], out=a[c0 - lo :])
            n = np.arange(4 * lo + row, 4 * hi + row, 4, dtype=np.int64)
            # alpha mod 2^64
            u = a.view(np.uint64)
            res = 240 * n.view(np.uint64) * ((u[:, 1] << _SIG_BITS) + u[:, 0])
            res -= 1080 * ((u[:, 3] << _BSIG_BITS) + u[:, 2])
            # the estimate: every limb sum converts exactly
            f = a.astype(np.float64)
            pos = 240.0 * n * (f[:, 1] * 2.0**_SIG_BITS + f[:, 0])
            neg = 1080.0 * (f[:, 3] * 2.0**_BSIG_BITS + f[:, 2])
            if row == 0:  # theta's constant term times C: - 60 b sigma3(b) at n = 4b
                us = src[lo:hi].view(np.uint64)
                res -= 60 * ((us[:, 3] << _BSIG_BITS) + us[:, 2])
                neg += 60.0 * (us[:, 3] * 2.0**_BSIG_BITS + us[:, 2])
            est = pos - neg
            size = np.add(pos, neg, out=pos)
            i0, i1 = np.searchsorted(sq_col, (lo, hi))
            at = sq_col[i0:i1] - lo
            res[at] += sq[i0:i1].astype(np.uint64)
            est[at] += sq[i0:i1]
            size[at] += sq[i0:i1]
            # each term reaches est through at most 5 roundings, so with
            # u = 2^-53 |alpha - est| <= 5u/(1 - 5u) times the sum of the
            # terms' sizes; 8u times size, their float sum, covers that
            widest = 8 * 2.0**-53 * float(size.max())
            if widest >= _LIFT_WINDOW_CAP:
                raise CapacityError(
                    f"alpha lift window 2^{np.log2(widest):.1f} reaches 2^62 at N={N}")
            res = res.view(np.int64)
            alpha[4 * lo + row : 4 * hi + row : 4] = res
            wraps = np.rint((est - res) / 2.0**64).astype(np.int64)
            if wraps.any():  # exactly where |alpha| >= 2^63
                k = np.flatnonzero(wraps)
                wide_n.append(n[k])
                wide_by.append(wraps[k])
    if wide_n:
        alpha = alpha.astype(object)
        wide = np.concatenate(wide_n)
        alpha[wide] += np.concatenate(wide_by).astype(object) << 64
    return CoeffTable(alpha=alpha)


def delta_halfintegral_reference(N: int) -> CoeffTable:
    """Same coefficients from the defining composition, in exact rationals.

    G4 = 1/240 + sum sigma3(b) q^b and theta = 1 + 2 sum_{m>=1} q^{m^2}. The
    q^n term of G4(4z) theta(z), n = k + 4b, is g4[b] th[k]; q d/dq, the
    z-derivative over 2 pi i, multiplies it by k on theta and by b on G4(4z)
    (G4' is taken in its own argument), so

        alpha(n) = 60 sum_{k + 4b = n} g4[b] th[k] (2k - b).

    sigma3 comes from a divisor loop of its own, so that this reference
    shares nothing with the fast builder it certifies. Integrality of the
    result is asserted: every denominator the 1/240 constant term brings
    must cancel.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    Q = N // 4
    g4 = [Fraction(1, 240)] + [0] * Q
    for d in range(1, Q + 1):
        cube = d**3
        for b in range(d, Q + 1, d):
            g4[b] += cube
    theta = [(0, 1)] + [(m * m, 2) for m in range(1, isqrt(N) + 1)]
    delta = [Fraction(0)] * (N + 1)
    for k, th in theta:
        for b in range((N - k) // 4 + 1):
            delta[k + 4 * b] += g4[b] * (60 * th * (2 * k - b))
    alpha = [0] * (N + 1)
    for n, c in enumerate(delta):
        if c.denominator != 1:
            raise ArithmeticError(f"non-integral coefficient at n={n}: {c}")
        alpha[n] = int(c)
    return CoeffTable(alpha=alpha)


# -- tau of the discriminant form ---------------------------------------------


# tau entries one table may hold. A table with its lambda row keeps about 225
# bytes per entry (the exact ints of tau dominate), so the budget costs about
# 0.9 GB; building it took 50 s on a 2-vCPU x86_64 host
_TAU_BUDGET = 4_000_000
# the FFT primes stay below this, so Garner's products of residues stay below
# 2^32 and |a|_2^2 of residues centred mod p below 2^63 for < 2^33 entries
_FFT_PRIME_CAP = 1 << 16
# tau entries rebuilt from the CRT digits at a time, so that only one block
# of Python ints is alive beside the int64 digits
_LIFT_BLOCK = 4096


def _percival_rel(size: int) -> float:
    """Percival's bound f (Math. Comp. 72 (2003), Thm 5.1) for a length-size
    float64 FFT product: |a*b - fft(a*b)|_inf <= |a|_2 |b|_2 f, with
    f = (1+e)^3k (1+e sqrt 5)^(3k+1) (1+b)^3k - 1, unit roundoff e = 2^-53
    and twiddle error b, taken as 2e; k = log2(size) + 1 also covers the
    rfft split."""
    k, e = size.bit_length(), 2.0**-53
    grow = 3 * k * (math.log1p(e) + math.log1p(2 * e)) + (3 * k + 1) * math.log1p(e * 5**0.5)
    return math.expm1(grow)


def _fft_mul_mod(a: np.ndarray, b: np.ndarray, p: int, n: int) -> np.ndarray:
    """(a b mod q^n) mod p, centred in (-p/2, p/2), for int64 residues a, b
    centred mod an odd p < 2^16 (so a @ a stays below 2^63 for fewer than
    2^33 entries); b = a squares with one forward FFT.

    The product runs as a float64 rfft convolution of a length above its
    degree, so it does not wrap. Each entry is exact once rounded when
    |a|_2 |b|_2 f < 1/4 (f from _percival_rel), checked on these operands;
    the rounded entries must also lie within 1/4 of the float ones. Either
    check failing raises InconsistencyError.
    """
    size = 1 << (a.size + b.size - 2).bit_length()
    err = math.sqrt(float(a @ a) * float(b @ b)) * _percival_rel(size)
    if err >= 0.25:
        raise InconsistencyError(f"FFT error bound {err:.3g} reaches 1/4 at p={p}")
    f = np.fft.rfft(a, size)
    f *= f if b is a else np.fft.rfft(b, size)
    prod = np.fft.irfft(f, size)[:n]
    exact = np.rint(prod)
    prod -= exact
    off = float(np.abs(prod, out=prod).max())
    if off >= 0.25:
        raise InconsistencyError(f"FFT product mod {p} is {off:.3g} off the integers")
    h = p // 2
    return (exact.astype(np.int64) + h) % p - h


def _tau_primes(N: int) -> list:
    """The CRT primes of delta_integral(N), largest first: the largest below
    min(2^16, p_max) until their product exceeds 4 N^6, where p_max is the
    largest p with N (p/2)^2 f <= 1/4 for the FFT length of a square of N
    entries. N (p/2)^2 bounds |a|_2^2 for N residues centred mod p."""
    rel = _percival_rel(1 << (2 * N - 2).bit_length())
    pmax = isqrt(math.floor(1 / (N * rel)))
    primes = []
    for p in reversed(primes_up_to(min(pmax, _FFT_PRIME_CAP))):
        if math.prod(primes) > 4 * N**6:
            break
        primes.append(p)
    if math.prod(primes) <= 4 * N**6:
        raise CapacityError(f"no prime set below {pmax} spans tau to N={N}")
    return primes


def _lift_groups(primes: list) -> list:
    """primes cut, in order, into runs whose products stay below 2^64."""
    groups = [[]]
    for p in primes:
        if math.prod(groups[-1]) * p >= 1 << 64:
            groups.append([])
        groups[-1].append(p)
    return groups


def _eta3_squared(N: int) -> np.ndarray:
    """prod (1-q^n)^6 mod q^N, exact in int64, from the M terms
    (-1)^m (2m+1) q^{m(m+1)/2} below q^N of prod (1-q^n)^3.

    Row m adds the products with every m' >= m (twice for m' > m) at the
    distinct exponents below N, so no M x M temporary is built. An entry
    sums at most M products, each at most (2M+1)^2, so |entry| <=
    M (2M+1)^2, below 2^37 at _TAU_BUDGET."""
    m = np.arange(isqrt(2 * N) + 1)
    m = m[m * (m + 1) // 2 < N]
    exps = m * (m + 1) // 2
    coef = (1 - 2 * (m & 1)) * (2 * m + 1)
    sq = np.zeros(N, dtype=np.int64)
    for i in range(m.size):
        j = int(np.searchsorted(exps, N - exps[i]))  # exps[i] + exps[:j] < N
        if j <= i:
            break
        row = 2 * coef[i] * coef[i:j]
        row[0] //= 2
        sq[exps[i] + exps[i:j]] += row
    return sq


def delta_integral(N: int) -> list:
    """tau(n) for 1 <= n <= N from q prod (1-q^n)^24, exact; index 0 unused.

    prod(1-q^n)^3 is the sparse series sum (-1)^m (2m+1) q^{m(m+1)/2}. Its
    square, the 6th power, is formed exactly in int64 (_eta3_squared; every
    entry is at most M (2M+1)^2 < 2^37 for its M terms). Two squarings of
    that, truncated at q^{N-1}, give the 24th power; they run modulo each
    of a few primes p, one prime at a time, as float64 rfft convolutions of
    residues centred in (-p/2, p/2) (_fft_mul_mod).

    * Primes (_tau_primes): the largest below 2^16 with N (p/2)^2 f <= 1/4,
      f Percival's bound (Math. Comp. 72 (2003), Thm 5.1) for the FFT
      length. _fft_mul_mod checks |a|_2 |b|_2 f < 1/4 on each pair of
      operands, so every rounded entry is the exact integer convolution,
      and checks that each product lies within 1/4 of integers; either
      failing raises InconsistencyError.
    * CRT modulus: Deligne's bound |tau(n)| <= d(n) n^{11/2} with
      d(n) <= 2 sqrt(n) gives 2|tau(n)| <= 4 N^6, so primes are taken until
      their product exceeds 4 N^6. Garner's mixed-radix digits, balanced
      in (-p/2, p/2), then spell out the unique tau(n) in (-Q/2, Q/2],
      Q the product of the primes.
    * Lift: the digits of each run of primes whose product P is below 2^64
      (_lift_groups) combine by Horner in int64. Balanced digits of odd
      primes keep every partial value, acc p + v included, within
      (P - 1)/2 < 2^63. Python ints join the runs, _LIFT_BLOCK entries at
      a time.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > _TAU_BUDGET:
        raise CapacityError(f"a tau table of {N} entries is past the budget of {_TAU_BUDGET}")
    primes = _tau_primes(N)
    sq = _eta3_squared(N)
    digits = []
    for i, p in enumerate(primes):
        h = p // 2  # residues (x + h) % p - h are centred in (-p/2, p/2)
        a = (sq + h) % p - h
        for _ in range(2):
            a = _fft_mul_mod(a, a, p, N)
        # Garner: digit i = (tau - sum_{j<i} v_j p_0..p_{j-1}) / (p_0..p_{i-1}) mod p
        t = np.zeros(N, dtype=np.int64)
        for j in range(i - 1, -1, -1):
            t = (t * primes[j] + digits[j]) % p
        digits.append(((a - t) * pow(math.prod(primes[:i]), -1, p) + h) % p - h)
    del sq
    # tau = G_0 + P_0 (G_1 + P_1 (G_2 + ...)) over the runs g of primes,
    # each G_g an int64 Horner over its own digits
    parts, mods, rest = [], [], iter(digits)
    for group in _lift_groups(primes):
        vs = [next(rest) for _ in group]
        acc = vs[-1]
        for v, p in zip(vs[-2::-1], group[-2::-1]):
            acc = acc * p + v
        parts.append(acc)
        mods.append(math.prod(group))
    del digits, rest, vs
    tau = [0]
    for s in range(0, N, _LIFT_BLOCK):
        block = parts[-1][s : s + _LIFT_BLOCK].tolist()
        for v, P in zip(parts[-2::-1], mods[-2::-1]):
            block = [hi * P + lo for hi, lo in zip(block, v[s : s + _LIFT_BLOCK].tolist())]
        tau += block
    return tau


# ----------------------------------------------------------------------------
# coefficient files

_MAGIC = b"HICF"
_VERSION = 1
# magic, version, doubled weight, N; the records start right after it
_HEADER = struct.Struct("<4sIIQ")
# entries encoded at a time, which keeps the encoder's temporaries small
_CHUNK = 1 << 16


def _checksum() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=8)


@contextmanager
def replacing(path: str, mode: str):
    """Write to a sibling temp file that replaces path only once the block
    completes, so a failed write never leaves a partial file at path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _record(v: int) -> bytes:
    """One HICF record: a length byte, then v in that many little-endian
    two's-complement bytes, the fewest that hold |v| and a sign bit."""
    n = max(1, (v.bit_length() + 8) // 8)
    return bytes([n]) + v.to_bytes(n, "little", signed=True)


def _records(values: np.ndarray) -> bytes:
    """The HICF records of values, byte for byte those of _record.

    For int64 values a record is 1 + #{1 <= j <= 7 : |v| >= 2^(8j-1)} bytes
    long, counted by one searchsorted. Each value is laid out as a 9-byte
    row, its length byte and then its 8 little-endian bytes, and one boolean
    gather keeps each row's record. A value that needs more than 8 bytes
    (|v| >= 2^63, including v = -2^63) sends the whole chunk through _record.
    """
    try:
        v = np.ascontiguousarray(values, dtype="<i8")
    except OverflowError:
        v = None
    if v is None or (v == np.iinfo(np.int64).min).any():
        return b"".join(_record(int(x)) for x in values)
    lens = np.searchsorted(np.int64(1) << np.arange(7, 56, 8), np.abs(v), side="right") + 1
    rows = np.empty((v.size, 9), dtype=np.uint8)
    rows[:, 0] = lens
    rows[:, 1:] = v.view(np.uint8).reshape(-1, 8)
    return rows[np.arange(9) <= lens[:, None]].tobytes()


def save_coeffs(t: CoeffTable, path: str) -> None:
    """Write the binary file: magic, version u32, weight u32, N u64, then N
    length-prefixed little-endian two's-complement records, then an 8-byte
    BLAKE2b checksum of everything before it. A path ending in .csv writes
    the plain-text "n,alpha" form instead. Either file appears only once it
    is complete. Records are encoded _CHUNK entries at a time."""
    if str(path).endswith(".csv"):
        with replacing(path, "w") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["n", "alpha"])
            w.writerows(zip(range(1, t.N + 1), t.alpha[1:].tolist()))
        return
    h = _checksum()
    with replacing(path, "wb") as fh:

        def emit(b: bytes):
            h.update(b)
            fh.write(b)

        emit(_HEADER.pack(_MAGIC, _VERSION, WEIGHT_TIMES_TWO, t.N))
        for n in range(1, t.N + 1, _CHUNK):
            emit(_records(t.alpha[n : n + _CHUNK]))
        fh.write(h.digest())


# the lane walk: at most _LANES lanes, each over a window of at least
# _LANE_BYTES record bytes, each syncing from _SYNC_BYTES before its window
_LANES = 1 << 13
_LANE_BYTES = 1024
_SYNC_BYTES = 128
# the longest record a syncing lane takes a length byte for; a v1 record is
# longer only for |v| >= 2^87
_SYNC_MAX_LEN = 11


def _lane_walk(buf: np.ndarray, pos: int, end: int, n: int):
    """The length bytes of the n records that _sequential_walk reads from
    [pos, end), found by lanes that walk byte windows of it in lockstep, as
    a (steps, lanes) uint8 matrix; None when the walk cannot certify them.
    Lane i's column holds its length bytes, then zeros once it has exited,
    so the nonzero bytes, lane by lane, are the records' in order.

    Lane i syncs from _SYNC_BYTES before its window [lo_i, hi_i) by guessed
    steps (a byte above _SYNC_MAX_LEN steps 1, any other a whole record)
    until it reaches lo_i, where it enters; it then steps true record
    lengths while below hi_i, recording each length byte, and exits where
    it stops. The certificate: lane 0 enters at pos, every lane exits where
    the next one entered, the last exits at end, and the lanes step n
    records in all, none of length 0. Then by induction from pos every
    entry is a true record start, and the lanes' length bytes, laid end to
    end, are those of the n records the sequential walk reads, ending at
    end. Every byte read lies below end.
    """
    lanes = max(1, min(_LANES, (end - pos) // _LANE_BYTES))
    bounds = pos + np.arange(lanes + 1, dtype=np.int64) * (end - pos) // lanes
    lo, hi = bounds[:-1], bounds[1:]
    p = np.maximum(lo - _SYNC_BYTES, pos)
    while (behind := p < lo).any():
        g = buf[p]
        g *= g <= _SYNC_MAX_LEN
        g += 1
        g *= behind
        p += g
    entries = p.copy()
    # a lane steps at least one byte at a time from its entry to below hi
    lens = np.empty((int((hi - entries).max()), lanes), dtype=np.uint8)
    steps = k = 0
    while (live := p < hi).any():
        d = np.take(buf[:end], p, out=lens[k], mode="clip")
        d *= live
        p += d
        p += live
        steps += np.count_nonzero(live)
        k += 1
    lens = lens[:k]
    if (entries[0] != pos or p[-1] != end or not np.array_equal(p[:-1], entries[1:])
            or steps != n or np.count_nonzero(lens) != n):
        return None
    return lens


def load_coeffs(path: str) -> CoeffTable:
    """Read a table written by save_coeffs, HICF or CSV.

    The file is opened once and mapped read-only (read whole if it reports
    no size: empty, or a pipe); both formats are parsed from those bytes.
    save_coeffs replaces files atomically; a file rewritten in place while
    it loads is outside this contract. HICF: magic, version, checksum and
    weight 13 are checked, and N against the record bytes before anything
    is allocated. The record length bytes are those of the certified lane
    walk (_lane_walk) or else of the sequential walk (_sequential_walk),
    which alone raises FormatError for a malformed stream. The decoder reads
    them in record order from one running byte offset, one block of lanes
    at a time: records of at most 8 bytes are read as 8-byte words and
    sign-extended into alpha, the one array of the table's size a load
    allocates; longer ones are decoded one by one, into an object array once
    some value lies outside int64.
    """
    # imported here: a process that loads no table then never maps the
    # module, which added 0.1-0.2 MB to the peak RSS of every process
    import mmap

    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return _load_data(path, fh.read())
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return _load_data(path, data)


def _sequential_walk(path: str, data, pos: int, end: int, n: int) -> np.ndarray:
    """The length bytes of n records laid end to end in data from pos, as
    one lane of _lane_walk's result. FormatError, in this order, if a
    record would start at or past end, the records run past end, bytes
    follow them before end, or one has length 0."""
    lens = bytearray(n)
    for k in range(n):
        if pos >= end:
            raise FormatError(f"{path}: record stream ends early")
        lens[k] = data[pos]
        pos += 1 + lens[k]
    if pos > end:
        raise FormatError(f"{path}: record stream ends early at n={n}")
    if pos < end:
        raise FormatError(f"{path}: {end - pos} trailing bytes after records")
    if 0 in lens:
        raise FormatError(f"{path}: record n={lens.index(0) + 1} has length 0")
    return np.frombuffer(lens, dtype=np.uint8)[:, None]


def _load_data(path: str, data) -> CoeffTable:
    """load_coeffs on the file's contents, bytes or a read-only map."""
    if (magic := data[: len(_MAGIC)]) != _MAGIC:
        text = data[:4096].decode("utf-8", errors="ignore")
        if "," in text:
            return _load_csv(path, data)
        raise FormatError(f"{path}: bad magic {magic!r}")
    if len(data) < _HEADER.size + 8:
        raise ChecksumError(f"{path}: truncated header")
    h = _checksum()
    h.update(memoryview(data)[:-8])
    if h.digest() != data[-8:]:
        raise ChecksumError(f"{path}: checksum mismatch")
    _, version, wt2, N = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if wt2 != WEIGHT_TIMES_TWO:
        raise FormatError(f"{path}: weight {wt2}/2 is not the supported weight 13/2")
    pos = _HEADER.size
    end = len(data) - 8
    # every record takes at least two bytes; check before allocating N slots
    if 2 * N > end - pos:
        raise FormatError(f"{path}: header N={N} exceeds what {end - pos} record bytes hold")
    # alpha before the walk's temporaries: allocated after them, it left the
    # table workload's peak RSS about 6 MB higher
    alpha = np.zeros(N + 1, dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    # the word at offset i is bytes i..i+7, inside data up to i = end
    words = np.ndarray((end + 1,), dtype="<u8", buffer=data, strides=(1,))
    try:
        lens = _lane_walk(buf, pos, end, N)
        if lens is None:
            lens = _sequential_walk(path, data, pos, end, N)
        per = max(1, _CHUNK // max(1, lens.shape[0]))
        wide, big = [], []
        done = 0  # records decoded so far; their bytes end at pos
        for i in range(0, lens.shape[1], per):
            block = lens[:, i : i + per].T
            ln = block[block != 0]  # lane by lane, so in record order
            # payload starts: pos + cumsum(1 + ln) - ln
            starts = ln.astype(np.int64)
            starts += 1
            np.cumsum(starts, out=starts)
            starts += pos
            pos += ln.size + int(ln.sum(dtype=np.int64))
            starts -= ln
            shift = 64 - 8 * np.minimum(ln, 8)
            vals = words[starts]
            vals <<= shift
            np.right_shift(vals.view(np.int64), shift, out=alpha[1 + done : 1 + done + ln.size])
            at = np.flatnonzero(ln > 8)
            wide += (at + done).tolist()
            big += [int.from_bytes(data[p : p + n], "little", signed=True)
                    for p, n in zip(starts[at].tolist(), ln[at].tolist())]
            done += ln.size
    finally:
        # a view of data left in a raising frame would keep the map from closing
        del buf, words
    if any(not -(1 << 63) <= v < 1 << 63 for v in big):
        alpha = alpha.astype(object)
    for i, v in zip(wide, big):
        alpha[i + 1] = v
    return CoeffTable(alpha=alpha)


def _load_csv(path: str, data) -> CoeffTable:
    """The CSV table in data, the file's bytes, decoded as open() would."""
    rows = []
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), newline=""))
        for row in reader:
            if not row or row[0].strip().lower() == "n":
                continue
            if len(row) != 2:
                raise FormatError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, not n,alpha")
            rows.append((int(row[0]), int(row[1])))
    except (ValueError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a coefficient CSV ({exc})") from exc
    if not rows:
        raise FormatError(f"{path}: no coefficient rows")
    N = max(n for n, _ in rows)
    # checked before allocating N slots: each n in 1..N needs exactly one row
    if N != len(rows):
        raise FormatError(f"{path}: {len(rows)} rows cannot cover n = 1..{N} once each")
    alpha = [None] * (N + 1)
    for n, v in rows:
        if n < 1:
            raise FormatError(f"{path}: row index n={n} is not positive")
        if alpha[n] is not None:
            raise FormatError(f"{path}: duplicate row for n={n}")
        alpha[n] = v
    alpha[0] = 0
    return CoeffTable(alpha=alpha)
