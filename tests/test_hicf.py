"""The HICF v1 codec against a per-entry reference encoder and decoder.

The references below follow the format as the README states it and share no
code with `qseries`.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfint import cli, qseries
from halfint.errors import ChecksumError, FormatError
from halfint.qseries import CoeffTable, load_coeffs, save_coeffs

HEADER = 20


def sign(body: bytes) -> bytes:
    return body + hashlib.blake2b(body, digest_size=8).digest()


def encode_reference(values, wt2=13) -> bytes:
    """Header, then per value a length byte and the fewest little-endian
    two's-complement bytes that hold |v| and a sign bit, then the checksum."""
    body = b"HICF" + (1).to_bytes(4, "little") + wt2.to_bytes(4, "little")
    body += len(values).to_bytes(8, "little")
    for v in values:
        n = max(1, (v.bit_length() + 8) // 8)
        body += bytes([n]) + v.to_bytes(n, "little", signed=True)
    return sign(body)


def decode_reference(body: bytes):
    """alpha(0..N) of a checksummed-away HICF body, record by record; None
    where the records are malformed."""
    N = int.from_bytes(body[12:20], "little")
    pos, out = HEADER, [0]
    for _ in range(N):
        if pos >= len(body) or body[pos] == 0 or pos + 1 + body[pos] > len(body):
            return None
        ln = body[pos]
        out.append(int.from_bytes(body[pos + 1 : pos + 1 + ln], "little", signed=True))
        pos += 1 + ln
    return out if pos == len(body) else None


def boundaries():
    """Values at and next to each record-length step, and around +-2^63."""
    edges = [1 << (8 * j - 1) for j in range(1, 10)]
    return sorted({s * e + d for e in edges for s in (1, -1) for d in (-1, 0, 1)})


values_st = st.lists(
    st.one_of(
        st.sampled_from(boundaries()),
        st.integers(-(2**80), 2**80),
        st.integers(-300, 300),
    ),
    max_size=40,
)


def write(tmp_path, data: bytes) -> str:
    path = tmp_path / "t.hicf"
    path.write_bytes(data)
    return str(path)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=values_st)
def test_roundtrip_matches_reference_bytes(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "t.hicf"
    save_coeffs(CoeffTable([0] + values), str(path))
    assert path.read_bytes() == encode_reference(values)
    back = load_coeffs(str(path))
    assert back.N == len(values)
    assert [int(v) for v in back.alpha] == [0] + values
    fits = all(-(2**63) <= v < 2**63 for v in values)
    assert back.alpha.dtype == (np.int64 if fits else object)


def test_chunked_encoding_matches_reference(tmp_path):
    # several encoder chunks; one value past int64 sends its chunk alone
    # through the per-entry path
    rng = np.random.default_rng(5)
    values = [int(v) >> int(s) for v, s in zip(
        rng.integers(-(2**63), 2**63 - 1, size=3 * qseries._CHUNK // 2, dtype=np.int64),
        rng.integers(0, 64, size=3 * qseries._CHUNK // 2),
    )]
    values[qseries._CHUNK + 7] = 2**70 + 3
    path = tmp_path / "t.hicf"
    save_coeffs(CoeffTable([0] + values), str(path))
    assert path.read_bytes() == encode_reference(values)
    assert load_coeffs(str(path)).alpha.tolist() == [0] + values


@settings(max_examples=150, derandomize=True, deadline=None)
@given(values=values_st, data=st.data())
def test_flip_or_truncation_is_caught(tmp_path_factory, values, data):
    good = encode_reference(values)
    if data.draw(st.booleans(), label="flip"):
        i = data.draw(st.integers(0, len(good) - 1), label="index")
        bad = bytearray(good)
        bad[i] ^= data.draw(st.integers(1, 255), label="mask")
        bad = bytes(bad)
    else:
        bad = good[: data.draw(st.integers(0, len(good) - 1), label="length")]
    path = write(tmp_path_factory.mktemp("bad"), bad)
    with pytest.raises((ChecksumError, FormatError)):
        load_coeffs(path)


edits_st = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 255)), min_size=1, max_size=4
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=values_st, edits=edits_st, cut=st.integers(-12, 12), data=st.data())
def test_resigned_corruption_decodes_as_reference(tmp_path_factory, values, edits, cut, data):
    body = bytearray(encode_reference(values)[:-8])
    for i, b in edits:
        if HEADER + i < len(body):
            body[HEADER + i] = b
    if cut < 0:
        body = body[: max(HEADER, len(body) + cut)]
    else:
        body += data.draw(st.binary(min_size=cut, max_size=cut), label="tail")
    if data.draw(st.booleans(), label="new N"):
        body[12:20] = data.draw(st.integers(0, 2 * len(values) + 2), label="N").to_bytes(8, "little")
    body = bytes(body)
    path = write(tmp_path_factory.mktemp("resigned"), sign(body))
    want = decode_reference(body)
    if want is None:
        with pytest.raises(FormatError):
            load_coeffs(path)
    else:
        assert [int(v) for v in load_coeffs(path).alpha] == want


def test_zero_length_record_rejected(tmp_path):
    # records "00" and "02 00 00" fill the stream of N = 2 exactly, but the
    # writer never emits a record of length 0
    body = encode_reference([1, 0])[:HEADER] + b"\x00\x02\x00\x00"
    assert decode_reference(body) is None
    path = write(tmp_path, sign(body))
    with pytest.raises(FormatError):
        load_coeffs(path)


def test_other_weight_rejected(tmp_path):
    # a well-formed, correctly signed file of weight 15/2: the readers would
    # normalize alpha for a form this program does not have
    body = bytearray(encode_reference([1, 0, 0, -56])[:-8])
    body[8:12] = (15).to_bytes(4, "little")
    path = write(tmp_path, sign(bytes(body)))
    with pytest.raises(FormatError):
        load_coeffs(path)
    assert cli.main(["signchanges", "--limit", "4", "--coeffs", path]) == 1
