"""The HICF v1 codec against a per-entry reference encoder and decoder.

The references below follow the format as the README states it and share no
code with `qseries`. Properties run on short files, which the loader's lane
walk covers with one lane, and again after a fixed 2 000-entry block, which
gives it at least 4 lanes.
"""

import builtins
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def walk_reference(body: bytes):
    """The offsets of the N records of a checksummed-away HICF body, walked
    record by record from byte 20 to the end; None where the walk runs off
    the records or stops short of their end."""
    N = int.from_bytes(body[12:20], "little")
    pos, out = HEADER, [HEADER]
    for _ in range(N):
        if pos >= len(body):
            return None
        pos += 1 + body[pos]
        out.append(pos)
    return out if pos == len(body) else None


def lane_offsets(body: bytes):
    """The record offsets of the loader's lane walk over a checksummed-away
    HICF body, rebuilt from its length bytes in record order; None where
    the walk does not certify them."""
    N = int.from_bytes(body[12:20], "little")
    lens = qseries._lane_walk(np.frombuffer(body, dtype=np.uint8), HEADER, len(body), N)
    if lens is None:
        return None
    steps = lens.T[lens.T != 0].astype(np.int64) + 1
    return np.concatenate([[HEADER], HEADER + np.cumsum(steps)])


def lanes(body: bytes) -> int:
    return min(qseries._LANES, (len(body) - HEADER) // qseries._LANE_BYTES)


def spread_values(rng, size: int) -> list:
    """int64 values of every record length from 2 to 9 bytes."""
    return [int(v) >> int(s) for v, s in zip(
        rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64),
        rng.integers(0, 64, size=size),
    )]


# a fixed prefix that gives the properties' files at least 4 lanes
BLOCK = spread_values(np.random.default_rng(2000), 2000)
BLOCK_LANES = lanes(encode_reference(BLOCK)[:-8])


def write(tmp_path, data: bytes) -> str:
    path = tmp_path / "t.hicf"
    path.write_bytes(data)
    return str(path)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=values_st)
@example(values=[-(2**63)])
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
    values = spread_values(np.random.default_rng(5), 3 * qseries._CHUNK // 2)
    values[qseries._CHUNK + 7] = 2**70 + 3
    path = tmp_path / "t.hicf"
    save_coeffs(CoeffTable([0] + values), str(path))
    assert path.read_bytes() == encode_reference(values)
    assert load_coeffs(str(path)).alpha.tolist() == [0] + values


def check_flip_or_truncation(tmp_path_factory, values, data):
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(values=values_st, data=st.data())
def test_flip_or_truncation_is_caught(tmp_path_factory, values, data):
    check_flip_or_truncation(tmp_path_factory, values, data)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(values=values_st, data=st.data())
def test_flip_or_truncation_is_caught_with_lanes(tmp_path_factory, values, data):
    assert BLOCK_LANES >= 4
    check_flip_or_truncation(tmp_path_factory, BLOCK + values, data)


def edits_st(span: int):
    return st.lists(st.tuples(st.integers(0, span), st.integers(0, 255)), min_size=1, max_size=4)


def check_resigned_corruption(tmp_path_factory, values, edits, cut, data):
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
    walked = lane_offsets(body)
    if walked is not None:  # a certified lane walk is the sequential walk
        assert walked.tolist() == walk_reference(body)
    if want is None:
        with pytest.raises(FormatError):
            load_coeffs(path)
    else:
        assert [int(v) for v in load_coeffs(path).alpha] == want


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=values_st, edits=edits_st(400), cut=st.integers(-12, 12), data=st.data())
def test_resigned_corruption_decodes_as_reference(tmp_path_factory, values, edits, cut, data):
    check_resigned_corruption(tmp_path_factory, values, edits, cut, data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=values_st, edits=edits_st(12_000), cut=st.integers(-12, 12), data=st.data())
def test_resigned_corruption_with_lanes(tmp_path_factory, values, edits, cut, data):
    # the edits land anywhere in the block's lanes
    assert BLOCK_LANES >= 4
    check_resigned_corruption(tmp_path_factory, BLOCK + values, edits, cut, data)


def test_zero_length_record_rejected(tmp_path):
    # records "00" and "02 00 00" fill the stream of N = 2 exactly, but the
    # writer never emits a record of length 0
    body = encode_reference([1, 0])[:HEADER] + b"\x00\x02\x00\x00"
    assert decode_reference(body) is None
    path = write(tmp_path, sign(body))
    with pytest.raises(FormatError):
        load_coeffs(path)


def test_lane_walk_declines_zero_length_record(tmp_path):
    # a record "00" inside the block: the records still tile the stream, so
    # only the certificate's length clause leaves it to the sequential walk
    k = len(BLOCK) // 2
    head = encode_reference(BLOCK[:k])[:-8]
    tail = encode_reference(BLOCK[k:])[HEADER:-8]
    body = head[:12] + (len(BLOCK) + 1).to_bytes(8, "little") + head[HEADER:] + b"\x00" + tail
    assert lanes(body) >= 4
    assert qseries._lane_walk(np.frombuffer(body, dtype=np.uint8), HEADER, len(body),
                              len(BLOCK) + 1) is None
    path = write(tmp_path, sign(body))
    with pytest.raises(FormatError) as err:
        load_coeffs(path)
    assert str(err.value) == f"{path}: record n={k + 1} has length 0"


def test_other_weight_rejected(tmp_path):
    # a well-formed, correctly signed file of weight 15/2: the readers would
    # normalize alpha for a form this program does not have
    body = bytearray(encode_reference([1, 0, 0, -56])[:-8])
    body[8:12] = (15).to_bytes(4, "little")
    path = write(tmp_path, sign(bytes(body)))
    with pytest.raises(FormatError):
        load_coeffs(path)
    assert cli.main(["signchanges", "--limit", "4", "--coeffs", path]) == 1


def test_other_version_rejected(tmp_path, capsys):
    # a well-formed, correctly signed file that declares format version 2
    body = bytearray(encode_reference([1, 0, 0, -56])[:-8])
    body[4:8] = (2).to_bytes(4, "little")
    path = write(tmp_path, sign(bytes(body)))
    assert cli.main(["signchanges", "--limit", "4", "--coeffs", path]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: unsupported format version 2\n")


def test_lane_walk_matches_sequential_walk(tmp_path):
    # 2- to 9-byte records, with 10- to 12-byte ones at +-2^63 and up to
    # 2^80 sprinkled in
    rng = np.random.default_rng(19)
    values = spread_values(rng, 200_000)
    wide = [2**63, -(2**63), -(2**63) - 1, 2**71, -(2**79), 2**80 - 1, 2**80]
    for i in rng.choice(len(values), size=100, replace=False):
        values[int(i)] = wide[int(i) % len(wide)]
    path = tmp_path / "t.hicf"
    save_coeffs(CoeffTable([0] + values), str(path))
    body = path.read_bytes()[:-8]
    assert lanes(body) >= 4
    lens = {body[p] for p in walk_reference(body)[:-1]}
    assert lens == set(range(1, 12))
    walked = lane_offsets(body)
    assert walked is not None
    assert np.array_equal(walked, walk_reference(body))
    assert load_coeffs(str(path)).alpha.tolist() == [0] + values


def test_unsynced_lanes_fall_back_to_sequential_walk(tmp_path):
    # alpha = 514 is the record 02 02 02, so the stream is all 02 bytes and a
    # lane that starts off the records' phase steps 3 bytes at a time on it
    # and never meets them
    values = [514] * 3000
    body = encode_reference(values)[:-8]
    assert set(body[HEADER:]) == {2}
    assert lanes(body) >= 4
    assert lane_offsets(body) is None
    path = write(tmp_path, sign(body))
    back = load_coeffs(path)
    assert back.alpha.dtype == np.int64
    assert back.alpha.tolist() == [0] + values


def test_empty_file_is_bad_magic(tmp_path, capsys):
    # an empty file is read, not mapped: a map of it would raise ValueError
    path = write(tmp_path, b"")
    assert cli.main(["signchanges", "--limit", "4", "--coeffs", path]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: bad magic b''\n")


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_read_whole(tmp_path):
    # a pipe reports no size, so it is read, not mapped, and read only once:
    # the HICF body and the CSV text of the same values both load from it
    values = [1, 0, 0, -56, 0, 0, 0, 0, 252]
    csv_text = "n,alpha\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values, 1))
    for body in (encode_reference(values), csv_text.encode()):
        r, w = os.pipe()
        try:
            os.write(w, body)
            os.close(w)
            back = load_coeffs(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert back.alpha.tolist() == [0] + values


def test_each_file_is_opened_once(tmp_path, monkeypatch):
    table = CoeffTable([0] + BLOCK)
    paths = [str(tmp_path / "t.hicf"), str(tmp_path / "t.csv")]
    for path in paths:
        save_coeffs(table, path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for path in paths:
        assert load_coeffs(path).alpha.tolist() == [0] + BLOCK
    assert opened == paths


def test_loaded_alpha_is_owned_and_writeable(tmp_path):
    # no view of the mapped file outlives the load
    path = tmp_path / "t.hicf"
    save_coeffs(CoeffTable([0] + BLOCK), str(path))
    alpha = load_coeffs(str(path)).alpha
    assert alpha.flags.owndata and alpha.flags.writeable
    alpha[1] += 1
    assert alpha.tolist() == [0, BLOCK[0] + 1] + BLOCK[1:]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_load_grows_rss_by_alpha_alone(tmp_path):
    # in a fresh interpreter, after a build that freed a table-sized array:
    # the load's resident growth is alpha and at most 6 MiB besides. Reading
    # the file into a bytes object and holding int64 record offsets grew it
    # by 45 MiB
    code = (
        "import os, sys\n"
        "from halfint import qseries\n"
        "def rss():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "t = qseries.delta_halfintegral(2_100_000)\n"
        "qseries.save_coeffs(t, sys.argv[1])\n"
        "del t\n"
        "before = rss()\n"
        "alpha = qseries.load_coeffs(sys.argv[1]).alpha\n"
        "print(rss() - before, alpha.nbytes)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.hicf")],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    grown, nbytes = map(int, out.split())
    assert grown <= nbytes + 6 * 2**20, (grown, nbytes)
