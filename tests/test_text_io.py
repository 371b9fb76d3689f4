"""Decimal text parsing: the numpy fast path for ``rank``/``trace`` input and
P2 rasters against the per-token parsers it replaced, the vectorised P2
writer against the per-sample writer, and ``rank``'s output against the
per-result join it replaced."""

import contextlib
import io
import os
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankpipe import cli
from rankpipe.oracle import select_desc
from rankpipe.params import ConfigError
from rankpipe.pgm import PgmError, read_pgm_bytes, write_pgm_bytes

ASCII_SPACE = " \t\n\v\f\r"


def first_rejected(tokens):
    """The first token ``int()`` rejects, quoted, and its 0-based index, as
    the per-token parsers' errors name it."""
    for i, token in enumerate(tokens):
        try:
            int(token)
        except ValueError:
            if isinstance(token, bytes):
                token = token.decode("utf-8", "backslashreplace")
            return f"{token!r} at index {i}"
    raise AssertionError("every token parses")


def reference_read_values(text):
    """The stream parser as it was before the fast path, its errors naming
    the bad token's position."""
    try:
        return np.array(text.split(), dtype=np.int64)
    except ValueError as exc:
        raise ConfigError("bad sample in the input stream: "
                          f"{first_rejected(text.split())}") from exc
    except OverflowError as exc:
        raise ConfigError("samples in the input stream must be below 2**63"
                          ) from exc


def reference_p2_raster(raster, count, maxval):
    """The P2 raster reader as it was before the fast path, its errors
    naming the bad token's position."""
    fields = raster.split()
    if len(fields) != count:
        raise PgmError(f"expected {count} ASCII samples, found {len(fields)}")
    try:
        flat = np.array([int(f) for f in fields], dtype=np.int64)
    except ValueError as exc:
        raise PgmError("non-integer ASCII sample "
                       f"{first_rejected(fields)}") from exc
    except OverflowError as exc:
        raise PgmError(f"ASCII sample outside [0, {maxval}]") from exc
    if flat.min(initial=0) < 0:
        raise PgmError("negative ASCII sample")
    if flat.max(initial=0) > maxval:
        raise PgmError("sample exceeds the declared maxval")
    return flat


def reference_p2_body(image):
    """The P2 raster writer as it was before the vectorised one."""
    body = "\n".join(" ".join(str(v) for v in row) for row in image)
    return body.encode("ascii") + b"\n"


def outcome(parse, *args):
    """What ``parse`` returns or raises, with any warning an error (a numpy
    DeprecationWarning from a parse that stopped early must not pass)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = parse(*args)
        except (ConfigError, ValueError, OverflowError) as exc:
            return type(exc), str(exc)
    return values.dtype, values.tolist()


def via_file(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return cli._read_values(path)
    finally:
        os.unlink(path)


def via_stdin(text):
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        return cli._read_values(None)


@st.composite
def token_streams(draw):
    """Whitespace-separated tokens: either only decimal digit runs (up to 18
    digits) and ASCII whitespace, or any mix of long runs, signs, ``_``,
    ``.``, a non-ASCII digit and the non-ASCII or control separators."""
    if draw(st.booleans()):
        token = st.text("0123456789", min_size=1, max_size=18)
        space = st.text(ASCII_SPACE, min_size=1, max_size=3)
    else:
        digits = st.text("0123456789", min_size=1, max_size=20)
        token = st.one_of(digits, digits, digits,
                          st.text("0123456789+-_.٣", min_size=1,
                                  max_size=6))
        space = st.text(ASCII_SPACE + "\x1c\x85", min_size=1, max_size=3)
    tokens = draw(st.lists(token, max_size=12))
    text = draw(st.text(ASCII_SPACE, max_size=2))
    for tok in tokens:
        text += tok + draw(space)
    ending = draw(st.sampled_from(["strip", "keep", "crlf"]))
    if ending == "strip":
        text = text.rstrip(ASCII_SPACE + "\x1c\x85")
    elif ending == "crlf":
        text += "\r\n"
    return text


@settings(max_examples=300, deadline=None)
@given(text=token_streams())
@example(text="")
@example(text="   \n")
@example(text="1 2 3")
@example(text="1\r\n2\r\n")
@example(text="007 0000000000000000000000000000000000042")
@example(text="999999999999999999 1000000000000000000")
@example(text="9223372036854775807 9223372036854775808")
@example(text="1_000 +5 ٣ 1.5 two")
@example(text="1\x1c2\x1f3\x854")
def test_stream_parser_matches_the_per_token_parser(text):
    want = outcome(reference_read_values, text)
    assert outcome(via_stdin, text) == want
    assert outcome(via_file, text) == want


@pytest.mark.parametrize("text", ["1 \udcff 2", "1 2\ud800"])
def test_stdin_with_lone_surrogates_matches_the_per_token_parser(text):
    # stdin decoded with surrogateescape can hold characters UTF-8 cannot
    # encode; the stream parser must report them as bad samples, as int() does
    assert outcome(via_stdin, text) == outcome(reference_read_values, text)


@contextlib.contextmanager
def file_of(data):
    """The path of a temporary file holding the bytes ``data``."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        yield path
    finally:
        os.unlink(path)


def text_mode_read(data):
    """What the stream parser did with a file before it read bytes: a
    text-mode UTF-8 read, then the per-token parser."""
    with file_of(data) as path, open(path, encoding="utf-8") as fh:
        return reference_read_values(fh.read())


def via_file_bytes(data):
    with file_of(data) as path:
        return cli._read_values(path)


@pytest.mark.parametrize("data", [
    pytest.param(b"1 2 \xff 4", id="bad-start-byte"),
    pytest.param(b"\xff", id="bad-byte-alone"),
    pytest.param(b"1 2 3\xe2\x82", id="truncated-at-end"),
    pytest.param(b"7 \xc3(", id="bad-continuation"),
    pytest.param(b"1 \xed\xa0\x80 2", id="encoded-surrogate"),
    pytest.param(b"1\r\n" * 5000 + b"\x80", id="past-8-KB-of-crlf"),
    pytest.param(b"\xef\xbb\xbf1 2", id="byte-order-mark"),
    pytest.param("1 \u0663 \u00a0 2".encode("utf-8"), id="valid-non-ascii")])
def test_file_bytes_fail_as_a_text_mode_read_does(data):
    # invalid UTF-8 raises the decoder's own error, naming the same byte
    # offset; valid non-ASCII text reaches the per-token parser
    assert outcome(via_file_bytes, data) == outcome(text_mode_read, data)


def joined_results(values, set_size, rank):
    """``rank``'s stdout as the per-result join printed it: each set's
    rank-th largest on its own line, nothing for no sets."""
    results = [select_desc(values[i:i + set_size], rank)
               for i in range(0, len(values), set_size)]
    return "\n".join(map(str, results)) + "\n" if results else ""


@st.composite
def sample_sets(draw):
    """B-bit samples (2 <= B <= 16) in whole sets of one size, 0 and
    2**B - 1 among them whenever there are two samples or more."""
    bits = draw(st.integers(2, 16))
    set_size = draw(st.integers(1, 9))
    values = draw(st.lists(st.integers(0, (1 << bits) - 1),
                           max_size=40 * set_size))
    values = values[:len(values) - len(values) % set_size]
    if len(values) >= 2:
        values[:2] = [0, (1 << bits) - 1]
    rank = draw(st.integers(1, set_size))
    return bits, set_size, rank, values


@settings(max_examples=200, deadline=None)
@given(case=sample_sets(), stdin=st.booleans())
@example(case=(16, 1, 1, []), stdin=False)
@example(case=(16, 1, 1, [0]), stdin=False)
@example(case=(16, 3, 2, [0, 65535, 7]), stdin=True)
@example(case=(2, 2, 1, [3, 0]), stdin=False)
def test_rank_prints_as_the_per_result_join_did(case, stdin):
    bits, set_size, rank, values = case
    text = " ".join(map(str, values)) + "\n"
    argv = ["rank", "--set-size", str(set_size), "--rank", str(rank),
            "--data-bits", str(bits)]
    out = io.StringIO()
    with file_of(text.encode("ascii")) as path, \
            mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out):
        assert cli.main(argv if stdin else argv[:1] + [path] + argv[1:]) == 0
    assert out.getvalue() == joined_results(values, set_size, rank)


@settings(max_examples=300, deadline=None)
@given(text=token_streams(), extra=st.sampled_from([-1, 0, 0, 1]),
       maxval=st.sampled_from([1, 255, 65535]))
@example(text="   \n", extra=0, maxval=255)
@example(text="1 2 3", extra=1, maxval=255)
@example(text="1 2 3", extra=-1, maxval=255)
@example(text="99999999999999999999", extra=0, maxval=65535)
def test_p2_reader_matches_the_per_token_reader(text, extra, maxval):
    raster = text.encode("utf-8")
    count = max(1, len(raster.split()) + extra)
    blob = b"P2\n%d 1\n%d\n" % (count, maxval) + raster
    want = outcome(reference_p2_raster, raster, count, maxval)
    got = outcome(lambda: read_pgm_bytes(blob)[0].ravel())
    assert got == want


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 7), (6, 9)])
@pytest.mark.parametrize("bits,dtype", [
    (bits, dtype) for bits in (2, 3, 8, 10, 12, 16)
    for dtype in (np.uint8, np.uint16, np.int32, np.int64)
    if (1 << bits) - 1 <= np.iinfo(dtype).max])
def test_p2_writer_is_byte_identical_to_the_per_sample_writer(shape, bits,
                                                               dtype):
    maxval = (1 << bits) - 1
    rng = np.random.default_rng(bits)
    image = rng.integers(0, maxval + 1, size=shape).astype(dtype)
    image.flat[0] = maxval
    header = f"P2\n{shape[1]} {shape[0]}\n{maxval}\n".encode("ascii")
    blob = write_pgm_bytes(image, maxval, binary=False)
    assert blob == header + reference_p2_body(image)
    decoded, _ = read_pgm_bytes(blob)
    assert (decoded == image).all()
