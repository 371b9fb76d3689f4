"""PGM reading and writing: round trips, header tolerance, and validation."""

import numpy as np
import pytest

from rankpipe.pgm import (
    PgmError,
    bits_for_maxval,
    read_pgm,
    read_pgm_bytes,
    write_pgm,
    write_pgm_bytes,
)


@pytest.fixture
def image():
    rng = np.random.default_rng(50)
    return rng.integers(0, 256, size=(6, 9))


def test_binary_round_trip_is_byte_identical(image):
    blob = write_pgm_bytes(image, 255)
    decoded, maxval = read_pgm_bytes(blob)
    assert maxval == 255
    assert (decoded == image).all()
    assert write_pgm_bytes(decoded, maxval) == blob


def test_ascii_round_trip_is_byte_identical(image):
    blob = write_pgm_bytes(image, 255, binary=False)
    decoded, maxval = read_pgm_bytes(blob)
    assert (decoded == image).all()
    assert write_pgm_bytes(decoded, maxval, binary=False) == blob


def test_sixteen_bit_samples_are_big_endian():
    img = np.array([[258, 772]])
    blob = write_pgm_bytes(img, 65535)
    raster = blob.split(b"65535\n", 1)[1]
    assert raster == bytes([1, 2, 3, 4])
    decoded, maxval = read_pgm_bytes(blob)
    assert maxval == 65535
    assert (decoded == img).all()


def test_reader_tolerates_comments_and_whitespace():
    blob = b"P2  # magic\n# a comment\n 3 \t2\n# another\n9\n1 2 3\n4 5 6\n"
    img, maxval = read_pgm_bytes(blob)
    assert maxval == 9
    assert img.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_file_round_trip(tmp_path, image):
    path = tmp_path / "img.pgm"
    write_pgm(path, image, 255)
    decoded, maxval = read_pgm(path)
    assert (decoded == image).all() and maxval == 255


@pytest.mark.parametrize("blob", [
    b"P6\n1 1\n255\n\x00",                 # wrong magic
    b"P5\n0 1\n255\n",                     # zero width
    b"P5\n1 1\n0\n\x00",                   # maxval too small
    b"P5\n1 1\n70000\n\x00\x00",           # maxval too large
    b"P5\n2 2\n255\n\x00\x00\x00",         # truncated raster
    b"P2\n2 1\n255\n1",                    # missing ASCII sample
    b"P2\n2 1\n255\n1 x",                  # non-integer sample
    b"P2\n1 1\n9\n12",                     # sample above maxval
    b"P5",                                 # truncated header
    b"P2\n2 1\n255\n-1 3\n",               # negative sample
    b"P2\n1 1\n255\n99999999999999999999",  # sample past int64
])
def test_malformed_inputs_raise(blob):
    with pytest.raises(PgmError):
        read_pgm_bytes(blob)


@pytest.mark.parametrize("raster,where", [
    (b"1 x 2", "'x' at index 1"), (b"+1 -2 3.0", "'3.0' at index 2"),
    ("7 \u0663 7".encode("utf-8"), "'\u0663' at index 1"),
    (b"7 7 \xff", "'\\\\xff' at index 2")])
def test_a_non_integer_sample_is_named_with_its_index(raster, where):
    with pytest.raises(PgmError) as caught:
        read_pgm_bytes(b"P2\n3 1\n255\n" + raster)
    assert str(caught.value) == f"non-integer ASCII sample {where}"


def test_writer_validation(image):
    with pytest.raises(PgmError):
        write_pgm_bytes(image, 100)  # pixels exceed maxval
    with pytest.raises(PgmError):
        write_pgm_bytes(np.zeros((0, 3), dtype=int), 255)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("image", [np.array([[1.5, 2.0]]),
                                   np.array([[1.0, 2.0]]),
                                   np.array([[True, False]])])
def test_writer_rejects_non_integer_images(image, binary):
    # P5 used to truncate 1.5 to 1; P2 wrote "1.5" or "True", unreadable
    with pytest.raises(PgmError, match="integers"):
        write_pgm_bytes(image, 255, binary=binary)


@pytest.mark.parametrize("maxval,bits", [
    (1, 2), (3, 2), (100, 8), (255, 8), (1023, 10), (4095, 12), (65535, 16),
])
def test_bits_for_maxval(maxval, bits):
    assert bits_for_maxval(maxval) == bits
