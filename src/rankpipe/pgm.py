"""Netpbm PGM (P2/P5) reading and writing.

Readers are tolerant of comments and arbitrary header whitespace; writers
emit a canonical header (``P5\\n<w> <h>\\n<maxval>\\n``).  Binary samples
are one byte up to maxval 255 and big-endian two bytes above, per the
Netpbm convention; maxval is capped at 65535.

ASCII samples (the P2 raster here, and the ``rankpipe rank``/``trace``
input streams in :mod:`rankpipe.cli`) are parsed from their undecoded
bytes by ``_decimal_samples`` in one numpy pass when the text holds only
ASCII digits and ASCII whitespace and every value is below 10**18; the
pass is given the count of digit runs, so its result is allocated once.
Any other text (signs, underscores, non-ASCII digits or spaces, decimal
points, longer values) makes it return None, and the caller's exact
per-token ``int()`` parser then decides, with its own error messages.
"""

from __future__ import annotations

import numpy as np

from .params import ConfigError, padded_bits

MAX_MAXVAL = 65535
# np.fromstring saturates past int64 instead of raising; values at or above
# this bound go to the exact parser
_FAST_LIMIT = 10 ** 18


class PgmError(ConfigError):
    """Malformed PGM data."""


def bits_for_maxval(maxval: int) -> int:
    """Even sample width implied by a PGM maxval (at least 2 bits)."""
    return max(2, padded_bits(maxval.bit_length()))


def _decimal_samples(data: bytes) -> np.ndarray | None:
    """int64 samples of whitespace-separated decimal ``data``, or None when
    the text holds anything but ASCII digits and the six ASCII whitespace
    bytes or holds a value of 10**18 or more.  Whitespace-only text has
    no samples."""
    raw = np.frombuffer(data, dtype=np.uint8)
    digit = (raw - 48) < 10
    if not (digit | ((raw - 9) < 5) | (raw == 32)).all():
        return None
    tokens = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[:1].sum())
    # the count allocates the result once; it must be exact, since numpy
    # leaves the items past the text's last value unset.  Each digit run
    # is one value here, and whitespace-only text reads as no values.
    values = np.fromstring(data, dtype=np.int64, sep=" ", count=tokens)
    if values.max(initial=0) >= _FAST_LIMIT:
        return None
    return values


def _bad_token(tokens) -> str:
    """The first token ``int()`` rejects, quoted, and its 0-based index."""
    for i, token in enumerate(tokens):
        try:
            int(token)
        except ValueError:
            if isinstance(token, bytes):
                token = token.decode("utf-8", "backslashreplace")
            return f"{token!r} at index {i}"


def _header_tokens(data: bytes, count: int):
    """First ``count`` whitespace-separated header tokens, skipping comments.

    Returns the tokens and the offset just past the single whitespace byte
    terminating the last one (where P5 raster data begins).
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i] == ord("#"):
            while i < len(data) and data[i] not in b"\r\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise PgmError("truncated PGM header")
        tokens.append(data[start:i])
        if len(tokens) == count:
            if i >= len(data):
                raise PgmError("truncated PGM header")
            i += 1  # exactly one whitespace byte ends the header
    return tokens, i


def read_pgm_bytes(data: bytes) -> tuple[np.ndarray, int]:
    """Decode PGM bytes into ``(image, maxval)``."""
    (magic,), _ = _header_tokens(data, 1)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"not a PGM file (magic {magic!r})")
    tokens, offset = _header_tokens(data, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmError("non-numeric PGM header field") from exc
    if width < 1 or height < 1:
        raise PgmError("PGM dimensions must be positive")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PgmError(f"PGM maxval must be in [1, {MAX_MAXVAL}]")
    count = width * height
    raster = data[offset:]
    if magic == b"P2":
        flat = _decimal_samples(raster)
        fields = raster.split() if flat is None else flat
        if len(fields) != count:
            raise PgmError(
                f"expected {count} ASCII samples, found {len(fields)}"
            )
        if flat is None:
            try:
                flat = np.array([int(f) for f in fields], dtype=np.int64)
            except ValueError as exc:
                raise PgmError("non-integer ASCII sample "
                               f"{_bad_token(fields)}") from exc
            except OverflowError as exc:
                raise PgmError(f"ASCII sample outside [0, {maxval}]") from exc
            if flat.min(initial=0) < 0:
                raise PgmError("negative ASCII sample")
    else:
        if maxval > 255:
            if len(raster) < 2 * count:
                raise PgmError("truncated binary raster")
            flat = np.frombuffer(raster[:2 * count], dtype=">u2").astype(np.int64)
        else:
            if len(raster) < count:
                raise PgmError("truncated binary raster")
            flat = np.frombuffer(raster[:count], dtype=np.uint8).astype(np.int64)
    if flat.max(initial=0) > maxval:
        raise PgmError("sample exceeds the declared maxval")
    return flat.reshape(height, width), maxval


def read_pgm(path) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        return read_pgm_bytes(fh.read())


def write_pgm_bytes(image, maxval: int, binary: bool = True) -> bytes:
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise PgmError("images must be non-empty 2-D arrays")
    if image.dtype.kind not in "iu":
        raise PgmError(f"PGM samples must be integers, got {image.dtype}")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PgmError(f"PGM maxval must be in [1, {MAX_MAXVAL}]")
    if image.min() < 0 or image.max() > maxval:
        raise PgmError("pixels outside [0, maxval]")
    height, width = image.shape
    magic = "P5" if binary else "P2"
    header = f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")
    if not binary:
        row = " ".join(["%d"] * width) + "\n"
        body = row * height % tuple(image.ravel().tolist())
        return header + body.encode("ascii")
    if maxval > 255:
        return header + image.astype(">u2").tobytes()
    return header + image.astype(np.uint8).tobytes()


def write_pgm(path, image, maxval: int, binary: bool = True) -> None:
    with open(path, "wb") as fh:
        fh.write(write_pgm_bytes(image, maxval, binary))
