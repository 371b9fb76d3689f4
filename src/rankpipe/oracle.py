"""Brute-force reference implementations.

Everything here is deliberately naive: selection is a full sort, window
gathering is a plain nested loop with its own border arithmetic, and none
of it shares code with the engines or the imaging drivers it is used to
check.
"""

from __future__ import annotations

import numpy as np

from .imaging import Border, Custom, Diamond, Rect
from .params import MAX_DATA_BITS, ConfigError, _array, _integral


def select_desc(data, rank: int):
    """The rank-th largest value: position rank-1 of the multiset sorted descending."""
    rank = _integral(rank, "rank values")
    try:
        items = sorted(data, reverse=True)
    except (TypeError, ValueError):  # not iterable, or items not comparable
        raise ConfigError(f"samples must be a sequence of comparable "
                          f"values, got {type(data).__name__}") from None
    if any(isinstance(item, (list, tuple, np.ndarray)) for item in items):
        raise ConfigError("samples must be single values, not rows")
    if not 1 <= rank <= len(items):
        raise ConfigError(f"rank {rank} outside [1, {len(items)}]")
    return items[rank - 1]


def select_desc_rows(sets, rank: int) -> np.ndarray:
    """The rank-th largest value of every row of the 2-D ``sets``: one full
    sort of all the rows at once, read at position rank-1 from the top."""
    rank = _integral(rank, "rank values")
    sets = _array(sets)
    if sets.ndim != 2:
        raise ConfigError(f"sets must be a 2-D array, one set per row, got "
                          f"shape {sets.shape}")
    if not 1 <= rank <= sets.shape[1]:
        raise ConfigError(f"rank {rank} outside [1, {sets.shape[1]}]")
    return np.sort(sets, axis=1)[:, sets.shape[1] - rank]


def _own_offsets(shape):
    # independent enumeration; order is irrelevant to a rank filter
    if isinstance(shape, Rect):
        xs = range(-(shape.width // 2), shape.width - shape.width // 2)
        ys = range(-(shape.height // 2), shape.height - shape.height // 2)
        return [(dx, dy) for dx in xs for dy in ys]
    if isinstance(shape, Diamond):
        r = (shape.diameter - 1) // 2
        return [(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                if abs(dx) + abs(dy) <= r]
    if isinstance(shape, Custom):
        return list(shape.offsets)
    raise ConfigError(f"unknown window shape {shape!r}")


def filter_image_oracle(image, shape, rank: int,
                        border: Border = Border.CLAMP) -> np.ndarray:
    """Per-pixel sort-based rank filtering; definitionally correct reference.
    Raises ``ConfigError`` where :func:`rankpipe.imaging.run_filter` does,
    with its messages, in its order, from checks of its own."""
    try:
        image = np.asarray(image)
    except ValueError:  # numpy's refusal of a ragged sequence
        raise ConfigError("sample rows must all be one length") from None
    if image.ndim != 2 or image.size == 0:
        raise ConfigError("images must be non-empty 2-D arrays")
    border = Border(border)
    offsets = _own_offsets(shape)
    rank = _integral(rank, "rank values")
    if image.dtype.kind not in "iu":
        raise ConfigError(f"samples must be integers that fit in "
                          f"{MAX_DATA_BITS} bits, got {image.dtype} data")
    width_bits = max(int(image.max()), 0).bit_length()
    bits = max(2, width_bits + width_bits % 2)  # stages resolve 2 bits
    if bits > MAX_DATA_BITS:
        raise ConfigError(f"data_bits must be in [2, {MAX_DATA_BITS}], "
                          f"got {bits}")
    if not 1 <= rank <= len(offsets):
        raise ConfigError(f"rank must satisfy 1 <= M <= N, "
                          f"got M={rank} N={len(offsets)}")
    if int(image.min()) < 0:
        raise ConfigError("samples must be non-negative")
    height, width = image.shape
    if border is Border.CLAMP:
        x_anchors = range(width)
        y_anchors = range(height)
    else:
        dxs = [dx for dx, _ in offsets]
        dys = [dy for _, dy in offsets]
        x_anchors = range(max(0, -min(dxs)), min(width, width - max(max(dxs), 0)))
        y_anchors = range(max(0, -min(dys)), min(height, height - max(max(dys), 0)))
        if not x_anchors or not y_anchors:
            raise ConfigError("window does not fit inside the image")
    out = np.empty((len(y_anchors), len(x_anchors)), dtype=np.int64)
    for oy, y in enumerate(y_anchors):
        for ox, x in enumerate(x_anchors):
            window = []
            for dx, dy in offsets:
                sy = min(max(y + dy, 0), height - 1)
                sx = min(max(x + dx, 0), width - 1)
                window.append(int(image[sy, sx]))
            out[oy, ox] = select_desc(window, rank)
    return out
