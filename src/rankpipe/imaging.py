"""Window geometry and the image-level filter driver.

Images are plain 2-D numpy arrays of non-negative ints (row-major, shape
``(height, width)``).  A window shape turns into a list of (dx, dy) offsets
around each anchor pixel; the engines never see geometry, only sample
streams, so every engine choice must produce bit-identical output.

``run_filter`` checks the image once, casts it once to the sample dtype
(uint8 up to 8 bits, uint16 up to 16) and edge-pads it once by the
window's extents, so clamp borders need no clipping and valid borders are
anchors inside the same frame.  Every band is one ``stream_cycles`` call
on slices of it, cut as the engine's record says: a chain band copies one
slice per offset, in column order, into its windows (a sample or K-sample
column per clock), a sliding band each row's transposed slice in turn.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .core import stream_cycles
# kept for the benchmark's span table; every band calls stream_cycles
from .ensembles import sliding_cycles  # noqa: F401
from .multichannel import mc_stream_cycles  # noqa: F401
from .params import (
    MAX_DATA_BITS,
    ConfigError,
    FilterParams,
    McParams,
    SlidingParams,
    _array,
    _integral,
    check_samples,
    narrowest_uint,
    padded_bits,
)


@dataclass(frozen=True)
class Rect:
    """Rectangular window, ``width`` columns by ``height`` rows."""

    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            side = _integral(getattr(self, name), "rectangle sides")
            if side < 1:
                raise ConfigError("rectangle sides must be positive")
            object.__setattr__(self, name, side)


@dataclass(frozen=True)
class Diamond:
    """Diamond window of odd ``diameter``: |dx| + |dy| <= (diameter-1)/2."""

    diameter: int

    def __post_init__(self):
        diameter = _integral(self.diameter, "diamond diameters")
        if diameter < 1 or diameter % 2 == 0:
            raise ConfigError("diamond diameter must be odd and positive")
        object.__setattr__(self, "diameter", diameter)


@dataclass(frozen=True)
class Custom:
    """Explicit offset list; offsets must be distinct."""

    offsets: tuple

    def __post_init__(self):
        try:
            pairs = [(dx, dy) for dx, dy in self.offsets]
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ConfigError(
                "custom offsets must be (dx, dy) pairs") from None
        offs = tuple((_integral(dx, "custom offsets"),
                      _integral(dy, "custom offsets")) for dx, dy in pairs)
        if not offs:
            raise ConfigError("custom windows need at least one offset")
        if len(set(offs)) != len(offs):
            raise ConfigError("custom window offsets must be distinct")
        object.__setattr__(self, "offsets", offs)


WindowShape = Rect | Diamond | Custom


class Border(enum.Enum):
    """Edge handling: replicate edge pixels, or emit interior anchors only."""

    CLAMP = "clamp"
    VALID = "valid"

    @classmethod
    def _missing_(cls, value):
        # Border(value) coerces the strings; anything else is a config error
        raise ConfigError(f"border must be one of "
                          f"{', '.join(b.value for b in cls)}, got {value!r}")


def _axis_offsets(size: int) -> range:
    # floor-centered: even sizes take the extra cell on the low side
    return range(-(size // 2), size - size // 2)


def window_offsets(shape: WindowShape) -> list[tuple[int, int]]:
    """(dx, dy) offsets of a shape in row-major order (by dy, then dx).

    The order is a documented, stable scan order for reproducible traces;
    rank results do not depend on it.
    """
    if isinstance(shape, Rect):
        return [(dx, dy) for dy in _axis_offsets(shape.height)
                for dx in _axis_offsets(shape.width)]
    if isinstance(shape, Diamond):
        r = (shape.diameter - 1) // 2
        return [(dx, dy) for dy in range(-r, r + 1)
                for dx in range(-r, r + 1) if abs(dx) + abs(dy) <= r]
    if isinstance(shape, Custom):
        return sorted(shape.offsets, key=lambda o: (o[1], o[0]))
    raise ConfigError(f"unknown window shape {shape!r}")


def window_size(shape: WindowShape) -> int:
    """N, the number of offsets of a shape: w·h for a rectangle and
    2r(r+1) + 1 for a diamond of radius r, in closed form; only a custom
    list is enumerated."""
    if isinstance(shape, Rect):
        return shape.width * shape.height
    if isinstance(shape, Diamond):
        r = (shape.diameter - 1) // 2
        return 2 * r * (r + 1) + 1
    return len(window_offsets(shape))


def parse_window(text: str) -> WindowShape:
    """Parse a CLI window spec: ``WxH``, ``diamondD``, or ``custom=FILE``.
    The keywords take any case; the file path is opened as given."""
    if not isinstance(text, str):
        raise ConfigError(f"window spec must be text, got {text!r}")
    text = text.strip()
    if text.lower().startswith("custom="):
        offsets = []
        with open(text[len("custom="):], "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    dx, dy = map(int, line.split())
                except ValueError as exc:
                    raise ConfigError(
                        f"custom window line {number} must be two integers "
                        f"'dx dy', got {line!r}") from exc
                offsets.append((dx, dy))
        return Custom(tuple(offsets))
    text = text.lower()
    if text.startswith("diamond"):
        try:
            return Diamond(int(text[len("diamond"):]))
        except ValueError as exc:
            raise ConfigError(f"bad diamond spec {text!r}") from exc
    if "x" in text:
        w, _, h = text.partition("x")
        try:
            return Rect(int(w), int(h))
        except ValueError as exc:
            raise ConfigError(f"bad window spec {text!r}") from exc
    raise ConfigError(f"bad window spec {text!r}")


def format_window(shape: WindowShape) -> str:
    if isinstance(shape, Rect):
        return f"{shape.width}x{shape.height}"
    if isinstance(shape, Diamond):
        return f"diamond{shape.diameter}"
    return f"custom({len(shape.offsets)} offsets)"


def percentile_to_rank(p: float, n: int) -> int:
    """Rank M = ceil(p * N) clamped to [1, N]; p = 0.5 selects the median."""
    # bool is a Real, and True would read as the 100th percentile
    if isinstance(p, bool) or not isinstance(p, Real) or not 0 < p <= 1:
        raise ConfigError(f"percentile must lie in (0, 1], got {p!r}")
    n = _integral(n, "set sizes")
    if n < 1:
        raise ConfigError("set size must be positive")
    return min(max(math.ceil(p * n - 1e-9), 1), n)


def frame_rate(freq_hz: float, img_w: int, img_h: int, n: int) -> float:
    """Single-core frames per second: one sample per clock, N clocks per
    pixel.  N may be a measured real number of cycles per result."""
    values = (freq_hz, img_w, img_h, n)
    if (not all(isinstance(v, Real) for v in values)
            or not (0 < freq_hz < math.inf and 0 < n < math.inf)
            or min(img_w, img_h) <= 0):
        raise ConfigError("frame-rate arguments must be positive and finite")
    if not isinstance(img_w, Integral) or not isinstance(img_h, Integral):
        raise ConfigError(f"image sides must be integers, got {img_w!r} "
                          f"x {img_h!r}")
    return freq_hz / (img_w * img_h * n)


@dataclass(frozen=True)
class FilterReport:
    """Filtered image plus the simulation accounting behind it."""

    image: np.ndarray
    set_size: int
    rank: int
    engine: str
    border: Border
    data_bits: int
    cycles: int
    comparisons: int

    @property
    def cycles_per_result(self) -> float:
        return self.cycles / self.image.size


def infer_data_bits(image) -> int:
    """Smallest even sample width holding every pixel (at least 2 bits).
    Non-integer images raise :func:`rankpipe.params.check_samples`' error."""
    image = _array(image)
    if image.dtype.kind not in "iu":
        check_samples(image, MAX_DATA_BITS)
    peak = int(image.max(initial=0))
    return max(2, padded_bits(peak.bit_length()))


def _anchor_bounds(n: int, offsets, axis: int, border: Border) -> tuple[int, int]:
    """Inclusive anchor range along one axis (0 = x, 1 = y)."""
    if border is Border.CLAMP:
        return 0, n - 1
    deltas = [o[axis] for o in offsets]
    lo = max(0, -min(deltas))
    hi = min(n - 1, n - 1 - max(max(deltas), 0))
    if lo > hi:
        raise ConfigError("window does not fit inside the image")
    return lo, hi


def _bands(lo: int, hi: int, parts: int):
    """Split the inclusive anchor-row range into (first row, rows) bands."""
    count = hi - lo + 1
    parts = max(1, min(parts, count))
    step = -(-count // parts)
    return [(lo + i, min(step, count - i)) for i in range(0, count, step)]


def _run_bands(worker, bands, threads: int):
    if threads <= 1 or len(bands) <= 1:
        return [worker(band) for band in bands]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, bands))


def _padded(samples, offsets):
    """Edge-pad ``samples`` once by the window's extents.

    Returns the frame and each offset shifted into it, in order: anchor
    (x, y) reads ``frame[y + sy, x + sx]`` for shift (sx, sy), which is the
    clamped pixel (x + dx, y + dy).  An offset reaching past the image from
    every anchor reads the edge pixel, so offsets past +-max(size - 1, N)
    are clipped to it: that changes no pixel and no rectangle or diamond,
    whose offsets stay below N, and bounds the pad of a far custom offset.
    The frame is five slice stores: image, edge columns, top and bottom.
    """
    height, width = samples.shape
    rx, ry = max(width - 1, len(offsets)), max(height - 1, len(offsets))
    dxs, dys = zip(*offsets)
    if max(-min(dxs), max(dxs)) > rx or max(-min(dys), max(dys)) > ry:
        offsets = [(min(max(dx, -rx), rx), min(max(dy, -ry), ry))
                   for dx, dy in offsets]
        dxs, dys = zip(*offsets)
    left, top = max(0, -min(dxs)), max(0, -min(dys))
    right, bottom = max(0, max(dxs)), max(0, max(dys))
    frame = np.empty((top + height + bottom, left + width + right),
                     samples.dtype)
    body = frame[top:top + height]
    body[:, left:left + width] = samples
    body[:, :left] = samples[:, :1]
    body[:, left + width:] = samples[:, -1:]
    frame[:top] = body[0]
    frame[top + height:] = body[-1]
    return frame, [(dx + left, dy + top) for dx, dy in offsets]


def _windows(frame, shifts, x0, cols, y0, rows):
    """The windows of ``rows`` x ``cols`` anchors from (x0, y0) as a
    ``(rows, cols, len(shifts))`` array in shift order: one slice copy of
    the frame per shift."""
    out = np.empty((rows, cols, len(shifts)), frame.dtype)
    for i, (sx, sy) in enumerate(shifts):
        out[:, :, i] = frame[y0 + sy:y0 + sy + rows, x0 + sx:x0 + sx + cols]
    return out


def _chain_streams(frame, shifts, params, x0, cols, y0, rows):
    """One stream per band under ``FilterParams`` or ``McParams``: each
    anchor's window in column order, one input of ``params.lanes`` per
    clock (a sample, or a column of K samples from the top row)."""
    samples = _windows(frame, shifts, x0, cols, y0, rows)
    return stream_cycles(params,
                         samples.reshape((-1,) + params.lanes)).results


def _sliding_streams(frame, shifts, params, x0, cols, y0, rows):
    """One column stream per band: each row's strip of the columns its
    windows span, a transposed slice of the frame, one after another; the
    W - 1 windows per row that cross into the next strip are dropped."""
    sx, sy = shifts[0]  # the top-left corner of the square window
    side, span = params.columns, cols + params.columns - 1
    block = frame[y0 + sy:y0 + sy + rows + side - 1, x0 + sx:x0 + sx + span]
    # strip r, column c, row k is block[r + k, c]
    strips = np.lib.stride_tricks.sliding_window_view(block, side, axis=0)
    values = stream_cycles(params, strips.reshape(-1, side)).values
    pixels = values[:rows * span].reshape(rows, span)
    return pixels[:, :cols].astype(np.int64).reshape(-1)


def engines_for(shape: WindowShape) -> list[str]:
    """Engine choices capable of a shape; all must agree bit for bit."""
    names = ["single"]
    if isinstance(shape, Rect):
        names.append("multichannel")
        if shape.width == shape.height and shape.width % 2 == 1:
            names.append("sliding")
    return names


def require_engine(shape: WindowShape, engine: str) -> None:
    """Raise ``ConfigError`` unless ``engine`` can filter ``shape``."""
    names = engines_for(shape)
    if engine not in names:
        raise ConfigError(
            f"the {engine!r} engine cannot run a {format_window(shape)} "
            f"window (engines for it: {', '.join(names)})"
        )


def engine_params(shape: WindowShape, n: int, rank: int, engine: str,
                  bits: int):
    """The parameter record ``engine`` filters ``shape`` of ``n`` offsets
    with; the record derives its counter width from ``n`` and ``rank``."""
    require_engine(shape, engine)
    if engine == "single":
        return FilterParams(data_bits=bits, set_size=n, rank=rank)
    record = SlidingParams if engine == "sliding" else McParams
    return record(channels=shape.height, columns=shape.width, rank=rank,
                  data_bits=bits)


def filter_cost(params, rows: int, cols: int) -> tuple[int, int]:
    """Simulated cycles and comparisons of filtering ``rows`` x ``cols``
    anchors under ``params``, read from the record alone.  A chain engine's
    bands are one back-to-back stream cut up for the threads; each sliding
    row's strip is a stream alone."""
    runs, sets = ((rows, params.starts(cols + params.columns - 1))
                  if isinstance(params, SlidingParams) else (1, cols * rows))
    return runs * params.cycles(sets), runs * params.comparisons(sets)


def run_filter(image, shape: WindowShape, rank: int, engine: str = "single",
               border: Border = Border.CLAMP, *, data_bits: int | None = None,
               threads: int = 1) -> FilterReport:
    """Rank-filter an image and report the simulated cycle accounting.

    Output pixel (x, y) is the rank-th largest of the window anchored
    there; under the clamp policy coordinates are clipped to the image, so
    the output matches the input size.  The engine choice changes only the
    simulated datapath, never the pixels.  The chain runs under
    :func:`engine_params`, whose record derives the counter width from the
    window size and rank, so any window the oracle filters runs.  Each row
    band of anchors is one engine call, on ``threads`` threads; the report
    does not depend on ``threads`` (:func:`filter_cost`).
    """
    image = _array(image)
    if image.ndim != 2 or image.size == 0:
        raise ConfigError("images must be non-empty 2-D arrays")
    border = Border(border)
    threads = _integral(threads, "thread counts")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    offsets = sorted(window_offsets(shape))  # column order: by dx, then dy
    n = len(offsets)
    rank = _integral(rank, "rank values")
    bits = data_bits if data_bits is not None else infer_data_bits(image)
    params = engine_params(shape, n, rank, engine, bits)
    samples = check_samples(image, params.data_bits).astype(
        narrowest_uint(params.data_bits), copy=False)
    frame, shifts = _padded(samples, offsets)
    height, width = samples.shape
    x_lo, x_hi = _anchor_bounds(width, offsets, 0, border)
    y_lo, y_hi = _anchor_bounds(height, offsets, 1, border)
    cols, rows = x_hi - x_lo + 1, y_hi - y_lo + 1
    streams = (_sliding_streams if isinstance(params, SlidingParams)
               else _chain_streams)

    def worker(band):
        return streams(frame, shifts, params, x_lo, cols, *band)

    pixels = _run_bands(worker, _bands(y_lo, y_hi, threads), threads)
    cycles, comparisons = filter_cost(params, rows, cols)
    return FilterReport(image=np.concatenate(pixels).reshape(rows, cols),
                        set_size=n, rank=rank, engine=engine, border=border,
                        data_bits=params.data_bits, cycles=cycles,
                        comparisons=comparisons)


def filter_image(image, shape: WindowShape, rank: int, engine: str = "single",
                 border: Border = Border.CLAMP, **kwargs) -> np.ndarray:
    """The filtered image alone; see :func:`run_filter` for the accounting."""
    return run_filter(image, shape, rank, engine, border, **kwargs).image
