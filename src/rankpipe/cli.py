"""Command-line surface: image filtering, stream rank finding, per-cycle
trace export, and frame-rate benchmarking.

``rank`` and ``trace`` read their decimal streams with :func:`_read_values`
(a file's bytes go straight to the numpy parser), and both print through
one text writer: :func:`_cells` renders values as NUL-padded CSV cells and
:func:`_lines` turns each record into a line without the padding.

Exit codes: 0 on success, 1 for validation, I/O or out-of-memory errors, 2
when a ``--check`` cross-verification against the sort oracle fails.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import imaging, oracle, pgm
from .core import run_stream, stream_cycles
from .ensembles import CADENCE, WIDTHS, ensemble9753_cycles, sliding_cycles
from .imaging import Border, frame_rate, percentile_to_rank
from .multichannel import mc_stream_cycles
from .params import ConfigError, FilterParams, FramingError

DEFAULT_CLOCK_HZ = 275e6
BLANK = -1  # trace cell left empty; samples are never negative
_CHUNK_ROWS = 1024  # trace rows written per translate


class CheckFailure(Exception):
    """A --check cross-verification against the oracle found a mismatch."""


def _read_values(path: str | None) -> np.ndarray:
    """The samples of a whitespace-separated decimal stream: the file at
    ``path`` or, when None, stdin.

    A file is read as bytes and parsed by ``pgm._decimal_samples`` without
    decoding; only when that declines is it decoded as UTF-8 (raising as a
    text-mode read does) for the exact per-token parser.  Stdin is read as
    text, whatever its encoding, and any non-ASCII character becomes "?",
    which sends the text to the per-token parser.
    """
    if path is None:
        text = sys.stdin.read()
        data = text.encode("ascii", "replace")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        text = None
    values = pgm._decimal_samples(data)
    if values is not None:
        return values
    if text is None:
        text = data.decode("utf-8")
    tokens = text.split()
    try:
        return np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        raise ConfigError("bad sample in the input stream: "
                          f"{pgm._bad_token(tokens)}") from exc
    except OverflowError as exc:
        raise ConfigError("samples in the input stream must be below 2**63"
                          ) from exc


def _resolve_rank(args, n: int) -> int:
    if (args.rank is None) == (args.percentile is None):
        raise ConfigError("give exactly one of --rank and --percentile")
    if args.rank is not None:
        return args.rank
    return percentile_to_rank(args.percentile, n)


def _parse_dims(text: str) -> tuple[int, int]:
    w, _, h = text.partition("x")
    try:
        dims = int(w), int(h)
    except ValueError as exc:
        raise ConfigError(f"bad dimensions {text!r}") from exc
    if dims[0] < 1 or dims[1] < 1:
        raise ConfigError(f"dimensions must be positive, got {text!r}")
    return dims


def _add_rank_args(parser):
    parser.add_argument("--rank", type=int, default=None,
                        help="rank M: 1 = maximum, N = minimum")
    parser.add_argument("--percentile", type=float, default=None,
                        help="percentile in (0, 1]; 0.5 selects the median")


def cmd_filter(args) -> int:
    image, maxval = pgm.read_pgm(args.input)
    shape = imaging.parse_window(args.window)
    n = imaging.window_size(shape)
    rank = _resolve_rank(args, n)
    border = Border(args.border)
    if args.engine == "9753":
        raise ConfigError(
            "the 9753 ensemble is a trace engine, not an image filter; "
            "use --engine single, multichannel, or sliding"
        )
    height, width = image.shape
    fps = frame_rate(args.clock, width, height, n)  # checks the clock first
    report = imaging.run_filter(
        image, shape, rank, engine=args.engine, border=border,
        data_bits=pgm.bits_for_maxval(maxval), threads=args.threads)
    binary = not args.ascii
    pgm.write_pgm(args.output, report.image, maxval, binary=binary)
    measured = frame_rate(args.clock, width, height, report.cycles_per_result)
    print(f"window: {imaging.format_window(shape)}  N={n}  M={rank}")
    print(f"engine: {report.engine}  border: {border.value}  "
          f"data-bits: {report.data_bits}")
    print(f"cycles: {report.cycles} simulated "
          f"({report.cycles_per_result:.3f} per result)")
    print(f"frame rate: {fps:.2f} fps at {args.clock / 1e6:.1f} MHz "
          f"(single-core formula), {measured:.2f} fps measured "
          f"({report.engine})")
    return 0


def cmd_rank(args) -> int:
    """Print the rank-th largest of each ``--set-size`` set of the stream,
    one line per set; with ``--check``, compare them with the oracle's."""
    values = _read_values(args.input)
    if args.set_size < 1:
        raise ConfigError("--set-size must be positive")
    rank = _resolve_rank(args, args.set_size)
    bits = (imaging.infer_data_bits(values) if args.data_bits is None
            else args.data_bits)
    params = FilterParams(data_bits=bits, set_size=args.set_size, rank=rank)
    results = run_stream(params, values)
    for block in _lines(_cells(results)):  # one decimal line per result
        sys.stdout.write(block.decode("ascii"))
    if args.check:
        expected = oracle.select_desc_rows(
            values.reshape(-1, args.set_size), rank)
        wrong = np.flatnonzero(results != expected)
        if len(wrong):
            i = wrong[0]
            raise CheckFailure(f"set {i}: engine said {results[i]}, "
                               f"oracle says {expected[i]}")
    return 0


def _reshape_columns(values, channels: int) -> np.ndarray:
    if len(values) % channels:
        raise ConfigError(
            f"{len(values)} values is not a multiple of {channels} channels"
        )
    return values.reshape(-1, channels)


def _cells(values) -> np.ndarray:
    """The CSV cell of each of ``values``: its digits right-aligned behind
    NUL padding, then a comma; BLANK's cell is the comma alone.  Every cell
    has the smallest power-of-two width (2, 4, 8, 16, ...) that holds the
    widest value and its comma, and up to 8 bytes is an unsigned integer:
    the items numpy copies and fills fastest."""
    values = np.asarray(values)
    top = int(values.max(initial=0))
    digits = len(str(top))
    width = 1 << digits.bit_length()
    text = np.zeros(values.shape + (width,), np.uint8)
    text[..., -1] = ord(",")
    # the narrowest integers that hold the values divide fastest
    rest = values.astype(np.min_scalar_type(
        top if values.min(initial=0) >= 0 else -top - 1))
    shown = 0  # the units digit shows for every value but BLANK
    for place in range(width - 2, width - 2 - digits, -1):
        high = rest // 10
        text[..., place] = (rest - 10 * high + ord("0")) * (rest >= shown)
        rest, shown = high, 1  # a higher digit shows below a nonzero rest
    return text.view(f"u{width}" if width <= 8 else f"V{width}")[..., 0]


def _per_cycle(cells) -> np.ndarray:
    """``cells`` of shape (cycles, ...) as one item per cycle, that cycle's
    cells side by side: one record field, copied in one pass."""
    if cells.ndim == 1:
        return cells
    cells = cells.reshape(len(cells), math.prod(cells.shape[1:]))
    return cells.view(f"V{cells.itemsize * cells.shape[1]}")[:, 0]


def _lines(text):
    """The records of ``text`` (any items of :func:`_cells`) as lines,
    ``_CHUNK_ROWS`` at a time: each record's last comma becomes a newline,
    then each block loses its NUL padding in one ``translate``."""
    lines = text.view(np.uint8).reshape(len(text), text.itemsize)
    lines[:, -1] = ord("\n")
    for start in range(0, len(lines), _CHUNK_ROWS):
        yield lines[start:start + _CHUNK_ROWS].tobytes().translate(None, b"\0")


def _write_trace(path, header, text) -> None:
    """Write ``header`` and the per-cycle ``text`` records as CSV lines."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        fh.writelines(_lines(text))


def _trace_text(trace, channels: int, tail_header, flags=None):
    """Header and text of a per-clock trace: one record of :func:`_cells`
    per cycle holding cycle, d1st, din, dv, dout, the results (BLANK off dv
    rows), then the ``(cycles, k)`` bool ``flags`` as 0 or 1, if given,
    filled column by column from the trace's own arrays."""
    header = (["cycle", "d1st"] + [f"din{k}" for k in range(channels)]
              + ["dv"] + [f"dout{k}" for k in range(channels)]
              + list(tail_header))
    cycles, delay = trace.cycles, trace.delay
    bits = _cells([0, 1])
    cycle = _cells(np.arange(cycles))
    # every cycle's samples, then the zeros dout shows before its delay
    din = _per_cycle(_cells(np.concatenate(
        [trace.din, np.zeros((1,) + trace.din.shape[1:], trace.din.dtype)])))
    # each set's results, then the BLANK ones of every cycle without dv
    results = _per_cycle(_cells(np.concatenate(
        [trace.values, np.full((1,) + trace.values.shape[1:], BLANK)])))
    fields = [("cycle", cycle.dtype), ("d1st", bits.dtype),
              ("din", din.dtype), ("dv", bits.dtype), ("dout", din.dtype),
              ("result", results.dtype)]
    if flags is not None:
        flags = _per_cycle(_cells(flags))
        fields.append(("flags", flags.dtype))
    text = np.empty(cycles, fields)
    text["cycle"] = cycle
    text["d1st"] = bits[0]
    text["d1st"][trace.starts] = bits[1]
    text["din"] = din[:-1]
    text["dv"] = bits[0]
    text["dv"][trace.fire] = bits[1]
    text["dout"] = din[-1]
    if delay is not None:  # dout is din delayed
        text["dout"][delay:] = din[:max(cycles - delay, 0)]
    text["result"] = results[-1]
    text["result"][trace.fire] = results[:-1]
    if flags is not None:
        text["flags"] = flags
    return header, text


def _trace_stream(trace, channels: int):
    """Header and per-cycle text of a chain record's trace."""
    return _trace_text(trace, channels, ["result"])


def _trace_9753(cols, ranks, data_bits: int = 8):
    """Header and per-cycle text of a 9753 run over ``cols``: four result
    columns, then the enables of the three gated chains."""
    trace = ensemble9753_cycles(cols, ranks, data_bits=data_bits)
    names = ([f"result{w}" for w in WIDTHS]
             + [f"en{w}" for w in WIDTHS[1:]])
    return _trace_text(trace, CADENCE, names, trace.enables)


# the options each trace engine ignores, and so refuses
_TRACE_IGNORES = {"single": ("window", "ranks"),
                  "multichannel": ("set_size", "ranks"),
                  "sliding": ("set_size", "ranks"),
                  "9753": ("set_size", "window", "rank", "percentile")}


def cmd_trace(args) -> int:
    for name in _TRACE_IGNORES[args.engine]:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name.replace('_', '-')} does not apply "
                              f"to {args.engine} traces")
    values = _read_values(args.input)
    bits = (imaging.infer_data_bits(values) if args.data_bits is None
            else args.data_bits)
    if args.engine == "single":
        if args.set_size is None:
            raise ConfigError("--set-size is required for single-engine traces")
        rank = _resolve_rank(args, args.set_size)
        params = FilterParams(data_bits=bits, set_size=args.set_size,
                              rank=rank)
        trace = stream_cycles(params, values)
        header, text = _trace_stream(trace, 1)
    elif args.engine in ("multichannel", "sliding"):
        if args.window is None:
            raise ConfigError(f"--window is required for {args.engine} traces")
        shape = imaging.parse_window(args.window)
        imaging.require_engine(shape, args.engine)
        n = imaging.window_size(shape)
        rank = _resolve_rank(args, n)
        cols = _reshape_columns(values, shape.height)
        params = imaging.engine_params(shape, n, rank, args.engine, bits)
        if args.engine == "multichannel":
            trace = mc_stream_cycles(params, cols)
        else:
            trace = sliding_cycles(params, cols)
        header, text = _trace_stream(trace, shape.height)
    else:  # 9753
        ranks = []
        spec = "41,25,13,5" if args.ranks is None else args.ranks
        for token in spec.split(","):
            try:
                ranks.append(int(token))
            except ValueError as exc:
                raise ConfigError(
                    f"--ranks takes integers, got {token!r}") from exc
        if len(ranks) != 4:
            raise ConfigError("--ranks must list four values m9,m7,m5,m3")
        cols = _reshape_columns(values, CADENCE)
        header, text = _trace_9753(cols, ranks, bits)
    _write_trace(args.output, header, text)
    print(f"wrote {len(text)} cycles to {args.output}")
    return 0


_STANDARD_WINDOWS = ("3x3", "5x5", "3x5", "3x7", "diamond5", "diamond7")


def cmd_bench(args) -> int:
    """Each window's frame rates at ``--image-dims``, read from its record."""
    width, height = _parse_dims(args.image_dims)
    fps = functools.partial(frame_rate, args.clock, width, height)
    fps(1)  # checks the clock before output
    shapes = [imaging.parse_window(spec)
              for spec in args.window or _STANDARD_WINDOWS]
    if not args.window:  # the standard windows the engine can filter
        shapes = [s for s in shapes if args.engine in imaging.engines_for(s)]
    rows = []  # every row's record is built before anything is printed
    for shape in shapes:
        n = imaging.window_size(shape)
        rank = percentile_to_rank(0.5, n)
        params = imaging.engine_params(shape, n, rank, args.engine, 8)
        cpr = params.cadence
        cycles, _ = imaging.filter_cost(params, height, width)
        measured = cycles / (height * width)
        rows.append(f"{imaging.format_window(shape):<10} {n:>4} {cpr:>8} "
                    f"{fps(cpr):>9.2f} {measured:>10.3f} "
                    f"{fps(measured):>10.2f}")
    print(f"operating frequency: {args.clock / 1e6:.1f} MHz")
    print(f"image size: {width} x {height}")
    print(f"engine: {args.engine}")
    print(f"{'window':<10} {'N':>4} {'cyc/res':>8} {'fps':>9} "
          f"{'measured':>10} {'fps(meas)':>10}", *rows, sep="\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rankpipe`` parser, built once; every parse makes a fresh
    namespace, and each ``cmd_*`` resolves its helpers when it runs."""
    parser = argparse.ArgumentParser(
        prog="rankpipe",
        description="Streaming rank/percentile filtering with cycle-accurate "
                    "engine simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="rank-filter a PGM image")
    p_filter.add_argument("input")
    p_filter.add_argument("output")
    p_filter.add_argument("--window", required=True,
                          help="WxH, diamondD, or custom=FILE")
    _add_rank_args(p_filter)
    p_filter.add_argument("--engine", default="single",
                          choices=["single", "multichannel", "sliding", "9753"])
    p_filter.add_argument("--border", default="clamp",
                          choices=[b.value for b in Border])
    p_filter.add_argument("--clock", type=float, default=DEFAULT_CLOCK_HZ,
                          help="reference clock in Hz for frame-rate reporting")
    p_filter.add_argument("--threads", type=int, default=1)
    p_filter.add_argument("--ascii", action="store_true",
                          help="write ASCII (P2) output instead of binary (P5)")
    p_filter.set_defaults(func=cmd_filter)

    p_rank = sub.add_parser("rank", help="rank-filter a whitespace-separated "
                                         "integer stream")
    p_rank.add_argument("input", nargs="?", default=None,
                        help="input file; stdin when omitted")
    p_rank.add_argument("--set-size", type=int, required=True)
    _add_rank_args(p_rank)
    p_rank.add_argument("--data-bits", type=int, default=None)
    p_rank.add_argument("--check", action="store_true",
                        help="cross-verify every result against the sort oracle")
    p_rank.set_defaults(func=cmd_rank)

    p_trace = sub.add_parser("trace", help="export a per-clock CSV trace")
    p_trace.add_argument("input", nargs="?", default=None)
    p_trace.add_argument("-o", "--output", required=True)
    p_trace.add_argument("--engine", default="single",
                         choices=["single", "multichannel", "sliding", "9753"])
    p_trace.add_argument("--set-size", type=int, default=None)
    _add_rank_args(p_trace)
    p_trace.add_argument("--window", default=None,
                         help="WxH for multichannel, WxW for sliding")
    p_trace.add_argument("--ranks", default=None,
                         help="9753 per-chain ranks m9,m7,m5,m3 "
                              "(default 41,25,13,5)")
    p_trace.add_argument("--data-bits", type=int, default=None)
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser("bench", help="frame-rate table of a frame, "
                                           "formula and simulated cycles")
    p_bench.add_argument("--image-dims", default="1024x768")
    p_bench.add_argument("--window", action="append", default=None,
                         help="window spec; repeatable (default: the standard "
                              "shape table)")
    p_bench.add_argument("--clock", type=float, default=DEFAULT_CLOCK_HZ)
    p_bench.add_argument("--engine", default="single",
                         choices=["single", "multichannel", "sliding"])
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, FramingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names what it refused
        print(f"error: out of memory{str(exc) and ': '}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
