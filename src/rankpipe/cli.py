"""Command-line surface: image filtering, stream rank finding, per-cycle
trace export, and frame-rate benchmarking.

Exit codes: 0 on success, 1 for validation or I/O problems, 2 when a
``--check`` cross-verification against the sort oracle fails.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import imaging, oracle, pgm
from .core import run_stream, stream_cycles
from .ensembles import CADENCE, WIDTHS, ensemble9753_cycles, sliding_cycles
from .imaging import Border, frame_rate, percentile_to_rank
from .multichannel import mc_stream_cycles
from .params import (
    ConfigError,
    FilterParams,
    FramingError,
    McParams,
)

DEFAULT_CLOCK_HZ = 275e6
BLANK = -1  # trace cell left empty; samples are never negative
_CHUNK_ROWS = 1024  # trace rows rendered per write


class CheckFailure(Exception):
    """A --check cross-verification against the oracle found a mismatch."""


def _read_values(path: str | None) -> np.ndarray:
    if path is None:
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    # any non-ASCII character becomes "?", which sends the text to int()
    values = pgm._decimal_samples(text.encode("ascii", "replace"))
    if values is not None:
        return values
    try:
        return np.array(text.split(), dtype=np.int64)
    except ValueError as exc:
        raise ConfigError("bad sample in the input stream: "
                          f"{pgm._bad_token(text.split())}") from exc
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
    values = _read_values(args.input)
    if args.set_size < 1:
        raise ConfigError("--set-size must be positive")
    rank = _resolve_rank(args, args.set_size)
    bits = (imaging.infer_data_bits(values) if args.data_bits is None
            else args.data_bits)
    params = FilterParams(data_bits=bits, set_size=args.set_size, rank=rank)
    results = run_stream(params, values)
    if len(results):
        print("\n".join(map(str, results.tolist())))
    if args.check:
        for i, value in enumerate(results):
            group = values[i * args.set_size:(i + 1) * args.set_size]
            expected = oracle.select_desc(group, rank)
            if int(value) != expected:
                raise CheckFailure(
                    f"set {i}: engine said {int(value)}, oracle says {expected}"
                )
    return 0


def _reshape_columns(values, channels: int) -> np.ndarray:
    if len(values) % channels:
        raise ConfigError(
            f"{len(values)} values is not a multiple of {channels} channels"
        )
    return values.reshape(-1, channels)


def _cells(top: int) -> np.ndarray:
    """The text of every cell up to ``top``, one ``V{D + 1}`` item each (D
    digits): item v + 1 holds v's digits right-aligned, NUL for leading
    zeros, then a comma; item 0, BLANK, is all NUL and the comma."""
    width = len(str(top))
    table = np.zeros((top + 2, width + 1), dtype=np.uint8)
    table[:, width] = ord(",")
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    for k in range(width):
        place = 10 ** k
        column = np.tile(np.repeat(digits, place), top // (10 * place) + 1)
        column[:place if k else 0] = 0  # values below place have no digit k
        table[1:, width - 1 - k] = column[:top + 1]
    return table.view(f"V{width + 1}").ravel()


def _write_trace(path, header, rows) -> None:
    """Write ``header`` and the int64 ``rows`` table as CSV, BLANK cells empty.

    Each block of rows is looked up in one :func:`_cells` table, its last
    comma turned into a newline and its NUL padding dropped in one
    ``translate``.  No cell is below BLANK: samples are non-negative.
    """
    cells = _cells(max(int(rows.max(initial=0)), 0))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, len(rows), _CHUNK_ROWS):
            block = rows[start:start + _CHUNK_ROWS]
            text = cells[block - BLANK].view(np.uint8).reshape(len(block), -1)
            text[:, -1] = ord("\n")
            fh.write(text.tobytes().translate(None, b"\0"))


def _trace_table(trace, channels: int, tail_header, *tail):
    """Header and ``(cycles, columns)`` table of a per-clock trace: cycle, d1st,
    din, dv, dout, the results (BLANK off dv rows), then ``tail``."""
    header = (["cycle", "d1st"] + [f"din{k}" for k in range(channels)]
              + ["dv"] + [f"dout{k}" for k in range(channels)]
              + list(tail_header))
    result = np.full((trace.cycles,) + trace.values.shape[1:], BLANK)
    result[trace.fire] = trace.values
    return header, np.column_stack([np.arange(trace.cycles), trace.d1st,
                                    trace.din, trace.dv, trace.dout, result,
                                    *tail])


def _trace_stream(trace, channels: int):
    return _trace_table(trace, channels, ["result"])


def _trace_9753(cols, ranks, data_bits: int = 8):
    trace = ensemble9753_cycles(cols, ranks, data_bits=data_bits)
    names = ([f"result{w}" for w in WIDTHS]
             + [f"en{w}" for w in WIDTHS[1:]])
    return _trace_table(trace, CADENCE, names, trace.enables)


def cmd_trace(args) -> int:
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
        header, rows = _trace_stream(trace, 1)
    elif args.engine in ("multichannel", "sliding"):
        if args.window is None:
            raise ConfigError(f"--window is required for {args.engine} traces")
        shape = imaging.parse_window(args.window)
        imaging.require_engine(shape, args.engine)
        n = shape.width * shape.height
        rank = _resolve_rank(args, n)
        cols = _reshape_columns(values, shape.height)
        if args.engine == "multichannel":
            params = McParams(channels=shape.height, columns=shape.width,
                              rank=rank, data_bits=bits)
            trace = mc_stream_cycles(params, cols)
        else:
            trace = sliding_cycles(shape.width, rank, cols, data_bits=bits)
        header, rows = _trace_stream(trace, shape.height)
    else:  # 9753
        ranks = []
        for token in args.ranks.split(","):
            try:
                ranks.append(int(token))
            except ValueError as exc:
                raise ConfigError(
                    f"--ranks takes integers, got {token!r}") from exc
        if len(ranks) != 4:
            raise ConfigError("--ranks must list four values m9,m7,m5,m3")
        cols = _reshape_columns(values, CADENCE)
        header, rows = _trace_9753(cols, ranks, bits)
    _write_trace(args.output, header, rows)
    print(f"wrote {len(rows)} cycles to {args.output}")
    return 0


_STANDARD_WINDOWS = ("3x3", "5x5", "3x5", "3x7", "diamond5", "diamond7")


def cmd_bench(args) -> int:
    width, height = _parse_dims(args.image_dims)
    sim_w, sim_h = _parse_dims(args.sim_dims)
    frame_rate(args.clock, width, height, 1)  # checks the clock before output
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
        fps = frame_rate(args.clock, width, height, cpr)
        line = (f"{imaging.format_window(shape):<10} {n:>4} {cpr:>8} "
                f"{fps:>9.2f}")
        if args.simulate:
            cycles, _ = imaging.filter_cost(params, sim_h, sim_w)
            measured = cycles / (sim_h * sim_w)
            fps = frame_rate(args.clock, width, height, measured)
            line += f" {measured:>10.3f} {fps:>10.2f}"
        rows.append(line)
    print(f"operating frequency: {args.clock / 1e6:.1f} MHz")
    print(f"image size: {width} x {height}")
    print(f"engine: {args.engine}")
    header = f"{'window':<10} {'N':>4} {'cyc/res':>8} {'fps':>9}"
    if args.simulate:
        header += f" {'measured':>10} {'fps(meas)':>10}"
    print("\n".join([header] + rows))
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
    p_trace.add_argument("--ranks", default="41,25,13,5",
                         help="9753 per-chain ranks m9,m7,m5,m3")
    p_trace.add_argument("--data-bits", type=int, default=None)
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser("bench", help="frame-rate table and simulation "
                                           "benchmarks")
    p_bench.add_argument("--image-dims", default="1024x768")
    p_bench.add_argument("--window", action="append", default=None,
                         help="window spec; repeatable (default: the standard "
                              "shape table)")
    p_bench.add_argument("--clock", type=float, default=DEFAULT_CLOCK_HZ)
    p_bench.add_argument("--engine", default="single",
                         choices=["single", "multichannel", "sliding"])
    p_bench.add_argument("--simulate", action="store_true",
                         help="add the cycles/result of filtering a "
                              "--sim-dims frame, read from the engine's "
                              "record; no pixel is filtered")
    p_bench.add_argument("--sim-dims", default="64x48")
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


if __name__ == "__main__":
    sys.exit(main())
