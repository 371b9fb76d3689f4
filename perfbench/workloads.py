"""The benchmark's workloads: seeded inputs, CLI argument lists, output
checks against the sort oracle, and the closed-form cycle contract.

Every workload owns a small pool of calls that the runner cycles through.
A call's ``check`` reads what the CLI wrote (stdout, the output image or
the trace CSV), compares every result with :mod:`rankpipe.oracle`, and
returns what the call produced.  A mismatch raises :class:`Mismatch`.

Closed forms pinned here (L = 5, the default per-stage latency, and
S = B/2 stages for B-bit samples):

* a stream of ``sets`` back-to-back N-sample sets runs for
  ``sets * N + drain`` cycles, with ``drain = (S - 1)(N + L) + L``;
* it makes ``comparison_count = 3 * N * S * sets`` boundary comparisons;
* the first ``dv`` pulses at cycle ``S(N + L) - 1`` (for a chain of
  Cw-column windows N is Cw; for a gated 9753 chain the alignment holds in
  the chain's own enabled-column time).
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

LATENCY = 5  # default pipe_latency of the CLI's engines
CADENCE = 9  # the 9753 ensemble's column cadence
RANKS_9753 = (41, 25, 13, 5)  # the CLI's default --ranks


class Mismatch(Exception):
    """A CLI output disagrees with the oracle or the cycle contract."""


@dataclass
class Outcome:
    """What one checked call produced."""

    results: int
    reported_cycles: int | None = None  # the cycle count the CLI printed
    first_dv: int | None = None  # cycle of the first dv row of a trace


@dataclass
class Call:
    argv: list[str]
    check: Callable[[str], Outcome]
    engine: str  # the engine the call runs, for the contract pins
    sets: int  # data sets (sets, windows or pixels) in the call's input
    set_size: int  # N samples per set, or Cw columns per window
    bits: int  # sample width B the CLI infers


@dataclass
class Workload:
    name: str
    pool: list[Call]
    setup_argv: list[str]
    round_size: int  # calls that make up one balanced round of the pool
    describe: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)  # inputs for scipy


def stages_for(values) -> int:
    """S = B/2 for the sample width the CLI infers from the data."""
    bits = max(2, int(np.max(values)).bit_length())
    return (bits + bits % 2) // 2


def drain(stages: int, n: int) -> int:
    return (stages - 1) * (n + LATENCY) + LATENCY


def alignment(stages: int, n: int) -> int:
    return stages * (n + LATENCY) - 1


def first_dv_9753(stages: int) -> int:
    """Cycle of the first 9753 quadruple: the slowest gated chain's alignment
    in its own enabled-column time, mapped back to real cycles."""
    latest = 0
    for width in (9, 7, 5, 3):
        gated = alignment(stages, width)
        first_phase = (CADENCE - width) // 2
        real = CADENCE * (gated // width) + first_phase + gated % width
        latest = max(latest, real)
    return latest


def contract_violations(call: Call, totals: dict, outcome: Outcome,
                        comparison_count) -> list[str]:
    """Compare one accounted call with the closed forms above."""
    s = call.bits // 2
    n = call.set_size
    cycles = int(totals.get("engine.cycles", 0))
    comparisons = int(totals.get("engine.comparisons", 0))
    found = []

    def expect(what, got, want):
        if got != want:
            found.append(f"{call.engine}: {what} is {got}, closed form {want}")

    if call.engine in ("single", "multichannel"):
        expect("simulated cycles", cycles, call.sets * n + drain(s, n))
        expect("kernel cycles", int(totals.get("kernels.cycles", 0)), cycles)
        channels = 1 if call.engine == "single" else CADENCE
        expect("comparisons", comparisons, 3 * channels * n * s * call.sets)
        expect("rankpipe.comparison_count",
               comparison_count(call.bits, channels * n, call.sets),
               comparisons)
    if outcome.reported_cycles is not None:
        expect("reported cycles", outcome.reported_cycles, cycles)
    if outcome.first_dv is not None:
        want = first_dv_9753(s) if call.engine == "9753" else alignment(s, n)
        expect("first dv cycle", outcome.first_dv, want)
    return found


# -- file formats, written and read independently of rankpipe.pgm ------------

def write_p5(path: Path, image: np.ndarray) -> None:
    height, width = image.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii")
                     + image.astype(np.uint8).tobytes())


def read_p5(path: Path) -> np.ndarray:
    data = path.read_bytes()
    head = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if head is None:
        raise Mismatch(f"{path.name} is not a binary PGM")
    width, height, maxval = (int(g) for g in head.groups())
    if maxval > 255:
        raise Mismatch(f"{path.name} has maxval {maxval}, expected 255")
    raster = data[head.end():]
    if len(raster) != width * height:
        raise Mismatch(f"{path.name} raster holds {len(raster)} bytes")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def write_values(path: Path, values) -> None:
    path.write_text(" ".join(str(int(v)) for v in np.ravel(values)) + "\n",
                    encoding="ascii")


def read_trace(path: Path):
    """``(columns, rows, dv_rows)`` of a CSV trace; columns maps name to index."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    columns = {name: i for i, name in enumerate(rows[0])}
    body = rows[1:]
    dv = columns["dv"]
    return columns, body, [row for row in body if row[dv] == "1"]


def _printed_int(stdout: str, pattern: str) -> int:
    found = re.search(pattern, stdout)
    if found is None:
        raise Mismatch(f"the CLI did not print {pattern!r}")
    return int(found.group(1))


def _compare(what: str, got, want) -> None:
    if len(got) != len(want):
        raise Mismatch(f"{what}: {len(got)} results, oracle has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise Mismatch(f"{what}: result {i} is {g}, oracle says {w}")


# -- image_filter --------------------------------------------------------------

FRAME_W, FRAME_H = 48, 32  # scaled down from 1024x768; see README.md
FRAMES = 4
WINDOW = 5


def noisy_frame(rng, width: int, height: int) -> np.ndarray:
    """A smooth gradient with Gaussian and salt-and-pepper noise."""
    yy, xx = np.mgrid[0:height, 0:width]
    gx, gy = rng.uniform(-3, 3, size=2)
    image = rng.uniform(60, 190) + gx * xx + gy * yy
    image = image + rng.normal(0, 18, size=image.shape)
    salt = rng.random(image.shape)
    image[salt < 0.03] = 0
    image[salt > 0.97] = 255
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)


def image_filter(rng, workdir: Path, rp, oracle_time) -> Workload:
    n = WINDOW * WINDOW
    rank = rp.imaging.percentile_to_rank(0.5, n)
    shape = rp.imaging.Rect(WINDOW, WINDOW)
    pool, frames = [], []
    for i in range(FRAMES):
        frame = noisy_frame(rng, FRAME_W, FRAME_H)
        src, dst = workdir / f"frame{i}.pgm", workdir / f"out{i}.pgm"
        write_p5(src, frame)
        want = oracle_time(rp.oracle.filter_image_oracle, frame, shape, rank,
                           rp.imaging.Border.CLAMP)
        frames.append((frame, want))

        def check(stdout, dst=dst, want=want):
            got = read_p5(dst)
            if got.shape != want.shape or not np.array_equal(got, want):
                bad = int(np.sum(got != want)) if got.shape == want.shape \
                    else got.size
                raise Mismatch(f"{dst.name}: {bad} pixels differ from the "
                               "oracle")
            cycles = _printed_int(stdout, r"cycles: (\d+) simulated")
            return Outcome(results=got.size, reported_cycles=cycles)

        pool.append(Call(
            argv=["filter", str(src), str(dst), "--window",
                  f"{WINDOW}x{WINDOW}", "--percentile", "0.5"],
            check=check, engine="single", sets=frame.size, set_size=n,
            bits=8))
    tiny = workdir / "setup.pgm"
    write_p5(tiny, noisy_frame(rng, 1, 1))
    return Workload(
        name="image_filter", pool=pool, round_size=1,
        setup_argv=["filter", str(tiny), str(workdir / "setup-out.pgm"),
                    "--window", "5x5", "--percentile", "0.5"],
        describe={"frame": f"{FRAME_W}x{FRAME_H}", "frames": FRAMES,
                  "window": f"{WINDOW}x{WINDOW}", "rank": rank,
                  "engine": "single (default)"},
        reference={"frames": frames, "window": WINDOW, "rank": rank})


# -- stream_rank ---------------------------------------------------------------

RANK_SETS = 800
RANK_FILES = 4
SET_SIZE = 25


def stream_rank(rng, workdir: Path, rp, oracle_time) -> Workload:
    rank = rp.imaging.percentile_to_rank(0.5, SET_SIZE)
    pool = []
    for i in range(RANK_FILES):
        values = rng.integers(0, 1 << 16, size=(RANK_SETS, SET_SIZE))
        path = workdir / f"stream{i}.txt"
        write_values(path, values)
        want = oracle_time(lambda v: [rp.oracle.select_desc(s, rank)
                                      for s in v.tolist()], values)

        def check(stdout, want=want, name=path.name):
            try:
                got = [int(line) for line in stdout.split()]
            except ValueError as exc:
                raise Mismatch(f"{name}: non-integer output") from exc
            _compare(name, got, want)
            return Outcome(results=len(got))

        pool.append(Call(
            argv=["rank", str(path), "--set-size", str(SET_SIZE),
                  "--percentile", "0.5"],
            check=check, engine="single", sets=RANK_SETS, set_size=SET_SIZE,
            bits=2 * stages_for(values)))
    tiny = workdir / "setup.txt"
    write_values(tiny, rng.integers(0, 1 << 16, size=SET_SIZE))
    return Workload(
        name="stream_rank", pool=pool, round_size=1,
        setup_argv=["rank", str(tiny), "--set-size", str(SET_SIZE),
                    "--percentile", "0.5"],
        describe={"sets_per_call": RANK_SETS, "set_size": SET_SIZE,
                  "rank": rank, "data_bits": 16, "files": RANK_FILES})


# -- sim_trace -----------------------------------------------------------------

TRACE_SETS = 400  # single engine, N = 25
MC_WINDOWS = 512  # multichannel 9x9 windows
SLIDING_COLUMNS = 630  # sliding 9x9 strip columns
E9753_WINDOWS = 80  # 9753 window positions


def _trace_call(workdir: Path, tag: str, values, args, check_results, *,
                engine, sets, set_size) -> Call:
    src, dst = workdir / f"{tag}.txt", workdir / f"{tag}.csv"
    write_values(src, values)

    def check(stdout):
        columns, body, dv_rows = read_trace(dst)
        reported = _printed_int(stdout, r"wrote (\d+) cycles")
        if reported != len(body):
            raise Mismatch(f"{dst.name}: printed {reported} cycles, "
                           f"wrote {len(body)} rows")
        check_results(columns, dv_rows)
        first = int(dv_rows[0][columns["cycle"]]) if dv_rows else None
        return Outcome(results=len(dv_rows), reported_cycles=reported,
                       first_dv=first)

    return Call(argv=["trace", str(src), "-o", str(dst), *args], check=check,
                engine=engine, sets=sets, set_size=set_size,
                bits=2 * stages_for(values))


def sim_trace(rng, workdir: Path, rp, oracle_time) -> Workload:
    select = rp.oracle.select_desc
    pct = rp.imaging.percentile_to_rank
    pool = []

    values = rng.integers(0, 256, size=TRACE_SETS * SET_SIZE)
    rank = pct(0.5, SET_SIZE)
    want = oracle_time(lambda: [select(s, rank) for s in
                                values.reshape(-1, SET_SIZE).tolist()])

    def single(columns, dv_rows, want=want):
        _compare("single", [int(r[columns["result"]]) for r in dv_rows], want)

    pool.append(_trace_call(
        workdir, "single", values,
        ["--engine", "single", "--set-size", str(SET_SIZE), "--percentile",
         "0.5"], single, engine="single", sets=TRACE_SETS, set_size=SET_SIZE))

    cols = rng.integers(0, 256, size=(MC_WINDOWS * CADENCE, CADENCE))
    rank = pct(0.5, CADENCE * CADENCE)
    want = oracle_time(lambda: [
        select(cols[w * CADENCE:(w + 1) * CADENCE].ravel().tolist(), rank)
        for w in range(MC_WINDOWS)])

    def multichannel(columns, dv_rows, want=want):
        _compare("multichannel",
                 [int(r[columns["result"]]) for r in dv_rows], want)

    pool.append(_trace_call(
        workdir, "multichannel", cols,
        ["--engine", "multichannel", "--window", "9x9", "--percentile",
         "0.5"], multichannel, engine="multichannel", sets=MC_WINDOWS,
        set_size=CADENCE))

    cols = rng.integers(0, 256, size=(SLIDING_COLUMNS, CADENCE))
    # window starts past the strip edge see the zero drain columns
    padded = np.vstack([cols, np.zeros((CADENCE, CADENCE), dtype=cols.dtype)])
    want = oracle_time(lambda: [
        select(padded[k:k + CADENCE].ravel().tolist(), rank)
        for k in range(SLIDING_COLUMNS)])

    def sliding(columns, dv_rows, want=want):
        _compare("sliding", [int(r[columns["result"]]) for r in dv_rows],
                 want)

    pool.append(_trace_call(
        workdir, "sliding", cols,
        ["--engine", "sliding", "--window", "9x9", "--percentile", "0.5"],
        sliding, engine="sliding", sets=SLIDING_COLUMNS, set_size=CADENCE))

    cols = rng.integers(0, 256, size=(E9753_WINDOWS * CADENCE, CADENCE))

    def quad(a):
        return tuple(
            select(cols[a + off:a + CADENCE - off, off:CADENCE - off]
                   .ravel().tolist(), m)
            for off, m in zip(range(4), RANKS_9753))

    want = oracle_time(lambda: [quad(w * CADENCE)
                                for w in range(E9753_WINDOWS)])

    def e9753(columns, dv_rows, want=want):
        first = columns["result9"]
        _compare("9753", [tuple(int(v) for v in r[first:first + 4])
                          for r in dv_rows], want)

    pool.append(_trace_call(
        workdir, "e9753", cols, ["--engine", "9753"], e9753, engine="9753",
        sets=E9753_WINDOWS, set_size=CADENCE))

    tiny = workdir / "setup.txt"
    write_values(tiny, rng.integers(0, 256, size=SET_SIZE))
    return Workload(
        name="sim_trace", pool=pool, round_size=len(pool),
        setup_argv=["trace", str(tiny), "-o", str(workdir / "setup.csv"),
                    "--set-size", str(SET_SIZE), "--percentile", "0.5"],
        describe={"single": f"{TRACE_SETS} sets of {SET_SIZE}",
                  "multichannel": f"9x9, {MC_WINDOWS} windows",
                  "sliding": f"9x9, {SLIDING_COLUMNS} columns",
                  "9753": f"ranks {RANKS_9753}, {E9753_WINDOWS} windows"})


WORKLOADS = {
    "image_filter": image_filter,
    "stream_rank": stream_rank,
    "sim_trace": sim_trace,
}
