"""Single-channel streaming percentile engine.

A chain of B/2 refinement stages narrows the surviving value range by a
factor of four per stage: each stage counts how many samples of a data set
sit at or above the three interior boundaries of its range, then resolves
two more result bits once the whole set has passed through.  Data pipes
delay the raw stream so every stage sees a set exactly when the previous
stage's partial median for it is ready.

The ``Stage``/``Engine`` classes here step the chain clock by clock and
are the reference for the cycle semantics.  ``run_stream`` and the image
drivers use :mod:`rankpipe._kernels` instead, which computes every set's
result at once and writes it at its fixed dv cycle.  The test suite checks
the two against each other cycle-for-cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .params import (
    ConfigError,
    CycleOutput,
    FilterParams,
    FramingError,
    PartialMedian,
)

_ROOT = PartialMedian()


def boundaries(pm: PartialMedian, data_bits: int) -> tuple[int, int, int]:
    """The three interior quarter boundaries (b1 < b2 < b3) of ``pm``'s range."""
    if pm.bits_resolved > data_bits - 2:
        raise ConfigError("partial median is fully resolved; no subranges remain")
    q = 1 << (data_bits - pm.bits_resolved - 2)
    return pm.prefix + q, pm.prefix + 2 * q, pm.prefix + 3 * q


def incgen(x: int, pm: PartialMedian, data_bits: int) -> tuple[bool, bool, bool]:
    """Boundary comparisons ``(ge3, ge2, ge1)`` for one sample.

    When ``x`` lies inside ``pm``'s range the flags are thermometer-coded:
    ge3 implies ge2 implies ge1.  Out-of-range samples are compared as
    ordinary integers and increment consistently.
    """
    b1, b2, b3 = boundaries(pm, data_bits)
    return x >= b3, x >= b2, x >= b1


def counter_preset(rank: int, counter_bits: int) -> int:
    """Accumulator preset ``2**(C-1) - M``.

    Starting the count here turns bit C-1 of the accumulator into the
    ``count >= M`` comparator for free.
    """
    half = 1 << (counter_bits - 1)
    if not 1 <= rank <= half:
        raise ConfigError(
            f"rank {rank} outside [1, {half}] for {counter_bits}-bit counters"
        )
    return half - rank


def refine(msb3: int, msb2: int, msb1: int, check: bool = False) -> int:
    """Two new result bits from the three accumulator MSBs, priority encoded.

    A healthy engine only ever produces thermometer-coded inputs; with
    ``check=True`` any other combination raises as an internal-consistency
    diagnostic instead of being silently priority-resolved.
    """
    if check and ((msb3 and not msb2) or (msb2 and not msb1)):
        raise ValueError(
            f"non-thermometer accumulator MSBs ({int(bool(msb3))}, "
            f"{int(bool(msb2))}, {int(bool(msb1))})"
        )
    if msb3:
        return 0b11
    if msb2:
        return 0b10
    if msb1:
        return 0b01
    return 0b00


def comparison_count(params: FilterParams, num_sets: int) -> int:
    """Exact boundary comparisons for ``num_sets`` sets: 3 * N * (B/2) each."""
    return 3 * params.set_size * params.stages * num_sets


class Stage:
    """One 2-bit refinement stage.

    Holds the three preset accumulators, the set-position counter, and an
    L-deep output delay modeling the stage's internal pipeline registers.
    ``clock`` consumes one sample per call and returns the maturing partial
    median, if any: that happens exactly ``latency`` cycles after the last
    sample of a set.
    """

    def __init__(self, data_bits: int, set_cycles: int, rank: int,
                 counter_bits: int = 8, latency: int = 5):
        self.data_bits = data_bits
        self.set_cycles = set_cycles
        self.latency = latency
        self.preset = counter_preset(rank, counter_bits)
        self._mask = (1 << counter_bits) - 1
        self._msb = 1 << (counter_bits - 1)
        self.pm = _ROOT  # latched partial median of the running set
        self.qc1 = 0
        self.qc2 = 0
        self.qc3 = 0
        self.position = 0
        self.active = False
        self.comparisons = 0
        self._pending: deque = deque()  # (due_cycle, PartialMedian)
        self._cycle = 0

    def _increments(self, x) -> tuple[int, int, int]:
        ge3, ge2, ge1 = incgen(x, self.pm, self.data_bits)
        self.comparisons += 3
        return int(ge1), int(ge2), int(ge3)

    def clock(self, x, d1st: bool, pm_in: PartialMedian | None):
        """Advance one cycle; returns the pm_out maturing this cycle, if any."""
        t = self._cycle
        self._cycle += 1
        out = None
        if self._pending and self._pending[0][0] == t:
            out = self._pending.popleft()[1]
        if d1st:
            if self.active:
                raise FramingError(
                    f"first-data marker arrived at set position {self.position}"
                )
            if pm_in is None:
                raise FramingError("first-data marker before any partial median")
            self.pm = pm_in
            self.qc1 = self.qc2 = self.qc3 = self.preset
            self.active = True
            self.position = 0
        if self.active:
            inc1, inc2, inc3 = self._increments(x)
            self.qc1 = (self.qc1 + inc1) & self._mask
            self.qc2 = (self.qc2 + inc2) & self._mask
            self.qc3 = (self.qc3 + inc3) & self._mask
            self.position += 1
            if self.position == self.set_cycles:
                two = refine(self.qc3 & self._msb, self.qc2 & self._msb,
                             self.qc1 & self._msb, check=True)
                pm_out = self.pm.refined(two, self.data_bits)
                self.active = False
                self.position = 0
                if self.latency == 0:
                    out = pm_out
                else:
                    self._pending.append((t + self.latency, pm_out))
        return out


class _DelayRing:
    """Circular (value, marker) history with fixed read offsets.

    One ring stands in for the engine's chained equal-depth data pipes: the
    per-stage taps and the output-alignment tap are constant offsets from a
    single shared write position, mirroring the shared address counters of
    the pipes.
    """

    def __init__(self, capacity: int, channels: int | None = None):
        self._cap = max(capacity, 1)
        if channels is None:
            self._data = np.zeros(self._cap, dtype=np.int64)
            self._zero = 0
        else:
            self._data = np.zeros((self._cap, channels), dtype=np.int64)
            self._zero = np.zeros(channels, dtype=np.int64)
        self._d1st = np.zeros(self._cap, dtype=bool)

    def push(self, t: int, value, d1st: bool) -> None:
        self._data[t % self._cap] = value
        self._d1st[t % self._cap] = d1st

    def read(self, t: int, offset: int):
        if offset > t:
            return self._zero, False
        i = (t - offset) % self._cap
        return self._data[i], bool(self._d1st[i])


class _FinderChain:
    """A stage chain reading a caller-owned delay ring.

    ``d1st_offset`` staggers the chain's view of the first-data markers,
    which is how a sliding ensemble makes identical chains interpret the
    shared stream as shifted windows.
    """

    def __init__(self, make_stage, n_stages: int, pipe_delay: int, ring: _DelayRing,
                 d1st_offset: int = 0):
        self.stages = [make_stage() for _ in range(n_stages)]
        self.pipe_delay = pipe_delay
        self._ring = ring
        self._offset = d1st_offset
        self._holds: list[PartialMedian | None] = [None] * n_stages

    def clock(self, t: int) -> int | None:
        """Returns the fully resolved result maturing this cycle, if any."""
        result = None
        for s in reversed(range(len(self.stages))):
            tap = s * self.pipe_delay
            x, f = self._ring.read(t, tap)
            if self._offset:
                f = self._ring.read(t, tap + self._offset)[1]
            pm_in = _ROOT if s == 0 else self._holds[s - 1]
            out = self.stages[s].clock(x, f, pm_in)
            if out is not None:
                self._holds[s] = out
                if s == len(self.stages) - 1:
                    result = out.prefix
        return result

    @property
    def comparisons(self) -> int:
        return sum(stage.comparisons for stage in self.stages)


class Engine:
    """Clock-by-clock single-channel engine.

    Consumes one ``(sample, first-marker)`` pair per ``clock`` call and
    emits ``CycleOutput``; ``dv`` pulses exactly once per completed set, at
    which cycle ``result`` carries the M-th largest and ``dout`` the set's
    first raw sample.
    """

    def __init__(self, params: FilterParams):
        self.params = params
        p = params
        self._ring = _DelayRing(p.stages * p.pipe_delay)
        self._chain = _FinderChain(
            lambda: Stage(p.data_bits, p.set_size, p.rank, p.counter_bits,
                          p.pipe_latency),
            p.stages, p.pipe_delay, self._ring)
        self._t = 0

    def clock(self, din: int, d1st: bool = False) -> CycleOutput:
        p = self.params
        if not 0 <= din <= p.max_value:
            raise ConfigError(f"sample {din} does not fit in {p.data_bits} bits")
        t = self._t
        self._ring.push(t, din, d1st)
        result = self._chain.clock(t)
        dout, _ = self._ring.read(t, p.alignment)
        self._t += 1
        if result is None:
            return CycleOutput(dv=False, dout=int(dout), result=0)
        return CycleOutput(dv=True, dout=int(dout), result=result)

    @property
    def stages(self) -> list[Stage]:
        return self._chain.stages

    @property
    def comparisons(self) -> int:
        return self._chain.comparisons

    @property
    def cycle(self) -> int:
        return self._t


@dataclass(frozen=True)
class StreamTrace:
    """Per-clock record of a batch run, drain cycles included."""

    din: np.ndarray
    d1st: np.ndarray
    dv: np.ndarray
    dout: np.ndarray
    result: np.ndarray
    comparisons: int

    @property
    def results(self) -> np.ndarray:
        return self.result[self.dv]

    @property
    def cycles(self) -> int:
        return len(self.din)


def frame_markers(n_samples: int, set_size: int, drain: int) -> np.ndarray:
    """First-marker pattern for back-to-back sets followed by idle drain."""
    d1st = np.zeros(n_samples + drain, dtype=np.uint8)
    d1st[0:n_samples:set_size] = 1
    return d1st


def stream_cycles(params: FilterParams, data) -> StreamTrace:
    """Frame ``data`` into back-to-back sets, clock the engine through them
    plus the drain, and return the full per-cycle trace."""
    p = params
    data = np.ascontiguousarray(np.asarray(data, dtype=np.int64))
    if data.ndim != 1:
        raise ConfigError("stream data must be one-dimensional")
    if data.size % p.set_size:
        raise FramingError(
            f"stream length {data.size} is not a multiple of the set size "
            f"{p.set_size}"
        )
    if data.size and (data.min() < 0 or data.max() > p.max_value):
        raise ConfigError(f"samples must fit in {p.data_bits} bits")
    total = data.size + p.drain_cycles
    din = np.zeros(total, dtype=np.int64)
    din[:data.size] = data
    d1st = frame_markers(data.size, p.set_size, p.drain_cycles)
    dv = np.zeros(total, dtype=np.uint8)
    res = np.zeros(total, dtype=np.int64)
    err, comparisons = _kernels.chain_run(
        din.reshape(-1, 1), d1st, p.data_bits, p.set_size, p.rank,
        p.counter_bits, p.pipe_latency, _kernels.MODE_SCALAR, dv, res)
    if err >= 0:
        raise FramingError(f"stream framing broke at cycle {err}")
    dout = np.zeros(total, dtype=np.int64)
    if total > p.alignment:
        dout[p.alignment:] = din[:total - p.alignment]
    return StreamTrace(din=din, d1st=d1st.astype(bool), dv=dv.astype(bool),
                       dout=dout, result=res, comparisons=comparisons)


def run_stream(params: FilterParams, data) -> np.ndarray:
    """One result per set of ``set_size`` samples: the rank-th largest of each.

    ``data`` length must be a multiple of the set size; sets are streamed
    back-to-back and the engine is drained afterwards so every result is
    collected.
    """
    data = np.asarray(data, dtype=np.int64)
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    return stream_cycles(params, data).results
