"""The streaming percentile chain: stages, the one clocked chain class,
and the batch framing that every chain engine shares.

A chain of B/2 refinement stages narrows the surviving value range by a
factor of four per stage: each stage counts how many samples of a data set
sit at or above the three interior boundaries of its range, then resolves
two more result bits once the whole set has passed through.  Data pipes
delay the raw stream so every stage sees a set exactly when the previous
stage's partial median for it is ready.

``_FinderChain`` steps the B/2 ``Stage``s clock by clock and is the one
reference for the cycle semantics.  Every clocked engine is that chain
fed samples, columns, staggered markers or gated phases: ``Engine`` gives
it its own data pipe, under ``FilterParams`` or ``McParams``, and the
ensembles reuse it.  The batch runs go through ``_chain_trace``, the one
entry of every chain record, the 9753 ensemble's gated chains included.
It is the one caller of :mod:`rankpipe._kernels`, which computes every
set's result at once, with the fixed cycle it matures at.
The test suite checks the two against each other cycle-for-cycle.

A batch run is one result per set: a ``StreamTrace`` keeps its framed
input at the sample dtype (uint8 up to 8 bits, uint16 up to 16), each
set's result and dv cycle, and its marker cycles.  Only ``rankpipe
trace`` lays these out per cycle.  The results a caller receives are int64.
"""

from __future__ import annotations

import math
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
    _ChainTiming,
    _integral,
    as_samples,
    check_samples,
    counter_preset,
    counter_width,
    narrowest_uint,
    priority,
    quarter_width,
)

_ROOT = PartialMedian()


def boundaries(pm: PartialMedian, data_bits: int) -> tuple[int, int, int]:
    """The three interior quarter boundaries (b1 < b2 < b3) of ``pm``'s range."""
    q = quarter_width(data_bits, pm.bits_resolved)
    return pm.prefix + q, pm.prefix + 2 * q, pm.prefix + 3 * q


def incgen(x: int, pm: PartialMedian, data_bits: int) -> tuple[bool, bool, bool]:
    """Boundary comparisons ``(ge3, ge2, ge1)`` for one sample, or flag
    arrays for an array of samples.

    When ``x`` lies inside ``pm``'s range the flags are thermometer-coded:
    ge3 implies ge2 implies ge1.  Out-of-range samples are compared as
    ordinary integers and increment consistently.
    """
    b1, b2, b3 = boundaries(pm, data_bits)
    return x >= b3, x >= b2, x >= b1


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
    return int(priority((msb1, msb2, msb3)))


def _record(params):
    """``params``, once it is checked to be a chain record."""
    if not isinstance(params, _ChainTiming):
        raise ConfigError(f"params must be a chain record (FilterParams, "
                          f"McParams or SlidingParams), got "
                          f"{type(params).__name__}")
    return params


def comparison_count(params: FilterParams, num_sets: int) -> int:
    """Exact boundary comparisons for ``num_sets`` sets: 3 * N * (B/2) each."""
    return _record(params).comparisons(num_sets)


class Stage:
    """One 2-bit refinement stage.

    Holds three preset accumulators, sized per set for N = ``set_cycles``
    times the samples of its first input (:func:`counter_width`), the set
    position, and an L-deep output delay modeling the pipeline registers.
    ``clock`` takes one sample (or column of K samples) per call and returns
    the partial median maturing ``latency`` cycles after a set's last input.
    """

    def __init__(self, data_bits: int, set_cycles: int, rank: int,
                 latency: int = 5):
        if _integral(set_cycles, "set_cycles values") < 1:
            raise ConfigError("set_cycles must be at least 1")
        if _integral(rank, "rank values") < 1:
            raise ConfigError(f"rank must be at least 1, got {rank}")
        if _integral(latency, "latency values") < 0:
            raise ConfigError("latency must be non-negative")
        self.data_bits = data_bits
        self.set_cycles = set_cycles
        self.rank = rank
        self.latency = latency
        self.pm = _ROOT  # latched partial median of the running set
        self.qc1 = self.qc2 = self.qc3 = 0
        self.position = 0  # inputs of the running set so far; 0 when idle
        self.comparisons = 0
        self._pipe = deque([None] * latency)  # the L output registers
        self._cycle = 0

    def _increments(self, x) -> tuple[int, int, int]:
        """Samples of ``x`` (one sample or one column) at or above each
        boundary, lowest boundary first."""
        flags = incgen(np.asarray(x), self.pm, self.data_bits)
        self.comparisons += 3 * np.size(x)
        return tuple(int(np.count_nonzero(ge)) for ge in reversed(flags))

    def clock(self, x, d1st: bool, pm_in: PartialMedian | None):
        """Advance one cycle; returns the pm_out maturing this cycle, if any."""
        t = self._cycle
        self._cycle += 1
        out = None
        if d1st:
            if self.position:
                raise FramingError(f"first-data marker arrived at set "
                                   f"position {self.position} on cycle {t}")
            if pm_in is None:
                raise FramingError("first-data marker before any partial "
                                   f"median on cycle {t}")
            bits = counter_width(self.set_cycles * np.size(x), self.rank)
            self.preset = counter_preset(self.rank, bits)
            self._mask, self._msb = (1 << bits) - 1, self.preset + self.rank
            self.pm = pm_in
            self.qc1 = self.qc2 = self.qc3 = self.preset
        if d1st or self.position:
            inc1, inc2, inc3 = self._increments(x)
            self.qc1 = (self.qc1 + inc1) & self._mask
            self.qc2 = (self.qc2 + inc2) & self._mask
            self.qc3 = (self.qc3 + inc3) & self._mask
            self.position += 1
            if self.position == self.set_cycles:
                two = refine(self.qc3 & self._msb, self.qc2 & self._msb,
                             self.qc1 & self._msb, check=True)
                out = self.pm.refined(two, self.data_bits)
                self.position = 0
        self._pipe.append(out)
        return self._pipe.popleft()


def _lanes(params) -> tuple[int, ...]:
    """The shape of one clock's input: ``()`` under ``FilterParams``,
    ``(channels,)`` under ``McParams`` and ``SlidingParams``."""
    channels = getattr(params, "channels", None)
    return () if channels is None else (channels,)


class _DelayRing:
    """Circular (value, marker) history with fixed read offsets.

    One ring stands in for the engine's chained equal-depth data pipes: the
    per-stage taps and the output-alignment tap are constant offsets from a
    single shared write position, mirroring the shared address counters of
    the pipes.
    """

    def __init__(self, params):
        self._cap = max(params.stages * params.pipe_delay, 1)
        self._data = np.zeros((self._cap,) + _lanes(params), dtype=np.int64)
        self._zero = self._data[0].copy()
        self._d1st = np.zeros(self._cap, dtype=bool)

    def push(self, t: int, value, d1st: bool) -> None:
        self._data[t % self._cap] = value
        self._d1st[t % self._cap] = d1st

    def read(self, t: int, offset: int):
        if offset > t:
            return self._zero, False
        i = (t - offset) % self._cap
        return self._data[i], bool(self._d1st[i])


def _column(params, din) -> np.ndarray:
    """One clock's checked input, of shape ``_lanes(params)``."""
    din = as_samples(din, params.data_bits)
    if din.shape != _lanes(params):
        raise ConfigError(f"one clock's input must have shape "
                          f"{_lanes(params)}, got {din.shape}")
    return din


class _FinderChain:
    """The B/2 stages of one chain, reading a caller-owned delay ring.

    ``d1st_offset`` staggers the chain's view of the first-data markers,
    which is how a sliding ensemble makes identical chains interpret the
    shared stream as shifted windows.
    """

    def __init__(self, params, ring: _DelayRing, d1st_offset: int = 0):
        p = self.params = params
        self.stages = [Stage(p.data_bits, p.set_cycles, p.rank, p.pipe_latency)
                       for _ in range(p.stages)]
        self._ring = ring
        self._offset = d1st_offset
        self._holds: list[PartialMedian | None] = [None] * p.stages

    def step(self, t: int) -> int | None:
        """Advance every stage through cycle ``t`` of the ring; returns the
        fully resolved result maturing this cycle, if any."""
        result = None
        for s in reversed(range(len(self.stages))):
            tap = s * self.params.pipe_delay
            x = self._ring.read(t, tap)[0]
            f = self._ring.read(t, tap + self._offset)[1]
            pm_in = _ROOT if s == 0 else self._holds[s - 1]
            try:
                out = self.stages[s].clock(x, f, pm_in)
            except FramingError as err:
                raise FramingError(f"stage {s}: {err}") from None
            if out is not None:
                self._holds[s] = out
                if s == len(self.stages) - 1:
                    result = out.prefix
        return result

    @property
    def comparisons(self) -> int:
        return sum(stage.comparisons for stage in self.stages)


class Engine(_FinderChain):
    """Clock-by-clock chain engine with its own data pipe.

    Consumes one ``(sample, first-marker)`` pair per ``clock`` call under
    ``FilterParams``, or one K-sample column under ``McParams``, and emits
    ``CycleOutput``; ``dv`` pulses exactly once per completed set, at
    which cycle ``result`` carries the M-th largest and ``dout`` the set's
    first raw sample or column.
    """

    def __init__(self, params: FilterParams):
        super().__init__(_record(params), _DelayRing(params))
        self._t = 0

    def clock(self, din, d1st: bool = False) -> CycleOutput:
        t = self._t
        self._ring.push(t, _column(self.params, din), d1st)
        result = self.step(t)
        dout, _ = self._ring.read(t, self.params.alignment)
        self._t += 1
        return CycleOutput(dv=result is not None, dout=dout.copy(),
                           result=result or 0)

    @property
    def cycle(self) -> int:
        return self._t


@dataclass(frozen=True)
class StreamTrace:
    """A batch run, drain cycles included: its input and one result per set.

    ``din`` is the framed input, one row per cycle, and ``values`` holds
    each set's result (one per chain for 9753), both at the sample dtype
    (:func:`rankpipe.params.narrowest_uint`); ``fire`` holds each set's dv
    cycle and ``starts`` slices the marker cycles.  ``delay`` is how many
    cycles ``dout`` lags ``din``: the alignment, or None when no set was
    anchored.  The per-cycle views ``d1st``, ``dv`` and ``result`` are
    built when read, like ``dout``; ``results`` is ``values`` as int64.
    """

    din: np.ndarray
    starts: slice
    fire: np.ndarray
    values: np.ndarray
    comparisons: int
    delay: int | None

    def _per_cycle(self, at, values, dtype) -> np.ndarray:
        """``values`` laid out at cycles ``at``, zeros on every other cycle."""
        out = np.zeros((len(self.din),) + np.shape(values)[1:], dtype)
        out[at] = values
        return out

    @property
    def d1st(self) -> np.ndarray:
        return self._per_cycle(self.starts, True, bool)

    @property
    def dv(self) -> np.ndarray:
        return self._per_cycle(self.fire, True, bool)

    @property
    def result(self) -> np.ndarray:
        return self._per_cycle(self.fire, self.values, self.din.dtype)

    @property
    def dout(self) -> np.ndarray:
        """``din`` delayed by ``delay`` cycles, zeros before: the data pipe's
        output tap, so a dv cycle carries its set's first sample or column."""
        dout = np.zeros_like(self.din)
        if self.delay is not None and self.delay < len(self.din):
            dout[self.delay:] = self.din[:len(self.din) - self.delay]
        return dout

    @property
    def results(self) -> np.ndarray:
        return self.values.astype(np.int64)

    @property
    def cycles(self) -> int:
        return len(self.din)


# The most bytes of drain, the cycles past the input, a batch run may frame.
# Even an empty run frames its whole drain, about (B/2)(N + L) cycles: some
# 3 bytes per set sample at 8 bits and 14 at 16 (13.5 KB for a 31x31 window),
# so N = 2**40 would ask numpy for terabytes.  The input is not counted: it
# is already in memory.
_MAX_DRAIN_BYTES = 1 << 32


def _framed(cols, data_bits: int, total: int) -> np.ndarray:
    """``din`` of a batch run over ``total`` cycles: the checked ``cols``
    then zeros, at the sample dtype."""
    cols = check_samples(cols, data_bits)
    dtype = narrowest_uint(data_bits)
    drain = (total - len(cols)) * math.prod(cols.shape[1:]) * dtype.itemsize
    if drain > _MAX_DRAIN_BYTES:
        raise ConfigError(f"a run of {total} cycles drains {drain} bytes, "
                          f"more than the {_MAX_DRAIN_BYTES} a batch run "
                          f"may frame")
    din = np.zeros((total,) + cols.shape[1:], dtype)
    din[:len(cols)] = cols
    return din


def _chain_trace(params, cols, trace=StreamTrace) -> StreamTrace:
    """The one batch entry of every chain record: frame ``cols``, one input
    of shape ``_lanes(params)`` per cycle, into the sets the record starts,
    run the kernel through them plus the drain, and return a ``trace``."""
    p, lanes = _record(params), _lanes(params)
    cols = np.asarray(cols)
    if cols.ndim != 1 + len(lanes) or cols.shape[1:] != lanes:
        raise ConfigError(f"stream must have shape "
                          f"(n,{''.join(f' {k}' for k in lanes)}), "
                          f"got {cols.shape}")
    sets = p.starts(len(cols))
    total = p.cycles(sets)
    din = _framed(cols, p.data_bits, total)
    fire, comparisons, values = _kernels.chain_run(
        din.reshape(total, math.prod(lanes)), sets, p)
    return trace(din=din, starts=slice(0, len(cols), p.set_cycles),
                 fire=fire, values=values, comparisons=comparisons,
                 delay=p.alignment)


def stream_cycles(params: FilterParams, data) -> StreamTrace:
    """Frame ``data`` (samples, or ``(n, K)`` columns) into back-to-back
    sets, run the engine through them plus the drain; return the trace."""
    return _chain_trace(params, data)


def run_stream(params: FilterParams, data) -> np.ndarray:
    """One result per set of ``set_size`` samples: the rank-th largest of each.

    ``data`` length must be a multiple of the set length; sets are streamed
    back-to-back and the engine is drained afterwards so every result is
    collected.
    """
    _record(params)
    if np.size(data) == 0:
        return np.zeros(0, dtype=np.int64)
    return stream_cycles(params, data).results
