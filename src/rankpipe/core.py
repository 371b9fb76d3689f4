"""The streaming percentile chain: stages, the one clocked engine, and
the batch framing that every chain engine shares.

A chain of B/2 refinement stages narrows the surviving value range by a
factor of four per stage: each stage counts how many samples of a data set
sit at or above the three interior boundaries of its range, then resolves
two more result bits once the whole set has passed through.  Data pipes
delay the raw stream so every stage sees a set exactly when the previous
stage's partial median for it is ready.

``Engine``, the one clocked engine of every chain record and the one
reference for the cycle semantics, owns a data pipe and
``set_cycles // cadence`` chains of B/2 ``Stage``s on it, stepping them
clock by clock: one chain under ``FilterParams`` or ``McParams``, W with
staggered markers under ``SlidingParams``.  Each ``Stage`` takes the
record too, and sizes its counters from it.  The batch runs go through
``stream_cycles``, the one entry of every chain record, the 9753
ensemble's gated chains included.  It is the one caller of
:mod:`rankpipe._kernels`, which computes every set's result at once, with
the fixed cycle it matures at.  The test suite checks the two against
each other cycle-for-cycle.

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
    FramingError,
    PartialMedian,
    _ChainTiming,
    _array,
    _integral,
    as_samples,
    check_samples,
    counter_preset,
    narrowest_uint,
    priority,
    quarter_width,
)

_ROOT = PartialMedian()


def boundaries(pm: PartialMedian, data_bits: int) -> tuple[int, int, int]:
    """The three interior quarter boundaries (b1 < b2 < b3) of ``pm``'s range."""
    if not isinstance(pm, PartialMedian):
        raise ConfigError(f"boundaries need a PartialMedian, got "
                          f"{type(pm).__name__}")
    q = pm._quarter(data_bits)
    return pm.prefix + q, pm.prefix + 2 * q, pm.prefix + 3 * q


def incgen(x: int, pm: PartialMedian, data_bits: int) -> tuple[bool, bool, bool]:
    """Boundary comparisons ``(ge3, ge2, ge1)`` for one sample, or flag
    arrays for an array of samples.

    When ``x`` lies inside ``pm``'s range the flags are thermometer-coded:
    ge3 implies ge2 implies ge1.  Out-of-range samples are compared as
    ordinary integers and increment consistently.
    """
    b1, b2, b3 = boundaries(pm, data_bits)
    x = check_samples(x, data_bits)
    return x >= b3, x >= b2, x >= b1


def refine(msb3: int, msb2: int, msb1: int, check: bool = False) -> int:
    """Two new result bits from the three accumulator MSBs, priority encoded.

    A healthy engine only ever produces thermometer-coded inputs; with
    ``check=True`` any other combination raises as an internal-consistency
    diagnostic instead of being silently priority-resolved.
    """
    # the MSBs are flags: a bool is one, as any integer is
    msb3, msb2, msb1 = (_integral(int(msb) if isinstance(msb, bool) else msb,
                                  "accumulator MSBs")
                        for msb in (msb3, msb2, msb1))
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


def comparison_count(params: _ChainTiming, num_sets: int) -> int:
    """Exact boundary comparisons for ``num_sets`` sets: 3 * N * (B/2) each,
    except under ``SlidingParams``, whose W chains share a first stage that
    compares each column of the run once (``SlidingParams.comparisons``)."""
    return _record(params).comparisons(num_sets)


def _column(params, din) -> np.ndarray:
    """``din`` as an array, once its shape is checked to be ``params.lanes``."""
    din = _array(din)
    if din.shape != params.lanes:
        raise ConfigError(f"one clock's input must have shape "
                          f"{params.lanes}, got {din.shape}")
    return din


def _marker(d1st) -> bool:
    """One clock's checked first-data marker: a single flag."""
    if np.ndim(d1st):
        raise ConfigError(f"the first-data marker must be one flag, got "
                          f"shape {np.shape(d1st)}")
    return bool(d1st)


class Stage:
    """One 2-bit refinement stage of a chain record's chain.

    Takes its record as :class:`Engine` does and holds three accumulators
    of the record's :attr:`counter_bits`, preset once for its rank, the set
    position, and an L-deep output delay modeling the pipeline registers.
    ``clock`` takes one input per call, its shape checked by
    :func:`_column` whenever it is counted, and returns the
    partial median maturing L cycles after a set's last input; ``held``
    keeps the last one, the register the next stage latches.
    """

    def __init__(self, params):
        p = self.params = _record(params)
        self.preset = counter_preset(p.rank, p.counter_bits)
        self._mask, self._msb = (1 << p.counter_bits) - 1, self.preset + p.rank
        self.pm = _ROOT  # latched partial median of the running set
        self.qc1 = self.qc2 = self.qc3 = 0
        self.position = 0  # inputs of the running set so far; 0 when idle
        self.comparisons = 0
        self.held: PartialMedian | None = None
        self._pipe = deque([None] * p.pipe_latency)  # the L output registers
        self._cycle = 0

    def _increments(self, x) -> tuple[int, int, int]:
        """Samples of ``x`` (one sample or one column) at or above each
        boundary, lowest boundary first."""
        flags = incgen(x, self.pm, self.params.data_bits)
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
            self.pm = pm_in
            self.qc1 = self.qc2 = self.qc3 = self.preset
        if d1st or self.position:
            inc1, inc2, inc3 = self._increments(_column(self.params, x))
            self.qc1 = (self.qc1 + inc1) & self._mask
            self.qc2 = (self.qc2 + inc2) & self._mask
            self.qc3 = (self.qc3 + inc3) & self._mask
            self.position += 1
            if self.position == self.params.set_cycles:
                two = refine(self.qc3 & self._msb, self.qc2 & self._msb,
                             self.qc1 & self._msb, check=True)
                out = self.pm.refined(two, self.params.data_bits)
                self.position = 0
        self._pipe.append(out)
        out = self._pipe.popleft()
        if out is not None:
            self.held = out
        return out


class _DelayRing:
    """Circular (value, marker) history with fixed read offsets.

    One ring stands in for the engine's chained equal-depth data pipes: the
    per-stage taps and the output-alignment tap are constant offsets from a
    single shared write position, mirroring the shared address counters of
    the pipes.
    """

    def __init__(self, params):
        self._cap = max(params.stages * params.pipe_delay, 1)
        self._data = np.zeros((self._cap,) + params.lanes, dtype=np.int64)
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


class Engine:
    """Clock-by-clock engine of any chain record, with its own data pipe.

    Consumes one sample (``FilterParams``) or K-sample column and its
    first-data marker per ``clock``, and emits ``CycleOutput``: ``dv``
    pulses once per set, when ``result`` is its M-th largest and ``dout``
    its first sample or column.  ``chains[j]`` is chain j's B/2
    ``Stage``s, reading markers j columns late: one chain, or under
    ``SlidingParams`` W.  ``last_chain`` is the one that matured on the
    last clock, -1 for none.
    """

    def __init__(self, params: _ChainTiming):
        p = self.params = _record(params)
        self._ring = _DelayRing(p)
        self.chains = [[Stage(p) for _ in range(p.stages)]
                       for _ in range(p.set_cycles // p.cadence)]
        self._t = 0
        self.last_chain = -1

    def _step(self, stages: list[Stage], lag: int, t: int) -> int | None:
        """Advance one chain's stages through cycle ``t`` of the ring, its
        markers read ``lag`` columns late; returns the fully resolved
        result maturing this cycle, if any."""
        outs = []  # last stage first
        for s in reversed(range(len(stages))):
            tap = s * self.params.pipe_delay
            x = self._ring.read(t, tap)[0]
            f = self._ring.read(t, tap + lag)[1]
            pm_in = stages[s - 1].held if s else _ROOT
            try:
                outs.append(stages[s].clock(x, f, pm_in))
            except FramingError as err:
                raise FramingError(f"stage {s}: {err}") from None
        return None if outs[0] is None else outs[0].prefix

    def clock(self, din, d1st: bool = False) -> CycleOutput:
        t = self._t
        din = as_samples(din, self.params.data_bits)
        self._ring.push(t, _column(self.params, din), _marker(d1st))
        outs = [self._step(stages, j, t)
                for j, stages in enumerate(self.chains)]
        fired = [j for j, out in enumerate(outs) if out is not None]
        if len(fired) > 1:
            raise RuntimeError("two chains matured in the same cycle")
        self.last_chain = fired[0] if fired else -1
        dout, _ = self._ring.read(t, self.params.alignment)
        self._t += 1
        return CycleOutput(dv=bool(fired), dout=dout.copy(),
                           result=outs[self.last_chain] if fired else 0)

    @property
    def comparisons(self) -> int:
        return sum(stage.comparisons for stages in self.chains
                   for stage in stages)

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
    cycles ``dout`` lags ``din``: a chain record's alignment, or the first
    9753 quadruple's cycle (None without an anchor).  Under
    ``SlidingParams`` dv cycle t matured on chain ``(t - delay) % W``.
    The per-cycle views ``d1st``, ``dv`` and ``result`` are built when
    read, like ``dout``; ``results`` is ``values`` as int64.
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


def stream_cycles(params: _ChainTiming, data) -> StreamTrace:
    """The one batch entry of every chain record: frame ``data``, one input
    of shape ``params.lanes`` per cycle, into the sets the record starts,
    run the kernel through them plus the drain, and return the trace."""
    p, lanes = _record(params), params.lanes
    cols = _array(data)
    if cols.ndim != 1 + len(lanes) or cols.shape[1:] != lanes:
        raise ConfigError(f"stream must have shape "
                          f"(n,{''.join(f' {k}' for k in lanes)}), "
                          f"got {cols.shape}")
    sets = p.starts(len(cols))
    total = p.cycles(sets)
    din = _framed(cols, p.data_bits, total)
    fire, comparisons, values = _kernels.chain_run(
        din.reshape(total, math.prod(lanes)), sets, p)
    return StreamTrace(din=din, starts=slice(0, len(cols), p.set_cycles),
                       fire=fire, values=values, comparisons=comparisons,
                       delay=p.alignment)


def run_stream(params: _ChainTiming, data) -> np.ndarray:
    """One result per set of ``set_size`` samples: the rank-th largest of each.

    ``data`` length must be a multiple of the set length; sets are streamed
    back-to-back and the engine is drained afterwards so every result is
    collected.
    """
    _record(params)
    data = _array(data)
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    return stream_cycles(params, data).results
