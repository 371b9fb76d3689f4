"""Ensemble engines built from staggered multi-channel chains.

The sliding ensemble runs W identical W-channel chains over one shared data
pipe; chain j's first-data markers are delayed j columns, so collectively
the chains cover every window start and one result matures per clock after
warm-up.

The 9753 ensemble runs four chains of 9/7/5/3 channels on a 9-clock column
cadence.  Enable signals gate the narrower chains onto the middle columns
of each cadence (and centered rows of each column), yielding the four
concentric window results every 9 clocks.  Overriding the enabled phase
windows produces non-square rectangles instead.

``sliding_cycles`` and ``ensemble9753_cycles`` run on the batch kernels; the
clocked ``SlidingEnsemble`` and ``Ensemble9753`` are their reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Stage, StreamTrace, _DelayRing, _FinderChain
from .params import (
    ConfigError,
    FramingError,
    McParams,
    as_samples,
    chain_widths,
    check_samples,
    narrowest_uint,
)

CADENCE = 9  # fixed column cadence of the 9753 variant


def enable_schedule(w: int, phase: int) -> bool:
    """Whether a w-channel chain is enabled at this phase of the 9-cycle cadence.

    The narrower chains skip the first and last columns symmetrically and
    process the middle w of the 9 phases.
    """
    if w not in (3, 5, 7):
        raise ConfigError(f"enable schedule is defined for w in (3, 5, 7), got {w}")
    if not 0 <= phase < CADENCE:
        raise ConfigError(f"phase must be in [0, {CADENCE - 1}], got {phase}")
    return abs(phase - CADENCE // 2) <= (w - 1) // 2


class SlidingEnsemble:
    """Single-cycle W x W engine: one result per clock after warm-up.

    Feed one W-sample column per ``clock``; assert ``d1st`` every W columns
    (the window cadence of the first chain).  Window starts are covered
    round-robin by the staggered chains, so results emerge in window-start
    order, one per clock.
    """

    def __init__(self, window: int, rank: int, *, data_bits: int = 8,
                 counter_bits: int = 8, pipe_latency: int = 5):
        if window % 2 == 0:
            raise ConfigError("sliding ensembles support odd window sides only")
        p = McParams(channels=window, columns=window, rank=rank,
                     data_bits=data_bits, counter_bits=counter_bits,
                     pipe_latency=pipe_latency)
        self.params = p
        self.window = window
        self._ring = _DelayRing(p.stages * p.pipe_delay, channels=window)
        self.chains = [
            _FinderChain(
                lambda: Stage(p.data_bits, p.columns, p.rank, p.counter_bits,
                              p.pipe_latency),
                p.stages, p.pipe_delay, self._ring, d1st_offset=j)
            for j in range(window)
        ]
        self._t = 0
        self.last_chain = -1

    def clock(self, col, d1st: bool = False) -> int | None:
        """Returns the window result maturing this cycle, if any."""
        col = as_samples(col, self.params.data_bits)
        if col.shape != (self.window,):
            raise ConfigError(
                f"column must carry exactly {self.window} samples, got {col.shape}"
            )
        t = self._t
        self._ring.push(t, col, d1st)
        result = None
        self.last_chain = -1
        for j, chain in enumerate(self.chains):
            out = chain.clock(t)
            if out is not None:
                if result is not None:
                    raise RuntimeError("two chains matured in the same cycle")
                result = out
                self.last_chain = j
        self._t += 1
        return result

    @property
    def cycle(self) -> int:
        return self._t

    @property
    def alignment(self) -> int:
        """Cycles from a window's first column to its result."""
        return self.params.alignment


@dataclass(frozen=True)
class SlidingTrace(StreamTrace):
    """Per-clock record of a batch sliding run, drain included."""

    chain: np.ndarray

    @property
    def alignment(self) -> int:
        """Cycles from a window's first column to its result."""
        return self.delay

    def window_results(self, n_starts: int) -> np.ndarray:
        """Results for window starts 0..n_starts-1 (one per consecutive cycle)."""
        idx = self.alignment + np.arange(n_starts)
        if n_starts and not self.dv[idx].all():
            raise RuntimeError("missing window results in the sliding trace")
        return self.result[idx].astype(np.int64)


def sliding_cycles(window: int, rank: int, cols, *, data_bits: int = 8,
                   counter_bits: int = 8, pipe_latency: int = 5) -> SlidingTrace:
    """Batch-run a sliding ensemble over ``(n, W)`` columns.

    Markers are asserted every W columns; enough zero drain columns are
    appended to flush every window that was started, including the garbage
    tails past the strip edge (callers keep the first ``n - W + 1`` results).
    The pipe capacity is the one the window needs.
    """
    capacity = chain_widths(window * window, rank,
                            pipe_latency)["pipe_capacity"]
    p = McParams(channels=window, columns=window, rank=rank,
                 data_bits=data_bits, counter_bits=counter_bits,
                 pipe_latency=pipe_latency, pipe_capacity=capacity)
    if window % 2 == 0:
        raise ConfigError("sliding ensembles support odd window sides only")
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[1] != window:
        raise ConfigError(f"column stream must have shape (n, {window})")
    if cols.size == 0:
        raise ConfigError("sliding runs need at least one column")
    cols = check_samples(cols, p.data_bits)
    n = cols.shape[0]
    last_anchor = ((n - 1) // window) * window
    last_start = last_anchor + window - 1
    total = last_start + p.alignment + 1
    din = np.zeros((total, window), narrowest_uint(p.data_bits))
    din[:n] = cols
    d1st = np.zeros(total, dtype=bool)
    d1st[0:n:window] = True
    dv = np.zeros(total, dtype=bool)
    res = np.zeros(total, dtype=din.dtype)
    chain_id = np.full(total, -1, dtype=np.int64)
    err, comparisons = _kernels.sliding_run(
        din, d1st, p.data_bits, p.rank, p.counter_bits, p.pipe_latency, dv,
        res, chain_id)
    if err >= 0:
        raise FramingError(f"sliding framing broke at cycle {err}")
    return SlidingTrace(din=din, d1st=d1st, dv=dv, result=res,
                        comparisons=comparisons, delay=p.alignment,
                        chain=chain_id)


def sliding_window_results(window: int, rank: int, cols, **kwargs) -> np.ndarray:
    """Results of every full W-wide window of a column strip, in start order."""
    n_starts = len(cols) - window + 1
    if n_starts < 1:
        return np.zeros(0, dtype=np.int64)
    return sliding_cycles(window, rank, cols, **kwargs).window_results(n_starts)


class _GatedChain:
    """One chain of the 9753 ensemble, clocked only on its enabled phases.

    The chain lives in its own gated time: its data pipe advances one slot
    per enabled column, so the standard per-stage delay arithmetic applies
    within the enabled-column stream.
    """

    def __init__(self, channels: int, phases, rank: int, data_bits: int,
                 counter_bits: int, pipe_latency: int):
        phases = tuple(int(ph) for ph in phases)
        if not phases:
            raise ConfigError("a chain needs at least one enabled phase")
        if any(not 0 <= ph < CADENCE for ph in phases):
            raise ConfigError(f"phases must lie in [0, {CADENCE - 1}]")
        if list(phases) != list(range(phases[0], phases[0] + len(phases))):
            raise ConfigError("enabled phases must form one contiguous window")
        if channels > CADENCE or channels % 2 == 0:
            raise ConfigError("chain channel counts must be odd and at most 9")
        self.params = McParams(channels=channels, columns=len(phases),
                               rank=rank, data_bits=data_bits,
                               counter_bits=counter_bits,
                               pipe_latency=pipe_latency)
        p = self.params
        self.phases = phases
        self.phase_set = frozenset(phases)
        self.first_phase = phases[0]
        self.row_offset = (CADENCE - channels) // 2
        self._ring = _DelayRing(p.stages * p.pipe_delay, channels=channels)
        self._chain = _FinderChain(
            lambda: Stage(p.data_bits, p.columns, p.rank, p.counter_bits,
                          p.pipe_latency),
            p.stages, p.pipe_delay, self._ring)
        self._t = 0
        self.results: deque = deque()

    def clock_enabled(self, col, d1st: bool) -> None:
        t = self._t
        self._ring.push(t, col, d1st)
        out = self._chain.clock(t)
        self._t += 1
        if out is not None:
            self.results.append(out)


class Ensemble9753:
    """Four concentric-window chains on a 9-clock column cadence.

    Feed one 9-sample column per ``clock``; assert ``d1st`` on the first
    column of each window position (every 9 columns).  Once all four chains
    have matured a window's result the quadruple is returned, every 9 clocks
    in steady state.  ``chains`` overrides the default
    (channels, enabled phases, rank) configuration, e.g. to produce
    9-column-wide rectangles by enabling all phases.
    """

    def __init__(self, ranks=(41, 25, 13, 5), *, data_bits: int = 8,
                 counter_bits: int = 8, pipe_latency: int = 5, chains=None):
        if chains is None:
            if len(ranks) != 4:
                raise ConfigError("ranks must list (m9, m7, m5, m3)")
            chains = [(CADENCE, tuple(range(CADENCE)), ranks[0])]
            for w, rank in zip((7, 5, 3), ranks[1:]):
                phases = tuple(ph for ph in range(CADENCE)
                               if enable_schedule(w, ph))
                chains.append((w, phases, rank))
        self.chains = [
            _GatedChain(channels, phases, rank, data_bits, counter_bits,
                        pipe_latency)
            for channels, phases, rank in chains
        ]
        self._phase: int | None = None
        self._live = False
        self.last_phase = -1

    def clock(self, col, d1st: bool = False):
        """Returns the per-chain result tuple when a window position completes."""
        col = as_samples(col, self.chains[0].params.data_bits)
        if col.shape != (CADENCE,):
            raise ConfigError(f"column must carry exactly {CADENCE} samples")
        if self._phase is None:
            if not d1st:
                return None  # columns before the first anchor are ignored
            self._phase = 0
        ph = self._phase % CADENCE
        if d1st:
            if ph != 0:
                raise FramingError(
                    f"first-column marker broke the {CADENCE}-cycle cadence"
                )
            self._live = True
        elif ph == 0:
            self._live = False
        for chain in self.chains:
            if ph in chain.phase_set:
                rows = col[chain.row_offset:
                           chain.row_offset + chain.params.channels]
                chain.clock_enabled(rows, self._live and ph == chain.first_phase)
        self.last_phase = ph
        self._phase += 1
        if all(chain.results for chain in self.chains):
            return tuple(chain.results.popleft() for chain in self.chains)
        return None

    def enable_flags(self) -> tuple[bool, ...]:
        """Enabled state of every chain past the first at the last phase."""
        return tuple(self.last_phase in chain.phase_set
                     for chain in self.chains[1:])

    @property
    def drain_columns(self) -> int:
        """Generous idle-column count flushing every started window."""
        worst = max(chain.params.pipe_delay for chain in self.chains)
        stages = self.chains[0].params.stages
        return CADENCE * (stages * worst + 2)


@dataclass(frozen=True)
class Trace9753(StreamTrace):
    """Per-clock record of a batch 9753 run, drain included: ``result`` has
    one column per chain, ``delay`` is the first quadruple's cycle (None
    without an anchor), so ``dout`` replays the strip delayed to it, and
    ``enables`` flags every chain past the first."""

    enables: np.ndarray


def ensemble9753_cycles(cols, ranks=(41, 25, 13, 5), *, data_bits: int = 8,
                        counter_bits: int = 8, pipe_latency: int = 5,
                        chains=None) -> Trace9753:
    """Batch-run full cadences of a 9-row column strip plus the drain.

    Gives what clocking :class:`Ensemble9753` gives.  A gated chain lives in
    its own enabled-column time, so it is one ``chain_run`` over the strip's
    enabled columns and its own rows; gated fire index g maps back to cycle
    ``9 * (g // w) + first_phase + g % w`` for w enabled phases.  The k-th
    quadruple emerges with the last of the chains' k-th results.
    """
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[1] != CADENCE:
        raise ConfigError(f"column strip must have shape (n, {CADENCE})")
    ens = Ensemble9753(ranks, data_bits=data_bits, counter_bits=counter_bits,
                       pipe_latency=pipe_latency, chains=chains)
    bits = ens.chains[0].params.data_bits
    cols = check_samples(cols, bits)
    total = len(cols) + ens.drain_columns
    din = np.zeros((total, CADENCE), narrowest_uint(bits))
    din[:len(cols)] = cols
    anchors = np.arange(0, len(cols) - CADENCE + 1, CADENCE)
    # phases count from the first anchor, cycle 0; without one no chain runs
    phase = np.arange(total) % CADENCE if anchors.size else np.full(total, -1)
    enabled = [np.isin(phase, chain.phases) for chain in ens.chains]
    fires, results, comparisons = [], [], 0
    for chain, on in zip(ens.chains, enabled):
        cp, width = chain.params, len(chain.phases)
        rows = din[on, chain.row_offset:chain.row_offset + cp.channels]
        marks = np.isin(np.arange(len(rows)), anchors // CADENCE * width)
        dv, res = np.zeros(len(rows), bool), np.zeros(len(rows), din.dtype)
        _, count = _kernels.chain_run(
            rows, marks, cp.data_bits, width, cp.rank, cp.counter_bits,
            cp.pipe_latency, dv, res)
        comparisons += count
        g = np.flatnonzero(dv)
        fires.append(CADENCE * (g // width) + chain.first_phase + g % width)
        results.append(res[g])
    # the drain lets every chain fire once per anchor
    cycles = np.max(fires, axis=0)
    dv = np.isin(np.arange(total), cycles)
    result = np.zeros((total, len(ens.chains)), dtype=din.dtype)
    result[cycles] = np.transpose(results)
    return Trace9753(din=din, d1st=np.isin(np.arange(total), anchors), dv=dv,
                     result=result, comparisons=comparisons,
                     delay=int(cycles[0]) if anchors.size else None,
                     enables=np.array(enabled)[1:].T)


def ensemble9753_results(cols, ranks=(41, 25, 13, 5), *, data_bits: int = 8,
                         counter_bits: int = 8, pipe_latency: int = 5,
                         chains=None):
    """Run full cadences of a 9-row column strip; returns (cycles, quadruples).

    ``cols`` has shape (n, 9); only window positions with all 9 columns of
    data present are anchored.  ``cycles[i]`` is the clock at which
    ``quadruples[i]`` emerged.
    """
    trace = ensemble9753_cycles(cols, ranks, data_bits=data_bits,
                                counter_bits=counter_bits,
                                pipe_latency=pipe_latency, chains=chains)
    return (np.flatnonzero(trace.dv).tolist(),
            [tuple(q) for q in trace.results.tolist()])
