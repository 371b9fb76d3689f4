"""Ensemble engines built from the one chain of :mod:`rankpipe.core`.

The sliding ensemble runs W identical W-channel chains over one shared data
pipe; chain j's first-data markers are delayed j columns, so collectively
the chains cover every window start and one result matures per clock after
warm-up.

The 9753 ensemble runs four chains of 9/7/5/3 channels on a 9-clock column
cadence.  Enable signals gate the narrower chains onto the middle columns
of each cadence (and centered rows of each column): each is a plain
``Engine`` clocked only on its enabled phases, yielding the four concentric
window results every 9 clocks.  Overriding the enabled phase windows
produces non-square rectangles instead.

``sliding_cycles`` is core's one batch entry under ``SlidingParams``, and
``ensemble9753_cycles`` runs one kernel call per gated chain; neither builds
a clocked object, and the clocked ``SlidingEnsemble`` and ``Ensemble9753``
are their reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    Engine,
    StreamTrace,
    _chain_trace,
    _column,
    _DelayRing,
    _FinderChain,
    _framed,
)
from .params import (
    ConfigError,
    FramingError,
    McParams,
    SlidingParams,
    _integral,
    as_samples,
)

CADENCE = 9  # fixed column cadence of the 9753 variant


def enable_schedule(w: int, phase: int) -> bool:
    """Whether a w-channel chain is enabled at this phase of the 9-cycle cadence.

    The narrower chains skip the first and last columns symmetrically and
    process the middle w of the 9 phases.
    """
    w = _integral(w, "9753 chain widths")
    phase = _integral(phase, "9753 phases")
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
                 pipe_latency: int = 5):
        p = self.params = SlidingParams(window, window, rank, data_bits,
                                        pipe_latency=pipe_latency)
        self._ring = _DelayRing(p)
        self.chains = [_FinderChain(p, self._ring, j) for j in range(window)]
        self._t = 0
        self.last_chain = -1

    def clock(self, col, d1st: bool = False) -> int | None:
        """Returns the window result maturing this cycle, if any."""
        t = self._t
        self._ring.push(t, _column(self.params, col), d1st)
        result = None
        self.last_chain = -1
        for j, chain in enumerate(self.chains):
            out = chain.step(t)
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
    """A batch sliding run, drain included: one result per window start,
    in start order, with markers every W columns."""

    @property
    def chain(self) -> np.ndarray:
        """The chain each cycle's result matured on, -1 off dv: window i
        matures at cycle ``alignment + i``, on chain ``i % W``."""
        chain = np.full(len(self.din), -1)
        chain[self.fire] = (self.fire - self.delay) % self.din.shape[1]
        return chain

    @property
    def alignment(self) -> int:
        """Cycles from a window's first column to its result."""
        return self.delay


def sliding_cycles(window: int, rank: int, cols, *, data_bits: int = 8,
                   pipe_latency: int = 5) -> SlidingTrace:
    """Batch-run a sliding ensemble over ``(n, W)`` columns.

    Markers are asserted every W columns; enough zero drain columns are
    appended to flush every window that was started, including the garbage
    tails past the strip edge (callers keep the first ``n - W + 1`` results).
    The chains run under ``SlidingParams(window, window, rank, data_bits)``.
    """
    p = SlidingParams(window, window, rank, data_bits,
                      pipe_latency=pipe_latency)
    if np.size(cols) == 0:
        raise ConfigError("sliding runs need at least one column")
    return _chain_trace(p, cols, SlidingTrace)


def sliding_window_results(window: int, rank: int, cols, **kwargs) -> np.ndarray:
    """Results of every full W-wide window of a column strip, in start order."""
    cols = np.asarray(cols)
    if cols.ndim and len(cols) < _integral(window, "window sides"):
        return np.zeros(0, dtype=np.int64)
    trace = sliding_cycles(window, rank, cols, **kwargs)
    return trace.results[:len(cols) - window + 1]


@dataclass(frozen=True)
class _ChainSpec:
    """One chain of a 9753 ensemble: its parameters (``columns`` is the
    number of enabled phases), its contiguous enabled phases of the
    cadence, and the strip rows it reads, centered."""

    params: McParams
    phases: tuple[int, ...]
    rows: slice


def _chain_specs(ranks, chains, data_bits: int,
                 pipe_latency: int) -> list[_ChainSpec]:
    """Validated specs of a 9753 ensemble's chains: the four concentric
    chains of ``ranks`` (m9, m7, m5, m3), or the ``chains`` override of
    (channels, enabled phases, rank) triples."""
    if chains is None:
        if len(ranks) != 4:
            raise ConfigError("ranks must list (m9, m7, m5, m3)")
        chains = [(CADENCE, tuple(range(CADENCE)), ranks[0])]
        for w, rank in zip((7, 5, 3), ranks[1:]):
            phases = tuple(ph for ph in range(CADENCE)
                           if enable_schedule(w, ph))
            chains.append((w, phases, rank))
    specs = []
    for channels, phases, rank in chains:
        channels = _integral(channels, "9753 channel counts")
        phases = tuple(_integral(ph, "9753 phases") for ph in phases)
        if not phases:
            raise ConfigError("a chain needs at least one enabled phase")
        if any(not 0 <= ph < CADENCE for ph in phases):
            raise ConfigError(f"phases must lie in [0, {CADENCE - 1}]")
        if list(phases) != list(range(phases[0], phases[0] + len(phases))):
            raise ConfigError("enabled phases must form one contiguous window")
        if channels > CADENCE or channels % 2 == 0:
            raise ConfigError("chain channel counts must be odd and at most 9")
        params = McParams(channels=channels, columns=len(phases), rank=rank,
                          data_bits=data_bits, pipe_latency=pipe_latency)
        top = (CADENCE - channels) // 2
        specs.append(_ChainSpec(params, phases, slice(top, top + channels)))
    if not specs:
        raise ConfigError("a 9753 ensemble needs at least one chain")
    return specs


def _drain_columns(specs) -> int:
    """Generous idle-column count flushing every started window."""
    worst = max(spec.params.pipe_delay for spec in specs)
    return CADENCE * (specs[0].params.stages * worst + 2)


class Ensemble9753:
    """Four concentric-window chains on a 9-clock column cadence.

    Feed one 9-sample column per ``clock``; assert ``d1st`` on the first
    column of each window position (every 9 columns).  Each chain is an
    ``Engine`` that sees only its enabled phases and its own rows, so its
    data pipe advances one slot per enabled column.  Once all four chains
    have matured a window's result the quadruple is returned, every 9 clocks
    in steady state.  ``chains`` overrides the default
    (channels, enabled phases, rank) configuration, e.g. to produce
    9-column-wide rectangles by enabling all phases.
    """

    def __init__(self, ranks=(41, 25, 13, 5), *, data_bits: int = 8,
                 pipe_latency: int = 5, chains=None):
        self.specs = _chain_specs(ranks, chains, data_bits, pipe_latency)
        self.chains = [Engine(spec.params) for spec in self.specs]
        self._queues = [deque() for _ in self.specs]
        self._phase: int | None = None
        self._live = False
        self.last_phase = -1

    def clock(self, col, d1st: bool = False):
        """Returns the per-chain result tuple when a window position completes."""
        col = as_samples(col, self.specs[0].params.data_bits)
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
        for spec, chain, queue in zip(self.specs, self.chains, self._queues):
            if ph in spec.phases:
                out = chain.clock(col[spec.rows],
                                  self._live and ph == spec.phases[0])
                if out.dv:
                    queue.append(out.result)
        self.last_phase = ph
        self._phase += 1
        if all(self._queues):
            return tuple(queue.popleft() for queue in self._queues)
        return None

    def enable_flags(self) -> tuple[bool, ...]:
        """Enabled state of every chain past the first at the last phase."""
        return tuple(self.last_phase in spec.phases
                     for spec in self.specs[1:])

    @property
    def drain_columns(self) -> int:
        """Generous idle-column count flushing every started window."""
        return _drain_columns(self.specs)


@dataclass(frozen=True)
class Trace9753(StreamTrace):
    """A batch 9753 run, drain included: ``values`` has one row per
    anchored cadence and one column per chain, ``fire`` is the cycle each
    row emerges at, ``delay`` is the first row's cycle (None without an
    anchor), so ``dout`` replays the strip delayed to it, and ``enables``
    flags every chain past the first on every cycle."""

    enables: np.ndarray


def ensemble9753_cycles(cols, ranks=(41, 25, 13, 5), *, data_bits: int = 8,
                        pipe_latency: int = 5, chains=None) -> Trace9753:
    """Batch-run full cadences of a 9-row column strip plus the drain.

    Gives what clocking :class:`Ensemble9753` gives.  A gated chain lives in
    its own enabled-column time, so it is one ``chain_run`` over the strip's
    enabled columns and its own rows; gated fire index g maps back to cycle
    ``9 * (g // w) + phases[0] + g % w`` for w enabled phases.  The k-th
    quadruple emerges with the last of the chains' k-th results.
    """
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[1] != CADENCE:
        raise ConfigError(f"column strip must have shape (n, {CADENCE})")
    specs = _chain_specs(ranks, chains, data_bits, pipe_latency)
    n = len(cols)
    total = n + _drain_columns(specs)
    din = _framed(cols, specs[0].params.data_bits, total)
    anchors = n // CADENCE  # every full cadence
    # phases count from the first anchor, cycle 0; without one no chain runs
    phase = np.arange(total) % CADENCE if anchors else np.full(total, -1)
    enabled = [np.isin(phase, spec.phases) for spec in specs]
    fires, values, comparisons = [], [], 0
    for spec, on in zip(specs, enabled):
        width = len(spec.phases)
        g, count, chain_values = _kernels.chain_run(din[on, spec.rows],
                                                    anchors, spec.params)
        comparisons += count
        fires.append(CADENCE * (g // width) + spec.phases[0] + g % width)
        values.append(chain_values)
    # the drain lets every chain fire once per anchor
    fire = np.max(fires, axis=0)
    return Trace9753(din=din, starts=slice(0, anchors * CADENCE, CADENCE),
                     fire=fire, values=np.column_stack(values),
                     comparisons=comparisons,
                     delay=int(fire[0]) if anchors else None,
                     enables=np.array(enabled)[1:].T)


def ensemble9753_results(cols, ranks=(41, 25, 13, 5), *, data_bits: int = 8,
                         pipe_latency: int = 5, chains=None):
    """Run full cadences of a 9-row column strip; returns (cycles, quadruples).

    ``cols`` has shape (n, 9); only window positions with all 9 columns of
    data present are anchored.  ``cycles[i]`` is the clock at which
    ``quadruples[i]`` emerged.
    """
    trace = ensemble9753_cycles(cols, ranks, data_bits=data_bits,
                                pipe_latency=pipe_latency, chains=chains)
    return trace.fire.tolist(), [tuple(q) for q in trace.results.tolist()]
