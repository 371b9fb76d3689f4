"""Ensemble engines built from the one clocked engine of :mod:`rankpipe.core`.

The sliding ensemble runs W identical W-channel chains over one shared data
pipe; chain j's first-data markers are delayed j columns, so collectively
the chains cover every window start and one result matures per clock after
warm-up.  It needs no class of its own: clocked, it is core's ``Engine``
under ``SlidingParams(W, W, M)``, and ``sliding_cycles`` is core's
``stream_cycles`` under this module's name.

The 9753 ensemble runs the paper's four concentric square chains, w x w for
w in 9, 7, 5, 3, on a 9-clock column cadence.  Enable signals gate chain w
onto the middle w columns of each cadence and the middle w rows of each
column: each is a plain ``Engine`` under ``McParams(w, w, m_w)`` clocked
only on its enabled phases, yielding the four concentric window results
every 9 clocks.  Non-square and irregular windows are the single and
multichannel engines' business.

``ensemble9753_cycles`` runs each gated chain through ``stream_cycles``,
core's one batch entry, builds no clocked object, and ends, as every chain
run does, at its last dv cycle; the clocked ``Ensemble9753`` is its
reference, at the records' default pipe latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import Engine, StreamTrace, _framed, _marker, stream_cycles
from .params import (
    ConfigError,
    FramingError,
    McParams,
    SlidingParams,
    _array,
    _integral,
    as_samples,
)

sliding_cycles = stream_cycles
CADENCE = 9  # fixed column cadence of the 9753 variant
WIDTHS = (9, 7, 5, 3)  # the 9753 chains' window sides, widest first
RANKS = (41, 25, 13, 5)  # their default ranks, each window's median


def _centered(w: int) -> slice:
    """The middle w of 9: chain w's enabled phases of every cadence, and
    its rows of every column."""
    return slice((CADENCE - w) // 2, (CADENCE + w) // 2)


def _enabled(on: slice, phase):
    """Whether ``phase`` (an int or an array of them) lies in ``on``."""
    return (on.start <= phase) & (phase < on.stop)


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
    return _enabled(_centered(w), phase)


def sliding_window_results(params: SlidingParams, cols) -> np.ndarray:
    """Results of every full W-wide window of a column strip, in start order."""
    if not isinstance(params, SlidingParams):
        raise ConfigError(f"sliding windows need a SlidingParams, got "
                          f"{type(params).__name__}")
    cols = _array(cols)
    if cols.ndim and len(cols) < params.columns:
        return np.zeros(0, dtype=np.int64)
    trace = sliding_cycles(params, cols)
    return trace.results[:len(cols) - params.columns + 1]


def _chain_specs(ranks, data_bits: int) -> list[McParams]:
    """The records of a 9753 ensemble's four chains: chain w of
    ``WIDTHS`` is ``McParams(w, w, m_w)`` for ``ranks`` (m9, m7, m5, m3)."""
    try:
        m9, m7, m5, m3 = ranks
    except (TypeError, ValueError):  # not iterable, or not four items
        raise ConfigError("ranks must list (m9, m7, m5, m3)") from None
    return [McParams(w, w, rank, data_bits)
            for w, rank in zip(WIDTHS, (m9, m7, m5, m3))]


class Ensemble9753:
    """Four concentric-window chains on a 9-clock column cadence.

    Feed one 9-sample column per ``clock``; assert ``d1st`` on the first
    column of each window position (every 9 columns).  Chain w is an
    ``Engine`` under ``McParams(w, w, m_w)`` that sees only the middle w
    phases of each cadence and the middle w rows of each column, so its
    data pipe advances one slot per enabled column.  Once all four chains
    have matured a window's result the quadruple is returned, every 9 clocks
    in steady state.
    """

    def __init__(self, ranks=RANKS, *, data_bits: int = 8):
        self.chains = [Engine(p) for p in _chain_specs(ranks, data_bits)]
        self._queues = [deque() for _ in self.chains]
        self._phase: int | None = None
        self._live = False
        self.last_phase = -1

    def clock(self, col, d1st: bool = False):
        """Returns the per-chain result tuple when a window position completes."""
        col = as_samples(col, self.chains[0].params.data_bits)
        if col.shape != (CADENCE,):
            raise ConfigError(f"column must carry exactly {CADENCE} samples")
        d1st = _marker(d1st)
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
        for chain, queue in zip(self.chains, self._queues):
            on = _centered(chain.params.channels)
            if _enabled(on, ph):
                out = chain.clock(col[on], self._live and ph == on.start)
                if out.dv:
                    queue.append(out.result)
        self.last_phase = ph
        self._phase += 1
        if all(self._queues):
            return tuple(queue.popleft() for queue in self._queues)
        return None

    def enable_flags(self) -> tuple[bool, ...]:
        """Enabled state of every chain past the first at the last phase."""
        return tuple(_enabled(_centered(w), self.last_phase)
                     for w in WIDTHS[1:])


@dataclass(frozen=True)
class Trace9753(StreamTrace):
    """A batch 9753 run through its last quadruple, or its input's end if
    later: ``values`` has one row per anchored cadence and one column per
    chain, ``fire`` is the cycle each row emerges at, ``delay`` is the first
    row's cycle (None without an anchor), so ``dout`` replays the strip
    delayed to it."""

    @property
    def enables(self) -> np.ndarray:
        """The enable flag of every chain past the first on every cycle:
        phases count from the first anchor, cycle 0; without one no chain
        runs."""
        phase = np.arange(self.cycles) % CADENCE
        flags = [_enabled(_centered(w), phase) for w in WIDTHS[1:]]
        return np.column_stack(flags) & (self.delay is not None)


def ensemble9753_cycles(cols, ranks=RANKS, *, data_bits: int = 8) -> Trace9753:
    """Batch-run full cadences of a 9-row column strip through its last
    quadruple, or to the strip's end if that is later.

    Gives what clocking :class:`Ensemble9753` gives.  A gated chain lives in
    its own enabled-column time, so chain w is core's one batch entry over
    the middle w columns and rows of every full cadence; its fire index g
    maps back to cycle ``9 * (g // w) + (9 - w) // 2 + g % w``.  Its k-th
    result's g is its alignment plus ``k * w``, so the k-th quadruple
    emerges with the slowest chain's, at ``first + 9 * k``.
    """
    cols = _array(cols)
    if cols.ndim != 2 or cols.shape[1] != CADENCE:
        raise ConfigError(f"column strip must have shape (n, {CADENCE})")
    chains = _chain_specs(ranks, data_bits)
    n = len(cols)
    anchors = n // CADENCE  # every full cadence
    first = max(CADENCE * (p.alignment // p.channels)
                + _centered(p.channels).start + p.alignment % p.channels
                for p in chains)
    fire = first + CADENCE * np.arange(anchors)
    din = _framed(cols, chains[0].data_bits,
                  max(n, int(fire[-1]) + 1) if anchors else n)
    windows = din[:anchors * CADENCE].reshape(anchors, CADENCE, CADENCE)
    values, comparisons = [], 0
    for p in chains:
        w, on = p.channels, _centered(p.channels)
        trace = stream_cycles(p, windows[:, on, on].reshape(-1, w))
        values.append(trace.values)
        comparisons += trace.comparisons
    return Trace9753(din=din, starts=slice(0, anchors * CADENCE, CADENCE),
                     fire=fire, values=np.column_stack(values),
                     comparisons=comparisons,
                     delay=first if anchors else None)


def ensemble9753_results(cols, ranks=RANKS, *, data_bits: int = 8):
    """Run full cadences of a 9-row column strip; returns (cycles, quadruples).

    ``cols`` has shape (n, 9); only window positions with all 9 columns of
    data present are anchored.  ``cycles[i]`` is the clock at which
    ``quadruples[i]`` emerged.
    """
    trace = ensemble9753_cycles(cols, ranks, data_bits=data_bits)
    return trace.fire.tolist(), [tuple(q) for q in trace.results.tolist()]
