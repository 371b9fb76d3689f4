"""Set-parallel batch kernels for the refinement-stage chains.

These functions are the hot path behind ``run_stream``, ``run_windows``,
``sliding_cycles``, ``ensemble9753_cycles`` and the image driver.  They
fill the same per-cycle ``dv``/``res`` trace as clocking the chain would,
without stepping clocks.  A chain reads a ``(T, K)`` column stream, and a
single-channel chain is the K = 1 case.

A set's result depends only on its own samples, and it appears at a fixed
cycle: a set whose first sample enters at cycle ``start`` pulses ``dv`` at
``start + S(N+L) - 1`` for S = B/2 stages of N cycles plus L latency each.
So each kernel

1. reads the set starts from the first-data markers and finds the first
   marker that arrives mid-set (the framing break);
2. runs the B/2 radix-4 passes over every set at once: per set, count the
   samples at or above the three quarter boundaries of the surviving range,
   keep bit C-1 of the accumulator ``preset + count`` (the ``count >= M``
   comparator) and priority-encode the two result bits;
3. writes each result at its dv cycle when that cycle falls inside the
   stream and before the framing break;
4. counts boundary comparisons in closed form: 3 per sample for every
   stage-cycle a stage spends inside a set, before the end of the stream.

The clock-stepped object engines (``Engine``, ``McEngine``,
``SlidingEnsemble``, ``Ensemble9753``) are the reference these kernels are
tested against cycle for cycle.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _framing(d1st, set_cycles):
    """Set starts up to the framing break, and the break cycle (-1 if none).

    The framing breaks at the first marker arriving fewer than
    ``set_cycles`` cycles after the previous one, while the first stage is
    still counting that set.
    """
    starts = np.flatnonzero(d1st)
    bad = np.flatnonzero(np.diff(starts) < set_cycles)
    if bad.size:
        return starts[:bad[0] + 1], int(starts[bad[0] + 1])
    return starts, -1


def _busy_cycles(starts, stages, delay, set_cycles, end):
    """Stage-cycles spent counting before ``end``: stage s of a set counts
    for ``set_cycles`` cycles from ``start + s * delay``."""
    begin = starts[:, None] + delay * np.arange(stages)
    return int(np.clip(end - begin, 0, set_cycles).sum())


def _search(cols, starts, set_cycles, data_bits, rank, counter_bits):
    """The rank-th largest of each set ``cols[start:start + set_cycles]``."""
    windows = sliding_window_view(cols, set_cycles, axis=0)
    # evenly spaced sets (every driver's framing) stay a view of the stream;
    # only irregular framing pays for a gathered copy
    if len(starts) > 1 and (np.diff(starts) == starts[1] - starts[0]).all():
        sets = windows[starts[0]::starts[1] - starts[0]][:len(starts)]
    else:
        sets = windows[starts]
    preset = (1 << (counter_bits - 1)) - rank
    msb = 1 << (counter_bits - 1)
    pre = np.zeros(len(starts), np.int64)
    for s in range(data_bits // 2):
        q = 1 << (data_bits - 2 * s - 2)
        counts = ((sets >= (pre + k * q)[:, None, None]).sum(axis=(1, 2))
                  for k in (1, 2, 3))
        # bit C-1 of the wrapped C-bit accumulator is bit C-1 of the sum
        m1, m2, m3 = (((preset + count) & msb) != 0 for count in counts)
        pre += q * np.select([m3, m2, m1], [3, 2, 1], 0)
    return pre


def chain_run(cols, d1st, data_bits, set_cycles, rank, counter_bits, latency,
              dv, res):
    """One chain over a ``(T, K)`` column stream; K = 1 is the
    single-channel engine.

    Every stage counts the samples of each column at or above its
    boundaries.  Fills ``dv``/``res`` per cycle and returns
    ``(err_cycle, comparisons)`` with ``err_cycle == -1`` when the framing
    held; after a break, only cycles before ``err_cycle`` are filled and
    counted.
    """
    total, channels = cols.shape
    stages = data_bits // 2
    delay = set_cycles + latency
    starts, err = _framing(d1st, set_cycles)
    end = total if err < 0 else err
    comparisons = 3 * channels * _busy_cycles(starts, stages, delay,
                                              set_cycles, end)
    fire = starts + stages * delay - 1
    done = fire < end
    if done.any():
        dv[fire[done]] = 1
        res[fire[done]] = _search(cols, starts[done], set_cycles, data_bits,
                                  rank, counter_bits)
    return err, comparisons


def sliding_run(cols, d1st, data_bits, rank, counter_bits, latency, dv, res,
                chain_id):
    """W staggered W-channel chains over one shared ``(T, W)`` column stream.

    Chain ``j`` sees the first-data markers delayed by ``j`` cycles, so its
    windows start ``j`` columns later; all chains read the same data.  The
    first-stage comparisons are counted once per column, shared by all
    chains, as the stage-1 boundaries are the same fixed root-range values
    for every chain.
    Returns ``(err_cycle, comparisons)`` like :func:`chain_run`.
    """
    total, width = cols.shape
    stages = data_bits // 2
    delay = width + latency
    markers, err = _framing(d1st, width)
    end = total if err < 0 else err
    starts = (markers[:, None] + np.arange(width)).ravel()
    comparisons = 3 * width * (end + _busy_cycles(
        starts + delay, stages - 1, delay, width, end))
    fire = starts + stages * delay - 1
    done = fire < end
    if done.any():
        dv[fire[done]] = 1
        res[fire[done]] = _search(cols, starts[done], width, data_bits, rank,
                                  counter_bits)
        chain_id[fire[done]] = np.tile(np.arange(width), len(markers))[done]
    return err, comparisons
