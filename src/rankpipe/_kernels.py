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
2. runs the B/2 radix-4 passes over every set at once, the way the stages
   do it in hardware.  The sets are copied once into sample-major planes:
   a contiguous ``(K*N, sets)`` array of the narrowest unsigned dtype for
   B bits (uint8 up to 8 bits, uint16 up to 16), whose row i holds sample
   i of every set.  The batch drivers already carry their streams at that
   dtype (:func:`rankpipe.params.narrowest_uint`), so the copy only
   transposes.  Per pass, each of the three quarter boundaries of the
   surviving range is counted by adding rows into an accumulator of the
   narrowest unsigned dtype with at least C bits.  That sum wraps, as the
   C-bit counters do, without changing bit C-1 of ``preset + count`` (the
   ``count >= M`` comparator).  The two result bits are the priority
   encoding ``max(k * msb_k)`` over k = 1, 2, 3, as ``refine`` resolves
   them;
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

from .params import narrowest_uint


def _framing(d1st, set_cycles):
    """Set starts up to the framing break, and the break cycle (-1 if none).

    The framing breaks at the first marker arriving fewer than
    ``set_cycles`` cycles after the previous one, while the first stage is
    still counting that set.
    """
    starts = np.flatnonzero(d1st.astype(bool, copy=False))  # a bool scan
    bad = np.flatnonzero(np.diff(starts) < set_cycles)
    if bad.size:
        return starts[:bad[0] + 1], int(starts[bad[0] + 1])
    return starts, -1


def _busy_cycles(starts, stages, delay, set_cycles, end):
    """Stage-cycles spent counting before ``end``: stage s of a set counts
    for ``set_cycles`` cycles from ``start + s * delay``."""
    begin = starts[:, None] + delay * np.arange(stages)
    return int(np.clip(end - begin, 0, set_cycles).sum())


_BLOCK = 1 << 17  # plane samples per block of sets: bounds the 3x bool buffer


def _planes(cols, starts, set_cycles, dtype):
    """Sample-major planes of the sets ``cols[start:start + set_cycles]``: a
    contiguous ``(K * set_cycles, sets)`` array whose row i holds sample i
    of every set."""
    windows = sliding_window_view(cols, set_cycles, axis=0)
    # evenly spaced sets (every driver's framing) are read through a view
    # of the stream; only irregular framing gathers them first
    if len(starts) > 1 and (np.diff(starts) == starts[1] - starts[0]).all():
        sets = windows[starts[0]::starts[1] - starts[0]][:len(starts)]
    else:
        sets = windows[starts]
    planes = sets.transpose(1, 2, 0).astype(dtype, order="C")
    return planes.reshape(-1, len(starts))


def _search(cols, starts, set_cycles, data_bits, rank, counter_bits):
    """The rank-th largest of each set ``cols[start:start + set_cycles]``.

    Samples must lie in ``[0, 2**data_bits)``, as ``params.check_samples``
    ensures for every caller: they are copied into planes of the sample
    dtype, which also holds every boundary ``pre + k*q``.  Sets run in blocks of about
    ``_BLOCK`` samples, which bounds the working memory.
    """
    dtype = narrowest_uint(data_bits)
    out = np.empty(len(starts), dtype)
    step = max(1, _BLOCK // (set_cycles * cols.shape[1]))
    for lo in range(0, len(starts), step):
        planes = _planes(cols, starts[lo:lo + step], set_cycles, dtype)
        out[lo:lo + step] = _resolve(planes, data_bits, rank, counter_bits)
    return out


def _resolve(planes, data_bits, rank, counter_bits):
    """The B/2 radix-4 passes over sample-major planes, one column per set."""
    acc = narrowest_uint(counter_bits)
    preset = acc.type((1 << (counter_bits - 1)) - rank)
    msb = acc.type(1 << (counter_bits - 1))
    ks = np.arange(1, 4, dtype=planes.dtype)[:, None]
    pre = np.zeros(planes.shape[1], planes.dtype)
    ge = np.empty((3,) + planes.shape, bool)
    for s in range(data_bits // 2):
        kq = ks << (data_bits - 2 * s - 2)
        # the three boundaries pre + k*q at once: (3, samples, sets)
        np.greater_equal(planes, (pre + kq)[:, None, :], out=ge)
        counts = np.add.reduce(ge.view(np.uint8), axis=1, dtype=acc)
        # the sum wraps at the acc width, at least C bits, which leaves
        # bit C-1 of preset + count as the C-bit accumulator has it
        counts += preset
        counts &= msb
        # priority encode like ``refine``: the highest boundary whose MSB is set
        pre += ((counts != 0) * kq).max(axis=0)
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
