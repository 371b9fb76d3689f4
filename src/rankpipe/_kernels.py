"""The set-parallel batch kernel for the refinement-stage chains.

``chain_run`` is the hot path behind the one batch entry,
``core._chain_trace``: every ``FilterParams``, ``McParams`` and
``SlidingParams`` run, the 9753 ensemble's four gated chains included.
``sliding_run`` is the same function, a name kept for the benchmark's
span table.  It gives one result per set, with the cycle each one matures
at, without stepping clocks: where a result sits in the per-cycle stream
is :class:`rankpipe.core.StreamTrace`'s business.  A chain reads a
``(T, K)`` column stream, and a single-channel chain is the K = 1 case.

Every driver frames its stream the paper's way: sets back to back from
cycle 0, then a full drain.  So the kernel takes the number of sets and the
chain's parameter record, whose cycle contract gives each set's dv cycle
and the comparison count (``params._ChainTiming``, and
``params.SlidingParams`` for the sliding ensemble).  A set's result
depends only on its own samples, so the kernel

1. runs the B/2 radix-4 passes over every set at once, the way the stages
   do it in hardware.  The sets are copied once into sample-major planes:
   a contiguous ``(K*N, sets)`` array of the narrowest unsigned dtype for
   B bits (uint8 up to 8 bits, uint16 up to 16), whose row i holds sample
   i of every set.  The batch drivers already carry their streams at that
   dtype (:func:`rankpipe.params.narrowest_uint`), so the copy only
   transposes.  Per pass, each of the three quarter boundaries of the
   surviving range is counted by adding rows into an accumulator of the
   narrowest unsigned dtype with at least C bits.  That sum wraps, as the
   C-bit counters do, without changing bit C-1 of ``preset + count`` (the
   ``count >= M`` comparator).  The stage's three decisions are
   :mod:`rankpipe.params`' ``quarter_width``, ``counter_preset`` and
   ``priority``, the functions the clocked ``Stage`` reaches too;
2. returns each set's result at the sample dtype, with the sets' dv
   cycles and the record's comparison count.

The clock-stepped object engines (``Engine``, ``McEngine``,
``SlidingEnsemble``, ``Ensemble9753``) are the reference this kernel is
tested against cycle for cycle.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import counter_preset, narrowest_uint, priority, quarter_width

_BLOCK = 1 << 17  # plane samples per block of sets: bounds the 3x bool buffer


def _search(cols, step, sets, set_cycles, data_bits, rank, counter_bits):
    """The rank-th largest of each set ``cols[i*step:i*step + set_cycles]``
    for i < ``sets``.

    Samples must lie in ``[0, 2**data_bits)``, as ``params.check_samples``
    ensures for every caller: they are copied into planes of the sample
    dtype, which also holds every boundary ``pre + k*q``.  Sets run in
    blocks of about ``_BLOCK`` samples, which bounds the working memory.
    """
    dtype = narrowest_uint(data_bits)
    out = np.empty(sets, dtype)
    if not sets:
        return out
    if step == set_cycles:  # back to back: the stream reshapes into sets
        windows = cols[:sets * step].reshape(sets, step, -1).transpose(0, 2, 1)
    else:
        windows = sliding_window_view(cols, set_cycles, axis=0)[::step][:sets]
    block = max(1, _BLOCK // (set_cycles * cols.shape[1]))
    for lo in range(0, sets, block):
        part = windows[lo:lo + block]
        # (sets, K, N) windows to (K*N, sets) sample-major planes
        planes = part.transpose(1, 2, 0).astype(dtype, order="C")
        out[lo:lo + block] = _resolve(planes.reshape(-1, len(part)),
                                      data_bits, rank, counter_bits)
    return out


def _resolve(planes, data_bits, rank, counter_bits):
    """The B/2 radix-4 passes over sample-major planes, one column per set."""
    acc = narrowest_uint(counter_bits)
    preset = counter_preset(rank, counter_bits)
    preset, msb = acc.type(preset), acc.type(preset + rank)
    ks = np.arange(1, 4, dtype=planes.dtype)[:, None]
    pre = np.zeros(planes.shape[1], planes.dtype)
    ge = np.empty((3,) + planes.shape, bool)
    bounds = np.empty((3, planes.shape[1]), planes.dtype)
    counts = np.empty(bounds.shape, acc)
    flags, rows = ge.view(np.uint8), bounds[:, None, :]  # views made once
    for s in range(data_bits // 2):
        kq = ks * quarter_width(data_bits, 2 * s)
        # the three boundaries pre + k*q at once, into buffers every stage
        # reuses: (3, samples, sets) flags, (3, sets) bounds and preset counts
        np.add(pre, kq, out=bounds)
        np.greater_equal(planes, rows, out=ge)
        np.add.reduce(flags, axis=1, dtype=acc, out=counts, initial=preset)
        counts &= msb
        pre += priority(counts, kq, out=bounds)
    return pre


def chain_run(cols, sets, params):
    """``sets`` sets over a ``(T, K)`` column stream, one every
    ``params.cadence`` cycles from cycle 0: a chain's back-to-back sets, or
    under ``SlidingParams`` W staggered chains' windows, window i on chain
    ``i % W``.  Returns ``(fire, comparisons, values)``: the sets' dv
    cycles, the boundary comparisons, one result per set at the sample
    dtype."""
    values = _search(cols, params.cadence, sets, params.set_cycles,
                     params.data_bits, params.rank, params.counter_bits)
    return params.fire(sets), params.comparisons(sets), values


sliding_run = chain_run  # kept for the benchmark's span table
