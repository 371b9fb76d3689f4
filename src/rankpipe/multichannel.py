"""K-channel column-parallel engine.

One column of K samples enters per clock, and each stage counts the samples
of the column at or above its three boundaries: the accumulators take
multi-unit increments.  (The paper's hardware sums the K comparison bits
through 3-in-2-out encoders; the simulation counts them directly.)  It is
the one chain of :mod:`rankpipe.core` fed columns instead of samples:
``McParams`` sets the column width, and the single-channel engine is the
K = 1 case, so ``mc_stream_cycles`` and ``run_windows`` are core's
``stream_cycles`` and ``run_stream`` under this module's names.
"""

from __future__ import annotations

from .core import Engine, run_stream, stream_cycles


class McEngine(Engine):
    """Clock-by-clock K-channel engine: an ``Engine`` built from
    ``McParams``, fed one column per ``clock`` call.

    ``dv`` pulses once per window of ``columns`` columns; ``dout`` is the
    pipe-delayed K-channel raw data aligned so a window's first column
    appears alongside its result.
    """


mc_stream_cycles = stream_cycles
run_windows = run_stream
