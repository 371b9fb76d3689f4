"""K-channel column-parallel engine.

One column of K samples enters per clock, and each stage counts the samples
of the column at or above its three boundaries: the accumulators take
multi-unit increments.  (The paper's hardware sums the K comparison bits
through 3-in-2-out encoders; the simulation counts them directly.)  It is
the one chain of :mod:`rankpipe.core` fed columns instead of samples:
``McParams`` sets the column width, and the single-channel engine is the
K = 1 case.
"""

from __future__ import annotations

import numpy as np

from .core import Engine, StreamTrace, _chain_trace
from .params import ConfigError, McParams


class McEngine(Engine):
    """Clock-by-clock K-channel engine: an ``Engine`` built from
    ``McParams``, fed one column per ``clock`` call.

    ``dv`` pulses once per window of ``columns`` columns; ``dout`` is the
    pipe-delayed K-channel raw data aligned so a window's first column
    appears alongside its result.
    """


def mc_stream_cycles(params: McParams, cols) -> StreamTrace:
    """Batch-run back-to-back windows of ``columns`` columns plus drain."""
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[1] != params.channels:
        raise ConfigError(
            f"column stream must have shape (n, {params.channels})")
    return _chain_trace(params, cols, "column stream")


def run_windows(params: McParams, cols) -> np.ndarray:
    """One result per window of ``columns`` back-to-back columns."""
    if np.size(cols) == 0:
        return np.zeros(0, dtype=np.int64)
    return mc_stream_cycles(params, cols).results
