"""A batch run is one result per set: the per-cycle views of a trace are
laid out from ``fire``, ``values`` and ``starts`` when read, the
results-only paths never read them, and a filter call holds no per-cycle
buffer beyond its framed input."""

import tracemalloc

import numpy as np
import pytest

from rankpipe import (
    Ensemble9753,
    FilterParams,
    McParams,
    Rect,
    SlidingParams,
    ensemble9753_cycles,
    ensemble9753_results,
    filter_image_oracle,
    mc_stream_cycles,
    run_filter,
    run_stream,
    run_windows,
    sliding_cycles,
    sliding_window_results,
    stream_cycles,
)
from rankpipe.core import StreamTrace
from rankpipe.oracle import select_desc

P = FilterParams(data_bits=8, set_size=5, rank=2)
MC = McParams(channels=3, columns=4, rank=6)
SLIDING = SlidingParams(channels=3, columns=3, rank=4)


def _samples(shape, seed=3):
    return np.random.default_rng(seed).integers(0, 256, size=shape)


# each run with the marker cycles of its framing, over cycles t of n inputs:
# every set start for a chain, every W columns for sliding, every full
# cadence for 9753
@pytest.mark.parametrize("run,marked", [
    pytest.param(lambda: stream_cycles(P, _samples(20)),
                 lambda t: t % 5 == 0 and t < 20, id="single"),
    pytest.param(lambda: stream_cycles(P, []), lambda t: False,
                 id="single-no-sets"),
    pytest.param(lambda: mc_stream_cycles(MC, _samples((12, 3))),
                 lambda t: t % 4 == 0 and t < 12, id="multichannel"),
    pytest.param(lambda: mc_stream_cycles(MC, np.zeros((0, 3), np.int64)),
                 lambda t: False, id="multichannel-no-sets"),
    pytest.param(lambda: sliding_cycles(SLIDING, _samples((8, 3))),
                 lambda t: t % 3 == 0 and t < 8, id="sliding"),
    pytest.param(lambda: ensemble9753_cycles(_samples((31, 9))),
                 lambda t: t % 9 == 0 and t + 9 <= 31, id="9753"),
    pytest.param(lambda: ensemble9753_cycles(_samples((5, 9))),
                 lambda t: False, id="9753-no-anchor"),
])
def test_cycle_views_lay_out_the_per_set_data(run, marked):
    trace = run()
    assert np.flatnonzero(trace.dv).tolist() == trace.fire.tolist()
    result = trace.result
    assert result.dtype == trace.din.dtype == trace.values.dtype
    assert result.shape == (trace.cycles,) + trace.values.shape[1:]
    assert np.array_equal(result[trace.fire], trace.values)
    assert not result[~trace.dv].any()
    assert trace.d1st.dtype == trace.dv.dtype == bool
    assert trace.d1st.tolist() == [marked(t) for t in range(trace.cycles)]
    if len(trace.fire):  # the first set starts at cycle 0
        assert trace.delay == trace.fire[0]
    elif trace.delay is None:  # nothing anchored: dout stays zero
        assert not trace.dout.any()


def test_a_9753_strip_without_an_anchor_is_its_input_alone():
    trace = ensemble9753_cycles(_samples((5, 9)))
    assert trace.cycles == 5
    assert trace.enables.shape == (5, 3) and not trace.enables.any()


# idle columns clocked past an 8-bit strip: a gated chain matures a window
# within B/2 (9 + L) of its enabled columns
MARGIN = 9 * (4 * (9 + 5) + 2)


def _clocked_9753(cols):
    """(cycles, quadruples) of the clocked ensemble fed ``cols`` and a
    margin past them, markers on every full cadence.  Every anchored window
    has emerged by then, so no quadruple follows in the margin."""
    ens = Ensemble9753()
    cycles, quads = [], []
    for t in range(len(cols) + MARGIN):
        col = cols[t] if t < len(cols) else np.zeros(9, np.int64)
        quad = ens.clock(col, d1st=t % 9 == 0 and t + 9 <= len(cols))
        if quad is not None:
            cycles.append(t)
            quads.append(quad)
    assert len(quads) == len(cols) // 9
    return cycles, quads


def test_results_only_paths_build_no_cycle_view(monkeypatch):
    def refuse(self):
        raise AssertionError("a results-only path built a cycle view")

    for view in ("d1st", "dv", "result", "dout"):
        monkeypatch.setattr(StreamTrace, view, property(refuse))
    with pytest.raises(AssertionError):
        stream_cycles(P, _samples(5)).dv
    image = _samples((7, 9))
    want = filter_image_oracle(image, Rect(3, 3), 4)
    for engine in ("single", "multichannel", "sliding"):
        got = run_filter(image, Rect(3, 3), 4, engine=engine).image
        assert np.array_equal(got, want), engine
    data = _samples(20)
    assert run_stream(P, data).tolist() == [
        select_desc(data[i:i + 5], 2) for i in range(0, 20, 5)]
    cols = _samples((12, 3))
    assert run_windows(MC, cols).tolist() == [
        select_desc(cols[i:i + 4].reshape(-1), 6) for i in range(0, 12, 4)]
    strip = _samples((8, 3))
    assert sliding_window_results(SLIDING, strip).tolist() == [
        select_desc(strip[i:i + 3].reshape(-1), 4) for i in range(6)]
    cols = _samples((31, 9))
    assert ensemble9753_results(cols) == _clocked_9753(cols)


def test_a_filter_call_holds_no_per_cycle_buffers():
    # the framed stream is one byte per window sample at 8 bits; the gathered
    # windows it is copied from are another, and the kernel's blocks and the
    # frame are small beside them.  Per-cycle dv/result/marker buffers
    # would add about three more.
    image = _samples((96, 128)).astype(np.uint8)
    window_samples = image.size * 81
    tracemalloc.start()
    try:
        run_filter(image, Rect(9, 9), 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / window_samples < 3.5
