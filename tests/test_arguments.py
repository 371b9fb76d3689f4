"""Public entry points that cannot misread their arguments: each malformed
call below raises ``ConfigError``, never a bare ``TypeError`` or
``ValueError``, never returns a truncated answer, and never allocates a
megabyte first."""

import tracemalloc

import numpy as np
import pytest

from rankpipe import (
    Border,
    ConfigError,
    Custom,
    Engine,
    Ensemble9753,
    FilterParams,
    McEngine,
    McParams,
    PartialMedian,
    Rect,
    SlidingEnsemble,
    Stage,
    boundaries,
    comparison_count,
    core,
    counter_preset,
    enable_schedule,
    ensemble9753_cycles,
    filter_image_oracle,
    incgen,
    mc_stream_cycles,
    parse_window,
    percentile_to_rank,
    run_filter,
    run_stream,
    select_desc,
    sliding_cycles,
    sliding_window_results,
    stream_cycles,
)

IMAGE = np.arange(12).reshape(3, 4)
STRIP = np.zeros((18, 9), np.uint8)  # two cadences of 9753 columns


@pytest.mark.parametrize("call", [
    pytest.param(lambda: select_desc([1, 2, 3], 1.5), id="select-float-rank"),
    pytest.param(lambda: select_desc([1, 2, 3], "1"), id="select-str-rank"),
    pytest.param(lambda: select_desc(5, 1), id="select-scalar-data"),
    pytest.param(lambda: percentile_to_rank(0.5, "9"), id="percentile-str-n"),
    pytest.param(lambda: percentile_to_rank(0.5, 2.5),
                 id="percentile-float-n"),
    pytest.param(lambda: enable_schedule(3, 4.5), id="schedule-float-phase"),
    pytest.param(lambda: enable_schedule(3.0, 4), id="schedule-float-width"),
    pytest.param(lambda: counter_preset(5, 0), id="preset-zero-width"),
    pytest.param(lambda: counter_preset(5, 1.5), id="preset-float-width"),
    pytest.param(lambda: counter_preset(2.5, 8), id="preset-float-rank"),
    pytest.param(lambda: Stage(8.0, 5, 3).clock(3, True, PartialMedian()),
                 id="stage-float-bits"),
    # a stage that could never emit a partial median
    pytest.param(lambda: Stage(8, 0, 1), id="stage-zero-set-cycles"),
    pytest.param(lambda: Stage(8, 3, 1, latency=-1),
                 id="stage-negative-latency"),
    pytest.param(lambda: Stage(8, 3, 1, latency=1.5),
                 id="stage-float-latency"),
    pytest.param(lambda: Stage(8, 3.5, 1), id="stage-float-set-cycles"),
    pytest.param(lambda: boundaries(PartialMedian(), 8.0),
                 id="boundaries-float-bits"),
    pytest.param(lambda: incgen(5, PartialMedian(), 8.0),
                 id="incgen-float-bits"),
    pytest.param(lambda: PartialMedian().refined(0, 8.0),
                 id="refined-float-bits"),
    pytest.param(lambda: PartialMedian(0, 8).refined(0, 8),
                 id="refined-fully-resolved"),
    pytest.param(lambda: PartialMedian().refined(4, 8),
                 id="refined-quarter-4"),
    pytest.param(lambda: PartialMedian().refined(-1, 8),
                 id="refined-quarter-minus-1"),
    pytest.param(lambda: Custom(((1, 2, 3),)), id="custom-triple"),
    pytest.param(lambda: Custom((1, 2)), id="custom-flat-pair"),
    pytest.param(lambda: Custom(5), id="custom-int"),
    pytest.param(lambda: filter_image_oracle(np.arange(5), Rect(3, 3), 1),
                 id="oracle-1d-image"),
    pytest.param(lambda: filter_image_oracle(np.zeros((0, 5), np.int64),
                                             Rect(1, 1), 1),
                 id="oracle-empty-image"),
    pytest.param(lambda: filter_image_oracle(IMAGE, Rect(5, 5), 1,
                                             Border.VALID),
                 id="oracle-valid-misfit"),
    pytest.param(lambda: filter_image_oracle(IMAGE, "3x3", 1),
                 id="oracle-unknown-shape"),
    pytest.param(lambda: PartialMedian(0.5, 0), id="partial-float-prefix"),
    pytest.param(lambda: PartialMedian(0, 2.0), id="partial-float-bits"),
    pytest.param(lambda: PartialMedian("a", 0), id="partial-str-prefix"),
    # the drain alone passes the byte bound
    pytest.param(lambda: stream_cycles(FilterParams(8, 2**63 + 1, 1), []),
                 id="stream-too-long"),
    # an empty run still frames its drain, terabytes at N = 2**40
    pytest.param(lambda: stream_cycles(FilterParams(8, 2**40, 1), []),
                 id="stream-empty-drain-too-big"),
    pytest.param(lambda: mc_stream_cycles(McParams(1, 2**40, 1),
                                          np.zeros((0, 1), np.uint8)),
                 id="columns-empty-drain-too-big"),
    pytest.param(lambda: parse_window(5), id="window-spec-int"),
    pytest.param(lambda: ensemble9753_cycles(STRIP, ranks=5),
                 id="9753-scalar-ranks"),
    pytest.param(lambda: Ensemble9753(ranks=5), id="9753-clocked-scalar-ranks"),
    pytest.param(lambda: Ensemble9753(ranks=(1, 2, 3)),
                 id="9753-three-ranks"),
    pytest.param(lambda: ensemble9753_cycles(STRIP, ranks=(41, 25, 13, 5, 1)),
                 id="9753-five-ranks"),
    # every chain-record entry names the type it was given instead
    pytest.param(lambda: stream_cycles(None, [1, 2, 3]),
                 id="stream-none-params"),
    pytest.param(lambda: run_stream(5, []), id="run-stream-int-params"),
    pytest.param(lambda: Engine(None), id="engine-none-params"),
    pytest.param(lambda: comparison_count(None, 1),
                 id="comparisons-none-params"),
    pytest.param(lambda: sliding_window_results(3, 5, 5),
                 id="sliding-results-scalar-strip"),
    pytest.param(lambda: sliding_window_results("3", 5, np.zeros((4, 3))),
                 id="sliding-results-str-window"),
    # too short for a window of 3, but 3.0 is no window side
    pytest.param(lambda: sliding_window_results(3.0, 5, np.zeros((2, 3))),
                 id="sliding-results-float-window"),
    # the stream shape each chain record's one batch entry checks
    pytest.param(lambda: stream_cycles(FilterParams(8, 5, 3),
                                       np.zeros((5, 2), np.uint8)),
                 id="stream-2d"),
    pytest.param(lambda: stream_cycles(FilterParams(8, 5, 3), 7),
                 id="stream-scalar"),
    pytest.param(lambda: mc_stream_cycles(McParams(3, 3, 5),
                                          np.zeros(9, np.uint8)),
                 id="columns-1d"),
    pytest.param(lambda: mc_stream_cycles(McParams(3, 3, 5),
                                          np.zeros((9, 4), np.uint8)),
                 id="columns-too-wide"),
    pytest.param(lambda: sliding_cycles(3, 5, np.zeros((6, 4), np.uint8)),
                 id="sliding-too-wide"),
    pytest.param(lambda: sliding_cycles(3, 5, np.zeros(6, np.uint8)),
                 id="sliding-1d"),
    pytest.param(lambda: sliding_cycles(3, 5, np.zeros((0, 3), np.uint8)),
                 id="sliding-empty"),
    pytest.param(lambda: SlidingEnsemble(3, 5).clock([1, 2]),
                 id="sliding-clock-short-column"),
    pytest.param(lambda: McEngine(McParams(3, 3, 5)).clock(1),
                 id="columns-clock-scalar"),
])
def test_malformed_calls_raise_config_error(call):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before anything run-sized is allocated


@pytest.mark.parametrize("strip", [[], np.zeros((2, 3), np.uint8)])
def test_a_strip_shorter_than_the_window_has_no_results(strip):
    assert sliding_window_results(3, 5, strip).tolist() == []


def test_the_byte_bound_counts_the_drain_not_the_input(monkeypatch):
    p = FilterParams(8, 5, 3)
    data = np.arange(5000) % 256
    drain = p.cycles(1000) - len(data)  # one byte per cycle at 8 bits
    monkeypatch.setattr(core, "_MAX_DRAIN_BYTES", drain)
    assert len(stream_cycles(p, data).results) == 1000
    monkeypatch.setattr(core, "_MAX_DRAIN_BYTES", drain - 1)
    with pytest.raises(ConfigError, match="drains"):
        stream_cycles(p, data)


@pytest.mark.parametrize("image,shape,rank,border", [
    pytest.param(np.arange(5), Rect(3, 3), 1, Border.CLAMP,
                 id="image0-shape0-Border.CLAMP"),
    pytest.param(np.zeros((0, 5), np.int64), Rect(1, 1), 1, Border.CLAMP,
                 id="image1-shape1-Border.CLAMP"),
    pytest.param(IMAGE, Rect(5, 5), 1, Border.VALID,
                 id="image2-shape2-Border.VALID"),
    pytest.param(IMAGE, "3x3", 1, Border.CLAMP, id="image3-3x3-Border.CLAMP"),
    pytest.param(np.arange(30).reshape(5, 6), Rect(3, 3), "5", Border.CLAMP,
                 id="str-rank"),
    pytest.param(np.arange(30).reshape(5, 6), Rect(3, 3), 0, Border.CLAMP,
                 id="rank-0"),
    pytest.param(np.arange(30).reshape(5, 6), Rect(3, 3), 10, Border.CLAMP,
                 id="rank-n-plus-1"),
    pytest.param(np.arange(30).reshape(5, 6) - 1, Rect(3, 3), 5, Border.CLAMP,
                 id="negative-image"),
    pytest.param(np.arange(30.0).reshape(5, 6), Rect(3, 3), 5, Border.CLAMP,
                 id="float-image"),
    pytest.param(np.ones((5, 6), bool), Rect(3, 3), 5, Border.CLAMP,
                 id="bool-image"),
    pytest.param(np.full((5, 6), 2**20), Rect(3, 3), 5, Border.CLAMP,
                 id="image-past-16-bits"),
    # the sample checks come before the window's fit
    pytest.param(np.arange(12.0).reshape(3, 4), Rect(5, 5), 1, Border.VALID,
                 id="float-image-valid-misfit")])
def test_the_oracle_fails_as_run_filter_does(image, shape, rank, border):
    with pytest.raises(ConfigError) as engine:
        run_filter(image, shape, rank, border=border)
    with pytest.raises(ConfigError) as oracle:
        filter_image_oracle(image, shape, rank, border)
    assert str(oracle.value) == str(engine.value)
