"""The cycle contract has one copy, on the parameter records: each record's
dv cycles, run length and comparison count against the batch traces and
the clocked engines, and the image report against the per-band traces it
replaced."""

import numpy as np
import pytest

from rankpipe import (
    Border,
    ConfigError,
    Engine,
    FilterParams,
    FramingError,
    McParams,
    Rect,
    SlidingParams,
    comparison_count,
    imaging,
    mc_stream_cycles,
    run_filter,
    run_stream,
    run_windows,
    sliding_cycles,
    stream_cycles,
)


def _random_record(rng, kind, latency):
    bits = int(rng.choice([2, 4, 8]))
    if kind == "sliding":
        window = int(rng.choice([1, 3, 5]))
        return SlidingParams(channels=window, columns=window,
                             rank=int(rng.integers(1, window * window + 1)),
                             data_bits=bits, pipe_latency=latency)
    n = int(rng.integers(1, 7))
    if kind == "single":
        return FilterParams(data_bits=bits, set_size=n,
                            rank=int(rng.integers(1, n + 1)),
                            pipe_latency=latency)
    k = int(rng.integers(1, 4))
    return McParams(channels=k, columns=n,
                    rank=int(rng.integers(1, n * k + 1)), data_bits=bits,
                    pipe_latency=latency)


def _batch_trace(p, rng, sets):
    """A batch run of ``sets`` sets (window starts for sliding) under ``p``."""
    top = 1 << p.data_bits
    if isinstance(p, SlidingParams):
        # every column count in the last cadence starts the same windows
        columns = sets - int(rng.integers(0, p.columns))
        cols = rng.integers(0, top, size=(columns, p.columns))
        return sliding_cycles(p, cols)
    if isinstance(p, McParams):
        cols = rng.integers(0, top, size=(sets * p.columns, p.channels))
        return mc_stream_cycles(p, cols)
    return stream_cycles(p, rng.integers(0, top, size=sets * p.set_size))


def _clocked_comparisons(p, trace):
    """Comparisons of the clocked engine fed the trace's input; the sliding
    chains' first stages count each column once, as the shared stage does."""
    engine = Engine(p)
    for din, d1st in zip(trace.din, trace.d1st):
        engine.clock(din, bool(d1st))
    if isinstance(p, SlidingParams):
        own_first = sum(chain[0].comparisons for chain in engine.chains)
        return (engine.comparisons - own_first
                + 3 * p.channels * trace.cycles)
    return engine.comparisons


@pytest.mark.parametrize("kind", ["single", "multichannel", "sliding"])
@pytest.mark.parametrize("latency", [0, 1, 5])
def test_records_give_the_traces_cycles_fire_and_comparisons(kind, latency):
    rng = np.random.default_rng([len(kind), latency])
    for case in range(10):
        p = _random_record(rng, kind, latency)
        sets = case % 5
        if kind == "sliding":
            sets = p.columns * (sets + 1)  # a sliding run starts a cadence
        trace = _batch_trace(p, rng, sets)
        assert p.cycles(sets) == trace.cycles
        assert p.fire(sets).tolist() == np.flatnonzero(trace.dv).tolist()
        assert p.comparisons(sets) == trace.comparisons
        assert p.comparisons(sets) == _clocked_comparisons(p, trace)


@pytest.mark.parametrize("kind,run", [("single", run_stream),
                                      ("multichannel", run_windows)],
                         ids=["single-run_stream", "multichannel-run_windows"])
@pytest.mark.parametrize("latency", [0, 5])
def test_results_read_at_the_fire_cycles_are_the_flagged_ones(kind, run,
                                                              latency):
    rng = np.random.default_rng([len(kind), latency, 7])
    for case in range(10):
        p = _random_record(rng, kind, latency)
        sets = case % 5 + 1
        trace = _batch_trace(p, rng, sets)
        results = run(p, trace.din[:sets * p.set_cycles])
        assert results.dtype == np.int64
        assert results.tolist() == trace.results.tolist()


def test_a_chain_runs_sets_times_n_plus_the_drain():
    for p in (FilterParams(data_bits=8, set_size=25, rank=13),
              McParams(channels=9, columns=9, rank=41, pipe_latency=0)):
        for sets in range(4):
            assert p.cycles(sets) == sets * p.set_cycles + p.drain_cycles


@pytest.mark.parametrize("count", [-1, -25, 1.0, 2.5, "3", None])
@pytest.mark.parametrize("record", [
    FilterParams(data_bits=8, set_size=5, rank=3),
    McParams(channels=3, columns=4, rank=6),
    SlidingParams(channels=3, columns=3, rank=5)])
def test_the_contract_rejects_counts_that_are_not_whole(count, record):
    for method in (record.fire, record.cycles, record.comparisons):
        with pytest.raises(ConfigError, match="set counts"):
            method(count)
    with pytest.raises(ConfigError, match="set counts"):
        comparison_count(record, count)
    with pytest.raises(ConfigError, match="column counts"):
        record.starts(count)


def test_zero_sets_still_run_the_drain():
    p = FilterParams(data_bits=8, set_size=5, rank=3)
    assert p.cycles(0) == p.drain_cycles
    assert p.fire(0).size == 0
    assert p.comparisons(0) == comparison_count(p, np.int64(0)) == 0
    assert p.cycles(np.int64(2)) == p.cycles(2)


def test_a_chain_starts_whole_sets_and_frames_no_remainder():
    for p in (FilterParams(data_bits=8, set_size=5, rank=3),
              McParams(channels=3, columns=4, rank=6)):
        assert [p.starts(k * p.set_cycles) for k in range(3)] == [0, 1, 2]
        with pytest.raises(FramingError, match="stream length 7 is not a "
                           f"multiple of the set length {p.set_cycles}$"):
            p.starts(7)


def test_an_empty_run_with_no_drain_is_an_empty_trace():
    # one stage with no latency: the drain is zero cycles long
    trace = stream_cycles(FilterParams(data_bits=2, set_size=1, rank=1,
                                       pipe_latency=0), [])
    assert (trace.cycles, trace.results.tolist()) == (0, [])


@pytest.mark.parametrize("window", [3, 5])
def test_sliding_runs_start_whole_cadences(window):
    p = SlidingParams(channels=window, columns=window, rank=2)
    assert [p.starts(c) for c in range(1, 2 * window + 1)] == (
        [window] * window + [2 * window] * window)


@pytest.mark.parametrize("make", [
    lambda: SlidingParams(channels=4, columns=4, rank=2),
    lambda: SlidingParams(channels=5, columns=3, rank=2),
    lambda: SlidingParams(channels=3, columns=5, rank=2)])
def test_sliding_windows_must_be_odd_squares(make):
    with pytest.raises(ConfigError, match="odd window sides"):
        make()


def _summed_traces(monkeypatch, name):
    """The traces ``run_filter`` makes through ``imaging.<name>``."""
    traces = []
    real = getattr(imaging, name)

    def kept(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(imaging, name, kept)
    return traces


@pytest.mark.parametrize("engine,name,shape", [
    ("single", "stream_cycles", Rect(3, 3)),
    ("single", "stream_cycles", Rect(4, 3)),
    ("multichannel", "mc_stream_cycles", Rect(5, 3)),
    ("sliding", "sliding_cycles", Rect(3, 3)),
    ("sliding", "sliding_cycles", Rect(5, 5))])
@pytest.mark.parametrize("border", list(Border))
@pytest.mark.parametrize("threads", [1, 3])
def test_the_image_report_is_the_band_traces_less_the_seams(
        monkeypatch, engine, name, shape, border, threads):
    # the bands of a chain engine are one stream, which drains once; a
    # sliding band streams its rows' strips back to back, but the report
    # counts each row as the stream of its strip alone
    traces = _summed_traces(monkeypatch, name)
    image = np.random.default_rng(47).integers(0, 256, size=(9, 11))
    report = run_filter(image, shape, 4, engine, border, threads=threads)
    rows, cols = report.image.shape
    assert len(traces) == min(threads, rows)
    if engine == "sliding":
        side = shape.width
        strip = sliding_cycles(SlidingParams(side, side, 4),
                               np.zeros((cols + side - 1, side), np.int64))
        assert report.cycles == rows * strip.cycles
        assert report.comparisons == rows * strip.comparisons
        return
    params = imaging.engine_params(shape, shape.width * shape.height, 4,
                                   engine, 8)
    assert report.cycles == (sum(trace.cycles for trace in traces)
                             - (len(traces) - 1) * params.drain_cycles)
    assert report.comparisons == sum(trace.comparisons for trace in traces)


@pytest.mark.parametrize("engine,record", [
    ("single", FilterParams), ("multichannel", McParams),
    ("sliding", SlidingParams)])
def test_engine_params_builds_the_engines_record(engine, record):
    p = imaging.engine_params(Rect(5, 5), 25, 13, engine, 8)
    assert type(p) is record and p.set_size == 25
    assert p.cadence == {"single": 25, "multichannel": 5, "sliding": 1}[engine]
