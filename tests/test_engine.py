"""Engine-level streaming contract: alignment, throughput, determinism,
oracle equivalence, and the batch/clock-by-clock agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpipe import (
    ConfigError,
    Engine,
    FilterParams,
    FramingError,
    McParams,
    comparison_count,
    run_stream,
    run_windows,
    stream_cycles,
)
from rankpipe.oracle import select_desc
from rankpipe.params import SlidingParams


def drive(engine, din, d1st):
    outs = [engine.clock(int(x), bool(f)) for x, f in zip(din, d1st)]
    return outs


class TestRunStream:
    def test_median_max_min_of_one_set(self):
        data = [3, 1, 4, 1, 5, 9, 2, 6, 5]
        for rank, expected in [(5, 4), (1, 9), (9, 1)]:
            p = FilterParams(data_bits=8, set_size=9, rank=rank)
            assert run_stream(p, data).tolist() == [expected]

    def test_ascending_set(self):
        p = FilterParams(data_bits=8, set_size=25, rank=13)
        assert run_stream(p, range(25)).tolist() == [12]

    def test_identical_samples_all_ranks(self):
        for rank in (1, 4, 7):
            p = FilterParams(data_bits=8, set_size=7, rank=rank)
            assert run_stream(p, [42] * 7).tolist() == [42]

    def test_length_must_be_a_multiple_of_the_set_size(self):
        p = FilterParams(data_bits=8, set_size=4, rank=2)
        with pytest.raises(FramingError):
            run_stream(p, [1, 2, 3, 4, 5])

    def test_empty_stream_yields_no_results(self):
        p = FilterParams(data_bits=8, set_size=1, rank=1)
        assert run_stream(p, []).size == 0

    def test_samples_must_fit_the_data_width(self):
        p = FilterParams(data_bits=8, set_size=2, rank=1)
        with pytest.raises(ConfigError):
            run_stream(p, [0, 256])
        with pytest.raises(ConfigError):
            run_stream(p, [-1, 0])


class TestCycleContract:
    def test_result_alignment_and_dout(self):
        p = FilterParams(data_bits=8, set_size=3, rank=2)
        data = [10, 30, 20, 200, 100, 150]
        trace = stream_cycles(p, data)
        dv_at = np.flatnonzero(trace.dv)
        assert dv_at.tolist() == [p.alignment, p.alignment + 3]
        # the set's first raw sample rides dout on its result cycle
        assert trace.dout[dv_at[0]] == 10
        assert trace.dout[dv_at[1]] == 200

    def test_back_to_back_sets_pulse_dv_every_n(self):
        p = FilterParams(data_bits=8, set_size=3, rank=2)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=3 * 8)
        trace = stream_cycles(p, data)
        dv_at = np.flatnonzero(trace.dv)
        assert len(dv_at) == 8
        assert set(np.diff(dv_at).tolist()) == {3}

    def test_dv_is_the_first_marker_delayed_to_alignment(self):
        p = FilterParams(data_bits=8, set_size=5, rank=3)
        rng = np.random.default_rng(1)
        trace = stream_cycles(p, rng.integers(0, 256, size=5 * 4))
        total = len(trace.dv)
        shifted = np.zeros(total, dtype=bool)
        shifted[p.alignment:] = trace.d1st[:total - p.alignment]
        assert (trace.dv == shifted).all()

    def test_determinism(self):
        p = FilterParams(data_bits=8, set_size=6, rank=4)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, size=6 * 3)
        t1 = stream_cycles(p, data)
        t2 = stream_cycles(p, data)
        assert (t1.dv == t2.dv).all()
        assert (t1.result == t2.result).all()
        assert (t1.dout == t2.dout).all()

    def test_instrumented_comparisons_match_the_formula(self):
        for bits, n, sets in [(8, 3, 8), (8, 25, 4), (4, 7, 3), (16, 5, 2)]:
            p = FilterParams(data_bits=bits, set_size=n, rank=(n + 1) // 2)
            rng = np.random.default_rng(n)
            data = rng.integers(0, 2 ** bits, size=n * sets)
            trace = stream_cycles(p, data)
            assert trace.comparisons == comparison_count(p, sets)

    def test_dv_pulses_exactly_once_per_set(self):
        rng = np.random.default_rng(9)
        for n, sets in [(1, 10), (2, 7), (13, 3)]:
            p = FilterParams(data_bits=8, set_size=n, rank=1)
            trace = stream_cycles(p, rng.integers(0, 256, size=n * sets))
            assert int(trace.dv.sum()) == sets

    def test_wider_counters_admit_extreme_ranks(self):
        # N=250 with M=1 wraps 8-bit accumulators; the record takes 9 bits
        p = FilterParams(data_bits=8, set_size=250, rank=1)
        assert p.counter_bits == 9
        rng = np.random.default_rng(10)
        data = rng.integers(0, 256, size=250)
        assert run_stream(p, data).tolist() == [int(data.max())]
        p = FilterParams(data_bits=8, set_size=250, rank=250)
        assert run_stream(p, data).tolist() == [int(data.min())]

    def test_hand_built_records_past_the_reference_widths(self):
        # N = 300 overflows the reference build's 255-deep pipe, and N = 289
        # with M = 145 its 8-bit counters; built by hand, both rank
        rng = np.random.default_rng(11)
        p = FilterParams(8, 300, 150)
        data = rng.integers(0, 256, size=3 * 300)
        assert run_stream(p, data).tolist() == [
            select_desc(data[i:i + 300], 150) for i in range(0, 900, 300)]
        mc = McParams(17, 17, 145)
        cols = rng.integers(0, 256, size=(2 * 17, 17))
        assert run_windows(mc, cols).tolist() == [
            select_desc(cols[i:i + 17].ravel(), 145) for i in (0, 17)]


class TestEngineObject:
    def test_matches_the_batch_kernel_cycle_for_cycle(self):
        p = FilterParams(data_bits=8, set_size=4, rank=2)
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=4 * 5)
        trace = stream_cycles(p, data)
        engine = Engine(p)
        for t in range(trace.cycles):
            out = engine.clock(int(trace.din[t]), bool(trace.d1st[t]))
            assert out.dv == trace.dv[t]
            assert out.dout == trace.dout[t]
            if out.dv:
                assert out.result == trace.result[t]
        assert engine.comparisons == trace.comparisons

    def test_a_set_past_the_reference_widths_matches_cycle_for_cycle(self):
        p = FilterParams(8, 300, 150)
        data = np.random.default_rng(12).integers(0, 256, size=300)
        trace = stream_cycles(p, data)
        engine = Engine(p)
        outs = drive(engine, trace.din, trace.d1st)
        assert [o.dv for o in outs] == trace.dv.tolist()
        assert [o.dout for o in outs] == trace.dout.tolist()
        assert [o.result for o in outs if o.dv] == trace.results.tolist()
        assert engine.comparisons == trace.comparisons

    def test_gapped_sets_are_legal(self):
        p = FilterParams(data_bits=8, set_size=3, rank=1)
        engine = Engine(p)
        results = []
        for group in ([5, 9, 1], [7, 2, 2], [3, 3, 3]):
            for i, x in enumerate(group):
                out = engine.clock(x, i == 0)
                if out.dv:
                    results.append(out.result)
            for _ in range(4):  # idle gap between sets
                out = engine.clock(0, False)
                if out.dv:
                    results.append(out.result)
        for _ in range(p.alignment):
            out = engine.clock(0, False)
            if out.dv:
                results.append(out.result)
        assert results == [9, 7, 3]

    def test_marker_mid_set_raises(self):
        p = FilterParams(data_bits=8, set_size=4, rank=2)
        engine = Engine(p)
        engine.clock(1, True)
        engine.clock(2, False)
        with pytest.raises(FramingError):
            engine.clock(3, True)

    def test_sample_range_is_validated(self):
        engine = Engine(FilterParams(data_bits=8, set_size=2, rank=1))
        with pytest.raises(ConfigError):
            engine.clock(256, True)

    def test_range_nesting_across_stages(self):
        p = FilterParams(data_bits=8, set_size=9, rank=5)
        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, size=9)
        engine = Engine(p)
        trace = stream_cycles(p, data)
        for t in range(trace.cycles):
            engine.clock(int(trace.din[t]), bool(trace.d1st[t]))
        result = int(trace.results[0])
        widths = []
        for s, hold in enumerate(stage.held for stage in engine.chains[0]):
            assert hold is not None
            assert hold.bits_resolved == 2 * (s + 1)
            width = 1 << (8 - hold.bits_resolved)
            assert hold.prefix <= result < hold.prefix + width
            widths.append(width)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 1


@pytest.mark.parametrize("params,lanes", [
    pytest.param(FilterParams(8, 5, 3), (), id="filter-l5"),
    pytest.param(FilterParams(8, 5, 3, pipe_latency=0), (), id="filter-l0"),
    pytest.param(McParams(3, 2, 4, 10), (3,), id="mc-l5"),
    pytest.param(McParams(3, 2, 4, 10, pipe_latency=1), (3,), id="mc-l1"),
    pytest.param(SlidingParams(3, 3, 5), (3,), id="sliding-l5"),
    pytest.param(SlidingParams(5, 5, 13, 6, pipe_latency=0), (5,),
                 id="sliding-l0"),
])
def test_the_clocked_engine_runs_every_chain_record(params, lanes):
    # one Engine clocks any record, under SlidingParams its W staggered
    # chains: every set of the batch entry fires on the same cycle with the
    # same value, and dout then carries the set's first sample or column
    rng = np.random.default_rng(params.set_size)
    cols = rng.integers(0, 1 << params.data_bits,
                        size=(4 * params.set_cycles,) + lanes)
    trace = stream_cycles(params, cols)
    engine = Engine(params)
    outs = [engine.clock(trace.din[t], bool(trace.d1st[t]))
            for t in range(trace.cycles)]
    fire = [t for t, out in enumerate(outs) if out.dv]
    assert fire == trace.fire.tolist()
    assert [outs[t].result for t in fire] == trace.values.tolist()
    for t in fire:
        assert np.array_equal(outs[t].dout, trace.dout[t])


@st.composite
def stream_cases(draw):
    bits = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))
    sets = draw(st.integers(1, 4))
    data = draw(st.lists(st.integers(0, 2 ** bits - 1),
                         min_size=n * sets, max_size=n * sets))
    return bits, n, m, data


@given(stream_cases())
@settings(max_examples=60)
def test_oracle_equivalence_property(case):
    bits, n, m, data = case
    p = FilterParams(data_bits=bits, set_size=n, rank=m)
    got = run_stream(p, data)
    expected = [select_desc(data[i * n:(i + 1) * n], m)
                for i in range(len(data) // n)]
    assert got.tolist() == expected


@given(stream_cases())
@settings(max_examples=25)
def test_object_and_kernel_engines_agree(case):
    bits, n, m, data = case
    p = FilterParams(data_bits=bits, set_size=n, rank=m)
    trace = stream_cycles(p, data)
    engine = Engine(p)
    for t in range(trace.cycles):
        out = engine.clock(int(trace.din[t]), bool(trace.d1st[t]))
        assert out.dv == trace.dv[t]
        assert out.dout == trace.dout[t]
        if out.dv:
            assert out.result == trace.result[t]

