"""Column-parallel engine: per-column increments, and equivalence with both
the oracle and the single-channel engine."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankpipe import (
    ConfigError,
    Engine,
    FilterParams,
    FramingError,
    McParams,
    PartialMedian,
    Stage,
    mc_stream_cycles,
    run_windows,
    stream_cycles,
)
from rankpipe.oracle import select_desc

ROOT = PartialMedian()


def mc_incgen(col, pm, data_bits):
    """Column increments ``(inc3, inc2, inc1)`` of a stage latched on ``pm``."""
    stage = Stage(McParams(len(col), 1, 1, data_bits))
    stage.pm = pm
    inc1, inc2, inc3 = stage._increments(np.asarray(col))
    return inc3, inc2, inc1


class TestEncode3:
    """The paper's 3-in-2-out encoder outputs how many of its three
    comparison bits are set; a stage's count over a three-sample column
    must be that number at every boundary."""

    @pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
    def test_counts_asserted_inputs(self, bits):
        col = [255 if b else 0 for b in bits]
        assert mc_incgen(col, ROOT, 8) == (sum(bits),) * 3

    def test_known_counts(self):
        assert mc_incgen([0, 0, 0], ROOT, 8) == (0, 0, 0)
        assert mc_incgen([200, 0, 200], ROOT, 8) == (2, 2, 2)
        assert mc_incgen([255, 255, 255], ROOT, 8) == (3, 3, 3)


def test_encoder_tree_equals_popcount_exhaustively():
    # encoder triples and an adder tree sum a column's K comparison bits:
    # the stage's column count must equal that sum for every bit pattern
    for k in range(1, 10):
        for pattern in range(1 << k):
            bits = [(pattern >> i) & 1 for i in range(k)]
            col = [255 if b else 0 for b in bits]
            assert mc_incgen(col, ROOT, 8) == (sum(bits),) * 3, (k, bits)


class TestMcIncgen:
    def test_all_samples_above_the_top_boundary(self):
        col = [255] * 9
        assert mc_incgen(col, ROOT, 8) == (9, 9, 9)

    def test_one_sample_per_quarter(self):
        col = [0, 64, 128, 192, 0, 0, 0, 0, 0]
        assert mc_incgen(col, ROOT, 8) == (1, 2, 3)

    def test_three_channels_in_the_stage2_range(self):
        assert mc_incgen([100, 150, 200], PartialMedian(128, 2), 8) == (1, 1, 2)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=9))
    def test_monotonic_and_equal_to_direct_counts(self, col):
        inc3, inc2, inc1 = mc_incgen(col, ROOT, 8)
        assert inc1 >= inc2 >= inc3
        assert inc1 == sum(x >= 64 for x in col)
        assert inc2 == sum(x >= 128 for x in col)
        assert inc3 == sum(x >= 192 for x in col)


class TestMcEngine:
    def test_9x11_window_rank31(self):
        rng = np.random.default_rng(10)
        p = McParams(channels=9, columns=11, rank=31)
        window = rng.integers(0, 256, size=(11, 9))
        assert run_windows(p, window).tolist() == \
            [select_desc(window.reshape(-1), 31)]

    def test_median_of_99(self):
        rng = np.random.default_rng(11)
        p = McParams(channels=9, columns=11, rank=50)
        window = rng.integers(0, 256, size=(11, 9))
        assert run_windows(p, window).tolist() == \
            [select_desc(window.reshape(-1), 50)]

    def test_flattening_equivalence_any_order(self):
        rng = np.random.default_rng(12)
        p = McParams(channels=4, columns=3, rank=5)
        window = rng.integers(0, 256, size=(3, 4))
        expected = select_desc(window.reshape(-1), 5)
        assert run_windows(p, window).tolist() == [expected]
        single = FilterParams(data_bits=8, set_size=12, rank=5)
        from rankpipe import run_stream
        assert run_stream(single, window.reshape(-1)).tolist() == [expected]
        shuffled = window.reshape(-1).copy()
        rng.shuffle(shuffled)
        assert run_stream(single, shuffled).tolist() == [expected]
        assert run_windows(p, shuffled.reshape(3, 4)).tolist() == [expected]

    def test_throughput_one_result_per_window_width(self):
        rng = np.random.default_rng(13)
        p = McParams(channels=3, columns=5, rank=4)
        cols = rng.integers(0, 256, size=(5 * 6, 3))
        trace = mc_stream_cycles(p, cols)
        dv_at = np.flatnonzero(trace.dv)
        assert len(dv_at) == 6
        assert set(np.diff(dv_at).tolist()) == {5}
        assert dv_at[0] == p.alignment

    def test_degenerate_single_channel_is_cycle_identical_to_core(self):
        rng = np.random.default_rng(14)
        n = 7
        data = rng.integers(0, 256, size=n * 4)
        mc = McParams(channels=1, columns=n, rank=3)
        sc = FilterParams(data_bits=8, set_size=n, rank=3)
        mt = mc_stream_cycles(mc, data.reshape(-1, 1))
        st_ = stream_cycles(sc, data)
        assert mt.cycles == st_.cycles
        assert (mt.dv == st_.dv).all()
        assert (mt.result[mt.dv] == st_.result[st_.dv]).all()
        assert (mt.dout.reshape(-1) == st_.dout).all()

    def test_one_channel_object_engine_is_cycle_identical_to_engine(self):
        rng = np.random.default_rng(17)
        n = 5
        mc = Engine(McParams(channels=1, columns=n, rank=2, data_bits=6))
        sc = Engine(FilterParams(data_bits=6, set_size=n, rank=2))
        assert mc.params.alignment == sc.params.alignment
        data = rng.integers(0, 64, size=n * 3 + sc.params.drain_cycles)
        fired = 0
        for t, x in enumerate(data):
            d1st = t < n * 3 and t % n == 0
            a, b = mc.clock([x], d1st), sc.clock(x, d1st)
            assert (a.dv, a.result, a.dout.tolist()) == \
                (b.dv, b.result, [b.dout])
            assert mc.comparisons == sc.comparisons
            fired += a.dv
        assert fired == 3 and mc.cycle == sc.cycle == len(data)

    def test_object_engine_matches_batch_kernel(self):
        rng = np.random.default_rng(15)
        p = McParams(channels=5, columns=4, rank=7)
        cols = rng.integers(0, 256, size=(4 * 3, 5))
        trace = mc_stream_cycles(p, cols)
        engine = Engine(p)
        for t in range(trace.cycles):
            out = engine.clock(trace.din[t], bool(trace.d1st[t]))
            assert out.dv == trace.dv[t]
            assert (out.dout == trace.dout[t]).all()
            if out.dv:
                assert out.result == trace.result[t]
        assert engine.comparisons == trace.comparisons

    def test_comparison_tally_counts_every_channel(self):
        rng = np.random.default_rng(16)
        p = McParams(channels=9, columns=11, rank=31)
        cols = rng.integers(0, 256, size=(11, 9))
        trace = mc_stream_cycles(p, cols)
        assert trace.comparisons == 3 * p.set_size * p.stages

    def test_column_shape_is_validated(self):
        p = McParams(channels=3, columns=2, rank=1)
        engine = Engine(p)
        with pytest.raises(ConfigError):
            engine.clock([1, 2], True)
        with pytest.raises(FramingError):
            mc_stream_cycles(p, np.zeros((3, 3), dtype=np.int64))

    @given(st.integers(1, 6), st.integers(1, 5), st.data())
    def test_window_oracle_property(self, k, cw, data):
        n = k * cw
        m = data.draw(st.integers(1, n))
        flat = data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
        window = np.array(flat).reshape(cw, k)
        p = McParams(channels=k, columns=cw, rank=m)
        assert run_windows(p, window).tolist() == [select_desc(flat, m)]
