"""Sliding and 9753 ensembles: staggered windows, the enable schedule,
concentric sub-windows, and cadence timing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankpipe import (
    ConfigError,
    Engine,
    Ensemble9753,
    FramingError,
    SlidingParams,
    enable_schedule,
    ensemble9753_cycles,
    ensemble9753_results,
    sliding_cycles,
    sliding_window_results,
)
from rankpipe.oracle import select_desc


class TestEnableSchedule:
    @pytest.mark.parametrize("w,phase,expected", [
        (7, 0, False), (7, 1, True), (7, 7, True), (7, 8, False),
        (5, 2, True), (5, 7, False), (5, 1, False),
        (3, 4, True), (3, 2, False), (3, 6, False),
    ])
    def test_middle_window(self, w, phase, expected):
        assert enable_schedule(w, phase) is expected

    @pytest.mark.parametrize("w", [3, 5, 7])
    def test_exactly_w_centered_phases(self, w):
        phases = [p for p in range(9) if enable_schedule(w, p)]
        assert len(phases) == w
        assert phases == list(range((9 - w) // 2, (9 + w) // 2))

    def test_rejects_other_widths_and_phases(self):
        with pytest.raises(ConfigError):
            enable_schedule(9, 0)
        with pytest.raises(ConfigError):
            enable_schedule(4, 0)
        with pytest.raises(ConfigError):
            enable_schedule(3, 9)


def oracle_sliding(strip, w, m):
    rows, cols = strip.shape
    return [select_desc(strip[:, c:c + w].reshape(-1), m)
            for c in range(cols - w + 1)]


class TestSliding:
    def test_constant_strip(self):
        strip = np.full((3, 12), 9, dtype=np.int64)
        out = sliding_window_results(SlidingParams(3, 3, 5), strip.T)
        assert out.tolist() == [9] * 10

    def test_matches_oracle_per_start(self):
        rng = np.random.default_rng(20)
        strip = rng.integers(0, 256, size=(5, 24))
        out = sliding_window_results(SlidingParams(5, 5, 13), strip.T)
        assert out.tolist() == oracle_sliding(strip, 5, 13)

    def test_one_result_per_clock_after_warmup(self):
        rng = np.random.default_rng(21)
        strip = rng.integers(0, 256, size=(3, 17))
        trace = sliding_cycles(SlidingParams(3, 3, 4), strip.T)
        dv_at = np.flatnonzero(trace.dv)
        assert dv_at[0] == trace.delay
        assert set(np.diff(dv_at).tolist()) == {1}

    def test_round_robin_chain_rotation(self):
        rng = np.random.default_rng(22)
        strip = rng.integers(0, 256, size=(3, 12))
        p = SlidingParams(3, 3, 1)
        trace = sliding_cycles(p, strip.T)
        engine = Engine(p)
        chains = [engine.last_chain for t in range(trace.cycles)
                  if engine.clock(trace.din[t], bool(trace.d1st[t])).dv]
        assert chains == [i % 3 for i in range(len(chains))]
        assert chains == ((trace.fire - trace.delay) % 3).tolist()

    def test_object_ensemble_matches_batch_kernel(self):
        rng = np.random.default_rng(23)
        for window in (1, 3, 5, 7):
            for latency, length in ((0, 2 * window + 1), (2, 3 * window - 1)):
                strip = rng.integers(0, 256, size=(window, length))
                rank = int(rng.integers(1, window * window + 1))
                p = SlidingParams(window, window, rank, pipe_latency=latency)
                trace = sliding_cycles(p, strip.T)
                ens = Engine(p)
                for t in range(len(trace.dv)):
                    out = ens.clock(trace.din[t], bool(trace.d1st[t]))
                    assert out.dv == trace.dv[t]
                    if out.dv:
                        assert out.result == trace.result[t]
                        # window i matures at delay + i, on chain i % W
                        assert ens.last_chain == (t - trace.delay) % window
                # the batch run counts the first stage once per column,
                # for all chains, where each clocked chain counts its own
                own_first = sum(c[0].comparisons for c in ens.chains)
                assert trace.comparisons == (
                    ens.comparisons - own_first + 3 * window * trace.cycles)

    def test_chains_share_one_data_pipe(self):
        # every chain reads the engine's one ring: each stage's data tap,
        # and, for chain j, its marker j columns later; then the dout tap
        ens = Engine(SlidingParams(5, 5, 12))
        reads = []
        original = ens._ring.read

        def spy(t, offset):
            reads.append(offset)
            return original(t, offset)

        ens._ring.read = spy
        ens.clock(np.zeros(5, np.uint8), True)
        p = ens.params
        taps = [s * p.pipe_delay for s in reversed(range(p.stages))]
        assert reads == [offset for lag in range(5) for tap in taps
                         for offset in (tap, tap + lag)] + [p.alignment]

    def test_instrumented_pipe_reads_see_identical_data(self):
        # every chain's stage-s data tap reads the same delayed columns;
        # only the marker taps (offset + stagger) differ
        rng = np.random.default_rng(24)
        ens = Engine(SlidingParams(3, 3, 2))
        reads = []
        original = ens._ring.read

        def spy(t, offset):
            value, flag = original(t, offset)
            reads.append((t, offset, np.array(value, copy=True)))
            return value, flag

        ens._ring.read = spy
        for t in range(24):
            ens.clock(rng.integers(0, 256, size=3), d1st=(t % 3 == 0))
        delay = ens.params.pipe_delay
        data_taps = {}
        for t, offset, value in reads:
            if offset % delay == 0:  # data taps; marker taps carry the stagger
                key = (t, offset)
                if key in data_taps:
                    assert (data_taps[key] == value).all()
                else:
                    data_taps[key] = value
        distinct_taps = {o for _, o, _ in reads if o % delay == 0}
        assert len(distinct_taps) == ens.params.stages  # one tap per stage

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            Engine(SlidingParams(4, 4, 2))

    @pytest.mark.parametrize("rank", [1, 145])
    def test_17x17_derives_its_widths(self, rank):
        # N = 289 needs 9- or 10-bit counters
        rng = np.random.default_rng(25 + rank)
        strip = rng.integers(0, 256, size=(17, 20))
        want = oracle_sliding(strip, 17, rank)
        p = SlidingParams(17, 17, rank)
        assert sliding_window_results(p, strip.T).tolist() == want
        trace = sliding_cycles(p, strip.T)
        ens = Engine(p)
        outs = [ens.clock(trace.din[t], bool(trace.d1st[t]))
                for t in range(trace.cycles)]
        got = outs[p.alignment:p.alignment + len(want)]
        assert [out.result if out.dv else None for out in got] == want

    def test_windows_within_8_bits_keep_the_reference_widths(self):
        for p in (SlidingParams(3, 3, 5), SlidingParams(15, 15, 113)):
            assert Engine(p).params.counter_bits == 8


def oracle_9753(strip, anchor, ranks=(41, 25, 13, 5)):
    out = []
    for w, m in zip((9, 7, 5, 3), ranks):
        off = (9 - w) // 2
        sub = strip[off:off + w, anchor + off:anchor + off + w]
        out.append(select_desc(sub.reshape(-1), m))
    return tuple(out)


class Test9753:
    def test_constant_input(self):
        strip = np.full((9, 18), 77, dtype=np.int64)
        _, quads = ensemble9753_results(strip.T)
        assert quads == [(77, 77, 77, 77)] * 2

    def test_concentric_windows_match_the_oracle(self):
        rng = np.random.default_rng(30)
        strip = rng.integers(0, 256, size=(9, 36))
        cycles, quads = ensemble9753_results(strip.T)
        assert len(quads) == 4
        for k, quad in enumerate(quads):
            assert quad == oracle_9753(strip, 9 * k)

    def test_results_every_nine_clocks(self):
        rng = np.random.default_rng(31)
        strip = rng.integers(0, 256, size=(9, 45))
        cycles, quads = ensemble9753_results(strip.T)
        assert len(cycles) == 5
        assert set(np.diff(cycles).tolist()) == {9}

    def test_per_chain_percentile_settings(self):
        rng = np.random.default_rng(32)
        strip = rng.integers(0, 256, size=(9, 9))
        ranks = (1, 49, 13, 9)  # max, min, median, min per chain
        _, quads = ensemble9753_results(strip.T, ranks=ranks)
        assert quads == [oracle_9753(strip, 0, ranks)]

    def test_concentricity_ignores_pixels_outside_the_sub_window(self):
        rng = np.random.default_rng(33)
        strip = rng.integers(0, 256, size=(9, 9))
        _, base = ensemble9753_results(strip.T)
        poked = strip.copy()
        poked[0, 0] = 255 - poked[0, 0]  # corner: only the 9x9 sees it
        _, out = ensemble9753_results(poked.T)
        assert out[0][1:] == base[0][1:]
        ring = strip.copy()
        ring[1, 1] = 255 - ring[1, 1]  # inside 9x9 and 7x7, outside 5x5/3x3
        _, out = ensemble9753_results(ring.T)
        assert out[0][2:] == base[0][2:]

    def test_partial_trailing_cadence_is_not_anchored(self):
        rng = np.random.default_rng(34)
        strip = rng.integers(0, 256, size=(9, 14))  # 9 full + 5 spare columns
        _, quads = ensemble9753_results(strip.T)
        assert len(quads) == 1

    def test_off_cadence_marker_raises(self):
        ens = Ensemble9753()
        col = np.zeros(9, dtype=np.int64)
        ens.clock(col, d1st=True)
        ens.clock(col)
        with pytest.raises(FramingError):
            ens.clock(col, d1st=True)


def margin(bits):
    """Idle columns clocked past a strip at ``bits``: a gated chain matures
    a window within B/2 (9 + L) of its enabled columns, at most 9 times as
    many clocks, and two cadences more stay quiet."""
    return 9 * ((bits + 1) // 2 * (9 + 5) + 2)


def clocked_9753(cols, ranks=(41, 25, 13, 5), data_bits=8):
    """Clock Ensemble9753 over a strip and a margin past it, anchoring every
    full cadence, and cut the run at its last quadruple or the strip's end:
    (emit cycles, quadruples, per-cycle enable flags, comparisons).  Every
    anchored window has emerged by then, so no quadruple follows in the
    margin."""
    ens = Ensemble9753(ranks, data_bits=data_bits)
    n = len(cols)
    zero = np.zeros(9, dtype=np.int64)
    cycles, quads, enables = [], [], []
    for t in range(n + margin(data_bits)):
        quad = ens.clock(cols[t] if t < n else zero,
                         d1st=t % 9 == 0 and t + 9 <= n)
        enables.append(ens.enable_flags())
        if quad is not None:
            cycles.append(t)
            quads.append(quad)
    assert len(quads) == n // 9
    end = max([n] + [t + 1 for t in cycles])
    comparisons = sum(chain.comparisons for chain in ens.chains)
    return cycles, quads, np.array(enables, dtype=bool)[:end], comparisons


def check_against_the_clocked_ensemble(cols, ranks, bits):
    """The batch trace of ``cols`` is the clocked ensemble's run, cut at its
    last quadruple or the strip's end."""
    cycles, quads, enables, comparisons = clocked_9753(cols, ranks, bits)
    trace = ensemble9753_cycles(cols, ranks, data_bits=bits)
    assert trace.fire.tolist() == cycles
    assert np.flatnonzero(trace.dv).tolist() == cycles
    assert [tuple(q) for q in trace.result[trace.dv].tolist()] == quads
    assert not trace.result[~trace.dv].any()
    assert np.array_equal(trace.enables, enables)
    assert trace.comparisons == comparisons
    assert trace.cycles == len(trace.din) == len(enables)
    assert trace.d1st.tolist() == [t % 9 == 0 and t + 9 <= len(cols)
                                   for t in range(trace.cycles)]
    assert ensemble9753_results(cols, ranks,
                                data_bits=bits) == (cycles, quads)


class TestBatch9753:
    """The batch path gives what clocking the object ensemble gives."""

    @pytest.mark.parametrize("columns,bits,ranks", [
        (0, 8, (41, 25, 13, 5)),
        (5, 8, (41, 25, 13, 5)),  # shorter than one cadence
        (27, 8, (41, 25, 13, 5)),
        (31, 6, (1, 49, 13, 9)),  # partial trailing cadence
        (20, 12, (81, 1, 25, 1)),
        (22, 8, (81, 49, 25, 9)),  # every chain's minimum
        (19, 4, (1, 1, 1, 1)),  # every chain's maximum
        (26, 10, (81, 49, 25, 9)),
    ] + [(9 * windows, bits, (41, 25, 13, 5))  # the run ends where it fires
         for windows in (0, 1) for bits in range(2, 17, 2)]
      + [(720, 8, (41, 25, 13, 5)), (720, 16, (41, 25, 13, 5))])
    def test_matches_the_clocked_ensemble(self, columns, bits, ranks):
        rng = np.random.default_rng(columns * 100 + bits)
        cols = rng.integers(0, 1 << bits, size=(columns, 9))
        check_against_the_clocked_ensemble(cols, ranks, bits)

    @given(st.data())
    def test_any_strip_matches_the_clocked_ensemble(self, data):
        bits = data.draw(st.sampled_from(range(2, 17, 2)), label="bits")
        ranks = tuple(data.draw(st.integers(1, w * w), label=f"m{w}")
                      for w in (9, 7, 5, 3))
        columns = data.draw(st.integers(0, 40), label="columns")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cols = np.random.default_rng(seed).integers(0, 1 << bits,
                                                    size=(columns, 9))
        check_against_the_clocked_ensemble(cols, ranks, bits)

    def test_twelve_bit_strip_matches_the_oracle(self):
        rng = np.random.default_rng(36)
        strip = rng.integers(0, 1 << 12, size=(9, 18))
        _, quads = ensemble9753_results(strip.T, data_bits=12)
        assert quads == [oracle_9753(strip, 0), oracle_9753(strip, 9)]

    def test_samples_wider_than_the_data_bits_are_rejected(self):
        strip = np.full((18, 9), 300, dtype=np.int64)
        with pytest.raises(ConfigError, match="8 bits"):
            ensemble9753_results(strip)
        with pytest.raises(ConfigError, match="8 bits"):
            Ensemble9753().clock(strip[0], d1st=True)
        with pytest.raises(ConfigError):
            Ensemble9753().clock(-strip[0])


class TestSlidingRecordCache:
    COLS = np.arange(24).reshape(8, 3) % 7

    @pytest.mark.parametrize("rank", [5.0, np.float64(5.0)])
    def test_a_float_equal_to_a_cached_rank_is_still_rejected(self, rank):
        # 5.0 == 5, yet must not reach the record of 5, before or after a
        # run of 5
        want = sliding_cycles(SlidingParams(3, 3, 5),
                              self.COLS).results.tolist()
        assert Engine(SlidingParams(3, 3, 5)).params.rank == 5
        with pytest.raises(ConfigError, match="integers"):
            SlidingParams(3, 3, rank)
        with pytest.raises(ConfigError, match="integers"):
            SlidingParams(3, 3, 5, pipe_latency=float(5))
        assert sliding_cycles(SlidingParams(3, 3, 5),
                              self.COLS).results.tolist() == want

    def test_integer_types_give_the_same_record(self):
        for rank in (np.int64(1), np.array(1)):
            assert SlidingParams(3, 3, rank) == SlidingParams(3, 3, 1)
        # a bool is a flag, not a count, though operator.index takes it
        with pytest.raises(ConfigError, match="not bools"):
            SlidingParams(3, 3, True)
        assert SlidingParams(3, 3, 5).counter_bits == 8

    def test_unhashable_arguments_get_the_records_own_checks(self):
        with pytest.raises(ConfigError, match="integers"):
            SlidingParams(3, 3, [5])
        assert (sliding_cycles(SlidingParams(3, 3, np.array(5)),
                               self.COLS).results.tolist()
                == sliding_cycles(SlidingParams(3, 3, 5),
                                  self.COLS).results.tolist())
