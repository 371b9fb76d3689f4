"""Stage-level behavior: the worked two-stage narrowing, emission timing,
counter bookkeeping, and framing."""

import random

import pytest

from rankpipe import (
    ConfigError,
    Engine,
    FilterParams,
    FramingError,
    McParams,
    PartialMedian,
    Stage,
    boundaries,
)
from rankpipe.oracle import select_desc

ROOT = PartialMedian()


def run_set(stage, samples, pm_in, idle=16):
    """Feed one marked set plus idle clocks; return (cycle, pm_out) pairs."""
    outs = []
    for i, x in enumerate(samples):
        out = stage.clock(x, i == 0, pm_in)
        if out is not None:
            outs.append((i, out))
    for j in range(idle):
        out = stage.clock(0, False, None)
        if out is not None:
            outs.append((len(samples) + j, out))
    return outs


def worked_example_set():
    # 13 values inside [128, 191], none at or above 192, the rest below 64:
    # count(>=192) = 0 < M=13 <= count(>=128) = 13 <= count(>=64)
    values = [130 + 4 * i for i in range(13)] + [7 * i % 60 for i in range(12)]
    random.Random(1).shuffle(values)
    return values


def test_stage1_resolves_the_128_to_191_range():
    data = worked_example_set()
    stage = Stage(FilterParams(8, 25, 13))
    outs = run_set(stage, data, ROOT)
    assert len(outs) == 1
    _, pm = outs[0]
    assert pm == PartialMedian(128, 2)
    assert boundaries(pm, 8) == (144, 160, 176)


def test_stage2_narrows_to_a_16_wide_range():
    data = worked_example_set()
    med = select_desc(data, 13)
    pm1 = PartialMedian(128, 2)
    stage2 = Stage(FilterParams(8, 25, 13))
    outs = run_set(stage2, data, pm1)
    (_, pm2), = outs
    assert pm2.bits_resolved == 4
    assert pm2.prefix <= med < pm2.prefix + 16


def test_single_sample_set_resolves_subrange_zero():
    stage = Stage(FilterParams(8, 1, 1))
    outs = run_set(stage, [0], ROOT)
    (_, pm), = outs
    assert pm == PartialMedian(0, 2)


def test_emission_comes_exactly_latency_cycles_after_the_last_sample():
    for latency in (0, 1, 5):
        stage = Stage(FilterParams(8, 4, 2, pipe_latency=latency))
        outs = run_set(stage, [9, 200, 13, 77], ROOT)
        (cycle, _), = outs
        assert cycle == 3 + latency


def test_marker_mid_set_is_a_framing_error():
    stage = Stage(FilterParams(8, 5, 2))
    stage.clock(10, True, ROOT)
    stage.clock(20, False, ROOT)
    with pytest.raises(FramingError, match="set position 2 on cycle 2$"):
        stage.clock(30, True, ROOT)


def test_an_engine_framing_error_names_the_stage_and_the_cycle():
    engine = Engine(FilterParams(8, 5, 3))
    for t in range(3):
        engine.clock(t, t == 0)
    with pytest.raises(FramingError, match="^stage 0: .* set position 3 "
                                           "on cycle 3$"):
        engine.clock(3, True)


def test_marker_without_partial_median_is_a_framing_error():
    stage = Stage(FilterParams(8, 5, 2))
    with pytest.raises(FramingError):
        stage.clock(10, True, None)


def test_counters_track_preset_plus_running_counts():
    rng = random.Random(5)
    data = [rng.randrange(256) for _ in range(20)]
    stage = Stage(FilterParams(8, 20, 7))
    b1, b2, b3 = boundaries(ROOT, 8)
    for i, x in enumerate(data):
        stage.clock(x, i == 0, ROOT)
        seen = data[:i + 1]
        c1 = sum(v >= b1 for v in seen)
        c2 = sum(v >= b2 for v in seen)
        c3 = sum(v >= b3 for v in seen)
        assert c1 >= c2 >= c3
        assert stage.qc1 == (stage.preset + c1) & 0xFF
        assert stage.qc2 == (stage.preset + c2) & 0xFF
        assert stage.qc3 == (stage.preset + c3) & 0xFF


def test_pm_out_is_one_of_the_four_quarters_of_pm_in():
    rng = random.Random(9)
    for trial in range(20):
        res = rng.choice([0, 2, 4])
        width = 1 << (8 - res)
        pm_in = PartialMedian(rng.randrange(1 << res) * width, res)
        data = [rng.randrange(256) for _ in range(11)]
        stage = Stage(FilterParams(8, 11, rng.randint(1, 11)))
        (_, pm_out), = run_set(stage, data, pm_in)
        assert pm_out.bits_resolved == res + 2
        quarter = (pm_out.prefix - pm_in.prefix) // (width // 4)
        assert quarter in (0, 1, 2, 3)
        assert pm_out.prefix == pm_in.prefix + quarter * (width // 4)


def test_back_to_back_sets_reuse_the_stage():
    stage = Stage(FilterParams(8, 3, 1))
    outs = []
    data = [1, 2, 3, 200, 100, 50, 9, 9, 9]
    for i, x in enumerate(data):
        out = stage.clock(x, i % 3 == 0, ROOT)
        if out is not None:
            outs.append(out)
    for _ in range(8):
        out = stage.clock(0, False, None)
        if out is not None:
            outs.append(out)
    quarters = [pm.prefix >> 6 for pm in outs]
    assert quarters == [0, 3, 0]  # maxima 3, 200, 9 land in these quarters


# 300-sample sets whose maximum, 200, lies in the top quarter: more samples
# than 8-bit counters hold, so each set must size its own counters
WIDE_SETS = [[200] * 200 + [10] * 100,
             [200] * 100 + [100] * 100 + [10] * 100]


@pytest.mark.parametrize("data", WIDE_SETS, ids=["two-values", "three-values"])
def test_a_stage_sizes_its_counters_for_the_set(data):
    (_, pm), = run_set(Stage(FilterParams(8, 300, 1)), data, ROOT)
    assert pm == PartialMedian(192, 2)


@pytest.mark.parametrize("data", WIDE_SETS, ids=["two-values", "three-values"])
def test_a_column_stage_counts_every_sample_of_its_columns(data):
    columns = [data[i:i + 3] for i in range(0, len(data), 3)]
    (_, pm), = run_set(Stage(McParams(3, 100, 1)), columns, ROOT)
    assert pm == PartialMedian(192, 2)


def test_a_rank_past_the_set_raises_at_the_sets_first_input():
    # the record refuses it before any stage is built
    with pytest.raises(ConfigError, match="M=5 N=3"):
        Stage(FilterParams(8, 3, 5))
    # 3-sample columns make N = 9; the 5th largest of 0..8, 4, is in the
    # bottom quarter
    (_, pm), = run_set(Stage(McParams(3, 3, 5)),
                       [[0, 3, 6], [1, 4, 7], [2, 5, 8]], ROOT)
    assert pm == PartialMedian(0, 2)


@pytest.mark.parametrize("rank", [0, -1])
def test_a_rank_below_one_raises_when_the_stage_is_built(rank):
    with pytest.raises(ConfigError):
        Stage(FilterParams(8, 5, rank))


@pytest.mark.parametrize("params,first,other", [
    pytest.param(FilterParams(8, 255, 1, pipe_latency=0), 255, [255, 255],
                 id="sample-then-column"),
    pytest.param(McParams(2, 255, 1, pipe_latency=0), [255, 255], [255],
                 id="column-then-short-column"),
])
def test_a_counted_input_of_another_shape_raises(params, first, other):
    # counters sized for N samples would wrap on more; the stage refuses
    # every counted input that is not one clock's shape instead
    stage = Stage(params)
    stage.clock(first, True, ROOT)
    with pytest.raises(ConfigError, match="one clock's input must have shape"):
        stage.clock(other, False, None)
