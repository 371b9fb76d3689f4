"""Public entry points that cannot misread their arguments: each malformed
call below raises ``ConfigError``, never a bare ``TypeError`` or
``ValueError``, and never returns a truncated answer."""

import numpy as np
import pytest

from rankpipe import (
    Border,
    ConfigError,
    Custom,
    FilterParams,
    PartialMedian,
    Rect,
    Stage,
    boundaries,
    counter_preset,
    enable_schedule,
    filter_image_oracle,
    incgen,
    percentile_to_rank,
    run_filter,
    select_desc,
    stream_cycles,
)

IMAGE = np.arange(12).reshape(3, 4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: select_desc([1, 2, 3], 1.5), id="select-float-rank"),
    pytest.param(lambda: select_desc([1, 2, 3], "1"), id="select-str-rank"),
    pytest.param(lambda: percentile_to_rank(0.5, "9"), id="percentile-str-n"),
    pytest.param(lambda: percentile_to_rank(0.5, 2.5),
                 id="percentile-float-n"),
    pytest.param(lambda: enable_schedule(3, 4.5), id="schedule-float-phase"),
    pytest.param(lambda: enable_schedule(3.0, 4), id="schedule-float-width"),
    pytest.param(lambda: counter_preset(5, 0), id="preset-zero-width"),
    pytest.param(lambda: counter_preset(5, 1.5), id="preset-float-width"),
    pytest.param(lambda: counter_preset(2.5, 8), id="preset-float-rank"),
    pytest.param(lambda: Stage(8, 5, 3, counter_bits=0),
                 id="stage-zero-width"),
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
    # the drain alone is more cycles than an array can index
    pytest.param(lambda: stream_cycles(FilterParams(8, 2**63 + 1, 1), []),
                 id="stream-too-long"),
])
def test_malformed_calls_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("image,shape,rank,border", [
    pytest.param(np.arange(5), Rect(3, 3), 1, Border.CLAMP,
                 id="image0-shape0-Border.CLAMP"),
    pytest.param(np.zeros((0, 5), np.int64), Rect(1, 1), 1, Border.CLAMP,
                 id="image1-shape1-Border.CLAMP"),
    pytest.param(IMAGE, Rect(5, 5), 1, Border.VALID,
                 id="image2-shape2-Border.VALID"),
    pytest.param(IMAGE, "3x3", 1, Border.CLAMP, id="image3-3x3-Border.CLAMP"),
    pytest.param(np.arange(30).reshape(5, 6), Rect(3, 3), "5", Border.CLAMP,
                 id="str-rank")])
def test_the_oracle_fails_as_run_filter_does(image, shape, rank, border):
    with pytest.raises(ConfigError) as engine:
        run_filter(image, shape, rank, border=border)
    with pytest.raises(ConfigError) as oracle:
        filter_image_oracle(image, shape, rank, border)
    assert str(oracle.value) == str(engine.value)
