"""Public entry points that cannot misread their arguments: each malformed
call below raises ``ConfigError``, never a bare ``TypeError`` or
``ValueError``, and never returns a truncated answer."""

import numpy as np
import pytest

from rankpipe import (
    Border,
    ConfigError,
    Custom,
    Rect,
    Stage,
    counter_preset,
    enable_schedule,
    filter_image_oracle,
    percentile_to_rank,
    run_filter,
    select_desc,
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
])
def test_malformed_calls_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("image,shape,border", [
    (np.arange(5), Rect(3, 3), Border.CLAMP),
    (np.zeros((0, 5), np.int64), Rect(1, 1), Border.CLAMP),
    (IMAGE, Rect(5, 5), Border.VALID),
    (IMAGE, "3x3", Border.CLAMP)])
def test_the_oracle_fails_as_run_filter_does(image, shape, border):
    with pytest.raises(ConfigError) as engine:
        run_filter(image, shape, 1, border=border)
    with pytest.raises(ConfigError) as oracle:
        filter_image_oracle(image, shape, 1, border)
    assert str(oracle.value) == str(engine.value)
