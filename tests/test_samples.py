"""The one sample contract: every entry point takes integer samples that fit
the data width, rejects anything else with ``ConfigError`` instead of
truncating it, and still accepts empty input of any dtype."""

import numpy as np
import pytest

from rankpipe import (
    ConfigError,
    Engine,
    Ensemble9753,
    FilterParams,
    McEngine,
    McParams,
    Rect,
    SlidingEnsemble,
    ensemble9753_cycles,
    filter_image,
    mc_stream_cycles,
    run_filter,
    run_stream,
    run_windows,
    sliding_cycles,
    sliding_window_results,
    stream_cycles,
)
from rankpipe.params import as_samples

P = FilterParams(data_bits=8, set_size=3, rank=2)
MC = McParams(channels=3, columns=2, rank=2)


def test_as_samples_accepts_every_integer_dtype():
    for dtype in (np.uint8, np.int16, np.uint64, np.int64):
        got = as_samples(np.array([0, 7, 255], dtype=dtype), 8)
        assert got.dtype == np.int64 and got.tolist() == [0, 7, 255]


@pytest.mark.parametrize("data,message", [
    ([1.7, 2.9, 3.2], "integers"),
    ([1.0, 2.0, 3.0], "integers"),
    ([1, -2, 3], "non-negative"),
    ([1, 256, 3], "8 bits"),
    (np.array([1, 2, 1 << 63], dtype=np.uint64), "8 bits"),
    ([1, 2, 1 << 64], "integers"),
])
def test_as_samples_rejects_what_it_cannot_hold(data, message):
    with pytest.raises(ConfigError, match=message):
        as_samples(data, 8)


def test_run_stream_rejects_floats():
    with pytest.raises(ConfigError, match="integers"):
        run_stream(P, [1.7, 2.9, 3.2])


def test_stream_cycles_rejects_floats():
    with pytest.raises(ConfigError, match="integers"):
        stream_cycles(P, np.array([1.5, 2.0, 3.0]))


def test_run_windows_rejects_floats():
    with pytest.raises(ConfigError, match="integers"):
        run_windows(MC, np.full((2, 3), 1.5))


def test_sliding_rejects_floats():
    with pytest.raises(ConfigError, match="integers"):
        sliding_window_results(3, 5, np.full((4, 3), 2.5))
    with pytest.raises(ConfigError, match="integers"):
        sliding_cycles(3, 5, np.full((4, 3), 2.5))


def test_9753_rejects_floats():
    with pytest.raises(ConfigError, match="integers"):
        ensemble9753_cycles(np.full((9, 9), 3.5))


def test_filter_image_rejects_a_float_image():
    img = np.full((5, 5), 7.5)
    with pytest.raises(ConfigError, match="integers"):
        filter_image(img, Rect(3, 3), 5, data_bits=8)
    with pytest.raises(ConfigError, match="integers"):
        filter_image(img, Rect(3, 3), 5)


def test_run_filter_rejects_uint64_pixels_past_int64_as_too_wide():
    img = np.zeros((4, 4), dtype=np.uint64)
    img[1, 2] = 1 << 63
    for data_bits in (None, 16):
        with pytest.raises(ConfigError) as info:
            run_filter(img, Rect(3, 3), 5, data_bits=data_bits)
        assert "bits" in str(info.value)
        assert "non-negative" not in str(info.value)


def test_run_filter_takes_unsigned_images():
    img = np.arange(16, dtype=np.uint64).reshape(4, 4)
    assert (filter_image(img, Rect(1, 1), 1) == img).all()


@pytest.mark.parametrize("make,sample", [
    (lambda: Engine(P), 1.5),
    (lambda: Engine(P), np.float64(2.0)),
    (lambda: McEngine(MC), [1.5, 2.0, 3.0]),
    (lambda: SlidingEnsemble(3, 5), [1.5, 2.0, 3.0]),
    (lambda: Ensemble9753(), [1.5] * 9),
])
def test_object_engines_reject_floats(make, sample):
    with pytest.raises(ConfigError, match="integers"):
        make().clock(sample, True)


def test_engine_takes_one_sample_per_clock():
    with pytest.raises(ConfigError):
        Engine(P).clock([1, 2], True)


def test_empty_float_input_still_runs():
    empty = np.asarray([])
    assert run_stream(P, empty).tolist() == []
    assert stream_cycles(P, empty).cycles == P.drain_cycles
    assert run_windows(MC, empty).tolist() == []
    assert mc_stream_cycles(MC, empty.reshape(0, 3)).cycles == MC.drain_cycles
    assert sliding_window_results(3, 5, empty.reshape(0, 3)).tolist() == []
    assert not ensemble9753_cycles(empty.reshape(0, 9)).dv.any()
