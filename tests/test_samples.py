"""The one sample contract: every entry point takes integer samples that fit
the data width, rejects anything else with ``ConfigError`` instead of
truncating it, and still accepts empty input of any dtype."""

import numpy as np
import pytest

from rankpipe import (
    ConfigError,
    Custom,
    Diamond,
    Engine,
    Ensemble9753,
    FilterParams,
    McEngine,
    McParams,
    Rect,
    SlidingEnsemble,
    ensemble9753_cycles,
    ensemble9753_results,
    filter_image,
    mc_stream_cycles,
    run_filter,
    run_stream,
    run_windows,
    sliding_cycles,
    sliding_window_results,
    stream_cycles,
    window_offsets,
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


@pytest.mark.parametrize("make", [
    lambda: Rect(2.5, 3),
    lambda: Rect(3, np.float64(3.0)),
    lambda: Diamond(3.0),
    lambda: Custom(((0.5, 0), (1, 0))),
    lambda: Custom(((0, 0), (1, np.float32(2)))),
])
def test_window_shapes_reject_non_integers(make):
    with pytest.raises(ConfigError, match="integers"):
        make()


def test_window_shapes_take_numpy_integers():
    assert len(window_offsets(Rect(np.int64(3), np.uint8(2)))) == 6
    assert len(window_offsets(Diamond(np.int32(3)))) == 5
    assert Custom(((np.int64(1), np.int16(-2)),)).offsets == ((1, -2),)
    img = np.arange(20).reshape(4, 5)
    assert (filter_image(img, Rect(np.int64(3), np.int64(3)), 5)
            == filter_image(img, Rect(3, 3), 5)).all()


STRIP = np.zeros((18, 9), dtype=np.int64)


@pytest.mark.parametrize("make", [
    lambda: run_stream(FilterParams(8, 5, 2.5), [1, 2, 3, 4, 5]),
    lambda: FilterParams(8.0, 5, 3),
    lambda: FilterParams(8, 5, 3, pipe_latency=1.5),
    lambda: FilterParams(8, np.float64(5), 3),
    lambda: McParams(channels=3.0, columns=2, rank=2),
    lambda: McParams(channels=3, columns=2, rank=2, pipe_latency=8.5),
    lambda: Ensemble9753(ranks=(41, 25, 13.0, 5)),
    lambda: Ensemble9753(data_bits=8.0),
    lambda: ensemble9753_cycles(STRIP, pipe_latency=np.float64(5)),
    lambda: ensemble9753_results(STRIP, ranks=(41.5, 25, 13, 5)),
    lambda: filter_image(np.arange(30).reshape(5, 6), Rect(3, 3), 2.5),
    lambda: sliding_window_results(3, 2.5, np.zeros((5, 3), np.int64)),
    lambda: SlidingEnsemble(3, 5, pipe_latency=2.0),
])
def test_chain_parameters_reject_non_integers(make):
    with pytest.raises(ConfigError, match="integers"):
        make()


def test_chain_parameters_store_numpy_integers_as_int():
    p = FilterParams(np.int64(8), np.uint8(5), np.int32(3),
                     pipe_latency=np.int16(2))
    mc = McParams(channels=np.int64(3), columns=np.uint16(2),
                  rank=np.int8(2), pipe_latency=np.int64(9))
    for record in (p, mc):
        assert all(type(v) is int for v in vars(record).values())
    assert p.alignment == 27 and type(p.alignment) is int
    ens = Ensemble9753(ranks=(np.int64(41), np.uint8(25), np.int16(13),
                              np.int8(5)), pipe_latency=np.int32(4))
    assert [chain.params.rank for chain in ens.chains] == [41, 25, 13, 5]
    for chain in ens.chains:
        assert all(type(v) is int for v in vars(chain.params).values())


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


def shifted_int64(din, delay):
    """``dout`` as batch traces stored it before it was computed on demand:
    an int64 copy of ``din`` shifted by ``delay`` cycles, zeros without an
    anchor."""
    din = np.asarray(din, dtype=np.int64)
    dout = np.zeros_like(din)
    if delay is not None and len(din) > delay:
        dout[delay:] = din[:len(din) - delay]
    return dout


def traces(bits):
    """A trace of every batch engine on ``bits``-bit samples, with the delay
    its dout had: the alignment, or the first quadruple's cycle for 9753."""
    rng = np.random.default_rng(bits)
    p = FilterParams(data_bits=bits, set_size=5, rank=2)
    mc = McParams(channels=3, columns=4, rank=6, data_bits=bits)
    single = stream_cycles(p, rng.integers(0, 1 << bits, size=20))
    multi = mc_stream_cycles(mc, rng.integers(0, 1 << bits, size=(12, 3)))
    sliding = sliding_cycles(3, 4, rng.integers(0, 1 << bits, size=(8, 3)),
                             data_bits=bits)
    e9753 = ensemble9753_cycles(rng.integers(0, 1 << bits, size=(20, 9)),
                                data_bits=bits)
    short = ensemble9753_cycles(rng.integers(0, 1 << bits, size=(5, 9)),
                                data_bits=bits)
    return [(single, p.alignment), (multi, mc.alignment),
            (sliding, McParams(channels=3, columns=3, rank=4,
                               data_bits=bits).alignment),
            (e9753, int(np.flatnonzero(e9753.dv)[0])), (short, None)]


@pytest.mark.parametrize("bits", [2, 8, 10, 16])
def test_traces_carry_samples_at_their_width(bits):
    width = np.uint8 if bits <= 8 else np.uint16
    for trace, delay in traces(bits):
        assert trace.din.dtype == trace.result.dtype == width
        assert trace.d1st.dtype == trace.dv.dtype == bool
        assert trace.delay == delay
        assert np.array_equal(trace.dout, shifted_int64(trace.din, delay))
        assert trace.results.dtype == np.int64


@pytest.mark.parametrize("bits", [8, 16])
def test_public_results_are_int64(bits):
    rng = np.random.default_rng(bits)
    top = 1 << bits
    p = FilterParams(data_bits=bits, set_size=3, rank=2)
    mc = McParams(channels=3, columns=2, rank=2, data_bits=bits)
    assert run_stream(p, rng.integers(0, top, size=9)).dtype == np.int64
    assert run_windows(mc, rng.integers(0, top, size=(4, 3))).dtype \
        == np.int64
    assert sliding_window_results(
        3, 5, rng.integers(0, top, size=(6, 3)),
        data_bits=bits).dtype == np.int64
    image = rng.integers(0, top, size=(5, 6)).astype(np.uint16)
    for engine in ("single", "multichannel", "sliding"):
        report = run_filter(image, Rect(3, 3), 5, engine=engine)
        assert report.image.dtype == np.int64
    # arithmetic on a result does not wrap at the sample width
    assert (run_stream(p, [top - 1] * 3) + 1).tolist() == [top]
    _, quads = ensemble9753_results(rng.integers(0, top, size=(9, 9)),
                                    data_bits=bits)
    assert all(type(v) is int for quad in quads for v in quad)
