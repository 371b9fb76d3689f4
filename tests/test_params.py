import pytest

from rankpipe import (ConfigError, FilterParams, McParams, PartialMedian,
                      run_stream)
from rankpipe.params import chain_widths


def test_defaults_match_reference_build():
    p = FilterParams(data_bits=8, set_size=25, rank=13)
    assert p.counter_bits == 8
    assert p.pipe_latency == 5
    assert p.pipe_capacity == 255
    assert p.stages == 4
    assert p.pipe_delay == 30
    assert p.alignment == 4 * 30 - 1
    assert p.drain_cycles == 3 * 30 + 5


def test_odd_width_is_padded_up():
    assert FilterParams(data_bits=9, set_size=4, rank=2).data_bits == 10
    assert FilterParams(data_bits=15, set_size=4, rank=2).data_bits == 16


@pytest.mark.parametrize("bits", [0, 1, 17, 18])
def test_width_bounds(bits):
    with pytest.raises(ConfigError):
        FilterParams(data_bits=bits, set_size=4, rank=2)


def test_rank_bounds():
    with pytest.raises(ConfigError):
        FilterParams(data_bits=8, set_size=9, rank=0)
    with pytest.raises(ConfigError):
        FilterParams(data_bits=8, set_size=9, rank=10)


def test_max_set_size_with_default_pipe():
    FilterParams(data_bits=8, set_size=250, rank=125)
    with pytest.raises(ConfigError):
        FilterParams(data_bits=8, set_size=251, rank=125)


def test_counter_width_rejects_wrapping_configs():
    # N=250, M=1 would wrap an 8-bit preset counter
    with pytest.raises(ConfigError):
        FilterParams(data_bits=8, set_size=250, rank=1)
    with pytest.raises(ConfigError):
        FilterParams(data_bits=8, set_size=200, rank=150)
    FilterParams(data_bits=8, set_size=250, rank=123)
    FilterParams(data_bits=8, set_size=250, rank=128)
    # a wider counter admits the same shape
    FilterParams(data_bits=8, set_size=250, rank=1, counter_bits=10)


@pytest.mark.parametrize("counter_bits", [1, 65, 128])
def test_counter_width_bounds(counter_bits):
    # the batch kernels hold accumulators up to 64 bits
    with pytest.raises(ConfigError, match="counter_bits"):
        FilterParams(data_bits=8, set_size=3, rank=2,
                     counter_bits=counter_bits)


@pytest.mark.parametrize("n,m,bits,capacity", [
    (25, 13, 8, 255),
    (250, 1, 9, 255),  # N - M = 249 > 127
    (250, 123, 8, 255),
    (250, 125, 8, 255),  # the largest set the reference pipe holds
    (251, 126, 8, 256),
    (256, 128, 9, 261),  # N - M = 128 > 127
    (255, 128, 8, 260),
    (289, 145, 9, 294),
    (1, 1, 8, 255),
    (1 << 20, 1, 21, (1 << 20) + 5)])
def test_widths_derived_from_n_and_m(n, m, bits, capacity):
    widths = chain_widths(n, m)
    assert widths == {"counter_bits": bits, "pipe_capacity": capacity}
    # the derived widths are the smallest the params accept
    FilterParams(data_bits=8, set_size=n, rank=m, **widths)
    if bits > 8:
        with pytest.raises(ConfigError, match="would wrap"):
            FilterParams(data_bits=8, set_size=n, rank=m,
                         **{**widths, "counter_bits": bits - 1})
    if capacity > 255:
        with pytest.raises(ConfigError, match="pipe capacity"):
            FilterParams(data_bits=8, set_size=n, rank=m,
                         **{**widths, "pipe_capacity": capacity - 1})


def test_the_widest_counters_still_rank():
    params = FilterParams(data_bits=16, set_size=3, rank=2, counter_bits=64)
    assert run_stream(params, [7, 65535, 0]).tolist() == [7]


def test_mc_params_inherit_every_invariant():
    p = McParams(channels=9, columns=11, rank=31)
    assert p.set_size == 99
    assert p.pipe_delay == 16
    with pytest.raises(ConfigError):
        McParams(channels=9, columns=30, rank=135)  # N = 270 > capacity - L
    with pytest.raises(ConfigError):
        McParams(channels=0, columns=5, rank=1)
    with pytest.raises(ConfigError):
        McParams(channels=3, columns=0, rank=1)


def test_partial_median_invariants():
    pm = PartialMedian(128, 2)
    assert pm.refined(3, 8) == PartialMedian(176, 4)  # the top of 128..191
    assert pm.refined(2, 8) == PartialMedian(160, 4)
    with pytest.raises(ConfigError):
        PartialMedian(128, 3)  # odd resolution count
