import numpy as np
import pytest

from rankpipe import (ConfigError, FilterParams, McParams, PartialMedian,
                      run_stream, select_desc)
from rankpipe._kernels import _search


def test_defaults_match_reference_build():
    p = FilterParams(data_bits=8, set_size=25, rank=13)
    assert p.counter_bits == 8
    assert p.pipe_latency == 5
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


def _oracle_stream(params, sets, seed):
    """``run_stream`` over ``sets`` random sets under ``params`` and the
    oracle's answers for them."""
    n = params.set_size
    data = np.random.default_rng(seed).integers(0, 256, size=sets * n)
    return (run_stream(params, data).tolist(),
            [select_desc(data[i:i + n], params.rank)
             for i in range(0, len(data), n)])


def test_max_set_size_with_default_pipe():
    # the reference build's 255-deep pipe holds 250 samples; a record
    # takes any N
    for n in (250, 251, 300):
        got, want = _oracle_stream(FilterParams(8, n, 125), 2, n)
        assert got == want


def test_counter_width_rejects_wrapping_configs():
    # N=250, M=1 and N=200, M=150 would wrap an 8-bit preset counter: the
    # records derive a wider one
    for n, m, bits in ((250, 1, 9), (200, 150, 9), (250, 123, 8),
                       (250, 128, 8), (250, 250, 9)):
        params = FilterParams(data_bits=8, set_size=n, rank=m)
        assert params.counter_bits == bits
        got, want = _oracle_stream(params, 2, n + m)
        assert got == want


@pytest.mark.parametrize("n,m,bits,ref_pipe", [
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
def test_widths_derived_from_n_and_m(n, m, bits, ref_pipe):
    p = FilterParams(data_bits=8, set_size=n, rank=m)
    assert p.counter_bits == McParams(1, n, m).counter_bits == bits
    # the narrowest width of at least 8 bits with M <= 2**(C-1) and
    # N - M <= 2**(C-1) - 1
    half = 1 << (bits - 1)
    assert m <= half and n - m <= half - 1
    assert bits == 8 or m > half // 2 or n - m > half // 2 - 1
    # ``ref_pipe`` is the pipe a reference build (8-bit counters, 255
    # cycles) must grow to for the set, max(255, N + L): no more than each
    # stage's own delay of it, floored at 255
    assert ref_pipe == max(255, p.pipe_delay)
    got, want = _oracle_stream(p, 1, n)
    assert got == want


def test_the_widest_counters_still_rank():
    # the kernel's widest accumulator, which no record of a fitting set needs
    cols = np.array([[7], [65535], [0]], dtype=np.uint16)
    assert _search(cols, 3, 1, 3, 16, 2, 64).tolist() == [7]


def test_mc_params_inherit_every_invariant():
    p = McParams(channels=9, columns=11, rank=31)
    assert p.set_size == 99
    assert p.pipe_delay == 16
    with pytest.raises(ConfigError):
        McParams(channels=9, columns=30, rank=271)  # M > N = 270
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
