"""The batch kernels on the framing every driver produces (sets back to back
from cycle 0, then a full drain): against the clock-stepped object engines
and an int64 reference search, with and without pipe latency, across
sample and counter widths and block seams; plus the backend flag.  The
kernels run under parameter records; the set search alone also runs on
counter widths no record derives for its set."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from rankpipe import (
    Engine,
    FilterParams,
    McParams,
    _kernels,
    refine,
)
from rankpipe.params import SlidingParams


def _samples(rng, bits, shape):
    """Random samples with the extremes 0 and 2**bits - 1 well represented."""
    top = (1 << bits) - 1
    drawn = rng.integers(0, top + 1, size=shape)
    extreme = np.where(rng.random(shape) < 0.5, 0, top)
    return np.where(rng.random(shape) < 0.6, drawn, extreme).astype(np.int64)


def _drained(rng, bits, channels, last_start, delay):
    """Random columns through the dv cycle of a set that starts at
    ``last_start`` and spends ``delay`` cycles per stage: a run and its
    full drain."""
    return _samples(rng, bits, (last_start + bits // 2 * delay, channels))


def _chain_case(rng, n, k, bits, sets, latency):
    """Columns of ``sets`` back-to-back sets of ``n`` cycles, K = ``k``,
    and the drain."""
    return _drained(rng, bits, k, (sets - 1) * n, n + latency)


def _clock(engine, cols, d1st):
    """Per-cycle dv/result of an object engine."""
    dv = np.zeros(len(d1st), dtype=bool)
    res = np.zeros(len(d1st), dtype=np.int64)
    for t, (col, f) in enumerate(zip(cols, d1st)):
        out = engine.clock(col.reshape(engine.params.lanes), bool(f))
        dv[t], res[t] = out.dv, out.result
    return dv, res


def _at_fire(cycles, fire, values):
    """Per-cycle dv/result of a kernel run: ``values`` placed at ``fire``."""
    dv = np.zeros(cycles, dtype=bool)
    res = np.zeros(cycles, dtype=np.int64)
    dv[fire] = True
    res[fire] = values
    return dv, res


def _random_chain(rng, latency):
    """A random single- or multi-channel configuration and its engine."""
    bits = int(rng.choice([2, 4, 8]))
    n = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        p = FilterParams(data_bits=bits, set_size=n,
                         rank=int(rng.integers(1, n + 1)),
                         pipe_latency=latency)
        return p, Engine(p), 1, n
    k = int(rng.integers(1, 4))
    p = McParams(channels=k, columns=n, rank=int(rng.integers(1, n * k + 1)),
                 data_bits=bits, pipe_latency=latency)
    return p, Engine(p), k, n


def test_chain_run_matches_the_object_engines_on_back_to_back_sets():
    # zero to four sets, with and without pipe latency; the object engine
    # sees the drivers' markers, one every set from cycle 0
    rng = np.random.default_rng(70)
    for case in range(60):
        p, engine, k, n = _random_chain(rng, latency=(0, 1, 5)[case % 3])
        sets = case % 5
        cols = _chain_case(rng, n, k, p.data_bits, sets, p.pipe_latency)
        d1st = np.zeros(len(cols), dtype=bool)
        d1st[:sets * n:n] = True
        fire, comparisons, values = _kernels.chain_run(cols, sets, p)
        dv, res = _at_fire(len(cols), fire, values)
        want_dv, want_res = _clock(engine, cols, d1st)
        assert fire.tolist() == np.flatnonzero(want_dv).tolist()
        assert (dv == want_dv).all()
        assert (res[dv] == want_res[want_dv]).all()
        assert comparisons == engine.comparisons


def test_wrapping_counters_resolve_by_priority_like_refine(monkeypatch):
    # 2-bit counters, preset 1: counts 3/1/0 for boundaries 1/2/3 wrap the
    # first accumulator to 0, so the MSBs (0, 1, 0) are not thermometer-coded
    # and the priority encoder picks the middle quarter.  No record holds
    # N - M = 2 in 2-bit counters, so the set search runs alone.
    cols = np.array([[1], [1], [2]], dtype=np.int64)
    got, want = _kernel_pair(monkeypatch, lambda: _kernels._search(
        cols, 3, 1, 3, 2, 1, 2).tolist())
    assert got == want == [refine(0, 1, 0)] == [2]


def _sliding(cols, starts, bits, rank, latency):
    window = cols.shape[1]
    p = SlidingParams(channels=window, columns=window, rank=rank,
                      data_bits=bits, pipe_latency=latency)
    fire, comparisons, values = _kernels.sliding_run(cols, starts, p)
    return (fire, comparisons) + _at_fire(len(cols), fire, values)


def test_sliding_run_matches_the_ensemble_window_for_window():
    rng = np.random.default_rng(72)
    for case in range(16):
        window = (3, 5)[case % 2]
        latency = (0, 2)[case // 2 % 2]
        rank = int(rng.integers(1, window * window + 1))
        p = SlidingParams(window, window, rank, pipe_latency=latency)
        ens = Engine(p)
        starts = window * int(rng.integers(1, 5))
        cols = _drained(rng, 8, window, starts - 1, window + latency)
        d1st = np.zeros(len(cols), dtype=bool)
        d1st[:starts:window] = True
        fire, comparisons, dv, res = _sliding(cols, starts, 8, rank, latency)
        for t in range(len(cols)):
            out = ens.clock(cols[t], bool(d1st[t]))
            assert dv[t] == out.dv
            if out.dv:
                assert res[t] == out.result
                # window i matures at alignment + i, on chain i % W
                assert ens.last_chain == (t - p.alignment) % window
        assert fire.tolist() == np.flatnonzero(dv).tolist()
        # both count the shared first stage once per column
        assert comparisons == ens.comparisons


def _int64_search(cols, step, sets, set_cycles, data_bits, rank,
                  counter_bits):
    """The set search written plainly in int64: every comparison summed over
    each set's (K, N) samples, MSB tests on exact sums, ``np.select`` as the
    priority encoder.  The reference the narrow sample-major kernel must
    match exactly."""
    windows = sliding_window_view(cols, set_cycles, axis=0)
    chosen = windows[np.arange(sets) * step].astype(np.int64)
    preset = (1 << (counter_bits - 1)) - rank
    msb = 1 << (counter_bits - 1)
    pre = np.zeros(sets, np.int64)
    for s in range(data_bits // 2):
        q = 1 << (data_bits - 2 * s - 2)
        m1, m2, m3 = (
            ((preset + (chosen >= (pre + k * q)[:, None, None]).sum(axis=(1, 2)))
             & msb) != 0 for k in (1, 2, 3))
        pre += q * np.select([m3, m2, m1], [3, 2, 1], 0)
    return pre


def _kernel_pair(monkeypatch, run):
    """``run()`` with the narrow kernel, then with the int64 reference."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_search", _int64_search)
        want = run()
    return got, want


def _run_chain(cols, sets, bits, n, rank, counter_bits):
    """The set search of a chain's back-to-back sets at ``counter_bits``:
    the results ``chain_run`` returns."""
    return _kernels._search(cols, n, sets, n, bits, rank,
                            counter_bits).tolist()


@pytest.mark.parametrize("bits", [2, 8, 10, 16])
def test_narrow_planes_match_the_int64_search_across_widths(monkeypatch, bits):
    # B = 8 and 10 sit on both sides of the uint8/uint16 plane switch
    rng = np.random.default_rng(80 + bits)
    seen = set()
    for case in range(36):
        k = case % 9 + 1
        n = int(rng.integers(1, 8))
        rank = int(rng.integers(1, n * k + 1))
        sets = int(rng.integers(1, 9))
        cols = _chain_case(rng, n, k, bits, sets, case % 6)
        seen.update(np.unique(cols).tolist())
        got, want = _kernel_pair(monkeypatch, lambda: _run_chain(
            cols, sets, bits, n, rank, 8))
        assert got == want
    assert {0, (1 << bits) - 1} <= seen


@pytest.mark.parametrize("counter_bits", range(2, 13))
def test_wrapping_accumulators_match_the_int64_search(monkeypatch,
                                                      counter_bits):
    # N*K >= 256 wraps a uint8 accumulator; C > 8 takes a wider one.  No
    # record holds such a set in so few bits, so the set search runs alone
    rng = np.random.default_rng(90 + counter_bits)
    for case in range(6):
        k = int(rng.integers(1, 10))
        n = -(-int(rng.integers(256, 352)) // k)
        rank = int(rng.integers(1, min(n * k, 1 << (counter_bits - 1)) + 1))
        bits = int(rng.choice([2, 8, 10]))
        sets = int(rng.integers(1, 4))
        cols = _chain_case(rng, n, k, bits, sets, case % 3)
        got, want = _kernel_pair(monkeypatch, lambda: _kernels._search(
            cols, n, sets, n, bits, rank, counter_bits).tolist())
        assert got == want


@pytest.mark.parametrize("counter_bits", [16, 17, 32, 33, 63])
def test_wide_accumulators_match_the_int64_search(monkeypatch, counter_bits):
    # up to 63 bits, the widest the int64 reference can hold
    rng = np.random.default_rng(counter_bits)
    for case in range(4):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        rank = int(rng.integers(1, n * k + 1))
        cols = _chain_case(rng, n, k, 16, 5, 2)
        got, want = _kernel_pair(monkeypatch, lambda: _run_chain(
            cols, 5, 16, n, rank, counter_bits))
        assert got == want


def test_blocks_of_sets_join_seamlessly(monkeypatch):
    # a few sets per block: every block edge falls between two sets, of a
    # chain's disjoint sets and of the sliding chains' overlapping windows
    rng = np.random.default_rng(96)
    cols = _chain_case(rng, 7, 3, 8, 40, 1)
    strip = _drained(rng, 8, 5, 39, 5 + 1)
    whole = _run_chain(cols, 40, 8, 7, 11, 8)
    windows = _sliding(strip, 40, 8, 11, 1)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_BLOCK", 3 * 7 * 3)
        assert _run_chain(cols, 40, 8, 7, 11, 8) == whole
        assert (_sliding(strip, 40, 8, 11, 1)[3] == windows[3]).all()
    assert len(whole) == 40 and windows[2].sum() == 40


def _strided_search(cols, sets, set_cycles, data_bits, rank, counter_bits):
    """The back-to-back search through a strided view of the stream, one
    window every ``set_cycles`` rows: the path any other step takes."""
    windows = sliding_window_view(cols, set_cycles, axis=0)[::set_cycles]
    planes = windows[:sets].transpose(1, 2, 0).astype(cols.dtype, order="C")
    return _kernels._resolve(planes.reshape(-1, sets), data_bits, rank,
                             counter_bits)


@given(k=st.integers(1, 5), n=st.integers(1, 9), sets=st.integers(1, 30),
       tail=st.integers(0, 12), bits=st.sampled_from([2, 8, 10, 16]),
       block=st.sampled_from([1, 7, 64, None]), data=st.data())
def test_back_to_back_sets_reshape_like_the_strided_view(k, n, sets, tail,
                                                         bits, block, data):
    # step == set_cycles takes the stream as a reshape; drain rows past the
    # last set and block seams must not change a result
    rank = data.draw(st.integers(1, n * k))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = _samples(rng, bits, (sets * n + tail, k)).astype(
        np.uint8 if bits <= 8 else np.uint16)
    want = _strided_search(cols, sets, n, bits, rank, 8)
    saved = _kernels._BLOCK
    _kernels._BLOCK = block or saved
    try:
        got = _kernels._search(cols, n, sets, n, bits, rank, 8)
    finally:
        _kernels._BLOCK = saved
    assert got.tolist() == want.tolist()


def test_sliding_windows_match_the_int64_search(monkeypatch):
    # the W chains' windows overlap, one column apart
    rng = np.random.default_rng(95)
    for case in range(18):
        window = (1, 3, 5, 7, 9)[case % 5]
        bits = (2, 8, 10, 16)[case % 4]
        rank = int(rng.integers(1, window * window + 1))
        starts = int(rng.integers(1, 7 * window))
        cols = _drained(rng, bits, window, starts - 1, window + case % 3)

        def run():
            fire, comparisons, dv, res = _sliding(cols, starts, bits, rank,
                                                  case % 3)
            return fire.tolist(), comparisons, dv.tolist(), res.tolist()

        got, want = _kernel_pair(monkeypatch, run)
        assert got == want


def test_env_flag_selects_the_interpreted_path():
    script = (
        "import rankpipe._accel as a\n"
        "import rankpipe as rp\n"
        "assert not a.NUMBA_ENABLED\n"
        "p = rp.FilterParams(data_bits=8, set_size=9, rank=5)\n"
        "assert rp.run_stream(p, [3,1,4,1,5,9,2,6,5]).tolist() == [4]\n"
        "print('fallback ok')\n"
    )
    env = dict(os.environ, RANKPIPE_NO_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "fallback ok" in proc.stdout


def test_kernels_need_no_compiler():
    script = (
        "import sys\n"
        "import rankpipe._accel as a\n"
        "import rankpipe as rp\n"
        "assert not a.NUMBA_ENABLED\n"
        "assert 'numba' not in sys.modules\n"
        "print('numpy only')\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "RANKPIPE_NO_NUMBA"}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "numpy only" in proc.stdout
