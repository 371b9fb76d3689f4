"""The batch kernels against the clock-stepped object engines on framing the
drivers never produce (idle gaps, cut-off streams, zero pipe latency,
mid-set markers, irregular sliding markers), plus the backend flag."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from rankpipe import (
    Engine,
    FilterParams,
    FramingError,
    McEngine,
    McParams,
    SlidingEnsemble,
    _kernels,
    refine,
)


def _stream(rng, n, bits, channels, gap_hi, sets, tail):
    """Columns and markers for ``sets`` sets of ``n`` cycles separated by
    random idle gaps in ``[0, gap_hi]``, cut ``tail`` cycles after the last
    set starts."""
    starts = []
    t = int(rng.integers(0, 3))
    for _ in range(sets):
        starts.append(t)
        t += n + int(rng.integers(0, gap_hi + 1))
    total = starts[-1] + tail
    d1st = np.zeros(total, dtype=np.uint8)
    d1st[starts] = 1
    cols = rng.integers(0, 1 << bits, size=(total, channels)).astype(np.int64)
    return cols, d1st


def _clock(engine, cols, d1st):
    """Per-cycle dv/result of an object engine, and the cycle at which it
    raised ``FramingError`` (-1 if it never did)."""
    dv = np.zeros(len(d1st), dtype=bool)
    res = np.zeros(len(d1st), dtype=np.int64)
    for t, (col, f) in enumerate(zip(cols, d1st)):
        try:
            out = engine.clock(col if isinstance(engine, McEngine) else col[0],
                               bool(f))
        except FramingError:
            return t, dv, res
        dv[t], res[t] = out.dv, out.result
    return -1, dv, res


def _chain_kernel(p, cols, d1st):
    dv = np.zeros(len(d1st), dtype=np.uint8)
    res = np.zeros(len(d1st), dtype=np.int64)
    err, comparisons = _kernels.chain_run(
        cols, d1st, p.data_bits, p.set_cycles, p.rank, p.counter_bits,
        p.pipe_latency, dv, res)
    return err, comparisons, dv.astype(bool), res


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
    return p, McEngine(p), k, n


def test_chain_run_matches_the_object_engines_on_irregular_framing():
    # idle gaps between sets, streams cut off anywhere from mid-set through
    # mid-drain to fully drained, with and without pipe latency
    rng = np.random.default_rng(70)
    cut = {"mid-set": 0, "mid-drain": 0, "drained": 0}
    for case in range(60):
        p, engine, k, n = _random_chain(rng, latency=(0, 1, 5)[case % 3])
        tail = int(rng.integers(1, p.alignment + 4))
        sets = int(rng.integers(1, 5))
        cols, d1st = _stream(rng, n, p.data_bits, k, 2 * n, sets, tail)
        cut["mid-set" if tail < n else
            "drained" if tail > p.alignment else "mid-drain"] += 1
        err, comparisons, dv, res = _chain_kernel(p, cols, d1st)
        want_err, want_dv, want_res = _clock(engine, cols, d1st)
        assert err == want_err == -1
        assert (dv == want_dv).all()
        assert (res[dv] == want_res[want_dv]).all()
        assert comparisons == engine.comparisons
    assert min(cut.values()) > 0, cut


def test_chain_run_breaks_where_the_engine_raises():
    rng = np.random.default_rng(71)
    for case in range(30):
        p, engine, k, n = _random_chain(rng, latency=(0, 5)[case % 2])
        if n == 1:
            continue  # a one-cycle set has no middle
        cols, d1st = _stream(rng, n, p.data_bits, k, n, 3, p.alignment + 1)
        late = np.flatnonzero(d1st)[-1] + int(rng.integers(1, n))
        d1st[late] = 1  # mid-set marker in the last set
        err, _, dv, res = _chain_kernel(p, cols, d1st)
        want_err, want_dv, want_res = _clock(engine, cols, d1st)
        assert err == want_err == late
        assert (dv == want_dv).all()
        assert (res[dv] == want_res[want_dv]).all()


def test_wrapping_counters_resolve_by_priority_like_refine():
    # 2-bit counters, preset 1: counts 3/1/0 for boundaries 1/2/3 wrap the
    # first accumulator to 0, so the MSBs (0, 1, 0) are not thermometer-coded
    # and the priority encoder picks the middle quarter
    dv = np.zeros(3, dtype=np.uint8)
    res = np.zeros(3, dtype=np.int64)
    cols = np.array([[1], [1], [2]], dtype=np.int64)
    d1st = np.array([1, 0, 0], dtype=np.uint8)
    err, _ = _kernels.chain_run(cols, d1st, 2, 3, 1, 2, 0, dv, res)
    assert err == -1 and dv.tolist() == [0, 0, 1]
    assert res[2] == refine(0, 1, 0) == 2


def _sliding(window, rank, latency, cols, d1st):
    dv = np.zeros(len(d1st), dtype=np.uint8)
    res = np.zeros(len(d1st), dtype=np.int64)
    chain = np.full(len(d1st), -1, dtype=np.int64)
    err, comparisons = _kernels.sliding_run(cols, d1st, 8, rank, 8, latency,
                                            dv, res, chain)
    return err, comparisons, dv.astype(bool), res, chain


def test_sliding_run_matches_the_ensemble_on_irregular_markers():
    rng = np.random.default_rng(72)
    for case in range(16):
        window = (3, 5)[case % 2]
        latency = (0, 2)[case // 2 % 2]
        rank = int(rng.integers(1, window * window + 1))
        ens = SlidingEnsemble(window, rank, pipe_latency=latency)
        cols, d1st = _stream(rng, window, 8, window, 2 * window, 4,
                             int(rng.integers(1, ens.alignment + window + 2)))
        if case >= 12:  # a mid-set marker in the last window
            late = np.flatnonzero(d1st)[-1] + int(rng.integers(1, window))
            if late < len(d1st):
                d1st[late] = 1
        err, comparisons, dv, res, chain = _sliding(window, rank, latency,
                                                    cols, d1st)
        want_err = -1
        for t in range(len(d1st)):
            try:
                out = ens.clock(cols[t], bool(d1st[t]))
            except FramingError:
                want_err = t
                break
            assert dv[t] == (out is not None)
            if out is not None:
                assert res[t] == out
                assert chain[t] == ens.last_chain
        assert err == want_err
        assert not dv[ens.cycle:].any()
        if err < 0:
            # the first stage's comparisons are made once per column and
            # shared, where each object chain makes its own
            own_first = sum(c.stages[0].comparisons for c in ens.chains)
            shared_first = 3 * window * len(d1st)
            assert comparisons == (sum(c.comparisons for c in ens.chains)
                                   - own_first + shared_first)


def _int64_search(cols, starts, set_cycles, data_bits, rank, counter_bits):
    """The set search written plainly in int64: every comparison summed over
    each set's (K, N) samples, MSB tests on exact sums, ``np.select`` as the
    priority encoder.  The reference the narrow sample-major kernel must
    match exactly."""
    windows = sliding_window_view(cols, set_cycles, axis=0)
    sets = windows[starts].astype(np.int64)
    preset = (1 << (counter_bits - 1)) - rank
    msb = 1 << (counter_bits - 1)
    pre = np.zeros(len(starts), np.int64)
    for s in range(data_bits // 2):
        q = 1 << (data_bits - 2 * s - 2)
        m1, m2, m3 = (
            ((preset + (sets >= (pre + k * q)[:, None, None]).sum(axis=(1, 2)))
             & msb) != 0 for k in (1, 2, 3))
        pre += q * np.select([m3, m2, m1], [3, 2, 1], 0)
    return pre


def _samples(rng, bits, shape):
    """Random samples with the extremes 0 and 2**bits - 1 well represented."""
    top = (1 << bits) - 1
    drawn = rng.integers(0, top + 1, size=shape)
    extreme = np.where(rng.random(shape) < 0.5, 0, top)
    return np.where(rng.random(shape) < 0.6, drawn, extreme).astype(np.int64)


def _framed(rng, framing, n, channels, bits, sets):
    """Columns and markers of ``sets`` sets of ``n`` cycles, back to back
    ("regular"), with idle gaps ("gapped"), or with a mid-set marker in the
    last set ("broken").  The stream ends a random tail after the last set
    starts, anywhere from mid-set to past its result at latency 5 or less."""
    gaps = (rng.integers(0, 2 * n + 1, size=sets) if framing == "gapped"
            else np.zeros(sets, dtype=np.int64))
    starts = np.cumsum(n + gaps) - n - gaps[0]
    shortest = n if framing == "broken" else 1
    total = int(starts[-1]) + int(rng.integers(shortest,
                                               bits // 2 * (n + 5) + 2))
    d1st = np.zeros(total, dtype=np.uint8)
    d1st[starts] = 1
    if framing == "broken" and n > 1:
        d1st[starts[-1] + int(rng.integers(1, n))] = 1
    return _samples(rng, bits, (total, channels)), d1st


def _kernel_pair(monkeypatch, run):
    """``run()`` with the narrow kernel, then with the int64 reference."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_search", _int64_search)
        want = run()
    return got, want


def _run_chain(cols, d1st, bits, n, rank, counter_bits, latency):
    dv = np.zeros(len(d1st), dtype=np.uint8)
    res = np.zeros(len(d1st), dtype=np.int64)
    out = _kernels.chain_run(cols, d1st, bits, n, rank, counter_bits, latency,
                             dv, res)
    return out, dv.tolist(), res.tolist()


@pytest.mark.parametrize("bits", [2, 8, 10, 16])
def test_narrow_planes_match_the_int64_search_across_widths(monkeypatch, bits):
    # B = 8 and 10 sit on both sides of the uint8/uint16 plane switch
    rng = np.random.default_rng(80 + bits)
    seen = set()
    for case in range(36):
        framing = ("regular", "gapped", "broken")[case % 3]
        k = case % 9 + 1
        n = int(rng.integers(1, 8))
        rank = int(rng.integers(1, n * k + 1))
        cols, d1st = _framed(rng, framing, n, k, bits, int(rng.integers(1, 9)))
        seen.update(np.unique(cols).tolist())
        got, want = _kernel_pair(monkeypatch, lambda: _run_chain(
            cols, d1st, bits, n, rank, 8, case % 6))
        assert got == want
    assert {0, (1 << bits) - 1} <= seen


@pytest.mark.parametrize("counter_bits", range(2, 13))
def test_wrapping_accumulators_match_the_int64_search(monkeypatch,
                                                      counter_bits):
    # N*K >= 256 wraps a uint8 accumulator; C > 8 takes a wider one
    rng = np.random.default_rng(90 + counter_bits)
    fired = 0
    for case in range(6):
        framing = ("regular", "gapped", "broken")[case % 3]
        k = int(rng.integers(1, 10))
        n = -(-int(rng.integers(256, 352)) // k)
        rank = int(rng.integers(1, min(n * k, 1 << (counter_bits - 1)) + 1))
        bits = int(rng.choice([2, 8, 10]))
        cols, d1st = _framed(rng, framing, n, k, bits, int(rng.integers(1, 4)))
        got, want = _kernel_pair(monkeypatch, lambda: _run_chain(
            cols, d1st, bits, n, rank, counter_bits, case % 3))
        assert got == want
        fired += sum(got[1])
    assert fired


@pytest.mark.parametrize("counter_bits", [16, 17, 32, 33, 63])
def test_wide_accumulators_match_the_int64_search(monkeypatch, counter_bits):
    # up to 63 bits, the widest the int64 reference can hold
    rng = np.random.default_rng(counter_bits)
    for case in range(4):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        rank = int(rng.integers(1, n * k + 1))
        cols, d1st = _framed(rng, "gapped", n, k, 16, 5)
        got, want = _kernel_pair(monkeypatch, lambda: _run_chain(
            cols, d1st, 16, n, rank, counter_bits, 2))
        assert got == want


def test_blocks_of_sets_join_seamlessly(monkeypatch):
    # a few sets per block: every block edge falls between two sets
    rng = np.random.default_rng(96)
    for framing in ("regular", "gapped", "broken"):
        cols, d1st = _framed(rng, framing, 7, 3, 8, 40)
        whole = _run_chain(cols, d1st, 8, 7, 11, 8, 1)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_BLOCK", 3 * 7 * 3)
            assert _run_chain(cols, d1st, 8, 7, 11, 8, 1) == whole
        assert sum(whole[1]) > 3


def test_sliding_windows_match_the_int64_search(monkeypatch):
    # the W chains' windows overlap, one column apart
    rng = np.random.default_rng(95)
    for case in range(18):
        window = (1, 3, 5, 7, 9)[case % 5]
        bits = (2, 8, 10, 16)[case % 4]
        framing = ("regular", "gapped", "broken")[case % 3]
        rank = int(rng.integers(1, window * window + 1))
        cols, d1st = _framed(rng, framing, window, window, bits,
                             int(rng.integers(1, 7)))

        def run():
            dv = np.zeros(len(d1st), dtype=np.uint8)
            res = np.zeros(len(d1st), dtype=np.int64)
            chain = np.full(len(d1st), -1, dtype=np.int64)
            out = _kernels.sliding_run(cols, d1st, bits, rank, 8, case % 3,
                                       dv, res, chain)
            return out, dv.tolist(), res.tolist(), chain.tolist()

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
