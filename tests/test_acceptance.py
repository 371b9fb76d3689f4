"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here: rank results are exact, frame rates
carry +/-0.1 fps, and cycle accounting must land within the fixed drain
overhead.
"""

import time

import numpy as np

from rankpipe import (
    Border,
    Diamond,
    FilterParams,
    McParams,
    PartialMedian,
    Rect,
    SlidingParams,
    Stage,
    boundaries,
    cli,
    comparison_count,
    ensemble9753_results,
    filter_image,
    frame_rate,
    mc_stream_cycles,
    refine,
    run_filter,
    run_stream,
    run_windows,
    sliding_cycles,
    stream_cycles,
)
from rankpipe.imaging import engines_for, window_size
from rankpipe.oracle import filter_image_oracle, select_desc


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_oracle_equivalence_10000_random_sets():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    widths = np.array([2, 4, 8, 10, 16])
    for _ in range(10_000):
        bits = int(widths[rng.integers(len(widths))])
        n = int(rng.integers(1, 251))
        lo, hi = max(1, n - 127), min(n, 128)
        m = int(rng.integers(lo, hi + 1))
        data = rng.integers(0, 1 << bits, size=n)
        params = FilterParams(data_bits=bits, set_size=n, rank=m)
        got = run_stream(params, data)
        assert got.tolist() == [select_desc(data.tolist(), m)], \
            (bits, n, m, data)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime target missed: {elapsed:.1f}s"
    report(1, f"oracle equivalence, 10000 randomized sets ({elapsed:.1f}s)")


def test_02_two_stage_worked_example():
    # a set whose count(>=192) < M <= count(>=128): 13 values in [128, 191]
    data = [131 + 4 * k for k in range(13)] + [5 * k % 64 for k in range(12)]
    stage1 = Stage(FilterParams(8, 25, 13))
    outs = []
    for i, x in enumerate(data):
        out = stage1.clock(x, i == 0, PartialMedian())
        if out is not None:
            outs.append(out)
    for _ in range(stage1.params.pipe_latency):
        out = stage1.clock(0, False, None)
        if out is not None:
            outs.append(out)
    (pm,) = outs
    assert pm == PartialMedian(prefix=128, bits_resolved=2)
    assert boundaries(pm, 8) == (144, 160, 176)
    report(2, "stage 1 resolves [128, 191]; stage 2 boundaries 144/160/176")


def test_03_refinement_truth_table_exhaustive():
    table = {
        (0, 0, 0): 0b00, (0, 0, 1): 0b01,
        (0, 1, 0): 0b10, (0, 1, 1): 0b10,
        (1, 0, 0): 0b11, (1, 0, 1): 0b11,
        (1, 1, 0): 0b11, (1, 1, 1): 0b11,
    }
    for msbs, expected in table.items():
        assert refine(*msbs) == expected, msbs
    report(3, "refinement truth table, all 8 rows incl. don't-cares")


def test_04_preset_comparator_exhaustive():
    for rank in range(1, 129):
        preset = 128 - rank
        for count in range(0, rank + 128):
            acc = (preset + count) & 0xFF
            assert bool(acc & 0x80) == (count >= rank), (rank, count)
    report(4, "preset trick: bit 7 equals count>=M for every (M, count)")


def test_05_back_to_back_throughput_and_comparison_tallies():
    rng = np.random.default_rng(5)
    for n, sets in ((3, 8), (25, 6)):
        params = FilterParams(data_bits=8, set_size=n, rank=(n + 1) // 2)
        data = rng.integers(0, 256, size=n * sets)
        trace = stream_cycles(params, data)
        dv_at = np.flatnonzero(trace.dv)
        assert len(dv_at) == sets
        assert dv_at[0] == params.alignment
        assert set(np.diff(dv_at).tolist()) == {n}, "gap between data sets"
        assert trace.comparisons == comparison_count(params, sets)
        assert comparison_count(params, 1) == 3 * n * 4
    report(5, "dv spacing exactly N for N=3 and N=25; tallies 3*N*(B/2) exact")


def test_06_rank_modes_max_2nd_3rd_median_min():
    rng = np.random.default_rng(6)
    data = rng.integers(0, 256, size=9)
    for m in (1, 2, 3, 5, 9):
        params = FilterParams(data_bits=8, set_size=9, rank=m)
        got = run_stream(params, data)
        assert got.tolist() == [select_desc(data.tolist(), m)], m
    report(6, "one 9-sample set at M in {1,2,3,5,9} equals the oracle")


def test_07_multichannel_9x11_and_degenerate_single_channel():
    rng = np.random.default_rng(7)
    params = McParams(channels=9, columns=11, rank=31)
    windows = rng.integers(0, 256, size=(100, 11, 9))
    got = run_windows(params, windows.reshape(100 * 11, 9))
    expected = [select_desc(w.reshape(-1).tolist(), 31) for w in windows]
    assert got.tolist() == expected
    # K=1 engine against the core engine, cycle for cycle
    data = rng.integers(0, 256, size=7 * 6)
    mc = mc_stream_cycles(McParams(channels=1, columns=7, rank=3),
                          data.reshape(-1, 1))
    sc = stream_cycles(FilterParams(data_bits=8, set_size=7, rank=3), data)
    assert mc.cycles == sc.cycles
    assert (mc.dv == sc.dv).all()
    assert (mc.result[mc.dv] == sc.result[sc.dv]).all()
    assert (mc.dout.reshape(-1) == sc.dout).all()
    report(7, "100 random 9x11 windows at M=31; K=1 engine cycle-identical")


def test_08_sliding_9x64_strip_one_result_per_clock():
    rng = np.random.default_rng(8)
    strip = rng.integers(0, 256, size=(9, 64))
    trace = sliding_cycles(SlidingParams(9, 9, 48), strip.T)
    n_starts = 64 - 9 + 1
    dv_at = np.flatnonzero(trace.dv)
    assert dv_at[0] == trace.delay
    assert set(np.diff(dv_at).tolist()) == {1}, "output rate below 1/clock"
    got = trace.results[:n_starts]
    expected = [select_desc(strip[:, c:c + 9].reshape(-1).tolist(), 48)
                for c in range(n_starts)]
    assert got.tolist() == expected
    report(8, "9x64 strip at M=48: 1 result/clock, all 56 windows exact")


def test_09_ensemble9753_cadence_and_enables(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    for trial in range(3):
        strip = rng.integers(0, 256, size=(9, 36))
        cycles, quads = ensemble9753_results(strip.T)
        assert len(quads) == 4
        assert set(np.diff(cycles).tolist()) == {9}, "cadence is not 9 clocks"
        for k, quad in enumerate(quads):
            for (w, m), got in zip(((9, 41), (7, 25), (5, 13), (3, 5)), quad):
                off = (9 - w) // 2
                sub = strip[off:off + w, 9 * k + off:9 * k + off + w]
                assert got == select_desc(sub.reshape(-1).tolist(), m)
    # enable columns in the exported trace
    import io
    import sys
    stdin = " ".join(str(v) for v in rng.integers(0, 256, size=9 * 18))
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out_csv = tmp_path / "t9753.csv"
    assert cli.main(["trace", "-o", str(out_csv), "--engine", "9753"]) == 0
    capsys.readouterr()
    lines = out_csv.read_text().splitlines()
    header = lines[0].split(",")
    idx = {k: header.index(k) for k in ("en7", "en5", "en3")}
    active = {k: set() for k in idx}
    for row in lines[1:]:
        fields = row.split(",")
        for k in idx:
            if fields[idx[k]] == "1":
                active[k].add(int(fields[0]) % 9)
    assert active["en7"] == set(range(1, 8))
    assert active["en5"] == set(range(2, 7))
    assert active["en3"] == set(range(3, 6))
    report(9, "9753 quadruples every 9 clocks match concentric oracles; "
              "EN7/EN5/EN3 gate the middle 7/5/3 phases")


def test_10_frame_rate_table_and_measured_cycles(capsys):
    table = [(9, 38.8), (25, 13.9), (15, 23.3), (21, 16.6), (13, 26.8),
             (25, 13.9)]
    for n, fps in table:
        got = frame_rate(275e6, 1024, 768, n)
        assert abs(got - fps) <= 0.1, (n, got, fps)
    # simulated cycles/result on a 64x48 image stay within the drain overhead
    rng = np.random.default_rng(10)
    image = rng.integers(0, 256, size=(48, 64))
    shape = Rect(5, 5)
    n = window_size(shape)
    params = FilterParams(data_bits=8, set_size=n, rank=13)
    rep = run_filter(image, shape, 13, data_bits=8)
    assert 0 <= rep.cycles - image.size * n <= params.drain_cycles
    assert cli.main(["bench", "--window", "5x5", "--image-dims",
                     "64x48"]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("5x5")][0]
    measured = float(row.split()[4])
    quantization = 0.5e-3 * image.size  # the table prints 3 decimals
    assert 0 <= (measured - n) * image.size <= params.drain_cycles + quantization
    report(10, "published frame rates within 0.1 fps; 64x48 simulation "
               "within the drain overhead")


def test_11_cross_engine_image_invariance():
    rng = np.random.default_rng(11)
    image = rng.integers(0, 256, size=(64, 64))
    for shape in (Rect(3, 3), Rect(5, 5), Diamond(5)):
        n = window_size(shape)
        m = (n + 1) // 2
        reference = filter_image_oracle(image, shape, m, Border.CLAMP)
        for engine in engines_for(shape):
            got = filter_image(image, shape, m, engine=engine,
                               border=Border.CLAMP, data_bits=8)
            assert (got == reference).all(), (shape, engine)
    report(11, "64x64 image: single/multichannel/sliding outputs "
               "bit-identical to the oracle for 3x3, 5x5, diamond5")
