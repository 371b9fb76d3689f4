"""Command-line surface: argument handling, exit codes, output formats,
and trace determinism."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankpipe import (
    Border,
    Ensemble9753,
    Engine,
    FilterParams,
    McParams,
    Rect,
    SlidingParams,
    cli,
    imaging,
    mc_stream_cycles,
    pgm,
    stream_cycles,
)
from rankpipe.imaging import infer_data_bits
from rankpipe.oracle import filter_image_oracle, select_desc


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_median_of_nine(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 1 4 1 5 9 2 6 5\n")
        code, out, _ = run_cli(capsys, ["rank", str(path), "--set-size", "9",
                                        "--rank", "5"])
        assert code == 0
        assert out.split() == ["4"]

    def test_eight_sets_of_three(self, capsys, monkeypatch):
        rng = np.random.default_rng(60)
        values = rng.integers(0, 256, size=24).tolist()
        stdin = " ".join(str(v) for v in values)
        code, out, _ = run_cli(capsys, ["rank", "--set-size", "3",
                                        "--percentile", "0.5", "--check"],
                               stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        got = [int(v) for v in out.split()]
        assert got == [select_desc(values[i:i + 3], 2)
                       for i in range(0, 24, 3)]

    def test_empty_input_is_fine(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["rank", "--set-size", "1", "--rank", "1"],
                               stdin="", monkeypatch=monkeypatch)
        assert code == 0
        assert out == ""

    def test_whitespace_only_input_is_empty(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["rank", "--set-size", "1",
                                          "--rank", "1"],
                                 stdin="   \n", monkeypatch=monkeypatch)
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("token,message", [
        # 19 digits, below 2**63: parsed exactly, then too wide a sample
        ("9223372036854775807", "data_bits must be in [2, 16], got 64"),
        ("9223372036854775808", "samples in the input stream must be below "
                                "2**63")])
    def test_tokens_at_the_int64_edge(self, capsys, monkeypatch, token,
                                      message):
        code, out, err = run_cli(capsys, ["rank", "--set-size", "2",
                                          "--rank", "1"],
                                 stdin=f"{token} 5\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("size,rank", [(256, 128), (250, 1), (300, 7)])
    def test_sets_past_the_reference_widths(self, capsys, monkeypatch, size,
                                            rank):
        # the records derive the counter width from N and M
        values = np.random.default_rng(size).integers(0, 256, size=3 * size)
        code, out, err = run_cli(
            capsys, ["rank", "--set-size", str(size), "--rank", str(rank),
                     "--check"],
            stdin=" ".join(map(str, values.tolist())), monkeypatch=monkeypatch)
        assert code == 0, err
        assert [int(v) for v in out.split()] == [
            select_desc(values[i:i + size], rank)
            for i in range(0, len(values), size)]

    def test_count_must_divide(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["rank", "--set-size", "4", "--rank", "1"],
                               stdin="1 2 3", monkeypatch=monkeypatch)
        assert code == 1
        assert "multiple" in err

    def test_non_integer_token(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["rank", "--set-size", "1", "--rank", "1"],
                               stdin="1 two 3", monkeypatch=monkeypatch)
        assert code == 1
        assert err == ("error: bad sample in the input stream: 'two' at "
                       "index 1\n")

    @pytest.mark.parametrize("argv", [
        ["rank", "--set-size", "3", "--rank", "1"],
        ["rank", "--set-size", "3", "--rank", "1", "--data-bits", "8"],
        ["trace", "-o", "unused.csv", "--engine", "9753"]])
    def test_negative_samples_are_rejected(self, capsys, monkeypatch, argv):
        code, _, err = run_cli(capsys, argv, stdin=" ".join(["7", "-2"] * 81),
                               monkeypatch=monkeypatch)
        assert code == 1
        assert "non-negative" in err

    @pytest.mark.parametrize("token", ["18446744073709551616",
                                       "9223372036854775808", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["rank", "--set-size", "2", "--rank", "1"],
        ["trace", "-o", "unused.csv", "--set-size", "2", "--rank", "1"],
        ["trace", "-o", "unused.csv", "--engine", "multichannel",
         "--window", "1x2", "--rank", "1"],
        ["trace", "-o", "unused.csv", "--engine", "sliding", "--window",
         "1x1", "--rank", "1"],
        ["trace", "-o", "unused.csv", "--engine", "9753"]])
    def test_tokens_outside_int64_are_errors(self, capsys, monkeypatch, argv,
                                             token):
        stdin = " ".join([token] + ["5"] * 17)
        code, _, err = run_cli(capsys, argv, stdin=stdin,
                               monkeypatch=monkeypatch)
        assert code == 1
        assert err.startswith("error:") and "input stream" in err

    def test_rank_xor_percentile(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["rank", "--set-size", "3"],
                               stdin="1 2 3", monkeypatch=monkeypatch)
        assert code == 1
        code, _, err = run_cli(capsys, ["rank", "--set-size", "3", "--rank", "1",
                                        "--percentile", "0.5"],
                               stdin="1 2 3", monkeypatch=monkeypatch)
        assert code == 1

    def test_check_mismatch_exits_2(self, capsys, monkeypatch):
        run_stream = cli.run_stream

        def corrupted(params, values):  # the second set's result is off
            results = run_stream(params, values)
            results[1] += 1
            return results

        monkeypatch.setattr(cli, "run_stream", corrupted)
        code, _, err = run_cli(capsys, ["rank", "--set-size", "3", "--rank",
                                        "1", "--check"],
                               stdin="1 2 3 4 5 6 7 8 9",
                               monkeypatch=monkeypatch)
        assert code == 2
        assert err == "check failed: set 1: engine said 7, oracle says 6\n"


class TestFilter:
    @pytest.fixture
    def image_file(self, tmp_path):
        rng = np.random.default_rng(61)
        img = rng.integers(0, 256, size=(10, 12))
        path = tmp_path / "in.pgm"
        pgm.write_pgm(path, img, 255)
        return path, img

    def test_median_filter_file_flow(self, capsys, tmp_path, image_file):
        in_path, img = image_file
        out_path = tmp_path / "out.pgm"
        code, out, _ = run_cli(capsys, ["filter", str(in_path), str(out_path),
                                        "--window", "5x5",
                                        "--percentile", "0.5"])
        assert code == 0
        assert "N=25" in out and "M=13" in out
        assert "fps" in out and "cycles" in out
        result, maxval = pgm.read_pgm(out_path)
        assert maxval == 255
        ref = filter_image_oracle(img, Rect(5, 5), 13, Border.CLAMP)
        assert (result == ref).all()

    @pytest.mark.parametrize("raised,message", [
        (MemoryError("Unable to allocate 4.00 GiB for an array"),
         "error: out of memory: Unable to allocate 4.00 GiB for an array\n"),
        (MemoryError(), "error: out of memory\n")], ids=["numpy", "bare"])
    def test_running_out_of_memory_is_an_error(self, capsys, tmp_path,
                                               monkeypatch, image_file,
                                               raised, message):
        def exhausted(*args, **kwargs):
            raise raised

        monkeypatch.setattr(imaging, "run_filter", exhausted)
        code, out, err = run_cli(capsys, ["filter", str(image_file[0]),
                                          str(tmp_path / "out.pgm"),
                                          "--window", "3x3", "--rank", "5"])
        assert (code, out, err) == (1, "", message)

    def test_rank_one_is_a_local_maximum_filter(self, capsys, tmp_path,
                                                image_file):
        in_path, img = image_file
        out_path = tmp_path / "out.pgm"
        code, out, _ = run_cli(capsys, ["filter", str(in_path), str(out_path),
                                        "--window", "diamond5", "--rank", "1"])
        assert code == 0
        assert "N=13" in out and "M=1" in out
        result, _ = pgm.read_pgm(out_path)
        from rankpipe import Diamond
        assert (result == filter_image_oracle(img, Diamond(5), 1)).all()

    def test_sliding_engine_selection(self, capsys, tmp_path, image_file):
        in_path, img = image_file
        out_path = tmp_path / "out.pgm"
        code, out, _ = run_cli(capsys, ["filter", str(in_path), str(out_path),
                                        "--window", "9x9", "--engine",
                                        "sliding", "--rank", "48"])
        assert code == 0
        assert "N=81" in out and "M=48" in out
        result, _ = pgm.read_pgm(out_path)
        assert (result == filter_image_oracle(img, Rect(9, 9), 48)).all()

    def test_frame_rate_from_the_measured_cycles(self, capsys, tmp_path,
                                                 image_file):
        in_path, img = image_file
        code, out, _ = run_cli(capsys, ["filter", str(in_path),
                                        str(tmp_path / "out.pgm"),
                                        "--window", "5x5", "--engine",
                                        "sliding", "--rank", "13",
                                        "--clock", "1e6"])
        assert code == 0
        height, width = img.shape
        cycles = int(out.split("cycles: ")[1].split()[0])
        assert f"cycles: {cycles} simulated ({cycles / img.size:.3f} per " \
               "result)" in out
        assert cycles < 25 * img.size  # sliding beats the formula's N
        formula = 1e6 / (width * height * 25)
        measured = 1e6 / (width * height * (cycles / img.size))
        assert (f"frame rate: {formula:.2f} fps at 1.0 MHz (single-core "
                f"formula), {measured:.2f} fps measured (sliding)") in out

    def test_9753_is_not_an_image_engine(self, capsys, tmp_path, image_file):
        in_path, _ = image_file
        code, _, err = run_cli(capsys, ["filter", str(in_path),
                                        str(tmp_path / "out.pgm"),
                                        "--window", "9x9", "--engine", "9753",
                                        "--rank", "41"])
        assert code == 1
        assert "9753 ensemble is a trace engine" in err

    def test_rank_above_window_size(self, capsys, tmp_path, image_file):
        in_path, _ = image_file
        code, _, err = run_cli(capsys, ["filter", str(in_path),
                                        str(tmp_path / "out.pgm"),
                                        "--window", "3x3", "--rank", "10"])
        assert code == 1

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["filter", str(tmp_path / "none.pgm"),
                                        str(tmp_path / "out.pgm"),
                                        "--window", "3x3", "--rank", "1"])
        assert code == 1

    @pytest.mark.parametrize("engine,window,params", [
        ("single", "diamond5", FilterParams(data_bits=8, set_size=13, rank=2)),
        ("multichannel", "5x3", McParams(channels=3, columns=5, rank=2)),
        ("sliding", "3x3", None)])
    def test_threads_keep_pixels_and_cycles(self, capsys, tmp_path,
                                            image_file, engine, window,
                                            params):
        # the three row bands of the 10-row image are one stream cut up for
        # the threads: it drains once, as with one thread
        in_path, img = image_file
        runs = []
        for threads in ("1", "3"):
            out_path = tmp_path / f"out{threads}.pgm"
            code, out, _ = run_cli(capsys, ["filter", str(in_path),
                                            str(out_path), "--window", window,
                                            "--engine", engine, "--rank", "2",
                                            "--threads", threads])
            assert code == 0
            runs.append((out_path.read_bytes(), out.split("cycles: ")[1]))
        assert runs[1] == runs[0]
        if params is not None:
            cycles = int(runs[0][1].split()[0])
            assert cycles == img.size * params.set_cycles + params.drain_cycles

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, capsys, tmp_path, image_file,
                                      threads):
        in_path, _ = image_file
        code, out, err = run_cli(capsys, ["filter", str(in_path),
                                          str(tmp_path / "out.pgm"),
                                          "--window", "3x3", "--rank", "5",
                                          "--threads", threads])
        assert code == 1 and out == ""
        assert err == f"error: threads must be at least 1, got {threads}\n"

    @pytest.mark.parametrize("clock", ["nan", "inf", "0", "-5"])
    def test_the_clock_must_be_positive_and_finite(self, capsys, tmp_path,
                                                   image_file, clock):
        in_path, _ = image_file
        code, out, err = run_cli(capsys, ["filter", str(in_path),
                                          str(tmp_path / "out.pgm"),
                                          "--window", "3x3", "--rank", "5",
                                          "--clock", clock])
        assert code == 1 and out == ""
        assert "positive and finite" in err
        assert not (tmp_path / "out.pgm").exists()

    def test_ascii_output_round_trip(self, capsys, tmp_path, image_file):
        in_path, img = image_file
        out_path = tmp_path / "out.pgm"
        code, _, _ = run_cli(capsys, ["filter", str(in_path), str(out_path),
                                      "--window", "3x3", "--rank", "5",
                                      "--ascii"])
        assert code == 0
        assert out_path.read_bytes().startswith(b"P2\n")

    @pytest.mark.parametrize("text,line", [("0 0\n0 zero\n", "0 zero"),
                                           ("0 1.5\n", "0 1.5")])
    def test_custom_window_offsets_must_be_integers(self, capsys, tmp_path,
                                                    image_file, text, line):
        in_path, _ = image_file
        window = tmp_path / "Win.txt"
        window.write_text(text)
        code, out, err = run_cli(capsys, ["filter", str(in_path),
                                          str(tmp_path / "out.pgm"),
                                          "--window", f"Custom={window}",
                                          "--rank", "1"])
        assert (code, out) == (1, "")
        number = text.count("\n")
        assert err == (f"error: custom window line {number} must be two "
                       f"integers 'dx dy', got {line!r}\n")

    @pytest.mark.parametrize("raster,found", [(b"1 2 3 4 5", 5),
                                              (b"1 2 3 4 5 6 7\n", 7)])
    def test_p2_sample_count_must_match(self, capsys, tmp_path, raster,
                                        found):
        in_path = tmp_path / "in.pgm"
        in_path.write_bytes(b"P2\n3 2\n255\n" + raster)
        code, out, err = run_cli(capsys, ["filter", str(in_path),
                                          str(tmp_path / "out.pgm"),
                                          "--window", "3x3", "--rank", "5"])
        assert (code, out) == (1, "")
        assert err == f"error: expected 6 ASCII samples, found {found}\n"


@pytest.mark.parametrize("size", ["0", "-3"])
@pytest.mark.parametrize("pick", [["--rank", "1"], ["--percentile", "0.5"]],
                         ids=["rank", "percentile"])
@pytest.mark.parametrize("command", ["rank", "trace"])
def test_a_set_size_below_one_is_one_error(capsys, tmp_path, monkeypatch,
                                           command, pick, size):
    # rank and single-engine trace check the size before resolving a rank
    out_csv = tmp_path / "t.csv"
    argv = [command, "--set-size", size] + pick
    if command == "trace":
        argv += ["-o", str(out_csv)]
    code, out, err = run_cli(capsys, argv, stdin="1 2 3",
                             monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: --set-size must be positive\n")
    assert not out_csv.exists()


class TestTrace:
    def test_dv_pulses_every_n_rows(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(62)
        stdin = " ".join(str(v) for v in rng.integers(0, 256, size=24))
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, ["trace", "-o", str(out_csv),
                                      "--set-size", "3", "--rank", "2"],
                             stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "cycle,d1st,din0,dv,dout0,result"
        dv_cycles = [int(row.split(",")[0]) for row in lines[1:]
                     if row.split(",")[3] == "1"]
        assert len(dv_cycles) == 8
        assert set(np.diff(dv_cycles).tolist()) == {3}
        # result is blank exactly when dv is low
        for row in lines[1:]:
            fields = row.split(",")
            assert (fields[5] != "") == (fields[3] == "1")

    def test_single_set_has_exactly_one_dv_row(self, capsys, tmp_path,
                                               monkeypatch):
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, ["trace", "-o", str(out_csv),
                                      "--set-size", "5", "--rank", "3"],
                             stdin="10 20 30 40 50", monkeypatch=monkeypatch)
        assert code == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert sum(row.split(",")[3] == "1" for row in rows) == 1

    def test_an_empty_trace_of_a_huge_set_is_refused(self, capsys, tmp_path,
                                                     monkeypatch):
        # no sets, but the drain alone would frame terabytes at N = 2**40
        out_csv = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, ["trace", "-o", str(out_csv),
                                          "--set-size", "1099511627776",
                                          "--rank", "1", "--data-bits", "8"],
                                 stdin="", monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_csv.exists()

    def test_traces_are_deterministic_bytes(self, capsys, tmp_path,
                                            monkeypatch):
        rng = np.random.default_rng(63)
        stdin = " ".join(str(v) for v in rng.integers(0, 256, size=27))
        blobs = []
        for name in ("a.csv", "b.csv"):
            out_csv = tmp_path / name
            code, _, _ = run_cli(capsys, ["trace", "-o", str(out_csv),
                                          "--set-size", "9",
                                          "--percentile", "0.5"],
                                 stdin=stdin, monkeypatch=monkeypatch)
            assert code == 0
            blobs.append(out_csv.read_bytes())
        assert blobs[0] == blobs[1]

    def test_multichannel_trace_header(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(64)
        stdin = " ".join(str(v) for v in rng.integers(0, 256, size=3 * 8))
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, ["trace", "-o", str(out_csv), "--engine",
                                      "multichannel", "--window", "4x3",
                                      "--rank", "6"],
                             stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        header = out_csv.read_text().splitlines()[0]
        assert header == ("cycle,d1st,din0,din1,din2,dv,dout0,dout1,dout2,"
                          "result")

    @pytest.mark.parametrize("args,size,step", [
        (["--set-size", "256"], 256, 256),
        (["--engine", "multichannel", "--window", "16x16"], 256, 256),
        (["--engine", "sliding", "--window", "17x17"], 289, 17)])
    def test_windows_past_the_reference_widths(self, capsys, tmp_path,
                                               monkeypatch, args, size, step):
        values = np.random.default_rng(size).integers(0, 256, size=2 * size)
        out_csv = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, ["trace", "-o", str(out_csv), *args,
                                        "--rank", "1"],
                               stdin=" ".join(map(str, values.tolist())),
                               monkeypatch=monkeypatch)
        assert code == 0, err
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [int(row["result"]) for row in rows if row["dv"] == "1"]
        # window k starts at sample k * step; the strip tail reads zeros
        padded = np.concatenate([values, np.zeros(size, values.dtype)])
        assert got == [max(padded[k * step:k * step + size])
                       for k in range(len(got))]
        assert len(got) == len(values) // step

    def test_9753_trace_enables_follow_the_schedule(self, capsys, tmp_path,
                                                    monkeypatch):
        rng = np.random.default_rng(65)
        stdin = " ".join(str(v) for v in rng.integers(0, 256, size=9 * 18))
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, ["trace", "-o", str(out_csv),
                                      "--engine", "9753"],
                             stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        header = lines[0].split(",")
        i7, i5, i3 = (header.index(k) for k in ("en7", "en5", "en3"))
        from rankpipe import enable_schedule
        for row in lines[1:]:
            fields = row.split(",")
            phase = int(fields[0]) % 9
            assert fields[i7] == str(int(enable_schedule(7, phase)))
            assert fields[i5] == str(int(enable_schedule(5, phase)))
            assert fields[i3] == str(int(enable_schedule(3, phase)))

    @pytest.mark.parametrize("engine,option", [
        pytest.param(engine, option, id=f"{engine}-{option[0][2:]}")
        for engine, option in [
            ("single", ["--window", "3x3"]),
            ("single", ["--ranks", "41,25,13,5"]),
            ("multichannel", ["--set-size", "9"]),
            ("multichannel", ["--ranks", "41,25,13,5"]),
            ("sliding", ["--set-size", "9"]),
            ("sliding", ["--ranks", "41,25,13,5"]),
            ("9753", ["--set-size", "9"]),
            ("9753", ["--window", "3x3"]),
            ("9753", ["--rank", "5"]),
            ("9753", ["--percentile", "0.5"])]])
    def test_an_option_the_engine_ignores_is_refused(self, capsys, tmp_path,
                                                     engine, option):
        own = {"single": ["--set-size", "9", "--rank", "5"],
               "multichannel": ["--window", "3x3", "--rank", "5"],
               "sliding": ["--window", "3x3", "--rank", "5"],
               "9753": []}[engine]
        src, dst = tmp_path / "in.txt", tmp_path / "out.csv"
        src.write_text(" ".join(["4"] * 162))
        argv = ["trace", str(src), "-o", str(dst), "--engine", engine, *own]
        code, out, err = run_cli(capsys, argv + option)
        assert (code, out) == (1, "")
        assert err == f"error: {option[0]} does not apply to {engine} traces\n"
        assert not dst.exists()  # refused before anything is written
        assert run_cli(capsys, argv)[0] == 0  # its own options are valid


def render_csv(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("ascii")


def percent_rendered(header, rows) -> bytes:
    """The CSV as a ``%d`` line template per row renders it, with every
    "-1" (BLANK; no sample is negative) cleared."""
    line = ",".join(["%d"] * rows.shape[1]) + "\n"
    text = line * len(rows) % tuple(rows.ravel().tolist())
    return (",".join(header) + "\n" + text.replace("-1", "")).encode("ascii")


def trace_header(channels, tail):
    return (["cycle", "d1st"] + [f"din{k}" for k in range(channels)] + ["dv"]
            + [f"dout{k}" for k in range(channels)] + tail)


def clocked_stream_csv(engine, values, window, rank) -> bytes:
    """A per-clock trace rendered row by row from the clocked engine of the
    engine's record.

    ``window`` is the set size for the single engine, else (width, height).
    """
    bits = infer_data_bits(values)
    if engine == "single":
        p = FilterParams(data_bits=bits, set_size=window, rank=rank)
        channels = 1
    else:
        width, channels = window
        record = SlidingParams if engine == "sliding" else McParams
        p = record(channels=channels, columns=width, rank=rank, data_bits=bits)
    eng = Engine(p)
    cols = values.reshape((-1,) + p.lanes)
    n = len(cols)
    rows = []
    for t in range(p.cycles(p.starts(n))):
        col = cols[t] if t < n else np.zeros(p.lanes, dtype=np.int64)
        d1st = t < n and t % p.set_cycles == 0
        out = eng.clock(col, d1st)
        rows.append([t, int(d1st), *np.ravel(col).tolist(), int(out.dv),
                     *np.ravel(out.dout).tolist(),
                     int(out.result) if out.dv else ""])
    return render_csv(trace_header(channels, ["result"]), rows)


def clocked_9753_csv(values, ranks) -> bytes:
    """A 9753 trace from clocking Ensemble9753 column by column over the
    strip and a margin past it, cut at the last quadruple or the strip's
    end.  Every anchored window has emerged by then, so no quadruple
    follows in the margin."""
    cols = values.reshape(-1, 9)
    bits = infer_data_bits(values)
    ens = Ensemble9753(ranks, data_bits=bits)
    n = cols.shape[0]
    zero = np.zeros(9, dtype=np.int64)
    d1st_log, en_log, quads = [], [], []
    # a gated chain matures a window within B/2 (9 + L) enabled columns
    for t in range(n + 9 * ((bits + 1) // 2 * (9 + 5) + 2)):
        col = cols[t] if t < n else zero
        d1st = t < n and t % 9 == 0 and t + 9 <= n
        quad = ens.clock(col, d1st=d1st)
        d1st_log.append(int(d1st))
        en_log.append(tuple(int(flag) for flag in ens.enable_flags()))
        quads.append(quad)
    dv_cycles = [t for t, quad in enumerate(quads) if quad is not None]
    assert len(dv_cycles) == n // 9
    delay = dv_cycles[0] if dv_cycles else 0
    rows = []
    for t, quad in enumerate(quads[:max([n] + [t + 1 for t in dv_cycles])]):
        col = cols[t] if t < n else zero
        dcol = cols[t - delay] if delay and 0 <= t - delay < n else zero
        row = [t, d1st_log[t]]
        row += [int(v) for v in col]
        row.append(int(quad is not None))
        row += [int(v) for v in dcol]
        row += ([int(v) for v in quad] if quad is not None
                else ["", "", "", ""])
        row += list(en_log[t])
        rows.append(row)
    header = trace_header(9, ["result9", "result7", "result5", "result3",
                              "en7", "en5", "en3"])
    return render_csv(header, rows)


class TestTraceBytes:
    """Every trace engine writes exactly what clocking its object engine and
    rendering each row through csv.writer gives."""

    def trace(self, capsys, tmp_path, values, args):
        src, dst = tmp_path / "in.txt", tmp_path / "out.csv"
        src.write_text(" ".join(str(v) for v in values.tolist()))
        code, out, err = run_cli(capsys, ["trace", str(src), "-o", str(dst),
                                          *args])
        assert code == 0, err
        data = dst.read_bytes()
        cycles = len(data.splitlines()) - 1
        assert out == f"wrote {cycles} cycles to {dst}\n"
        return data

    @pytest.mark.parametrize("bits,sets,size,rank", [
        (8, 7, 5, 2), (16, 5, 3, 2), (3, 4, 4, 4), (8, 0, 3, 1)])
    def test_single(self, capsys, tmp_path, bits, sets, size, rank):
        rng = np.random.default_rng(70 + bits)
        values = rng.integers(0, 1 << bits, size=sets * size)
        got = self.trace(capsys, tmp_path, values,
                         ["--set-size", str(size), "--rank", str(rank)])
        assert got == clocked_stream_csv("single", values, size, rank)

    @pytest.mark.parametrize("bits,window,windows,rank", [
        (8, (4, 3), 3, 6), (16, (3, 2), 4, 4), (6, (1, 5), 6, 5)])
    def test_multichannel(self, capsys, tmp_path, bits, window, windows,
                          rank):
        rng = np.random.default_rng(80 + bits)
        values = rng.integers(0, 1 << bits,
                              size=window[0] * window[1] * windows)
        got = self.trace(capsys, tmp_path, values,
                         ["--engine", "multichannel", "--window",
                          f"{window[0]}x{window[1]}", "--rank", str(rank)])
        assert got == clocked_stream_csv("multichannel", values, window, rank)

    @pytest.mark.parametrize("width,columns,rank", [(3, 7, 5), (5, 10, 13)])
    def test_sliding(self, capsys, tmp_path, width, columns, rank):
        rng = np.random.default_rng(90 + width)
        values = rng.integers(0, 256, size=width * columns)
        got = self.trace(capsys, tmp_path, values,
                         ["--engine", "sliding", "--window",
                          f"{width}x{width}", "--rank", str(rank)])
        assert got == clocked_stream_csv("sliding", values, (width, width),
                                         rank)

    @pytest.mark.parametrize("columns,ranks", [
        (5, (41, 25, 13, 5)),  # shorter than one cadence: nothing anchors
        (22, (1, 49, 13, 9)),  # partial trailing cadence, custom ranks
        (18, (41, 25, 13, 5)),
        (0, (41, 25, 13, 5))])  # empty input: the header alone
    def test_9753(self, capsys, tmp_path, columns, ranks):
        rng = np.random.default_rng(100 + columns)
        values = rng.integers(0, 256, size=9 * columns)
        got = self.trace(capsys, tmp_path, values,
                         ["--engine", "9753", "--ranks",
                          ",".join(str(m) for m in ranks)])
        assert got == clocked_9753_csv(values, ranks)

    def test_9753_honours_the_sample_width(self, capsys, tmp_path):
        rng = np.random.default_rng(110)
        strip = rng.integers(0, 1 << 12, size=(9, 18))
        got = self.trace(capsys, tmp_path, strip.T.ravel(), ["--engine", "9753"])
        assert got == clocked_9753_csv(strip.T.ravel(), (41, 25, 13, 5))
        lines = got.decode("ascii").splitlines()
        first = lines[0].split(",").index("result9")
        quads = [tuple(int(v) for v in row.split(",")[first:first + 4])
                 for row in lines[1:] if row.split(",")[first]]
        expected = []
        for anchor in (0, 9):
            expected.append(tuple(
                select_desc(strip[off:9 - off, anchor + off:anchor + 9 - off]
                            .ravel().tolist(), m)
                for off, m in zip(range(4), (41, 25, 13, 5))))
        assert quads == expected

    def test_rows_render_the_same_across_chunks(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
        values = np.random.default_rng(111).integers(0, 256, size=5 * 9)
        got = self.trace(capsys, tmp_path, values,
                         ["--set-size", "5", "--rank", "3"])
        assert got == clocked_stream_csv("single", values, 5, 3)

    def test_16_bit_samples_from_zero_to_the_top(self, capsys, tmp_path):
        rng = np.random.default_rng(112)
        values = rng.integers(0, 1 << 16, size=5 * 12)
        values[[0, 7, 31]] = 0
        values[[3, 12, 59]] = (1 << 16) - 1
        got = self.trace(capsys, tmp_path, values,
                         ["--set-size", "5", "--rank", "2"])
        assert got == clocked_stream_csv("single", values, 5, 2)
        assert b",65535," in got and b",0," in got

    def test_a_trace_past_100000_cycles(self, capsys, tmp_path):
        values = np.random.default_rng(113).integers(0, 4, size=108_000)
        got = self.trace(capsys, tmp_path, values,
                         ["--set-size", "9", "--rank", "5"])
        p = FilterParams(data_bits=2, set_size=9, rank=5)
        trace = stream_cycles(p, values)
        header, text = cli._trace_stream(trace, 1)
        assert len(text) == p.cycles(12_000) > 100_000
        # the int table of the trace's per-cycle views, BLANK off dv rows
        result = np.where(trace.dv, trace.result.astype(int), cli.BLANK)
        rows = np.column_stack([np.arange(trace.cycles), trace.d1st,
                                trace.din, trace.dv, trace.dout, result])
        assert got == percent_rendered(header, rows)
        assert got.endswith(b"\n%d,0,0,1,%d,%d\n" % (
            len(rows) - 1, values[-9], rows[-1, -1]))

    def test_a_trace_renders_in_less_memory_than_an_int64_table(
            self, tmp_path):
        # a 9-channel 8-bit trace of 22 columns: its text records take 88
        # bytes a cycle, where one int64 table of every column took 176
        p = McParams(channels=9, columns=9, rank=41, data_bits=8)
        cols = np.random.default_rng(114).integers(0, 256,
                                                   size=(11_112 * 9, 9))
        trace = mc_stream_cycles(p, cols)
        assert trace.cycles > 100_000
        tracemalloc.start()
        try:
            header, text = cli._trace_stream(trace, 9)
            cli._write_trace(tmp_path / "t.csv", header, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(header) == 22
        assert peak < trace.cycles * len(header) * 8

    @pytest.mark.parametrize("ranks,message", [
        ("41,x,13,5", "--ranks takes integers, got 'x'"),
        ("41,25,13,5.5", "--ranks takes integers, got '5.5'"),
        ("41,25,13", "--ranks must list four values m9,m7,m5,m3")])
    def test_9753_ranks_must_be_four_integers(self, capsys, tmp_path, ranks,
                                              message):
        src = tmp_path / "in.txt"
        src.write_text(" ".join(["4"] * 162))
        code, out, err = run_cli(capsys, ["trace", str(src), "-o",
                                          str(tmp_path / "out.csv"),
                                          "--engine", "9753", "--ranks",
                                          ranks])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("bits", ["8", "18"])
    def test_9753_rejects_a_data_width_the_samples_exceed(self, capsys,
                                                          tmp_path, bits):
        src = tmp_path / "in.txt"
        src.write_text(" ".join(["4000"] * 162))
        code, _, err = run_cli(capsys, ["trace", str(src), "-o",
                                        str(tmp_path / "out.csv"), "--engine",
                                        "9753", "--data-bits", bits])
        assert code == 1
        assert "bits" in err


@given(rows=st.integers(0, 3000), columns=st.integers(1, 30),
       digits=st.integers(1, 18), blank=st.sampled_from([0.0, 0.2, 1.0]),
       chunk=st.sampled_from(["one", "rows", "rows - 1", "rows + 1"]),
       seed=st.integers(0, 2**32 - 1))
def test_the_writer_renders_like_a_percent_template(
        tmp_path_factory, rows, columns, digits, blank, chunk, seed):
    """Every cell of 1 to ``digits`` digits (2- to 32-byte cells), or BLANK
    in any column, renders as a ``%d`` template does, however the rows are
    cut into blocks."""
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, digits + 1, size=(rows, columns))
    table = rng.integers(0, 10 ** widths)
    table[:, rng.integers(columns)] = 10 ** digits - 1  # a widest cell
    table[rng.random((rows, columns)) < blank] = cli.BLANK
    table[::7, 0] = table[::5, -1] = cli.BLANK
    header = [f"c{k}" for k in range(columns)]
    # one record field of cells per column, as the trace lays out its own
    cells = [cli._cells(column) for column in table.T]
    text = np.empty(rows, [(name, c.dtype) for name, c in zip(header, cells)])
    for name, c in zip(header, cells):
        text[name] = c
    path = tmp_path_factory.getbasetemp() / "percent.csv"
    block = max(1, {"one": 1, "rows": rows, "rows - 1": rows - 1,
                    "rows + 1": rows + 1}[chunk])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK_ROWS", block)
        cli._write_trace(path, header, text)
    assert path.read_bytes() == percent_rendered(header, table)


class TestBench:
    def test_default_table_reproduces_the_published_rates(self, capsys):
        code, out, _ = run_cli(capsys, ["bench"])
        assert code == 0
        rates = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and (parts[0].endswith("x3") or parts[0].endswith("x5")
                          or parts[0].endswith("x7")
                          or parts[0].startswith("diamond")):
                rates[parts[0]] = float(parts[3])
        for window, fps in [("3x3", 38.8), ("5x5", 13.9), ("3x5", 23.3),
                            ("3x7", 16.6), ("diamond5", 26.8),
                            ("diamond7", 13.9)]:
            assert abs(rates[window] - fps) <= 0.1, (window, rates[window])

    @pytest.mark.parametrize("window,n", [("99999x99999", 99999 ** 2),
                                          ("diamond99999", 4999900001)])
    def test_a_huge_window_prints_its_row(self, capsys, window, n):
        # the row reads the record and the closed-form window size; no
        # offset list is built
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["bench", "--window", window])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        row = out.splitlines()[-1].split()
        assert row[:3] == [window, str(n), str(n)]
        assert float(row[4]) > n  # cycles per result, the drain included
        assert peak < 1 << 20

    def test_sliding_reports_one_cycle_per_result(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--clock", "250e6",
                                        "--window", "9x9", "--engine",
                                        "sliding"])
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("9x9")][0]
        assert row.split()[2] == "1"

    def test_simulation_column(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "--window", "3x3",
                                        "--image-dims", "16x12"])
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("3x3")][0]
        measured = float(row.split()[4])
        assert measured >= 9.0
        assert measured - 9.0 <= 1.0  # drain amortized over 192 anchors

    def test_windows_past_the_reference_widths_simulate(self, capsys):
        code, out, err = run_cli(capsys, ["bench", "--window", "17x17",
                                          "--engine", "sliding",
                                          "--image-dims", "20x18"])
        assert code == 0, err
        assert out.splitlines()[-1].split()[:3] == ["17x17", "289", "1"]

    @pytest.mark.parametrize("clock", ["nan", "inf", "0", "-5"])
    def test_the_clock_must_be_positive_and_finite(self, capsys, clock):
        code, out, err = run_cli(capsys, ["bench", "--window", "3x3",
                                          "--image-dims", "8x6", "--clock",
                                          clock])
        assert code == 1 and out == ""
        assert "positive and finite" in err

    def test_zero_area_image_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--image-dims", "0x768"])
        assert code == 1

    @pytest.mark.parametrize("window", ["4x4", "3x5"])
    def test_sliding_rejects_windows_it_cannot_filter(self, capsys, window):
        code, out, err = run_cli(capsys, ["bench", "--engine", "sliding",
                                          "--window", window, "--image-dims",
                                          "8x6"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "sliding" in err

    @pytest.mark.parametrize("engine, windows", [
        ("sliding", ["3x3", "5x5"]),
        ("multichannel", ["3x3", "5x5", "3x5", "3x7"]),
    ])
    def test_the_default_table_holds_the_windows_the_engine_filters(
            self, capsys, engine, windows):
        code, out, err = run_cli(capsys, ["bench", "--engine", engine])
        assert (code, err) == (0, "")
        assert [row.split()[0] for row in out.splitlines()[4:]] == windows

    def test_simulation_reads_the_record_and_filters_nothing(self, capsys,
                                                            monkeypatch):
        report = imaging.run_filter(np.zeros((12, 16), np.int64), Rect(3, 3),
                                    5, data_bits=8)

        def no_filter(*args, **kwargs):
            raise AssertionError("bench filtered a frame")

        monkeypatch.setattr(imaging, "run_filter", no_filter)
        code, out, _ = run_cli(capsys, ["bench", "--window", "3x3",
                                        "--image-dims", "16x12"])
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("3x3")][0]
        assert row.split()[4] == f"{report.cycles_per_result:.3f}"

    @pytest.mark.parametrize("engine", ["single", "multichannel", "sliding"])
    def test_the_measured_column_is_the_named_frames(self, capsys, engine):
        # each standard window the engine filters reads the cycles per
        # result that filtering the --image-dims frame reports
        code, out, err = run_cli(capsys, ["bench", "--engine", engine,
                                          "--image-dims", "16x12"])
        assert (code, err) == (0, "")
        rows = [row.split() for row in out.splitlines()[4:]]
        assert [row[0] for row in rows] == [
            w for w in cli._STANDARD_WINDOWS
            if engine in imaging.engines_for(imaging.parse_window(w))]
        image = np.zeros((12, 16), np.int64)
        for row in rows:
            rank = imaging.percentile_to_rank(0.5, int(row[1]))
            report = imaging.run_filter(image, imaging.parse_window(row[0]),
                                        rank, engine=engine, data_bits=8)
            measured = report.cycles_per_result
            fps = imaging.frame_rate(cli.DEFAULT_CLOCK_HZ, 16, 12, measured)
            assert row[4:] == [f"{measured:.3f}", f"{fps:.2f}"], row

    @pytest.mark.parametrize("option", [["--simulate"],
                                        ["--sim-dims", "64x48"]])
    def test_the_simulation_options_are_gone(self, capsys, option):
        # every row measures the --image-dims frame, so no option asks for it
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["bench", "--help"])
        assert option[0] not in capsys.readouterr().out


class TestParser:
    """``main`` parses with one cached parser; no call may see another's
    arguments."""

    def test_consecutive_subcommands_share_no_state(self, capsys, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "d.txt"
        path.write_text("3 1 4 1 5 9 2 6 5\n")
        rank = ["rank", str(path), "--set-size", "9", "--rank", "5"]
        assert run_cli(capsys, rank)[:2] == (0, "4\n")
        out_csv = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, ["trace", "-o", str(out_csv),
                                        "--set-size", "3", "--rank", "1"],
                               stdin="1 2 3", monkeypatch=monkeypatch)
        assert code == 0 and out.startswith("wrote ")
        # the percentile of another call does not linger as a second rank
        code, out, _ = run_cli(capsys, ["rank", str(path), "--set-size", "9",
                                        "--percentile", "1"])
        assert (code, out) == (0, "1\n")
        assert run_cli(capsys, rank)[:2] == (0, "4\n")
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_window_options_do_not_accumulate(self, capsys):
        outs = [run_cli(capsys, ["bench", "--window", "3x3"])[1]
                for _ in range(2)]
        assert outs[0] == outs[1]
        rows = [line for line in outs[1].splitlines()
                if line.split()[0] in ("3x3", "5x5")]
        assert len(rows) == 1

    @pytest.mark.parametrize("argv", [[], ["rank"], ["filter", "in.pgm"],
                                      ["bench", "--engine", "9753"]])
    def test_usage_errors_exit_2_with_the_same_message(self, capsys, argv):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: rankpipe")
        assert "error:" in errors[0]
