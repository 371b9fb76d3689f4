"""Window geometry, border policies, the image driver, and the frame-rate
calculator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rankpipe import (
    Border,
    ConfigError,
    Custom,
    Diamond,
    Rect,
    filter_image,
    frame_rate,
    infer_data_bits,
    parse_window,
    percentile_to_rank,
    run_filter,
    window_offsets,
    window_size,
)
from rankpipe import imaging
from rankpipe.imaging import engines_for
from rankpipe.oracle import filter_image_oracle


class TestWindowOffsets:
    @pytest.mark.parametrize("shape,n", [
        (Rect(3, 3), 9),
        (Rect(5, 5), 25),
        (Rect(3, 5), 15),
        (Rect(3, 7), 21),
        (Diamond(5), 13),
        (Diamond(7), 25),
    ])
    def test_shape_count_table(self, shape, n):
        offsets = window_offsets(shape)
        assert len(offsets) == n == window_size(shape)
        assert len(set(offsets)) == n

    def test_closed_form_sizes_count_the_offsets(self):
        shapes = ([Rect(w, h) for w in range(1, 7) for h in range(1, 7)]
                  + [Diamond(d) for d in range(1, 22, 2)])
        for shape in shapes:
            assert window_size(shape) == len(window_offsets(shape)), shape

    @pytest.mark.parametrize("shape,n", [
        (Rect(99999, 99999), 99999 ** 2),
        (Diamond(99999), 2 * 49999 * 50000 + 1)])
    def test_a_huge_window_is_sized_without_its_offsets(self, shape, n):
        # enumerating would build billions of (dx, dy) tuples
        tracemalloc.start()
        try:
            assert window_size(shape) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_row_major_scan_order(self):
        assert window_offsets(Rect(3, 3)) == [
            (-1, -1), (0, -1), (1, -1),
            (-1, 0), (0, 0), (1, 0),
            (-1, 1), (0, 1), (1, 1),
        ]
        assert window_offsets(Diamond(3)) == [
            (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1),
        ]

    def test_even_rect_takes_the_extra_cell_low(self):
        assert window_offsets(Rect(2, 1)) == [(-1, 0), (0, 0)]

    def test_even_diamond_rejected(self):
        with pytest.raises(ConfigError):
            Diamond(4)

    def test_custom_offsets(self):
        shape = Custom(((1, 0), (0, 0), (0, -2)))
        assert window_offsets(shape) == [(0, -2), (0, 0), (1, 0)]
        with pytest.raises(ConfigError):
            Custom(((0, 0), (0, 0)))


class TestParseWindow:
    def test_specs(self, tmp_path):
        assert parse_window("5x5") == Rect(5, 5)
        assert parse_window("3x7") == Rect(3, 7)
        assert parse_window("diamond5") == Diamond(5)
        path = tmp_path / "w.txt"
        path.write_text("0 0\n1 0  # east\n-1 0\n")
        shape = parse_window(f"custom={path}")
        assert window_size(shape) == 3

    def test_a_custom_path_keeps_its_case(self, tmp_path):
        # only the keyword is case-insensitive; the path opens as given
        path = tmp_path / "CaseDir" / "Win.txt"
        path.parent.mkdir()
        path.write_text("0 0\n1 0\n")
        for keyword in ("custom=", "CUSTOM=", "Custom="):
            assert parse_window(f"  {keyword}{path} ") == Custom(
                ((0, 0), (1, 0)))
        assert parse_window("5X3") == Rect(5, 3)
        assert parse_window("Diamond5") == Diamond(5)

    @pytest.mark.parametrize("spec", ["", "5", "x5", "ax2", "diamondx"])
    def test_bad_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_window(spec)

    @pytest.mark.parametrize("text,message", [
        ("0 0\n0 zero\n", "line 2 must be two integers 'dx dy', got '0 zero'"),
        ("# offsets\n0 1.5\n", "line 2 must be two integers 'dx dy', got '0 1.5'"),
        ("0 0\n1\n", "line 2 must be two integers 'dx dy', got '1'"),
        ("0 0 0\n", "line 1 must be two integers 'dx dy', got '0 0 0'")])
    def test_bad_custom_lines_are_named(self, tmp_path, text, message):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"custom window {message}"):
            parse_window(f"custom={path}")


class TestPercentileToRank:
    @pytest.mark.parametrize("p,n,m", [
        (0.5, 25, 13),
        (0.5, 81, 41),
        (0.5, 99, 50),
        (0.5, 9, 5),
        (1.0, 9, 9),
        (0.001, 9, 1),
    ])
    def test_values(self, p, n, m):
        assert percentile_to_rank(p, n) == m

    def test_bounds(self):
        with pytest.raises(ConfigError):
            percentile_to_rank(0.0, 9)
        with pytest.raises(ConfigError):
            percentile_to_rank(1.1, 9)

    @pytest.mark.parametrize("p", ["0.5", None, [0.5]])
    def test_non_numbers_are_config_errors(self, p):
        with pytest.raises(ConfigError, match="percentile"):
            percentile_to_rank(p, 9)


class TestFrameRate:
    @pytest.mark.parametrize("n,fps", [
        (9, 38.8), (25, 13.9), (15, 23.3), (21, 16.6), (13, 26.8),
    ])
    def test_published_single_core_rates(self, n, fps):
        assert abs(frame_rate(275e6, 1024, 768, n) - fps) <= 0.1

    def test_positive_arguments(self):
        with pytest.raises(ConfigError):
            frame_rate(275e6, 0, 768, 9)

    @pytest.mark.parametrize("clock", [float("nan"), float("inf"), 0.0, -5.0])
    def test_the_clock_must_be_positive_and_finite(self, clock):
        with pytest.raises(ConfigError, match="positive and finite"):
            frame_rate(clock, 1024, 768, 9)

    @pytest.mark.parametrize("args", [("1e6", 3, 3, 9), (1e6, "3", 3, 9),
                                      (1e6, 3, None, 9), (1e6, 3, 3, "9")])
    def test_non_numbers_are_config_errors(self, args):
        with pytest.raises(ConfigError, match="positive and finite"):
            frame_rate(*args)


class TestBorderArguments:
    """Every image entry point reads a border given as its string value the
    same as the enum member, and rejects any other value."""

    image = np.arange(30).reshape(5, 6)

    @pytest.mark.parametrize("border", list(Border))
    def test_strings_coerce_to_the_member(self, border):
        expected = filter_image(self.image, Rect(3, 3), 5, border=border)
        assert expected.shape == ((5, 6) if border is Border.CLAMP
                                  else (3, 4))
        got = filter_image(self.image, Rect(3, 3), 5, border=border.value)
        assert np.array_equal(got, expected)
        report = run_filter(self.image, Rect(3, 3), 5, border=border.value)
        assert report.border is border
        oracle = filter_image_oracle(self.image, Rect(3, 3), 5,
                                     border=border.value)
        assert np.array_equal(oracle, expected)

    @pytest.mark.parametrize("border", ["wrap", "CLAMP", None, 0])
    def test_unknown_values_are_config_errors(self, border):
        with pytest.raises(ConfigError, match="border"):
            filter_image(self.image, Rect(3, 3), 5, border=border)
        with pytest.raises(ConfigError, match="border"):
            run_filter(self.image, Rect(3, 3), 5, border=border)
        with pytest.raises(ConfigError, match="border"):
            filter_image_oracle(self.image, Rect(3, 3), 5, border=border)
        with pytest.raises(ConfigError, match="border"):
            Border(border)


class TestFilterImage:
    def test_constant_image_is_unchanged(self):
        img = np.full((8, 10), 5, dtype=np.int64)
        out = filter_image(img, Rect(3, 3), 5, data_bits=8)
        assert (out == img).all()

    def test_median_removes_a_lone_bright_pixel(self):
        img = np.zeros((7, 7), dtype=np.int64)
        img[3, 3] = 255
        out = filter_image(img, Rect(3, 3), 5, data_bits=8)
        assert (out == 0).all()
        ref = filter_image_oracle(img, Rect(3, 3), 5)
        assert (out == ref).all()

    def test_valid_border_shrinks_by_the_window_extents(self):
        img = np.arange(9 * 12).reshape(9, 12) % 256
        out = filter_image(img, Rect(5, 3), 4, border=Border.VALID, data_bits=8)
        assert out.shape == (9 - 2, 12 - 4)
        ref = filter_image_oracle(img, Rect(5, 3), 4, Border.VALID)
        assert (out == ref).all()

    def test_oversized_window_under_valid_is_rejected(self):
        img = np.zeros((4, 4), dtype=np.int64)
        with pytest.raises(ConfigError):
            filter_image(img, Rect(5, 5), 1, border=Border.VALID, data_bits=8)

    def test_order_independence_of_the_offset_scan(self):
        rng = np.random.default_rng(40)
        img = rng.integers(0, 256, size=(9, 9))
        base = filter_image(img, Rect(3, 3), 4, data_bits=8)
        shuffled = list(window_offsets(Rect(3, 3)))
        rng.shuffle(shuffled)
        out = filter_image(img, Custom(tuple(shuffled)), 4, data_bits=8)
        assert (out == base).all()

    def test_every_capable_engine_and_border_agrees(self):
        rng = np.random.default_rng(41)
        img = rng.integers(0, 256, size=(12, 14))
        for shape in (Rect(3, 3), Rect(5, 5), Rect(5, 3), Diamond(5)):
            n = window_size(shape)
            m = percentile_to_rank(0.5, n)
            for border in Border:
                ref = filter_image_oracle(img, shape, m, border)
                for engine in engines_for(shape):
                    out = filter_image(img, shape, m, engine=engine,
                                       border=border, data_bits=8)
                    assert (out == ref).all(), (shape, border, engine)

    def test_engine_capability_is_enforced(self):
        img = np.zeros((8, 8), dtype=np.int64)
        with pytest.raises(ConfigError):
            filter_image(img, Diamond(5), 3, engine="multichannel", data_bits=8)
        with pytest.raises(ConfigError):
            filter_image(img, Rect(5, 3), 3, engine="sliding", data_bits=8)
        with pytest.raises(ConfigError):
            filter_image(img, Rect(3, 3), 3, engine="warp", data_bits=8)

    def test_single_core_cycle_accounting(self):
        rng = np.random.default_rng(42)
        img = rng.integers(0, 256, size=(6, 9))
        report = run_filter(img, Rect(3, 3), 5, data_bits=8)
        from rankpipe import FilterParams
        p = FilterParams(data_bits=8, set_size=9, rank=5)
        assert report.cycles == img.size * 9 + p.drain_cycles
        assert report.comparisons == 3 * 9 * p.stages * img.size

    @pytest.mark.parametrize("engine", ["single", "multichannel", "sliding"])
    def test_the_report_names_the_width_the_engine_ran_at(self, engine):
        # an odd width is padded up to the next even one by the record
        img = np.arange(30).reshape(5, 6) % 8
        report = run_filter(img, Rect(3, 3), 5, engine, data_bits=3)
        assert report.data_bits == 4

    def test_threads_do_not_change_pixels(self):
        rng = np.random.default_rng(43)
        img = rng.integers(0, 256, size=(13, 11))
        base = filter_image(img, Rect(3, 3), 2, data_bits=8)
        for engine in ("single", "multichannel", "sliding"):
            for threads in (2, 5):
                out = filter_image(img, Rect(3, 3), 2, engine=engine,
                                   threads=threads, data_bits=8)
                assert (out == base).all()

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "2"])
    def test_threads_must_be_a_positive_integer(self, threads):
        img = np.zeros((5, 5), dtype=np.int64)
        with pytest.raises(ConfigError, match="thread"):
            run_filter(img, Rect(3, 3), 5, threads=threads)

    def test_rank_bounds_use_the_window_size(self):
        img = np.zeros((5, 5), dtype=np.int64)
        with pytest.raises(ConfigError):
            filter_image(img, Rect(3, 3), 10, data_bits=8)


class TestDerivedWidths:
    """run_filter's records derive the counter width from N and M, so
    windows past 8-bit counters or the reference build's 255-deep pipe
    filter too."""

    @pytest.mark.parametrize("shape,rank", [
        (Rect(15, 15), 1),  # N - M = 224 wraps 8-bit counters
        (Rect(16, 16), 128),  # N = 256 overflows the reference 255-deep pipe
        (Rect(17, 17), 145)])
    def test_large_windows_match_the_oracle(self, shape, rank):
        img = np.random.default_rng(45).integers(0, 256, size=(18, 19))
        for border in Border:
            want = filter_image_oracle(img, shape, rank, border)
            for engine in engines_for(shape):
                got = filter_image(img, shape, rank, engine=engine,
                                   border=border)
                assert (got == want).all(), (engine, border)


class TestBandDriver:
    @pytest.mark.parametrize("engine,strips", [
        ("single", False), ("multichannel", False), ("sliding", True)])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_engines_are_looked_up_at_call_time(self, monkeypatch, engine,
                                                strips, threads):
        # run_filter reaches the one batch entry through the imaging
        # module's own globals, once per band, whatever the engine; a
        # sliding band joins its rows' strips of cols + W - 1 columns into
        # one stream
        calls = []
        real = imaging.stream_cycles

        def counted(*args, **kwargs):
            calls.append(len(args[-1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(imaging, "stream_cycles", counted)
        img = np.random.default_rng(44).integers(0, 256, size=(7, 6))
        report = run_filter(img, Rect(3, 3), 5, engine=engine,
                            threads=threads, data_bits=8)
        assert len(calls) == (1 if threads == 1 else 3)
        per_row = 6 + 2 if strips else 6 * {"single": 9,
                                            "multichannel": 3}[engine]
        assert sum(calls) == 7 * per_row
        assert (report.image == filter_image_oracle(img, Rect(3, 3), 5)).all()

    @pytest.mark.parametrize("side", [3, 5, 9])
    @pytest.mark.parametrize("width", [1, 2, 4, 7, 12, 13])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_sliding_bands_drop_the_windows_across_seams(self, side, width,
                                                         threads):
        # cols + W - 1 columns per strip, a multiple of W or not, and
        # images narrower than the window; every band ends on a seam
        img = np.random.default_rng(width).integers(0, 256, size=(11, width))
        shape = Rect(side, side)
        rank = (side * side + 1) // 2
        for border in Border:
            try:
                want = filter_image_oracle(img, shape, rank, border)
            except ConfigError:  # the oracle's error for a window too wide
                with pytest.raises(ConfigError, match="does not fit"):
                    run_filter(img, shape, rank, "sliding", border,
                               threads=threads)
                continue
            got = filter_image(img, shape, rank, engine="sliding",
                               border=border, threads=threads)
            assert got.shape == want.shape and (got == want).all(), border

    @pytest.mark.parametrize("engine,shape", [
        ("single", Rect(3, 3)), ("single", Diamond(5)),
        ("multichannel", Rect(4, 3)), ("sliding", Rect(3, 3))])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_pixels_are_the_results_the_traces_flag(self, monkeypatch, engine,
                                                    shape, threads):
        # the bands read each result at its fire cycle; the dv mask over
        # every cycle of the same traces gives the same pixels, band by band
        # (threads may finish their bands in any order)
        traces = []
        real = imaging.stream_cycles

        def keep(*args, **kwargs):
            traces.append((len(args[-1]), real(*args, **kwargs)))
            return traces[-1][1]

        monkeypatch.setattr(imaging, "stream_cycles", keep)
        img = np.random.default_rng(45).integers(0, 256, size=(7, 6))
        for border in Border:
            traces.clear()
            report = run_filter(img, shape, 4, engine=engine, border=border,
                                threads=threads)
            rows, cols = report.image.shape

            def flagged(columns, trace):
                if engine != "sliding":
                    return trace.results
                # a sliding band flags a window at every column of its
                # strips, and past them to a whole cadence; the pixels are
                # the first cols of each strip's cols + 2
                strips = trace.results[:columns].reshape(-1, cols + 2)
                return strips[:, :cols]

            per_band = [n for _, n in imaging._bands(0, rows - 1, threads)]
            bands = np.split(report.image, np.cumsum(per_band)[:-1])
            assert report.image.dtype == np.int64
            assert sorted(band.ravel().tolist() for band in bands) == sorted(
                flagged(*kept).ravel().tolist() for kept in traces)

    @pytest.mark.parametrize("engine,shape", [
        ("single", Custom(((2, 0), (0, 0), (-1, -3)))),
        ("single", Rect(4, 3)), ("multichannel", Rect(4, 3)),
        ("sliding", Rect(3, 3))])
    def test_streams_carry_each_window_in_column_order(self, monkeypatch,
                                                       engine, shape):
        # the padded-frame gather feeds each engine what clamping every
        # coordinate gives: a chain engine a window per anchor, its
        # columns left to right and each column's rows top down, as one
        # sample or one K-sample column per clock; sliding every column
        # each row's windows span, row after row
        streams = []
        real = imaging.stream_cycles

        def spy(*args, **kwargs):
            streams.append(np.asarray(args[-1]).tolist())
            return real(*args, **kwargs)

        monkeypatch.setattr(imaging, "stream_cycles", spy)
        img = np.random.default_rng(46).integers(0, 256, size=(4, 5))
        run_filter(img, shape, 2, engine=engine)

        def pixel(x, y):
            return int(img[min(max(y, 0), 3), min(max(x, 0), 4)])

        anchors = [(x, y) for y in range(4) for x in range(5)]
        offsets = sorted(window_offsets(shape))  # by dx, then dy
        if engine == "single":
            want = [[pixel(x + dx, y + dy) for x, y in anchors
                     for dx, dy in offsets]]
        elif engine == "multichannel":
            want = [[[pixel(x + dx, y + dy) for dy in range(-1, 2)]
                     for x, y in anchors for dx in range(-2, 2)]]
        else:
            want = [[[pixel(x, y + dy) for dy in (-1, 0, 1)]
                     for y in range(4) for x in range(-1, 6)]]
        assert streams == want

    @pytest.mark.parametrize("shape", [
        Rect(3, 3), Rect(4, 4), Rect(5, 3), Rect(1, 1), Rect(2, 3),
        Diamond(3), Diamond(5), Custom(((0, 0), (1, 0), (0, 2)))])
    def test_engines_outside_engines_for_are_rejected(self, shape):
        img = np.zeros((6, 6), dtype=np.int64)
        capable = engines_for(shape)
        for engine in ("single", "multichannel", "sliding", "9753", "warp"):
            if engine in capable:
                filter_image(img, shape, 1, engine=engine, data_bits=8)
            else:
                with pytest.raises(ConfigError, match=engine):
                    filter_image(img, shape, 1, engine=engine, data_bits=8)


@pytest.mark.parametrize("image", [
    np.array([[1, 2, "a"]], dtype=object),
    np.array([[1, None, 3]], dtype=object),
    np.array([[1, 2, 3]], dtype=object),
    np.array([[1.0, np.nan, np.inf]])])
@pytest.mark.parametrize("run", [run_filter, filter_image,
                                 filter_image_oracle])
def test_images_that_are_not_integers_are_config_errors(image, run):
    with pytest.raises(ConfigError, match="integers"):
        run(image, Rect(3, 3), 5)
    with pytest.raises(ConfigError, match="integers"):
        infer_data_bits(image)


@pytest.mark.parametrize("run,args", [
    pytest.param(run, (Rect(1, 1), 1), id=run.__name__)
    for run in (run_filter, filter_image, filter_image_oracle)]
    + [pytest.param(infer_data_bits, (), id="infer_data_bits")])
def test_ragged_images_are_config_errors(run, args):
    with pytest.raises(ConfigError, match="^sample rows must all be one"):
        run([[1, 2], [1]], *args)


def padded_by_np_pad(samples, offsets):
    """The clamp frame as ``np.pad(mode="edge")`` builds it, every offset
    clipped to +-max(size - 1, N) first."""
    height, width = samples.shape
    rx, ry = max(width - 1, len(offsets)), max(height - 1, len(offsets))
    offsets = [(min(max(dx, -rx), rx), min(max(dy, -ry), ry))
               for dx, dy in offsets]
    dxs, dys = zip(*offsets)
    left, top = max(0, -min(dxs)), max(0, -min(dys))
    right, bottom = max(0, max(dxs)), max(0, max(dys))
    frame = np.pad(samples, ((top, bottom), (left, right)), mode="edge")
    return frame, [(dx + left, dy + top) for dx, dy in offsets]


@st.composite
def windows(draw):
    kind = draw(st.sampled_from(["rect", "diamond", "custom"]))
    if kind == "rect":
        return Rect(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    if kind == "diamond":
        return Diamond(2 * draw(st.integers(0, 3)) + 1)
    # far offsets reach past the image and take the clipping branch
    reach = draw(st.sampled_from([2, 12, 60]))
    offsets = draw(st.sets(st.tuples(st.integers(-reach, reach),
                                      st.integers(-reach, reach)),
                           min_size=1, max_size=8))
    return Custom(tuple(offsets))


@given(shape=windows(), height=st.integers(1, 9), width=st.integers(1, 9),
       dtype=st.sampled_from([np.uint8, np.uint16]), seed=st.integers(0, 99))
@example(shape=Custom(((40, 0), (0, -30), (0, 0))), height=1, width=5,
         dtype=np.uint16, seed=1)
@example(shape=Custom(((-40, 1), (0, 0))), height=3, width=3,
         dtype=np.uint8, seed=4)
@example(shape=Custom(((1, -25), (0, 0))), height=3, width=4,
         dtype=np.uint16, seed=5)
@example(shape=Rect(5, 5), height=6, width=1, dtype=np.uint8, seed=2)
@example(shape=Diamond(7), height=1, width=1, dtype=np.uint8, seed=3)
def test_the_clamp_frame_equals_edge_padding(shape, height, width, dtype,
                                             seed):
    # 1xN and Nx1 images included; the frame and the shifts both match
    top = np.iinfo(dtype).max
    img = np.random.default_rng(seed).integers(0, top + 1, (height, width))
    samples = img.astype(dtype)
    offsets = window_offsets(shape)
    frame, shifts = imaging._padded(samples, offsets)
    want_frame, want_shifts = padded_by_np_pad(samples, offsets)
    assert frame.dtype == dtype
    assert np.array_equal(frame, want_frame)
    assert shifts == want_shifts


def test_infer_data_bits():
    assert infer_data_bits(np.array([[0]])) == 2
    assert infer_data_bits(np.array([[255]])) == 8
    assert infer_data_bits(np.array([[256]])) == 10
    assert infer_data_bits(np.array([[40000]])) == 16
