"""Every image engine against ``scipy.ndimage.rank_filter``: an independent
implementation of the same filter, checked on the padded-frame gather
across window shapes, borders and sample widths.  scipy is not a
dependency, so the module is skipped without it; the sort oracle stays the
definitional check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpipe import Border, ConfigError, Custom, Diamond, Rect, run_filter
from rankpipe.imaging import engines_for, window_offsets

ndimage = pytest.importorskip("scipy.ndimage")


def scipy_rank_filter(image, shape, rank):
    """The M-th largest over ``shape`` at every pixel, edges replicated."""
    n = len(window_offsets(shape))
    if isinstance(shape, Rect):
        return ndimage.rank_filter(image, rank=n - rank,
                                   size=(shape.height, shape.width),
                                   mode="nearest")
    # a footprint box holding every offset and the anchor; origin moves the
    # anchor from the box centre to its own cell
    offs = np.array(window_offsets(shape))[:, ::-1]  # (dy, dx)
    low = np.minimum(offs.min(axis=0), 0)
    footprint = np.zeros(np.maximum(offs.max(axis=0), 0) - low + 1, bool)
    footprint[tuple((offs - low).T)] = True
    origin = -(np.array(footprint.shape) // 2 + low)
    return ndimage.rank_filter(image, rank=n - rank, footprint=footprint,
                               mode="nearest", origin=tuple(origin.tolist()))


def interior(image, shape):
    """The anchors a valid border keeps, or None when the window does not
    fit the image."""
    offs = np.array(window_offsets(shape))
    low = np.maximum(-offs.min(axis=0), 0)
    high = np.array(image.shape[::-1]) - np.maximum(offs.max(axis=0), 0)
    if (low >= high).any():
        return None
    return image[low[1]:high[1], low[0]:high[0]]


offsets = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
shapes = st.one_of(
    st.builds(Rect, st.integers(1, 17), st.integers(1, 17)),
    st.builds(Diamond, st.sampled_from([1, 3, 5, 7])),
    st.builds(Custom, st.lists(offsets, min_size=1, max_size=9,
                               unique=True).map(tuple)),
)


@settings(max_examples=150)
@given(shape=shapes, height=st.integers(1, 19), width=st.integers(1, 19),
       bits=st.sampled_from([8, 16]), data=st.data())
def test_every_engine_matches_scipy(shape, height, width, bits, data):
    n = len(window_offsets(shape))
    rank = data.draw(st.integers(1, n), label="rank")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    image = np.random.default_rng(seed).integers(0, 1 << bits,
                                                 size=(height, width))
    want = scipy_rank_filter(image, shape, rank)
    want_valid = interior(want, shape)
    for engine in engines_for(shape):
        got = run_filter(image, shape, rank, engine, data_bits=bits).image
        assert np.array_equal(got, want), engine
        if want_valid is None:
            with pytest.raises(ConfigError):
                run_filter(image, shape, rank, engine, Border.VALID,
                           data_bits=bits)
        else:
            got = run_filter(image, shape, rank, engine, Border.VALID,
                             data_bits=bits).image
            assert np.array_equal(got, want_valid), engine
