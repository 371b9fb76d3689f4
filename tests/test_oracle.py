"""The brute-force reference itself: selection semantics and the gather."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankpipe import Border, ConfigError, Rect, select_desc
from rankpipe.oracle import filter_image_oracle, select_desc_rows

values = st.lists(st.integers(0, 255), min_size=1, max_size=40)


class TestSelectDesc:
    def test_singleton(self):
        assert select_desc([5], 1) == 5

    def test_duplicates(self):
        assert select_desc([7, 7, 3], 2) == 7

    def test_middle_of_the_pi_digits(self):
        assert select_desc([3, 1, 4, 1, 5, 9, 2, 6, 5], 5) == 4

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            select_desc([1, 2], 0)
        with pytest.raises(ConfigError):
            select_desc([1, 2], 3)

    @given(values)
    def test_extremes(self, data):
        assert select_desc(data, 1) == max(data)
        assert select_desc(data, len(data)) == min(data)

    @given(values, st.randoms())
    def test_permutation_invariance(self, data, rnd):
        m = rnd.randint(1, len(data))
        shuffled = list(data)
        rnd.shuffle(shuffled)
        assert select_desc(data, m) == select_desc(shuffled, m)

    @given(values)
    def test_monotone_in_rank(self, data):
        picks = [select_desc(data, m) for m in range(1, len(data) + 1)]
        assert picks == sorted(picks, reverse=True)


@given(st.integers(0, 20), st.integers(1, 30), st.data())
def test_every_row_at_once_is_each_row_alone(sets, size, data):
    rows = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2**16 - 1), min_size=size, max_size=size),
        min_size=sets, max_size=sets)), np.int64).reshape(sets, size)
    rank = data.draw(st.integers(1, size))
    assert select_desc_rows(rows, rank).tolist() == [
        select_desc(row.tolist(), rank) for row in rows]


class TestImageOracle:
    def test_constant_image(self):
        img = np.full((4, 6), 3, dtype=np.int64)
        assert (filter_image_oracle(img, Rect(3, 3), 5) == img).all()

    def test_degenerate_row_window(self):
        img = np.array([[9, 1, 4, 7, 2]])
        out = filter_image_oracle(img, Rect(5, 1), 2, Border.VALID)
        assert out.shape == (1, 1)
        assert out[0, 0] == 7

    def test_clamp_keeps_dimensions(self):
        img = np.arange(20).reshape(4, 5)
        out = filter_image_oracle(img, Rect(3, 3), 1, Border.CLAMP)
        assert out.shape == img.shape
        assert out[0, 0] == max(img[y, x] for y in (0, 1) for x in (0, 1))
