"""Unit checks of the per-sample operations: boundary generation, the
comparison flags, the counter preset trick, and the refinement table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankpipe import (
    ConfigError,
    FilterParams,
    PartialMedian,
    boundaries,
    comparison_count,
    counter_preset,
    incgen,
    refine,
)
from rankpipe.params import priority

TRUTH_TABLE = [
    ((0, 0, 0), 0b00),
    ((0, 0, 1), 0b01),
    ((0, 1, 0), 0b10),
    ((0, 1, 1), 0b10),
    ((1, 0, 0), 0b11),
    ((1, 0, 1), 0b11),
    ((1, 1, 0), 0b11),
    ((1, 1, 1), 0b11),
]


class TestBoundaries:
    def test_root_range_8bit(self):
        assert boundaries(PartialMedian(0, 0), 8) == (64, 128, 192)

    def test_second_stage_of_worked_example(self):
        assert boundaries(PartialMedian(128, 2), 8) == (144, 160, 176)

    def test_last_stage_at_zero_prefix(self):
        assert boundaries(PartialMedian(0, 6), 8) == (1, 2, 3)

    def test_fully_resolved_is_a_contract_violation(self):
        with pytest.raises(ConfigError):
            boundaries(PartialMedian(37, 8), 8)

    @given(st.integers(2, 16).filter(lambda b: b % 2 == 0), st.data())
    def test_boundaries_quarter_the_range(self, bits, data):
        res = data.draw(st.sampled_from(range(0, bits, 2)))
        width = 1 << (bits - res)
        prefix = data.draw(st.integers(0, (1 << res) - 1)) * width
        pm = PartialMedian(prefix, res)
        b1, b2, b3 = boundaries(pm, bits)
        q = width // 4
        assert (b1, b2, b3) == (prefix + q, prefix + 2 * q, prefix + 3 * q)
        assert prefix < b1 < b2 < b3 <= prefix + width - 1


class TestIncgen:
    def test_above_every_boundary(self):
        assert incgen(200, PartialMedian(0, 0), 8) == (True, True, True)

    def test_between_first_and_second(self):
        assert incgen(150, PartialMedian(128, 2), 8) == (False, False, True)

    def test_below_every_boundary(self):
        assert incgen(63, PartialMedian(0, 0), 8) == (False, False, False)

    @given(st.integers(0, 255))
    def test_thermometer_inside_the_range(self, x):
        ge3, ge2, ge1 = incgen(x, PartialMedian(0, 0), 8)
        assert (not ge3 or ge2) and (not ge2 or ge1)

    @given(st.integers(0, 3), st.data())
    def test_thermometer_holds_for_any_narrowed_range(self, quarter, data):
        pm = PartialMedian(0, 0).refined(quarter, 8)
        x = data.draw(st.integers(pm.prefix, pm.prefix + (1 << (8 - pm.bits_resolved)) - 1))
        ge3, ge2, ge1 = incgen(x, pm, 8)
        assert (not ge3 or ge2) and (not ge2 or ge1)

    def test_out_of_range_samples_increment_consistently(self):
        pm = PartialMedian(128, 2)
        assert incgen(255, pm, 8) == (True, True, True)
        assert incgen(0, pm, 8) == (False, False, False)


class TestCounterPreset:
    def test_reference_median_setting(self):
        assert counter_preset(125, 8) == 3

    def test_boundary_rank(self):
        assert counter_preset(128, 8) == 0

    def test_small_rank_arithmetic(self):
        preset = counter_preset(13, 8)
        assert preset == 115
        assert (preset + 13) & 0x80  # bit 7 trips exactly at count == M

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigError):
            counter_preset(0, 8)
        with pytest.raises(ConfigError):
            counter_preset(129, 8)

    @given(st.integers(1, 128), st.integers(0, 255))
    def test_msb_is_the_comparator(self, rank, count):
        if count - rank > 127:
            return  # outside the no-wrap envelope the params enforce
        acc = (counter_preset(rank, 8) + count) & 0xFF
        assert bool(acc & 0x80) == (count >= rank)


class TestRefine:
    # the last input is the array form: all eight rows as one (3, 8) stack
    @pytest.mark.parametrize("msbs,expected", TRUTH_TABLE + [
        (np.array([msbs for msbs, _ in TRUTH_TABLE]).T,
         [expected for _, expected in TRUTH_TABLE])])
    def test_truth_table(self, msbs, expected):
        # refine takes (msb3, msb2, msb1); priority, the lowest boundary first
        assert priority(np.flip(msbs, axis=0)).tolist() == expected
        if np.ndim(msbs) == 1:
            assert refine(*msbs) == expected

    @pytest.mark.parametrize("msbs", [(0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0)])
    def test_check_mode_flags_non_thermometer_inputs(self, msbs):
        with pytest.raises(ValueError):
            refine(*msbs, check=True)

    @pytest.mark.parametrize("msbs", [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)])
    def test_check_mode_accepts_thermometer_inputs(self, msbs):
        refine(*msbs, check=True)


class TestComparisonCount:
    def test_one_reference_set(self):
        p = FilterParams(data_bits=8, set_size=25, rank=13)
        assert comparison_count(p, 1) == 300

    def test_minimal_engine(self):
        p = FilterParams(data_bits=2, set_size=1, rank=1)
        assert comparison_count(p, 1) == 3

    def test_two_sets(self):
        p = FilterParams(data_bits=8, set_size=9, rank=5)
        assert comparison_count(p, 2) == 216
