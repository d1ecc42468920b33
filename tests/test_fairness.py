import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    ConfigError,
    geometric_mean_index,
    improvement_indices,
    jain_index,
)

NAN, INF = float("nan"), float("inf")
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


class TestJainIndex:
    def test_equal_values_score_one(self):
        assert jain_index([1, 1]) == pytest.approx(1.0, abs=1e-12)
        assert jain_index([3, 3, 3, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_single_nonzero_value(self):
        assert jain_index([1, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_equal_values_outside_the_normal_square_range(self):
        # squares of these are subnormal or overflow; equal values still score 1
        assert jain_index([2.1742709344686157e-157] * 2) == pytest.approx(1.0, abs=1e-12)
        assert jain_index([1e200, 1e200]) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_undefined(self):
        with pytest.raises(ConfigError, match="^Jain's index is undefined for all-zero values$"):
            jain_index([0.0, 0.0])

    def test_negative_rejected(self):
        # NaN and inf gave nan, outside the promised [1/n, 1]
        for values in ([1.0, -0.5], [NAN, 1.0], [INF, 1.0], [-INF, 1.0]):
            with pytest.raises(ConfigError):
                jain_index(values)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="need at least one value"):
            jain_index([])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_equality_condition(self, values):
        if sum(v * v for v in values) == 0:
            return  # undefined, including squares that underflow to zero
        n = len(values)
        index = jain_index(values)
        assert 1.0 / n - 1e-12 <= index <= 1.0 + 1e-12
        if all(v == values[0] for v in values):
            assert index == pytest.approx(1.0, abs=1e-9)
        elif index == pytest.approx(1.0, abs=1e-12):
            # equality at 1 implies all values equal (up to float noise)
            assert max(values) == pytest.approx(min(values), rel=1e-6)

    @given(st.lists(positive_floats, min_size=1, max_size=8), positive_floats)
    @settings(max_examples=100, deadline=None)
    def test_scale_invariant(self, values, scale):
        assert jain_index([scale * v for v in values]) == pytest.approx(
            jain_index(values), rel=1e-9
        )

    @given(st.lists(positive_floats, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, values):
        assert jain_index(list(reversed(values))) == pytest.approx(
            jain_index(values), rel=1e-12
        )


class TestGeometricMeanIndex:
    def test_perfect_improvements(self):
        assert geometric_mean_index([100, 100]) == pytest.approx(100.0, abs=1e-12)

    def test_mixed_improvements(self):
        assert geometric_mean_index([50, 2]) == pytest.approx(10.0, abs=1e-12)

    def test_single_value_is_itself(self):
        assert geometric_mean_index([42.5]) == pytest.approx(42.5, abs=1e-12)

    def test_zero_factor_collapses(self):
        assert geometric_mean_index([0.0, 80.0]) == 0.0

    @pytest.mark.parametrize("values", [[INF, 0.0], [NAN, 4.0]], ids=["inf", "nan"])
    def test_non_finite_rejected(self, values):
        # inf times zero returned nan
        with pytest.raises(ConfigError, match="values must be finite"):
            geometric_mean_index(values)

    @given(st.lists(positive_floats, min_size=1, max_size=6), positive_floats)
    @settings(max_examples=100, deadline=None)
    def test_scales_linearly(self, values, scale):
        assert geometric_mean_index([scale * v for v in values]) == pytest.approx(
            scale * geometric_mean_index(values), rel=1e-9
        )

    @given(st.lists(positive_floats, min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, values):
        assert geometric_mean_index(list(reversed(values))) == pytest.approx(
            geometric_mean_index(values), rel=1e-9
        )

    @given(st.lists(positive_floats, min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_between_min_and_max(self, values):
        g = geometric_mean_index(values)
        assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)


class TestClamp:
    """``improvement_indices`` clamps a negative improvement to zero before indexing."""

    def test_negatives_to_zero(self):
        assert improvement_indices(-5.0, 3.0) == (jain_index([0.0, 3.0]), 0.0)
        assert improvement_indices(3.0, -0.1) == (jain_index([3.0, 0.0]), 0.0)

    def test_clamped_values_feed_indices(self):
        jain, gmi = improvement_indices(40.0, -10.0)
        assert jain == pytest.approx(0.5, abs=1e-12) and gmi == 0.0


class TestImprovementIndices:
    def test_jain_undefined_when_both_improvements_clamp_to_zero(self):
        assert improvement_indices(0.0, -5.0) == (None, 0.0)

    @pytest.mark.parametrize("sse_pct, l_pct", [(NAN, 5.0), (5.0, NAN), (-INF, 5.0), (INF, 5.0)])
    def test_non_finite_improvement_rejected(self, sse_pct, l_pct):
        # NaN and -inf were clamped to 0 and indexed as (0.5, 0.0); inf gave a nan Jain index
        with pytest.raises(ConfigError, match="values must be finite"):
            improvement_indices(sse_pct, l_pct)

    @pytest.mark.parametrize("sse_pct, l_pct", [(None, 3.0), (3.0, None)])
    def test_missing_improvement_gives_no_indices(self, sse_pct, l_pct):
        assert improvement_indices(sse_pct, l_pct) == (None, None)

    def test_positive_pair_is_indexed_as_is(self):
        pair = [33.5, 94.1]
        assert improvement_indices(*pair) == (jain_index(pair), geometric_mean_index(pair))
