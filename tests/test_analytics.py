"""Tests for the analytics routines."""

import numpy as np
import pytest

from repro.analytics import (
    decompose,
    describe,
    detect_seasonality,
    iqr_outliers,
    pearson_correlation,
    sufficient_data,
)
from repro.analytics.timeseries import InsufficientDataError
from repro.errors import CDAError


def planted_series(n=120, period=12, amplitude=3.0, slope=0.05, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    months = np.arange(n, dtype=float)
    return (
        100.0
        + slope * months
        + amplitude * np.sin(2 * np.pi * months / period)
        + rng.normal(0, noise, size=n)
    )


class TestDecomposition:
    def test_components_sum_to_observed(self):
        series = planted_series()
        parts = decompose(series, 12)
        mask = ~np.isnan(parts.trend)
        reconstructed = parts.trend[mask] + parts.seasonal[mask] + parts.residual[mask]
        np.testing.assert_allclose(reconstructed, series[mask])

    def test_seasonal_component_repeats(self):
        parts = decompose(planted_series(), 12)
        np.testing.assert_allclose(parts.seasonal[:12], parts.seasonal[12:24])

    def test_seasonal_sums_to_zero(self):
        parts = decompose(planted_series(), 12)
        assert abs(parts.seasonal[:12].sum()) < 1e-9

    def test_strengths_detect_structure(self):
        structured = decompose(planted_series(noise=0.2), 12)
        assert structured.seasonal_strength > 0.8
        assert structured.trend_strength > 0.5

    def test_noise_has_low_seasonal_strength(self):
        rng = np.random.default_rng(1)
        parts = decompose(rng.normal(size=120), 12)
        assert parts.seasonal_strength < 0.4

    def test_insufficient_data_aborts(self):
        with pytest.raises(InsufficientDataError) as excinfo:
            decompose(planted_series(n=20), 12)
        assert excinfo.value.needed == 24
        assert excinfo.value.available == 20

    def test_odd_period(self):
        parts = decompose(planted_series(n=105, period=7), 7)
        assert parts.seasonal_strength > 0.5

    def test_nan_rejected(self):
        series = planted_series()
        series[3] = np.nan
        with pytest.raises(CDAError):
            decompose(series, 12)

    def test_sufficient_data_helper(self):
        assert sufficient_data(24, 12)
        assert not sufficient_data(23, 12)
        assert not sufficient_data(100, 1)


class TestSeasonalityDetection:
    def test_recovers_planted_period(self):
        result = detect_seasonality(planted_series(period=12))
        assert result.period == 12
        assert result.confidence > 0.8

    @pytest.mark.parametrize("period", [4, 6, 12])
    def test_various_periods(self, period):
        result = detect_seasonality(planted_series(n=10 * period, period=period))
        assert result.period == period

    def test_prefers_fundamental_over_harmonic(self):
        result = detect_seasonality(planted_series(period=6))
        assert result.period == 6  # not 12 or 18

    def test_white_noise_abstains(self):
        rng = np.random.default_rng(2)
        result = detect_seasonality(rng.normal(size=150))
        assert result.abstained
        assert result.sufficient

    def test_short_series_insufficient(self):
        result = detect_seasonality([1.0, 2.0, 3.0])
        assert result.abstained
        assert not result.sufficient

    def test_confidence_grows_with_length(self):
        short = detect_seasonality(planted_series(n=30, noise=1.2))
        long = detect_seasonality(planted_series(n=240, noise=1.2))
        assert long.confidence >= short.confidence

    def test_describe_mentions_period_and_confidence(self):
        result = detect_seasonality(planted_series())
        text = result.describe()
        assert "12" in text
        assert "%" in text

    def test_describe_abstention(self):
        result = detect_seasonality([1.0, 2.0])
        assert "too short" in result.describe()

    def test_trend_does_not_mask_seasonality(self):
        result = detect_seasonality(planted_series(slope=0.8))
        assert result.period == 12


class TestDescriptiveStats:
    def test_basic_stats(self):
        stats = describe([1.0, 2.0, 3.0, 4.0, None])
        assert stats.count == 4
        assert stats.nulls == 1
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_single_value(self):
        stats = describe([5.0])
        assert stats.std == 0.0

    def test_all_null_rejected(self):
        with pytest.raises(CDAError):
            describe([None, None])

    def test_describe_text(self):
        assert "mean=" in describe([1.0, 2.0]).describe()


class TestCorrelation:
    def test_planted_positive_correlation(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, size=100)
        y = 2 * x + rng.normal(0, 1, size=100)
        result = pearson_correlation(x.tolist(), y.tolist())
        assert result.coefficient > 0.9
        assert result.significant

    def test_null_pairs_dropped(self):
        result = pearson_correlation([1, 2, 3, None, 5], [2, 4, 6, 8, None])
        assert result.n == 3

    def test_constant_column_rejected(self):
        with pytest.raises(CDAError):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(CDAError):
            pearson_correlation([1, 2], [1])

    def test_describe_wording(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=50)
        y = x + rng.normal(0, 0.05, size=50)
        text = pearson_correlation(x.tolist(), y.tolist()).describe()
        assert "strong positive" in text


class TestOutliers:
    def test_iqr_finds_planted_outlier(self):
        values = list(np.linspace(1, 10, 50)) + [500.0]
        report = iqr_outliers(values)
        assert 500.0 in report.values

    def test_clean_data_no_outliers(self):
        rng = np.random.default_rng(5)
        report = iqr_outliers(rng.uniform(0, 1, size=100).tolist(), multiplier=3.0)
        assert report.count == 0

    def test_indices_refer_to_original_positions(self):
        values = [1.0, None, 1.1, 0.9, 1.0, 1.05, 0.95, 99.0]
        report = iqr_outliers(values)
        assert report.indices == [7]

    def test_describe(self):
        values = list(np.linspace(1, 10, 50)) + [500.0]
        assert "outlier" in iqr_outliers(values).describe()

    def test_minimums(self):
        with pytest.raises(CDAError):
            iqr_outliers([1.0, 2.0, 3.0])
