"""Tests for Algorithm 3 (sampling DP synthetic data)."""

import numpy as np
import pytest

from repro.core.sampling import (
    BatchedMarginInverter,
    sample_pseudo_copula,
    sample_synthetic,
)
from repro.data.dataset import Schema
from repro.stats.correlation import correlation_from_tau
from repro.stats.ecdf import HistogramCDF
from repro.stats.kendall import kendall_tau


class TestSamplePseudoCopula:
    def test_shape_and_range(self):
        correlation = np.array([[1.0, 0.5], [0.5, 1.0]])
        u = sample_pseudo_copula(correlation, 500, rng=0)
        assert u.shape == (500, 2)
        assert (u > 0).all() and (u < 1).all()

    def test_uniform_margins(self):
        correlation = np.array([[1.0, 0.8], [0.8, 1.0]])
        u = sample_pseudo_copula(correlation, 20_000, rng=1)
        # Kolmogorov distance of each margin from U(0,1).
        for j in range(2):
            sorted_u = np.sort(u[:, j])
            grid = (np.arange(1, 20_001)) / 20_001
            assert np.abs(sorted_u - grid).max() < 0.02

    def test_dependence_matches_correlation(self):
        rho = 0.7
        correlation = np.array([[1.0, rho], [rho, 1.0]])
        u = sample_pseudo_copula(correlation, 8000, rng=2)
        tau = kendall_tau(u[:, 0], u[:, 1])
        assert correlation_from_tau(tau) == pytest.approx(rho, abs=0.05)

    def test_repairs_indefinite_input(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        u = sample_pseudo_copula(bad, 100, rng=3)
        assert u.shape == (100, 3)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_pseudo_copula(np.eye(2), 0)


class TestSampleSynthetic:
    def _margins_and_schema(self):
        margins = [
            HistogramCDF(np.array([10.0, 20.0, 30.0, 40.0])),
            HistogramCDF(np.ones(6)),
        ]
        schema = Schema.from_domain_sizes([4, 6])
        return margins, schema

    def test_output_schema_and_size(self):
        margins, schema = self._margins_and_schema()
        data = sample_synthetic(np.eye(2), margins, 300, schema, rng=0)
        assert data.n_records == 300
        assert data.schema == schema

    def test_margins_respected(self):
        margins, schema = self._margins_and_schema()
        data = sample_synthetic(np.eye(2), margins, 50_000, schema, rng=1)
        counts = data.marginal_counts(0)
        assert counts / counts.sum() == pytest.approx(
            [0.1, 0.2, 0.3, 0.4], abs=0.01
        )

    def test_dependence_propagates_to_output(self):
        rho = 0.85
        margins = [HistogramCDF(np.ones(100)), HistogramCDF(np.ones(100))]
        schema = Schema.from_domain_sizes([100, 100])
        correlation = np.array([[1.0, rho], [rho, 1.0]])
        data = sample_synthetic(correlation, margins, 6000, schema, rng=2)
        tau = kendall_tau(data.column(0), data.column(1))
        assert correlation_from_tau(tau) == pytest.approx(rho, abs=0.06)

    def test_rejects_margin_count_mismatch(self):
        margins, schema = self._margins_and_schema()
        with pytest.raises(ValueError):
            sample_synthetic(np.eye(3), margins, 10, schema)

    def test_rejects_domain_mismatch(self):
        margins = [HistogramCDF(np.ones(5)), HistogramCDF(np.ones(6))]
        schema = Schema.from_domain_sizes([4, 6])
        with pytest.raises(ValueError):
            sample_synthetic(np.eye(2), margins, 10, schema)

    def test_rejects_schema_width_mismatch(self):
        margins, _ = self._margins_and_schema()
        with pytest.raises(ValueError):
            sample_synthetic(
                np.eye(2), margins, 10, Schema.from_domain_sizes([4, 6, 2])
            )


def flat_search(inverter, uniforms):
    """The inverter's former single search over the whole flat table."""
    tables = inverter.tables()
    banded = np.clip(uniforms, 0.0, 1.0) + tables["bands"]
    flat_bins = np.searchsorted(tables["flat"], banded, side="left")
    local = flat_bins - tables["starts"]
    return np.clip(local, 0, tables["limits"]).astype(np.int64)


class TestBandedSearch:
    """Searching each margin's own band equals the flat-table search."""

    @pytest.fixture
    def margins(self):
        rng = np.random.default_rng(12)
        counts = [rng.uniform(0.0, 10.0, size=size) for size in (1, 2, 7, 40, 300)]
        # Empty bins give repeated knots, where side="left" ties matter.
        counts[3][5:9] = 0.0
        counts.append(np.array([0.0, 3.0, 0.0, 0.0, 1.0]))
        return [HistogramCDF(c) for c in counts]

    @pytest.fixture
    def inverter(self, margins):
        return BatchedMarginInverter(margins)

    def test_random_uniforms(self, inverter):
        uniforms = np.random.default_rng(3).uniform(size=(5000, inverter.n_margins))
        result = inverter(uniforms)
        assert result.dtype == np.int64 and result.flags.c_contiguous
        np.testing.assert_array_equal(result, flat_search(inverter, uniforms))

    @pytest.mark.parametrize(
        "value", [0.0, 1.0, -0.5, 1.5, -np.inf, np.inf, np.nan]
    )
    def test_edges_and_out_of_range(self, inverter, value):
        uniforms = np.full((3, inverter.n_margins), value)
        np.testing.assert_array_equal(
            inverter(uniforms), flat_search(inverter, uniforms)
        )

    def test_exact_cdf_knots(self, margins, inverter):
        knots = [margin.cdf for margin in margins]
        rows = max(k.size for k in knots)
        # Every knot of every margin, each column padded with its last knot.
        uniforms = np.column_stack(
            [np.concatenate([k, np.full(rows - k.size, k[-1])]) for k in knots]
        )
        np.testing.assert_array_equal(
            inverter(uniforms), flat_search(inverter, uniforms)
        )
