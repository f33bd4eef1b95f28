"""Tests for the k-way marginal workload."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset, Schema
from repro.experiments import runner
from repro.histograms.base import DenseNoisyHistogram
from repro.queries.workloads import (
    KWayMarginal,
    all_kway,
    coarse_edges,
    evaluate_marginals,
    gaussian_copula_pair_probabilities,
    kway_marginal,
    marginal_probabilities,
)


class TestCoarseEdges:
    def test_small_domain_is_exact(self):
        assert coarse_edges(5, 8) == (0, 1, 2, 3, 4, 5)

    def test_large_domain_capped_at_bins(self):
        edges = coarse_edges(1000, 8)
        assert len(edges) == 9
        assert edges[0] == 0 and edges[-1] == 1000

    def test_edges_strictly_ascending(self):
        for domain in (1, 2, 7, 8, 9, 100, 999):
            edges = coarse_edges(domain, 8)
            assert all(b > a for a, b in zip(edges, edges[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            coarse_edges(0, 8)
        with pytest.raises(ValueError):
            coarse_edges(10, 0)


class TestKWayMarginal:
    def test_validation(self):
        with pytest.raises(ValueError):
            KWayMarginal(attributes=(), edges=())
        with pytest.raises(ValueError):
            KWayMarginal(attributes=(0, 0), edges=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            KWayMarginal(attributes=(0,), edges=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            KWayMarginal(attributes=(0,), edges=((1, 0),))

    def test_shape_and_cells(self):
        marginal = KWayMarginal(attributes=(0, 2), edges=((0, 5, 10), (0, 1, 2, 3)))
        assert marginal.k == 2
        assert marginal.shape == (2, 3)
        assert marginal.n_cells == 6

    def test_cell_queries_partition_the_domain(self):
        schema = Schema.from_domain_sizes([10, 4, 3])
        marginal = kway_marginal(schema, [0, 2], bins=2)
        queries = marginal.cell_queries(schema)
        assert len(queries) == marginal.n_cells
        # Every domain point matches exactly one cell query.
        rng = np.random.default_rng(0)
        data = Dataset(rng.integers(0, [10, 4, 3], size=(50, 3)), schema)
        total = sum(query.count(data) for query in queries)
        assert total == data.n_records

    def test_kway_marginal_rejects_bad_attribute(self):
        schema = Schema.from_domain_sizes([10, 4])
        with pytest.raises(ValueError):
            kway_marginal(schema, [2])


class TestAllKway:
    def test_counts_match_combinations(self):
        schema = Schema.from_domain_sizes([10] * 5)
        for k in (1, 2, 3):
            marginals = all_kway(schema, k)
            assert len(marginals) == len(
                list(itertools.combinations(range(5), k))
            )
            assert all(m.k == k for m in marginals)

    def test_rejects_k_above_dimensions(self):
        schema = Schema.from_domain_sizes([10, 10])
        with pytest.raises(ValueError):
            all_kway(schema, 3)

    def test_subsample_is_deterministic_and_ordered(self):
        schema = Schema.from_domain_sizes([10] * 8)
        first = all_kway(schema, 3, max_marginals=5, rng=42)
        second = all_kway(schema, 3, max_marginals=5, rng=42)
        assert [m.attributes for m in first] == [m.attributes for m in second]
        assert len(first) == 5
        # Stable combination order within the subsample.
        assert [m.attributes for m in first] == sorted(
            m.attributes for m in first
        )


class TestEvaluateMarginals:
    def test_self_evaluation_is_zero(self, small_dataset):
        marginals = all_kway(small_dataset.schema, 2, bins=6)
        evaluation = evaluate_marginals(small_dataset, marginals, small_dataset)
        assert evaluation.avg_tvd == 0.0
        assert evaluation.max_tvd == 0.0
        assert evaluation.avg_l1 == 0.0

    def test_dataset_and_answerer_paths_agree(self, small_dataset):
        counts = np.zeros((50, 40))
        np.add.at(
            counts, (small_dataset.column(0), small_dataset.column(1)), 1.0
        )
        histogram = DenseNoisyHistogram(counts)
        marginals = all_kway(small_dataset.schema, 2, bins=8)
        from_records = evaluate_marginals(small_dataset, marginals, small_dataset)
        from_structure = evaluate_marginals(histogram, marginals, small_dataset)
        for key in from_records.tvds:
            assert from_structure.tvds[key] == pytest.approx(
                from_records.tvds[key], abs=1e-12
            )

    def test_disjoint_support_scores_one(self):
        schema = Schema.from_domain_sizes([4])
        left = Dataset(np.zeros((10, 1), dtype=int), schema)
        right = Dataset(np.full((10, 1), 3), schema)
        marginals = all_kway(schema, 1, bins=4)
        evaluation = evaluate_marginals(left, marginals, right)
        assert evaluation.max_tvd == pytest.approx(1.0)

    def test_empty_workload_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="empty marginal workload"):
            evaluate_marginals(small_dataset, [], small_dataset)

    def test_empty_dataset_rejected(self, small_dataset):
        empty = Dataset(
            np.empty((0, 2), dtype=int), small_dataset.schema
        )
        marginals = all_kway(small_dataset.schema, 1)
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate_marginals(small_dataset, marginals, empty)

    def test_to_dict_round_trips_json(self, small_dataset):
        import json

        marginals = all_kway(small_dataset.schema, 2, bins=4)
        evaluation = evaluate_marginals(small_dataset, marginals, small_dataset)
        document = json.loads(json.dumps(evaluation.to_dict()))
        assert document["n_marginals"] == 1
        assert "0,1" in document["per_marginal"]


class TestGaussianCopulaPairProbabilities:
    def test_cells_form_a_distribution(self):
        margin_i = np.array([5.0, 10.0, 20.0, 5.0])
        margin_j = np.array([1.0, 2.0, 3.0])
        cells = gaussian_copula_pair_probabilities(
            margin_i, margin_j, 0.6, [0, 1, 2, 3, 4], [0, 1, 2, 3]
        )
        assert cells.shape == (4, 3)
        assert (cells >= 0.0).all()
        assert cells.sum() == pytest.approx(1.0)

    def test_independence_gives_product_of_margins(self):
        margin_i = np.array([3.0, 7.0])
        margin_j = np.array([2.0, 2.0, 6.0])
        cells = gaussian_copula_pair_probabilities(
            margin_i, margin_j, 0.0, [0, 1, 2], [0, 1, 2, 3]
        )
        expected = np.outer(margin_i / 10.0, margin_j / 10.0)
        np.testing.assert_allclose(cells, expected, atol=1e-12)

    def test_margins_are_preserved_at_any_rho(self):
        margin_i = np.array([1.0, 4.0, 2.0, 3.0])
        margin_j = np.array([6.0, 1.0, 3.0])
        for rho in (-0.9, -0.3, 0.5, 0.95):
            cells = gaussian_copula_pair_probabilities(
                margin_i, margin_j, rho, [0, 1, 2, 3, 4], [0, 1, 2, 3]
            )
            np.testing.assert_allclose(
                cells.sum(axis=1), margin_i / margin_i.sum(), atol=1e-9
            )
            np.testing.assert_allclose(
                cells.sum(axis=0), margin_j / margin_j.sum(), atol=1e-9
            )

    def test_comonotone_concentrates_mass(self):
        margin = np.array([1.0, 1.0, 1.0, 1.0])
        cells = gaussian_copula_pair_probabilities(
            margin, margin, 1.0, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]
        )
        np.testing.assert_allclose(cells, 0.25 * np.eye(4), atol=1e-12)

    def test_negative_margin_counts_are_clipped(self):
        cells = gaussian_copula_pair_probabilities(
            np.array([-2.0, 5.0, 5.0]),
            np.array([1.0, 1.0]),
            0.3,
            [0, 1, 2, 3],
            [0, 1, 2],
        )
        assert cells[0].sum() == pytest.approx(0.0, abs=1e-12)
        assert cells.sum() == pytest.approx(1.0)


_ALL_METHODS = sorted(runner._METHODS)


class TestTVDBounded:
    """Every method's marginal TVD is a distance between distributions."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(31)
        latent = rng.multivariate_normal(
            [0, 0, 0], [[1, 0.6, 0.2], [0.6, 1, 0.4], [0.2, 0.4, 1]], size=300
        )
        values = np.clip(((latent + 3) / 6 * [24, 16, 6]).astype(int), 0, [23, 15, 5])
        return Dataset(values, Schema.from_domain_sizes([24, 16, 6]))

    @pytest.mark.parametrize("name", _ALL_METHODS)
    @settings(max_examples=4, deadline=None)
    @given(
        epsilon=st.sampled_from([0.01, 0.1, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_tvd_in_unit_interval(self, data, name, epsilon, seed):
        marginals = [m for k in (1, 2) for m in all_kway(data.schema, k, bins=6)]
        # The 2-D-only grid methods score on the first two attributes.
        if name in ("ug", "ag"):
            data = data.project([0, 1])
            marginals = all_kway(data.schema, 2, bins=6)
        method = runner.make_method(name)
        assert method.supports(data)
        source = method.fit(data, epsilon, rng=seed)
        evaluation = evaluate_marginals(source, marginals, data)
        assert all(0.0 <= tvd <= 1.0 for tvd in evaluation.tvds.values())

    def test_all_negative_answers_fall_back_to_uniform(self, data):
        marginals = all_kway(data.schema, 1, bins=6)
        evaluation = evaluate_marginals(lambda query: -5.0, marginals, data)
        uniform = evaluate_marginals(lambda query: 1.0, marginals, data)
        assert evaluation.tvds == uniform.tvds
