"""Compiled sampler plans: bitwise fidelity to the uncompiled path."""

import numpy as np
import pytest
from scipy import special

from repro.engine import SamplerPlan, compile_plan
from repro.engine.plan import _BLOCK_ROWS


class TestCompile:
    def test_metadata_carried(self, plan, released_model):
        assert plan.model_id == "m-test"
        assert plan.generation == 1
        assert plan.m == released_model.schema.dimensions
        assert plan.n_records == released_model.n_records
        assert plan.epsilon == released_model.epsilon

    def test_cholesky_reconstructs_correlation(self, plan, released_model):
        np.testing.assert_allclose(
            plan.cholesky @ plan.cholesky.T,
            released_model.correlation,
            atol=1e-8,
        )

    def test_dimension_mismatch_rejected(self, plan, released_model):
        with pytest.raises(ValueError, match="schema"):
            SamplerPlan(
                "m",
                1,
                np.eye(plan.m + 1),
                plan.inverter,
                released_model.schema,
                10,
                1.0,
            )


class TestSampleBitwise:
    def test_matches_released_model_sample(self, plan, released_model):
        """The compiled path must reproduce the uncompiled path exactly."""
        baseline = released_model.sample(500, rng=np.random.default_rng(42))
        compiled = plan.sample(500, np.random.default_rng(42))
        np.testing.assert_array_equal(compiled.values, baseline.values)
        assert compiled.schema == baseline.schema

    def test_chunked_equals_single_pass(self, plan):
        """The blocked draw equals one unblocked pass over every row."""
        n = 2 * _BLOCK_ROWS + 301
        rng = np.random.default_rng(7)
        latent = rng.standard_normal((n, plan.m)) @ plan.cholesky.T
        single_pass = plan.inverter(special.ndtr(latent))
        blocked = plan.sample(n, np.random.default_rng(7))
        np.testing.assert_array_equal(blocked.values, single_pass)

    def test_multi_block_matches_released_model_sample(self, plan, released_model):
        """A draw spanning several blocks reproduces the uncompiled path."""
        assert 20_000 > 2 * _BLOCK_ROWS
        baseline = released_model.sample(20_000, rng=np.random.default_rng(3))
        compiled = plan.sample(20_000, np.random.default_rng(3))
        np.testing.assert_array_equal(compiled.values, baseline.values)

    def test_invalid_n_rejected(self, plan):
        with pytest.raises(ValueError, match="n must be"):
            plan.sample(0, np.random.default_rng(0))


class TestPublication:
    def test_from_arrays_roundtrip_bitwise(self, plan):
        rebuilt = SamplerPlan.from_arrays(plan.arrays(), plan.metadata())
        assert rebuilt.model_id == plan.model_id
        assert rebuilt.generation == plan.generation
        original = plan.sample(200, np.random.default_rng(5))
        roundtrip = rebuilt.sample(200, np.random.default_rng(5))
        np.testing.assert_array_equal(original.values, roundtrip.values)

    def test_format_version_enforced(self, plan):
        metadata = plan.metadata()
        metadata["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            SamplerPlan.from_arrays(plan.arrays(), metadata)

    def test_generation_tag_flows_through(self, released_model):
        plan = compile_plan(released_model, "m-x", generation=7)
        assert plan.generation == 7
        assert plan.metadata()["generation"] == 7
