"""The engine facade: seeding contract, in-flight bound, store composition."""

import sys
import threading

import numpy as np
import pytest

from repro.engine import (
    EngineOverloadedError,
    MmapPlanStore,
    SamplingEngine,
    compile_plan,
)
from repro.telemetry import metrics


@pytest.fixture
def engine(plan):
    return SamplingEngine({"m-test": plan}.__getitem__)


class TestSeedingContract:
    def test_seeded_matches_pre_engine_path(self, engine, released_model):
        """An explicit seed reproduces the historical serve response."""
        baseline = released_model.sample(200, rng=np.random.default_rng(42))
        served = engine.sample("m-test", 200, seed=42)
        np.testing.assert_array_equal(served.values, baseline.values)

    def test_seeded_is_stable_across_calls(self, engine):
        first = engine.sample("m-test", 100, seed=7)
        second = engine.sample("m-test", 100, seed=7)
        np.testing.assert_array_equal(first.values, second.values)

    def test_unseeded_requests_differ(self, engine):
        first = engine.sample("m-test", 100)
        second = engine.sample("m-test", 100)
        assert not np.array_equal(first.values, second.values)

    def test_default_n_is_model_size(self, engine, plan):
        assert engine.sample("m-test", seed=1).n_records == plan.n_records

    def test_unknown_model_raises_keyerror(self, engine):
        with pytest.raises(KeyError):
            engine.sample("nope", 10)
        assert engine.pending() == 0

    def test_concurrent_requests_bitwise_equal_serial(self, engine):
        """Concurrent draws from one plan share nothing mutable."""
        seeds = list(range(8))
        expected = {s: engine.sample("m-test", 300, seed=s).values for s in seeds}
        results = {}

        def draw(seed):
            results[seed] = engine.sample("m-test", 300, seed=seed).values

        threads = [threading.Thread(target=draw, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(results) == seeds
        for seed in seeds:
            np.testing.assert_array_equal(results[seed], expected[seed])
        assert engine.pending() == 0


def _rejected() -> float:
    return metrics.REGISTRY.get("dpcopula_engine_rejected_total").value()


class TestInFlightBound:
    def test_draw_past_the_limit_is_refused(self, plan):
        """With one draw in flight, a second concurrent draw gets 429-bound."""
        entered, release = threading.Event(), threading.Event()

        def blocking_provider(model_id):
            entered.set()
            assert release.wait(timeout=30)
            return plan

        engine = SamplingEngine(blocking_provider, max_in_flight=1)
        outcome = {}
        first = threading.Thread(
            target=lambda: outcome.update(first=engine.sample("m-test", 20, seed=1))
        )
        first.start()
        try:
            assert entered.wait(timeout=30)
            assert engine.pending() == 1
            rejected = _rejected()
            with pytest.raises(EngineOverloadedError, match="in flight") as excinfo:
                engine.sample("m-test", 20, seed=2)
            assert excinfo.value.retry_after > 0
            assert _rejected() == rejected + 1
        finally:
            release.set()
            first.join(timeout=30)
        assert outcome["first"].n_records == 20
        assert engine.pending() == 0

    def test_failed_draw_releases_its_slot(self, plan):
        def failing_provider(model_id):
            raise RuntimeError("boom")

        engine = SamplingEngine(failing_provider, max_in_flight=1)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="boom"):
                engine.sample("m-test", 10)
        assert engine.pending() == 0

    def test_counter_survives_contention(self, plan):
        """Many threads, tiny switch interval: no lost update on the count."""
        limit, active, peak = 3, [0], [0]
        guard = threading.Lock()

        def counting_provider(model_id):
            with guard:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            with guard:
                active[0] -= 1
            return plan

        engine = SamplingEngine(counting_provider, max_in_flight=limit)
        outcomes = []

        def hammer():
            for seed in range(40):
                try:
                    engine.sample("m-test", 5, seed=seed)
                    outcomes.append("served")
                except EngineOverloadedError:
                    outcomes.append("refused")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 12 * 40
        assert peak[0] <= limit
        assert engine.pending() == 0

    def test_invalid_limit_rejected(self, plan):
        with pytest.raises(ValueError, match="max_in_flight"):
            SamplingEngine({"m-test": plan}.__getitem__, max_in_flight=0)


class TestComposition:

    def test_with_store_seeded_still_bitwise(self, tmp_path, plan, released_model):
        engine = SamplingEngine(
            {"m-test": plan}.__getitem__,
            store=MmapPlanStore(tmp_path / "plans"),
        )
        baseline = released_model.sample(150, rng=np.random.default_rng(5))
        served = engine.sample("m-test", 150, seed=5)
        np.testing.assert_array_equal(served.values, baseline.values)
        engine.close()

    def test_store_follows_generation(self, tmp_path, released_model, make_released_model):
        """A provider that swaps generations flows through the store."""
        plans = {"m-1": compile_plan(released_model, "m-1", generation=1)}
        engine = SamplingEngine(
            plans.__getitem__, store=MmapPlanStore(tmp_path / "plans")
        )
        before = engine.sample("m-1", 60, seed=9)

        swapped = make_released_model(epsilon=2.0, seed=1)
        plans["m-1"] = compile_plan(swapped, "m-1", generation=2)
        after = engine.sample("m-1", 60, seed=9)

        np.testing.assert_array_equal(
            after.values, swapped.sample(60, rng=np.random.default_rng(9)).values
        )
        assert not np.array_equal(before.values, after.values)
        engine.close()
