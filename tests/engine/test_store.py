"""The shared plan store: bitwise fidelity, generation retirement, lifecycle."""

import numpy as np
import pytest

from repro.engine import MmapPlanStore, compile_plan


class TestMmapStore:
    def test_published_plan_samples_bitwise(self, tmp_path, plan):
        store = MmapPlanStore(tmp_path / "plans")
        shared = store.publish(plan)
        local = plan.sample(300, np.random.default_rng(11))
        mapped = shared.sample(300, np.random.default_rng(11))
        np.testing.assert_array_equal(local.values, mapped.values)
        store.close()

    def test_publish_idempotent_per_generation(self, tmp_path, plan):
        store = MmapPlanStore(tmp_path / "plans")
        first = store.publish(plan)
        second = store.publish(plan)
        assert first is second  # served from the cache, not re-read
        store.close()

    def test_generation_bump_retires_stale_files(
        self, tmp_path, released_model, make_released_model
    ):
        store = MmapPlanStore(tmp_path / "plans")
        old = compile_plan(released_model, "m-1", generation=1)
        store.publish(old)
        assert (tmp_path / "plans" / "m-1" / "gen-1" / "manifest.json").exists()

        swapped = make_released_model(epsilon=2.0, seed=1)
        new = compile_plan(swapped, "m-1", generation=2)
        shared = store.publish(new)
        assert shared.generation == 2
        assert not (tmp_path / "plans" / "m-1" / "gen-1").exists()
        assert (tmp_path / "plans" / "m-1" / "gen-2" / "manifest.json").exists()
        # The new plan serves the new model's records.
        np.testing.assert_array_equal(
            shared.sample(50, np.random.default_rng(3)).values,
            new.sample(50, np.random.default_rng(3)).values,
        )

    def test_retire_drops_model(self, tmp_path, plan):
        store = MmapPlanStore(tmp_path / "plans")
        store.publish(plan)
        store.retire(plan.model_id)
        assert not (tmp_path / "plans" / plan.model_id).exists()

    def test_survives_process_restart(self, tmp_path, plan):
        """A fresh store over the same directory reuses published files."""
        MmapPlanStore(tmp_path / "plans").publish(plan)
        rebooted = MmapPlanStore(tmp_path / "plans")
        shared = rebooted.publish(plan)
        np.testing.assert_array_equal(
            shared.sample(40, np.random.default_rng(2)).values,
            plan.sample(40, np.random.default_rng(2)).values,
        )


# -- separate-process attachment ------------------------------------------
#
# The store exists for pre-fork fleets, so the contract that matters is
# cross-*process*: a true child process (fork) attaches to a publication
# it did not create and samples bitwise identically.

def _mmap_attach_child(directory, model_id, n, seed, out_queue):
    import numpy as np

    from repro.engine import MmapPlanStore

    store = MmapPlanStore(directory)
    try:
        plan = store.load(model_id)
        data = plan.sample(n, np.random.default_rng(seed))
        out_queue.put((plan.generation, data.values.tobytes(), data.values.shape))
    finally:
        store.close()


def _run_child(target, args, timeout=60):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    out_queue = ctx.Queue()
    process = ctx.Process(target=target, args=(*args, out_queue))
    process.start()
    try:
        result = out_queue.get(timeout=timeout)
    finally:
        process.join(timeout=timeout)
        if process.is_alive():  # pragma: no cover - hung child
            process.terminate()
    assert process.exitcode == 0
    return result


class TestSeparateProcessAttach:
    def test_mmap_store_attaches_from_child_process(self, tmp_path, plan):
        directory = tmp_path / "plans"
        MmapPlanStore(directory).publish(plan)
        generation, raw, shape = _run_child(
            _mmap_attach_child, (directory, plan.model_id, 120, 77)
        )
        assert generation == plan.generation
        local = plan.sample(120, np.random.default_rng(77)).values
        child = np.frombuffer(raw, dtype=np.int64).reshape(shape)
        np.testing.assert_array_equal(child, local)

    def test_mmap_load_without_publication_raises(self, tmp_path):
        store = MmapPlanStore(tmp_path / "plans")
        try:
            with pytest.raises(KeyError):
                store.load("never-published")
        finally:
            store.close()
