"""The shared read-only plan store: publish once, serve from every worker.

A compiled :class:`~repro.engine.plan.SamplerPlan` is a handful of
read-only arrays (the Cholesky factor, the inverter's lookup tables).
In a pre-fork fleet the arrays should exist *once* per machine, not
once per process.  :class:`MmapPlanStore` saves each array as an
individual ``.npy`` file next to a ``manifest.json`` and reloads it with
``np.load(..., mmap_mode="r")``, so the kernel page cache backs every
process with one physical copy.  (Individual ``.npy`` files, not an
NPZ: ``np.load`` silently ignores ``mmap_mode`` inside a zip archive.)

Publications are keyed by ``(model_id, generation)``.  A registry
hot-swap bumps the generation, so the next ``publish`` sees a different
key, publishes the new plan and **retires** every older generation of
that model — readers that already hold the old plan keep a valid (if
stale) snapshot, and new requests atomically see only the new one.

The published arrays are strictly read-only.  Sampling from a published
plan is bitwise identical to sampling from the local plan: the bytes are
the same, only their backing storage differs.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.engine.plan import SamplerPlan
from repro.telemetry import get_logger, metrics

__all__ = ["MmapPlanStore"]

_logger = get_logger("engine.store")

_PUBLISHED = metrics.REGISTRY.counter(
    "dpcopula_plan_store_published_total",
    "Plans published to the shared read-only store (label: backend)",
)
_RETIRED = metrics.REGISTRY.counter(
    "dpcopula_plan_store_retired_total",
    "Stale plan generations retired from the shared store (label: backend)",
)


class MmapPlanStore:
    """Publishes plans as memory-mapped ``.npy`` files on local disk.

    Layout::

        <directory>/<model_id>/gen-<generation>/
            manifest.json      metadata + array dtypes/shapes
            cholesky.npy       ... one file per plan array ...

    Publication is **multi-process safe**: each publisher stages the
    whole generation in a private ``gen-N.tmp-<pid>-<nonce>`` directory
    and commits it with one ``os.rename``.  When several pre-fork
    workers publish the same generation concurrently, exactly one
    rename wins; losers discard their staging copy and serve the
    winner's bytes (which are bitwise identical).  A crash mid-publish
    leaves only an invisible staging directory — never a torn
    generation.
    """

    backend = "mmap"

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._cache: Dict[str, Tuple[int, SamplerPlan]] = {}

    def _generation_dir(self, model_id: str, generation: int) -> Path:
        return self.directory / model_id / f"gen-{generation}"

    def publish(self, plan: SamplerPlan) -> SamplerPlan:
        """Publish ``plan`` (idempotent per generation); return the shared view.

        The returned plan serves from memory-mapped arrays.  Publishing
        a newer generation retires every older one of the same model.
        """
        with self._lock:
            cached = self._cache.get(plan.model_id)
            if cached is not None and cached[0] == plan.generation:
                return cached[1]
            target = self._generation_dir(plan.model_id, plan.generation)
            if not (target / "manifest.json").exists():
                self._write_generation(plan, target)
            try:
                shared = self._load_locked(plan.model_id, plan.generation)
            except (OSError, KeyError, ValueError):
                # A sibling process retired this generation between our
                # commit and the load (it published a newer one).  The
                # caller's local plan carries the same bytes.
                return plan
            self._cache[plan.model_id] = (plan.generation, shared)
            self._retire_older_locked(plan.model_id, plan.generation)
            return shared

    def _write_generation(self, plan: SamplerPlan, target: Path) -> None:
        """Stage the generation privately, then commit with one rename."""
        staging = target.with_name(
            f"{target.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        staging.mkdir(parents=True, exist_ok=True)
        try:
            manifest: Dict[str, Any] = dict(plan.metadata())
            manifest["arrays"] = {}
            for name, array in plan.arrays().items():
                np.save(staging / f"{name}.npy", array)
                manifest["arrays"][name] = {
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                }
            (staging / "manifest.json").write_text(
                json.dumps(manifest, sort_keys=True, indent=2) + "\n"
            )
            try:
                os.rename(staging, target)
            except OSError:
                # Lost the commit race: a sibling's complete directory
                # already occupies the target.  Its bytes are identical;
                # drop our staging copy and serve the winner's.
                shutil.rmtree(staging, ignore_errors=True)
                if not (target / "manifest.json").exists():
                    raise
                return
            _PUBLISHED.inc(backend=self.backend)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    def _load_locked(self, model_id: str, generation: int) -> SamplerPlan:
        target = self._generation_dir(model_id, generation)
        manifest = json.loads((target / "manifest.json").read_text())
        arrays = {
            name: np.load(target / f"{name}.npy", mmap_mode="r")
            for name in manifest["arrays"]
        }
        return SamplerPlan.from_arrays(arrays, manifest)

    def load(self, model_id: str) -> SamplerPlan:
        """Attach to the newest committed generation of ``model_id``.

        For readers that did not publish themselves (e.g. a pre-fork
        worker attaching to the fit owner's publication): scans the
        model's generation directories and memory-maps the highest one
        whose manifest is committed.  Raises ``KeyError`` when nothing
        is published.
        """
        with self._lock:
            model_dir = self.directory / model_id
            newest: Optional[int] = None
            for candidate in model_dir.glob("gen-*"):
                if not (candidate / "manifest.json").exists():
                    continue
                try:
                    generation = int(candidate.name.split("-", 1)[1])
                except (IndexError, ValueError):
                    continue
                if newest is None or generation > newest:
                    newest = generation
            if newest is None:
                raise KeyError(f"no plan published for model {model_id!r}")
            shared = self._load_locked(model_id, newest)
            self._cache[model_id] = (newest, shared)
            return shared

    def _retire_older_locked(self, model_id: str, generation: int) -> None:
        model_dir = self.directory / model_id
        for stale in model_dir.glob("gen-*"):
            try:
                stale_generation = int(stale.name.split("-", 1)[1])
            except (IndexError, ValueError):  # pragma: no cover - foreign file
                continue
            if stale_generation < generation:
                shutil.rmtree(stale, ignore_errors=True)
                _RETIRED.inc(backend=self.backend)
                _logger.debug(
                    "retired stale plan generation",
                    extra={"model_id": model_id, "generation": stale_generation},
                )

    def retire(self, model_id: str) -> None:
        """Drop every published generation of ``model_id``."""
        with self._lock:
            self._cache.pop(model_id, None)
            model_dir = self.directory / model_id
            if model_dir.exists():
                shutil.rmtree(model_dir, ignore_errors=True)
                _RETIRED.inc(backend=self.backend)

    def close(self) -> None:
        """Release cached plan handles (published files stay on disk)."""
        with self._lock:
            self._cache.clear()
