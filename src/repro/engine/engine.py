"""The sampling-engine facade the synthesis service talks to.

:class:`SamplingEngine` puts the engine layers behind one call: resolve
the model's compiled plan (from a provider such as
:meth:`~repro.service.registry.ModelRegistry.get_plan`), optionally
re-home its arrays in a shared read-only store, mint the request's
generator, and draw directly from the plan.  Every request is an
independent draw; the only state requests share is the read-only plan.

Seeding contract: a request with an explicit ``seed`` gets exactly
``np.random.default_rng(seed)`` — bitwise the generator the pre-engine
serve path used — so seeded requests reproduce historical responses.
Unseeded requests draw from per-request children of one root
``SeedSequence``: statistically independent substreams with no shared
mutable generator state between concurrent requests.

Overload: the engine counts draws in flight and refuses any draw past
``max_in_flight`` with :class:`EngineOverloadedError`, which the
service maps to HTTP 429 + ``Retry-After``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.engine.plan import SamplerPlan
from repro.telemetry import current_context, get_logger, metrics

__all__ = ["EngineOverloadedError", "SamplingEngine"]

_logger = get_logger("engine.engine")

_ENGINE_SECONDS = metrics.REGISTRY.histogram(
    "dpcopula_engine_sample_seconds",
    "Engine sample-request wall-clock seconds (plan resolve + draw)",
)
_REJECTED = metrics.REGISTRY.counter(
    "dpcopula_engine_rejected_total",
    "Sample draws refused because the in-flight limit was reached",
)


class EngineOverloadedError(RuntimeError):
    """The engine already has its limit of draws in flight.

    ``retry_after`` is a backoff hint the service layer surfaces as a
    ``Retry-After`` header on the 429 response.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class SamplingEngine:
    """Serve-side sampling: compiled plans, shared arrays, direct draws.

    Parameters
    ----------
    plan_provider:
        ``model_id -> SamplerPlan``; raises ``KeyError`` for unknown
        models.  The provider owns plan caching and generation tagging
        (the registry's ``get_plan``).
    max_in_flight:
        Bound on concurrent draws; a draw past it is refused with
        :class:`EngineOverloadedError`.  ``None`` disables the bound.
    store:
        Optional shared plan store (``MmapPlanStore``); ``None`` serves
        plans process-local.
    seed_root:
        Entropy for the unseeded-request ``SeedSequence``; ``None``
        pulls OS entropy.
    """

    def __init__(
        self,
        plan_provider: Callable[[str], SamplerPlan],
        max_in_flight: Optional[int] = None,
        store=None,
        seed_root: Optional[int] = None,
    ):
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self._provider = plan_provider
        self._max_in_flight = max_in_flight
        self._store = store
        self._lock = threading.Lock()
        self._in_flight = 0
        self._seed_sequence = np.random.SeedSequence(seed_root)

    def request_generator(self, seed: Optional[int]) -> np.random.Generator:
        """The request's private generator (see the seeding contract)."""
        if seed is not None:
            return np.random.default_rng(seed)
        with self._lock:
            child = self._seed_sequence.spawn(1)[0]
        return np.random.default_rng(child)

    def plan(self, model_id: str) -> SamplerPlan:
        """The model's current plan, re-homed in the shared store if any."""
        plan = self._provider(model_id)
        if self._store is not None:
            plan = self._store.publish(plan)
        return plan

    def sample(
        self,
        model_id: str,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Dataset:
        """Draw ``n`` synthetic records (``None``: the model's own size).

        Raises ``KeyError`` for unknown models and
        :class:`EngineOverloadedError` when ``max_in_flight`` draws are
        already running.  Pure post-processing: no privacy budget is
        spent here.
        """
        started = time.perf_counter()
        with self._lock:
            if (
                self._max_in_flight is not None
                and self._in_flight >= self._max_in_flight
            ):
                _REJECTED.inc()
                raise EngineOverloadedError(
                    f"sampling engine overloaded: {self._in_flight} draws "
                    f"already in flight (limit {self._max_in_flight})"
                )
            self._in_flight += 1
        try:
            plan = self.plan(model_id)
            if n is None:
                n = plan.n_records
            synthetic = plan.sample(n, self.request_generator(seed))
        finally:
            with self._lock:
                self._in_flight -= 1
        # Exemplar: the request id joins this latency bucket to the
        # request's exported trace (JSON snapshot only, never the text
        # exposition).
        context = current_context()
        _ENGINE_SECONDS.observe(
            time.perf_counter() - started,
            exemplar=context.get("request_id") or context.get("job_id"),
        )
        return synthetic

    def pending(self) -> int:
        """Draws in flight right now (scrape-time gauge source)."""
        with self._lock:
            return self._in_flight

    def close(self) -> None:
        """Release the shared store's handles, if one is configured."""
        if self._store is not None:
            self._store.close()
