"""The sampling engine: compiled plans, one shared store, direct draws.

The serve hot path (``POST /models/<id>/sample``) used to repeat
per-model work on every request: re-factorize the correlation matrix,
rebuild the inverse-margin lookup tables, revalidate the schema.  This
package compiles that work into a :class:`~repro.engine.plan.SamplerPlan`
once per model and serves every subsequent request from the plan:

* :mod:`repro.engine.plan` — the compiled plan itself (cached Cholesky
  factor, precomputed :class:`~repro.core.sampling.BatchedMarginInverter`
  tables, domain metadata) and its blocked draw;
* :mod:`repro.engine.store` — read-only plan publication via
  memory-mapped ``.npy`` files, generation-tagged so registry hot-swaps
  retire stale plans atomically;
* :mod:`repro.engine.engine` — the facade the service talks to: one
  direct plan draw per request, with a bound on draws in flight.

Every request is an independent draw — latent normals, one GEMM,
``ndtr`` and a margin lookup — and requests share nothing but the
read-only plan.  Everything here is pure post-processing of
already-released DP state: no code path in this package ever touches
original data or spends ε.
"""

from repro.engine.engine import EngineOverloadedError, SamplingEngine
from repro.engine.plan import SamplerPlan, compile_plan
from repro.engine.store import MmapPlanStore

__all__ = [
    "EngineOverloadedError",
    "MmapPlanStore",
    "SamplerPlan",
    "SamplingEngine",
    "compile_plan",
]
