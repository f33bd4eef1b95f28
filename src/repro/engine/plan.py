"""Compiled sampler plans: per-model work done once, not per request.

Sampling a released copula model (paper Algorithm 3) splits into two
kinds of work.  *Per-model* work — repairing and factorizing the DP
correlation matrix, normalizing the noisy margin counts into CDF lookup
tables — depends only on the released state and is identical for every
request.  *Per-request* work — drawing latent normals, the normal-CDF
push, the inverse-margin lookup — is three vectorized passes.  A
:class:`SamplerPlan` hoists all per-model work to compile time so the
request path is exactly those three passes against read-only arrays.

Bitwise contract: for the same ``np.random.Generator`` state,
:meth:`SamplerPlan.sample` produces bit-for-bit the records of
:meth:`repro.io.ReleasedModel.sample` — the plan caches the *inputs*
to the hot loop (Cholesky factor, inverter tables), never changes the
operations.  (The normal-CDF push uses :func:`scipy.special.ndtr`
directly — the exact kernel ``scipy.stats.norm.cdf`` evaluates, minus
the distribution-dispatch overhead; the outputs are bit-identical.)
The draw runs in blocks of ``_BLOCK_ROWS`` rows, which bounds the
transient work arrays of a large request without changing its output.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np
from scipy import special as sc

from repro.core.sampling import BatchedMarginInverter
from repro.data.dataset import Attribute, Dataset, Schema
from repro.io import ReleasedModel
from repro.stats.copula_math import cholesky_factor
from repro.stats.ecdf import HistogramCDF
from repro.utils import check_int_at_least

__all__ = ["SamplerPlan", "compile_plan"]

#: Version tag for published plan arrays; bump when the array set or
#: their meaning changes so a stale shared store fails loudly.
PLAN_FORMAT_VERSION = 1

#: Rows per block of one draw.  Concurrent large requests each hold
#: only one block's latent, uniform and record arrays at a time.
_BLOCK_ROWS = 8192


class SamplerPlan:
    """Everything Algorithm 3 needs to sample, precomputed and read-only.

    Parameters
    ----------
    model_id:
        Registry id of the model this plan was compiled from.
    generation:
        Monotone per-model counter assigned by the registry; a hot-swap
        bumps it, which is how the shared store recognizes (and
        retires) stale plans.
    cholesky:
        Lower-triangular factor of the (repaired) DP correlation matrix.
    inverter:
        Precomputed :class:`~repro.core.sampling.BatchedMarginInverter`
        over the model's DP margins.
    schema:
        Output schema (the sampled ``Dataset``'s domain metadata).
    n_records:
        The model's default sample size.
    epsilon:
        Privacy budget recorded on the released model (metadata only).
    """

    __slots__ = (
        "model_id",
        "generation",
        "cholesky",
        "inverter",
        "schema",
        "n_records",
        "epsilon",
    )

    def __init__(
        self,
        model_id: str,
        generation: int,
        cholesky: np.ndarray,
        inverter: BatchedMarginInverter,
        schema: Schema,
        n_records: int,
        epsilon: float,
    ):
        self.model_id = str(model_id)
        self.generation = int(generation)
        self.cholesky = np.asarray(cholesky, dtype=float)
        self.inverter = inverter
        self.schema = schema
        self.n_records = int(n_records)
        self.epsilon = float(epsilon)
        if self.cholesky.ndim != 2 or self.cholesky.shape[0] != self.cholesky.shape[1]:
            raise ValueError(
                f"cholesky must be square, got shape {self.cholesky.shape}"
            )
        if self.cholesky.shape[0] != schema.dimensions:
            raise ValueError(
                f"cholesky is {self.cholesky.shape[0]}-dimensional but the "
                f"schema has {schema.dimensions} attributes"
            )

    @property
    def m(self) -> int:
        """Number of attributes (the latent dimension)."""
        return self.cholesky.shape[0]

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        """One request: bitwise identical to ``ReleasedModel.sample``.

        The rows are drawn ``_BLOCK_ROWS`` at a time: ``standard_normal``
        fills C-order rows from one stream, so row blocks consume the
        generator exactly as one whole draw does.
        """
        check_int_at_least("n", n, 1)
        out = np.empty((n, self.m), dtype=np.int64)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            latent = rng.standard_normal((stop - start, self.m)) @ self.cholesky.T
            out[start:stop] = self.inverter(sc.ndtr(latent))
        return Dataset(out, self.schema)

    # -- publication ------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The plan's numeric state, for the shared store."""
        tables = self.inverter.tables()
        return {
            "cholesky": self.cholesky,
            "margin_flat": tables["flat"],
            "margin_bands": tables["bands"],
            "margin_starts": tables["starts"],
            "margin_limits": tables["limits"],
        }

    def metadata(self) -> Dict[str, Any]:
        """The plan's non-array state, JSON-serializable."""
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "model_id": self.model_id,
            "generation": self.generation,
            "schema": [[a.name, a.domain_size] for a in self.schema],
            "n_records": self.n_records,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], metadata: Dict[str, Any]
    ) -> "SamplerPlan":
        """Rebuild a plan around published (memory-mapped) arrays.

        The arrays are used as-is — no copies — so many processes can
        serve from one physical plan.
        """
        version = int(metadata.get("format_version", 1))
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(
                f"published plan has format version {version}; this build "
                f"reads version {PLAN_FORMAT_VERSION}"
            )
        schema = Schema(
            Attribute(name, int(size)) for name, size in metadata["schema"]
        )
        inverter = BatchedMarginInverter.from_tables(
            arrays["margin_flat"],
            arrays["margin_bands"],
            arrays["margin_starts"],
            arrays["margin_limits"],
        )
        return cls(
            model_id=metadata["model_id"],
            generation=metadata["generation"],
            cholesky=arrays["cholesky"],
            inverter=inverter,
            schema=schema,
            n_records=metadata["n_records"],
            epsilon=metadata["epsilon"],
        )


def compile_plan(
    model: ReleasedModel, model_id: str, generation: int = 1
) -> SamplerPlan:
    """Compile a released model's per-model sampling work into a plan.

    Performs exactly the per-model steps of
    :func:`repro.core.sampling.sample_synthetic` — PSD repair + Cholesky
    via :func:`repro.stats.copula_math.cholesky_factor`, margin CDF
    normalization, inverter table construction — so plan-based sampling
    is bitwise identical to the uncompiled path.
    """
    cholesky = cholesky_factor(model.correlation)
    margins = [HistogramCDF(counts) for counts in model.margin_counts]
    inverter = BatchedMarginInverter(margins)
    return SamplerPlan(
        model_id=model_id,
        generation=generation,
        cholesky=cholesky,
        inverter=inverter,
        schema=model.schema,
        n_records=model.n_records,
        epsilon=model.epsilon,
    )
