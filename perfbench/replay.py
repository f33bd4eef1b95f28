"""The traced run: replay requests and fits in-process, layer by layer.

Spans are recorded here, in the benchmark, around calls to each layer's
public functions; nothing inside ``src/`` is instrumented for it.  A
fit's inner stages come from the spans the library already emits,
collected with :func:`repro.telemetry.trace.trace_root`; those carry
durations only, so their starts are packed back to back under their
parent.

Every span records its name, start, end, parent and trace id.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterator, List

import numpy as np
from scipy import special

from repro.core.dpcopula import DEFAULT_RATIO_K, DPCopulaKendall
from repro.data.dataset import Dataset
from repro.engine import compile_plan
from repro.io import ReleasedModel
from repro.resilience.journal import JobRecord
from repro.service import ServiceConfig, SynthesisService
from repro.service.jobs import FitCheckpoint
from repro.service.registry import ModelRegistry
from repro.service.serializers import dataset_to_rows
from repro.telemetry import trace

import spec
from server import BenchError
from workloads import same_release

#: Serve-path spans reported as ``<name>_ms`` per-layer metrics.
SAMPLE_LAYERS = (
    "service.registry.record",
    "engine.plan.latent",
    "engine.plan.gemm",
    "engine.plan.ndtr",
    "core.sampling.invert",
    "service.serializers.rows",
    "service.http.encode",
)

#: Fit-path span name to per-layer metric (per fit, summed over repeats).
FIT_LAYERS = {
    "service.accountant.charge": "service.accountant.charge_ms",
    "service.registry.put": "service.registry.put_ms",
    "resilience.journal.checkpoint": "resilience.journal.checkpoint_ms",
    "margin": "core.margins.fit_ms",
    "kendall_matrix": "stats.kendall.matrix_ms",
    "parallel.map_tasks": "parallel.map_tasks_ms",
    "laplace_noise": "core.kendall_matrix.noise_ms",
    "psd_repair": "stats.psd_repair.ms",
}


class Tracer:
    """In-memory span recorder; :meth:`write` dumps it when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = self._add(name, trace_id, time.perf_counter(), None, attrs)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _add(self, name, trace_id, start, end, attrs, parent=None) -> Dict[str, Any]:
        if parent is None and self._open:
            parent = self._open[-1]
        record = {"id": len(self.spans), "trace": trace_id, "parent": parent,
                  "name": name, "start": start, "end": end, "attrs": dict(attrs)}
        self.spans.append(record)
        return record

    def graft(self, node: trace.Span, trace_id: str, parent: int, start: float) -> None:
        """Add a library span tree under ``parent``, starts packed."""
        record = self._add(node.name, trace_id, start, start + (node.duration or 0.0),
                           node.attrs, parent=parent)
        offset = start
        for child in node.children:
            self.graft(child, trace_id, record["id"], offset)
            offset += child.duration or 0.0

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["trace"] == trace_id]

    def write(self, path: Path) -> None:
        """One JSON line per span, with its self time."""
        own = self_times(self.spans)
        with path.open("w") as handle:
            for record in self.spans:
                line = dict(record, self=own[record["id"]])
                handle.write(json.dumps(line, default=str) + "\n")


def duration(record: Dict[str, Any]) -> float:
    return record["end"] - record["start"]


def total(spans: List[Dict[str, Any]], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(duration(s) for s in spans if s["name"] == name)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id to duration minus the duration of its children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def stage_time(spans: List[Dict[str, Any]], root: Dict[str, Any], *excluded: str) -> float:
    """Summed self time of every span under ``root`` but ``excluded``."""
    own = self_times(spans)
    return sum(
        own[s["id"]] for s in spans if s["id"] != root["id"] and s["name"] not in excluded
    )


class _TracedCheckpoint:
    """A :class:`FitCheckpoint` whose saves are spans of the library trace."""

    def __init__(self, inner: FitCheckpoint):
        self._inner = inner

    def load(self, stage: str):
        return self._inner.load(stage)

    def save(self, stage: str, arrays) -> None:
        with trace.span("resilience.journal.checkpoint", stage=stage):
            self._inner.save(stage, arrays)


class Replayer:
    """An in-process :class:`SynthesisService` the replay drives."""

    def __init__(self, data_dir: Path, epsilon_cap: float):
        self.service = SynthesisService(
            ServiceConfig(data_dir=data_dir, epsilon_cap=epsilon_cap,
                          trace_export_enabled=False)
        )
        self.tracer = Tracer()
        self.samples: List[Dict[str, float]] = []
        self.fits: List[Dict[str, float]] = []

    def close(self) -> None:
        self.service.close()

    # -- serve path -----------------------------------------------------------

    def sample(self, model_id: str, n: int, seed: int, expected: np.ndarray) -> None:
        """One request: untraced service call, then the traced layer chain."""
        service = self.service
        # Both calls start from a collected heap, so the collector's pauses
        # land alike in the untraced call and in the traced chain.
        gc.collect()
        started = time.perf_counter()
        result = service.sample(model_id, n=n, seed=seed)
        app_s = time.perf_counter() - started
        started = time.perf_counter()
        json.dumps(result).encode("utf-8")
        encode_s = time.perf_counter() - started
        served = np.asarray(result.pop("records"))
        del result
        gc.collect()

        trace_id = f"sample-{len(self.samples)}"
        tracer = self.tracer
        with tracer.span("replay.sample", trace_id, n=n, seed=seed) as root:
            with tracer.span("service.registry.record", trace_id):
                record = service.registry.record(model_id)
            with tracer.span("service.registry.get_plan", trace_id):
                plan = service.registry.get_plan(model_id)
            with tracer.span("engine.plan.latent", trace_id):
                latent = np.random.default_rng(seed).standard_normal((n, plan.m))
            with tracer.span("engine.plan.gemm", trace_id):
                latent = latent @ plan.cholesky.T
            with tracer.span("engine.plan.ndtr", trace_id):
                uniforms = special.ndtr(latent)
            with tracer.span("core.sampling.invert", trace_id):
                records = plan.inverter(uniforms)
            with tracer.span("service.serializers.rows", trace_id):
                document = dataset_to_rows(Dataset(records, plan.schema))
                document.update(model_id=model_id, dataset_id=record.dataset_id,
                                epsilon=record.epsilon, seed=seed, privacy_cost=0.0)
            with tracer.span("service.http.encode", trace_id):
                json.dumps(document).encode("utf-8")
        del document

        if not (np.array_equal(records, expected) and np.array_equal(served, expected)):
            raise BenchError(
                f"replay seed={seed}: traced records, SynthesisService.sample and "
                "the HTTP response are not bitwise equal"
            )
        spans = tracer.trace(trace_id)
        row = {f"{name}_ms": total(spans, name) * 1e3 for name in SAMPLE_LAYERS}
        row["service.app.sample_ms"] = app_s * 1e3
        # The HTTP layer encodes after SynthesisService.sample returns.
        row["trace.reconcile_share"] = stage_time(spans, root, "service.http.encode") / app_s
        row["trace.overhead_share"] = duration(root) / (app_s + encode_s) - 1.0
        self.samples.append(row)

    def cold_plan(self, model_id: str) -> None:
        """A cold ``get_plan`` on a fresh registry, then ``compile_plan``."""
        trace_id = f"cold-{model_id}"
        directory = self.service.registry.directory
        with self.tracer.span("service.registry.cold_plan", trace_id):
            ModelRegistry(directory).get_plan(model_id)
        model = ReleasedModel.load(directory / f"{model_id}.npz")
        with self.tracer.span("engine.plan.compile", trace_id):
            compile_plan(model, model_id)

    # -- fit path -------------------------------------------------------------

    def fit(self, dataset_id: str, fit_seed: int, job_id: str) -> str:
        """Untraced service fit, then the traced layer chain, same seed.

        Returns the model id of the traced fit; raises when the two
        releases are not bitwise equal.
        """
        service = self.service
        epsilon = spec.FIT_EPSILON
        started = time.perf_counter()
        job = service.submit_fit({"dataset_id": dataset_id, "method": "kendall",
                                  "epsilon": epsilon, "seed": fit_seed})
        while job["status"] not in ("done", "failed", "cancelled"):
            if time.perf_counter() - started > 120.0:
                raise BenchError(f"replayed service fit {job['job_id']} timed out")
            time.sleep(0.0005)
            job = service.job_status(job["job_id"])
        whole_s = time.perf_counter() - started
        if job["status"] != "done":
            raise BenchError(f"replayed service fit ended {job['status']}: {job['error']}")

        trace_id = f"fit-{job_id}"
        tracer = self.tracer
        model_id = f"m-{job_id}"
        service.journal.create(JobRecord(job_id=job_id, dataset_id=dataset_id,
                                         method="kendall", epsilon=epsilon,
                                         k=DEFAULT_RATIO_K, seed=fit_seed))
        with tracer.span("replay.fit", trace_id, seed=fit_seed) as root:
            with tracer.span("service.datasets.get", trace_id):
                dataset = service.datasets.get(dataset_id)
            with tracer.span("service.accountant.charge", trace_id):
                service.accountant.charge(dataset_id, epsilon,
                                          label=f"fit:kendall:{job_id}",
                                          key=f"fit:{job_id}")
            synthesizer = DPCopulaKendall(epsilon, k=DEFAULT_RATIO_K, rng=fit_seed,
                                          context=service.context)
            checkpoint = _TracedCheckpoint(FitCheckpoint(service.journal, job_id))
            with tracer.span("core.dpcopula.fit", trace_id) as fit_span:
                with trace.trace_root("service.fit", method="kendall") as tree:
                    synthesizer.fit(dataset, checkpoint=checkpoint)
            tracer.graft(tree, trace_id, fit_span["id"], fit_span["start"])
            model = ReleasedModel.from_synthesizer(synthesizer)
            with tracer.span("service.registry.put", trace_id):
                service.registry.put(model, dataset_id=dataset_id, method="kendall",
                                     model_id=model_id)

        directory = service.registry.directory
        if not same_release(directory, job["model_id"], directory, model_id):
            raise BenchError(f"replayed fit seed={fit_seed}: traced and service "
                             "releases differ")
        spans = tracer.trace(trace_id)
        row = {metric: total(spans, name) * 1e3 for name, metric in FIT_LAYERS.items()}
        kendall = [s["attrs"]["n"] for s in spans if s["name"] == "kendall_matrix"]
        row["core.kendall_matrix.subsample_n"] = float(kendall[0]) if kendall else 0.0
        row["stats.psd_repair.repair_share"] = float(
            any(s["name"] == "psd_repair" for s in spans))
        row["trace.reconcile_share"] = stage_time(spans, root) / whole_s
        row["trace.overhead_share"] = duration(root) / whole_s - 1.0
        self.fits.append(row)
        return model_id

    # -- summary --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer medians over the replayed requests and fits.

        ``stats.psd_repair.repair_share`` is the mean of a 0/1 flag.  A
        fit dominates its workload, so on fit-then-sample the trace
        shares are the fits'; on serve-* they are the requests'.
        """
        cold = [s for s in self.tracer.spans if s["trace"].startswith("cold-")]
        out = {
            "service.registry.cold_plan_ms": _median_ms(cold, "service.registry.cold_plan"),
            "engine.plan.compile_ms": _median_ms(cold, "engine.plan.compile"),
        }
        for metric in FIT_LAYERS.values():
            out[metric] = 0.0
        for rows in (self.samples, self.fits):
            for metric in rows[0] if rows else ():
                out[metric] = float(median(row[metric] for row in rows))
        if self.fits:
            flags = [row["stats.psd_repair.repair_share"] for row in self.fits]
            out["stats.psd_repair.repair_share"] = sum(flags) / len(flags)
        else:
            out["core.kendall_matrix.subsample_n"] = 0.0
            out["stats.psd_repair.repair_share"] = 0.0
        return out


def _median_ms(spans: List[Dict[str, Any]], name: str) -> float:
    values = [duration(s) * 1e3 for s in spans if s["name"] == name]
    return float(median(values)) if values else 0.0
