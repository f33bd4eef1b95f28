"""What the service benchmark measures: workloads, metrics and bounds.

This module is the single source for ``BENCHMARK.json`` (see
``run.py --write-manifest``) and for the names the run prints, so the
manifest and the measurement cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List

#: Seconds one run measures (the closed-loop window).
RUN_SECONDS = 20

#: Server launches per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3

#: Attributes per model, records in the fit dataset and each fit's ε.
ATTRIBUTES = 16
FIT_RECORDS = 100_000
FIT_EPSILON = 1.0

#: Mixed domain sizes spanning the paper's Section 5.4 range (5 to 1000).
#: The seed permutes them across attributes; the multiset stays fixed so
#: that the work per request does not vary with the seed.
DOMAIN_SIZES = (5, 10, 50, 100, 500, 1000, 5, 10, 50, 100, 500, 1000, 20, 200, 1000, 5)

WORKLOADS: Dict[str, Dict[str, object]] = {
    "serve-small": {
        "connections": 2,
        "n": 200,
        "why": "2 keep-alive clients sample n=200 from an m=16 model: per-request "
        "fixed cost (HTTP dispatch, sidecar read, coalescer, trace export, socket) dominates",
    },
    "serve-large": {
        "connections": 2,
        "n": 50_000,
        "why": "2 keep-alive clients sample n=50000 from the same m=16 model: the "
        "engine (normals, ndtr, margin inversion) and the JSON encoders dominate",
    },
    "fit-then-sample": {
        "connections": 1,
        "n": 1000,
        "why": "1 client fits Kendall at eps=1 on n=100000, m=16, polls to done, then "
        "samples n=1000 once: ledger, journal, Kendall tau and registry write path",
    },
}

#: (name, unit, better, bound, meaning).  Every metric applies to every
#: workload; the "operation" is one sample request on serve-* and one fit
#: through its first sample response on fit-then-sample.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median over the run's launches of server start to ready: interpreter start, "
     "model registration or CSV upload, one warm-up request per connection"),
    ("latency_p50_ms", "ms", "lower", 0.25,
     "median client time per operation, from send to the last body byte"),
    ("records_per_s", "1/s", "higher", 0.25,
     "synthetic records delivered per second of the timed window"),
    ("server_rss_mb", "MB", "lower", 0.1,
     "server peak resident memory (VmHWM) at the end of the run"),
]

#: (name, unit, better, meaning).  A layer a workload does not exercise
#: reads 0 there (for example the fit layers on serve-*).
PER_LAYER = [
    ("latency_p90_ms", "ms", "lower",
     "p90 client time per operation; 0 when fewer than 10 samples lie beyond it"),
    ("latency_samples", "count", "higher", "operations timed in the window"),
    ("fit_p50_s", "s", "lower", "median client time from POST /fits to a done job"),
    ("first_sample_ms", "ms", "lower", "median latency of the first sample request to a new model"),
    ("failed_share", "share", "lower", "failed operations over attempted operations"),
    ("service.http.handler_ms", "ms", "lower",
     "server handler time per sample request: delta sum/count of dpcopula_http_request_seconds"),
    ("service.http.encode_ms", "ms", "lower", "json.dumps of the response document (replay)"),
    ("service.http.wait_ms", "ms", "lower",
     "client p50 sample latency minus handler minus encode: socket write, transport, stalls"),
    ("service.http.response_bytes", "bytes", "lower", "mean sample response body size"),
    ("service.http.throttled", "count", "lower", "delta of dpcopula_http_throttled_total"),
    ("service.http.slow_requests", "count", "lower", "delta of dpcopula_http_slow_requests_total"),
    ("service.app.sample_ms", "ms", "lower", "one untraced SynthesisService.sample call (replay)"),
    ("service.registry.record_ms", "ms", "lower", "ModelRegistry.record, the per-request sidecar read"),
    ("service.registry.cold_plan_ms", "ms", "lower", "get_plan on a registry with an empty cache"),
    ("service.registry.put_ms", "ms", "lower", "ModelRegistry.put of a fitted model"),
    ("service.registry.plan_cache_misses", "count", "lower",
     "delta of dpcopula_plan_cache_misses_total in the window"),
    ("service.registry.plan_cache_hits", "count", "higher",
     "delta of dpcopula_plan_cache_hits_total in the window"),
    ("engine.coalesce.batch_size_mean", "count", "higher",
     "mean coalesced batch size: delta sum/count of dpcopula_coalesced_batch_size"),
    ("engine.coalesce.rejected", "count", "lower", "delta of dpcopula_engine_rejected_total"),
    ("engine.plan.latent_ms", "ms", "lower", "Generator.standard_normal for the latent block"),
    ("engine.plan.gemm_ms", "ms", "lower", "latent @ plan.cholesky.T"),
    ("engine.plan.ndtr_ms", "ms", "lower", "scipy.special.ndtr over the latent block"),
    ("core.sampling.invert_ms", "ms", "lower", "plan.inverter, the banded margin inversion"),
    ("engine.plan.compile_ms", "ms", "lower", "compile_plan of the released model"),
    ("service.serializers.rows_ms", "ms", "lower", "dataset_to_rows of the sampled records"),
    ("telemetry.export.traces_per_op", "count", "lower",
     "delta of dpcopula_traces_exported_total per operation"),
    ("telemetry.export.errors", "count", "lower", "delta of dpcopula_trace_export_errors_total"),
    ("service.jobs.overhead_ms", "ms", "lower",
     "client fit time minus server fit time (delta of dpcopula_fit_seconds), per fit"),
    ("service.accountant.charge_ms", "ms", "lower", "PrivacyAccountant.charge"),
    ("resilience.journal.checkpoint_ms", "ms", "lower", "FitCheckpoint.save calls, per fit"),
    ("core.margins.fit_ms", "ms", "lower", "the per-attribute DP margin spans, per fit"),
    ("stats.kendall.matrix_ms", "ms", "lower", "the kendall_matrix span (includes map_tasks)"),
    ("parallel.map_tasks_ms", "ms", "lower", "the parallel.map_tasks span of the tau fan-out"),
    ("core.kendall_matrix.noise_ms", "ms", "lower", "the laplace_noise span"),
    ("stats.psd_repair.ms", "ms", "lower", "the psd_repair span (0 when the fit needed none)"),
    ("core.kendall_matrix.subsample_n", "count", "lower", "records the tau matrix used (n-hat)"),
    ("stats.psd_repair.repair_share", "share", "lower", "share of replayed fits that needed PSD repair"),
    ("server.cpu_ms_per_op", "ms", "lower", "server utime+stime in the window per operation"),
    ("loadgen.cpu_share", "share", "lower", "load generator CPU time over window wall time"),
    ("trace.reconcile_share", "share", "higher",
     "sum of traced stage times over the untraced whole call (sample or fit)"),
    ("trace.overhead_share", "share", "lower",
     "traced whole call over the untraced whole call, minus 1"),
]

#: Stated bound on ``trace.reconcile_share`` for the workloads where the
#: traced stages must add up to the whole call.
RECONCILE_BOUNDS = (0.8, 1.2)
RECONCILED_WORKLOADS = ("serve-large", "fit-then-sample")


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def units(trace: bool) -> Dict[str, str]:
    """Metric name to unit for the metrics a run reports."""
    rows: List[tuple] = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in rows}
