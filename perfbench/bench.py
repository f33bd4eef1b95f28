"""One benchmark run: set-up, the timed window, gates, counters, replay."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import median
from typing import Dict, List

import numpy as np

from repro.io import ReleasedModel

import spec
from replay import Replayer
from server import BenchError, Client, Server, counter, histogram
from workloads import (
    DATASET_ID,
    MODEL_ID,
    FitOp,
    SampleOp,
    SeedStream,
    Window,
    check_sample,
    dataset_csv,
    fit_dataset,
    fit_once,
    fit_window,
    load_model,
    register_serve_model,
    same_release,
    sample_once,
    serve_model,
    serve_window,
)

ROOT = Path(__file__).resolve().parent.parent
#: Replay budget: requests per serve workload, fits on fit-then-sample.
REPLAY_SAMPLES = {"serve-small": 40, "serve-large": 8}
REPLAY_FITS = 2


class Bench:
    """One run of one workload against one server."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tmp = tmp
        self.n = int(spec.WORKLOADS[workload]["n"])
        self.connections = int(spec.WORKLOADS[workload]["connections"])
        self.is_fit = workload == "fit-then-sample"
        # Enough ε for every fit the window can run, plus the gate's refit.
        self.epsilon_cap = spec.FIT_EPSILON * (seconds + 20)
        self.servers: List[Server] = []
        self.clients: List[Client] = []
        self.failures: List[str] = []
        self.attempted = 0

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        for client in self.clients:
            client.close()
        for server in self.servers:
            server.kill()

    def gate(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def _setup(self, index: int) -> float:
        """Launch, register or upload, warm up; returns the seconds taken."""
        server = Server(ROOT, self.tmp / f"data{index}", self.epsilon_cap)
        self.servers.append(server)
        started = time.perf_counter()
        server.start()
        clients = [server.connect() for _ in range(self.connections)]
        self.clients = clients
        if self.is_fit:
            status, _ = clients[0].call(
                "POST", "/datasets", {"dataset_id": DATASET_ID, "csv": self.csv}
            )
            if status != 201:
                raise BenchError(f"dataset upload answered {status}")
            warm = [clients[0].call("GET", f"/datasets/{DATASET_ID}")[0]]
        else:
            register_serve_model(server.data_dir, self.model)
            warm = [
                sample_once(c, MODEL_ID, self.n, next(self.warm_seeds)).status
                for c in clients
            ]
        if any(status != 200 for status in warm):
            raise BenchError(f"warm-up answered {warm}")
        return time.perf_counter() - started

    # -- the run ------------------------------------------------------------------

    def run(self) -> Dict[str, float]:
        seed = self.seed
        self.warm_seeds = SeedStream(seed, 0)
        if self.is_fit:
            self.csv = dataset_csv(fit_dataset(seed))
        else:
            self.model = serve_model(seed)

        setups = []
        for index in range(spec.SETUPS_PER_RUN):
            setups.append(self._setup(index))
            if index < spec.SETUPS_PER_RUN - 1:
                for client in self.clients:
                    client.close()
                self.gate(self.servers[-1].stop(), f"server {index} stop overran")
        server, clients = self.servers[-1], self.clients

        before = clients[0].metrics()
        cpu_before, load_before = server.cpu_seconds(), _own_cpu()
        if self.is_fit:
            window = fit_window(clients[0], self.n, SeedStream(seed, 1),
                                SeedStream(seed, 2), self.seconds)
        else:
            window = serve_window(clients, self.n, SeedStream(seed, 1), self.seconds)
        cpu_after, load_after = server.cpu_seconds(), _own_cpu()
        after = clients[0].metrics()

        if self.is_fit:
            self._fit_gates(server, clients[0], window)
        rss_mb = server.peak_rss_mb()
        for client in clients:
            client.close()
        self.gate(server.stop(), "server stop overran")
        samples = self._check_samples(server, window)

        ops = max(len(window.ops), 1)
        out = self._end_to_end(window, setups, rss_mb)
        out.update(self._counters(before, after, window, samples, ops))
        out["server.cpu_ms_per_op"] = (cpu_after - cpu_before) * 1e3 / ops
        out["loadgen.cpu_share"] = (load_after - load_before) / window.seconds
        if not self.traced:
            self._print_stages(before, after)
            return out
        out.update(self._replay(server, window, samples))
        p50_ms = _median_ms([op.seconds for op in samples if op.status == 200])
        out["service.http.wait_ms"] = (
            p50_ms - out["service.http.handler_ms"] - out["service.http.encode_ms"]
        )
        return out

    def _fit_gates(self, server: Server, client: Client, window: Window) -> None:
        """Same-seed refit releases identical arrays; ledger spend adds up."""
        fits = sum(op.job_id is not None for op in window.ops)
        first = next((op for op in window.ops if op.status == "done"), None)
        if first is not None:
            again = fit_once(client, first.fit_seed, None, self.n)
            fits += again.job_id is not None
            models = server.data_dir / "models"
            self.gate(
                again.status == "done"
                and same_release(models, first.model_id, models, again.model_id),
                f"refit with seed {first.fit_seed} did not release identical arrays",
            )
        status, budget = client.call("GET", f"/datasets/{DATASET_ID}/budget")
        spent = budget.get("epsilon_spent") if status == 200 else None
        self.gate(
            spent is not None and abs(spent - fits * spec.FIT_EPSILON) < 1e-9,
            f"ledger spend {spent} != {fits} fits x eps {spec.FIT_EPSILON}",
        )

    def _check_samples(self, server: Server, window: Window) -> List[SampleOp]:
        """Every window operation, parsed and compared after the window.

        The server is stopped by now, so two worker processes share the
        parsing and the reference draws.
        """
        samples: List[SampleOp] = []
        models: List[ReleasedModel] = []
        for op in window.ops:
            if isinstance(op, FitOp):
                if op.sample is None:
                    self.gate(False, f"fit seed={op.fit_seed} ended {op.status}: {op.error}")
                    continue
                samples.append(op.sample)
                models.append(load_model(server.data_dir, op.model_id))
            else:
                samples.append(op)
                models.append(self.model)
        # fork, not spawn: a spawn pool starts multiprocessing's resource
        # tracker, a process that outlives this run.  The load-generator
        # threads have been joined, so the fork copies a single thread.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            chunk = max(1, len(samples) // 16)
            for error in pool.map(check_sample, samples, models, chunksize=chunk):
                self.gate(error is None, error or "")
        return samples

    def _end_to_end(self, window: Window, setups, rss_mb) -> Dict[str, float]:
        ok = [op for op in window.ops if _ok(op)]
        latencies = sorted(op.seconds for op in ok)
        records = self.n * len(ok)
        tail = len(latencies) - int(0.9 * len(latencies))
        fits = [op for op in window.ops if isinstance(op, FitOp) and op.status == "done"]
        return {
            "setup_s": float(median(setups)),
            "latency_p50_ms": _median_ms(latencies),
            "records_per_s": records / window.seconds,
            "server_rss_mb": rss_mb,
            "latency_p90_ms": (
                float(_quantile(latencies, 0.9)) * 1e3 if tail >= 10 else 0.0
            ),
            "latency_samples": float(len(latencies)),
            "fit_p50_s": float(median(op.fit_done - op.started for op in fits)) if fits else 0.0,
            "first_sample_ms": _median_ms([op.sample.seconds for op in fits if op.sample]),
        }

    def _counters(self, before, after, window, samples, ops) -> Dict[str, float]:
        def delta_counter(name: str, **labels: str) -> float:
            return float(counter(after, name, **labels) - counter(before, name, **labels))

        def delta_mean(name: str, **labels: str) -> float:
            s1, c1 = histogram(after, name, **labels)
            s0, c0 = histogram(before, name, **labels)
            return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0

        fits = [op for op in window.ops if isinstance(op, FitOp) and op.job_id]
        fit_sum = histogram(after, "dpcopula_fit_seconds")[0] - histogram(
            before, "dpcopula_fit_seconds")[0]
        client_fit = sum(op.fit_done - op.started for op in fits)
        return {
            "service.http.handler_ms": 1e3 * delta_mean(
                "dpcopula_http_request_seconds", route="sample_model"),
            "service.http.response_bytes": (
                sum(len(op.body) for op in samples) / len(samples) if samples else 0.0
            ),
            "service.http.throttled": delta_counter("dpcopula_http_throttled_total"),
            "service.http.slow_requests": delta_counter("dpcopula_http_slow_requests_total"),
            "service.registry.plan_cache_misses": delta_counter(
                "dpcopula_plan_cache_misses_total"),
            "service.registry.plan_cache_hits": delta_counter(
                "dpcopula_plan_cache_hits_total"),
            "engine.coalesce.batch_size_mean": delta_mean("dpcopula_coalesced_batch_size"),
            "engine.coalesce.rejected": delta_counter("dpcopula_engine_rejected_total"),
            "telemetry.export.traces_per_op": delta_counter(
                "dpcopula_traces_exported_total") / ops,
            "telemetry.export.errors": delta_counter("dpcopula_trace_export_errors_total"),
            "service.jobs.overhead_ms": (
                (client_fit - fit_sum) * 1e3 / len(fits) if fits else 0.0
            ),
        }

    def _print_stages(self, before, after) -> None:
        """Server-side stage means (Δ dpcopula_stage_seconds) of the window."""
        stages = {}
        for series in after.get("dpcopula_stage_seconds", {}).get("series", []):
            stage = series["labels"].get("stage")
            s0, c0 = histogram(before, "dpcopula_stage_seconds", stage=stage)
            if series["count"] > c0:
                stages[stage] = round((series["sum"] - s0) * 1e3 / (series["count"] - c0), 3)
        print(f"server stage means (ms, from /metrics): {json.dumps(stages, sort_keys=True)}")

    def _replay(self, server: Server, window: Window, samples: List[SampleOp]) -> Dict[str, float]:
        """The traced in-process replay of this window's requests and fits."""
        replayer = Replayer(self.tmp / "replay", self.epsilon_cap)
        try:
            if self.is_fit:
                replayer.service.upload_dataset(DATASET_ID, self.csv)
                fits = [op for op in window.ops if op.status == "done"][:REPLAY_FITS]
                for index, op in enumerate(fits):
                    try:
                        model_id = replayer.fit(DATASET_ID, op.fit_seed, f"replay{index}")
                    except BenchError as exc:
                        self.gate(False, str(exc))
                        continue
                    self.gate(
                        same_release(server.data_dir / "models", op.model_id,
                                     replayer.service.registry.directory, model_id),
                        f"replayed fit seed={op.fit_seed} differs from the served release",
                    )
                    replayer.cold_plan(model_id)
                    self._replay_sample(replayer, model_id, op.sample)
            else:
                register_serve_model(replayer.service.config.data_dir, self.model)
                replayer.cold_plan(MODEL_ID)
                for op in samples[: REPLAY_SAMPLES[self.workload]]:
                    self._replay_sample(replayer, MODEL_ID, op)
        finally:
            replayer.close()
            spans_path = ROOT / ".perfbench-out" / f"spans-{self.workload}-seed{self.seed}.jsonl"
            replayer.tracer.write(spans_path)
        out = replayer.metrics()
        if self.workload in spec.RECONCILED_WORKLOADS:
            low, high = spec.RECONCILE_BOUNDS
            share = out["trace.reconcile_share"]
            self.gate(low <= share <= high,
                      f"trace.reconcile_share {share:.3f} outside [{low}, {high}]")
        return out

    def _replay_sample(self, replayer: Replayer, model_id: str, op: SampleOp) -> None:
        expected = np.asarray(json.loads(op.body)["records"], dtype=np.int64)
        try:
            replayer.sample(model_id, op.n, op.seed, expected)
        except BenchError as exc:
            self.gate(False, str(exc))
        else:
            self.gate(True, "")


def _ok(op) -> bool:
    if isinstance(op, FitOp):
        return op.status == "done" and op.sample is not None and op.sample.status == 200
    return op.status == 200


def _quantile(sorted_values: List[float], q: float) -> float:
    index = q * (len(sorted_values) - 1)
    low = int(index)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (index - low)


def _median_ms(values: List[float]) -> float:
    return float(median(values)) * 1e3 if values else 0.0


def _own_cpu() -> float:
    times = os.times()
    return times.user + times.system
