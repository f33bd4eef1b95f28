"""Inputs, closed-loop load and correctness gates for the three workloads.

Inputs come from the workload seed alone: the serve model (built the
way ``benchmarks/bench_sampling.make_model`` does), the fit dataset
(``gaussian_dependence_data``) and every request seed.  The server only
ever receives those generated inputs.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.data.dataset import Attribute, Dataset, Schema
from repro.data.synthetic import SyntheticSpec, gaussian_dependence_data
from repro.io import ReleasedModel
from repro.service.registry import ModelRegistry

import spec
from server import REQUEST_TIMEOUT_S, BenchError, Client

DATASET_ID = "bench"
MODEL_ID = "serve-model"
POLL_INTERVAL_S = 0.05
FIT_TIMEOUT_S = 120.0


# -- inputs -------------------------------------------------------------------


def domain_sizes(seed: int) -> List[int]:
    """The fixed domain multiset, permuted by the seed."""
    rng = np.random.default_rng([seed, 1])
    return [int(d) for d in rng.permutation(spec.DOMAIN_SIZES)[: spec.ATTRIBUTES]]


def serve_model(seed: int) -> ReleasedModel:
    """A released m=16 model with noisy margins and a random correlation."""
    rng = np.random.default_rng([seed, 2])
    domains = domain_sizes(seed)
    m = len(domains)
    schema = Schema([Attribute(f"a{j}", d) for j, d in enumerate(domains)])
    basis = rng.standard_normal((m, m))
    gram = basis @ basis.T + m * np.eye(m)
    scale = np.sqrt(np.diag(gram))
    n_records = spec.FIT_RECORDS
    margins = [rng.uniform(0.0, 2.0 * n_records / d, size=d) for d in domains]
    return ReleasedModel(
        margin_counts=margins,
        correlation=gram / np.outer(scale, scale),
        schema=schema,
        n_records=n_records,
        epsilon=spec.FIT_EPSILON,
    )


def fit_dataset(seed: int) -> Dataset:
    """The n=100k, m=16 fit input with mixed margins (paper Section 5.4)."""
    families = ("gaussian", "uniform", "zipf")
    domains = domain_sizes(seed)
    return gaussian_dependence_data(
        SyntheticSpec(
            n_records=spec.FIT_RECORDS,
            domain_sizes=domains,
            margins=[families[j % 3] for j in range(len(domains))],
        ),
        rng=np.random.default_rng([seed, 3]),
    )


def dataset_csv(dataset: Dataset) -> str:
    """The upload body: ``name[domain]`` header plus integer rows."""
    header = ",".join(f"{a.name}[{a.domain_size}]" for a in dataset.schema)
    rows = "\n".join(",".join(map(str, row)) for row in dataset.values.tolist())
    return f"{header}\n{rows}\n"


class SeedStream:
    """Distinct request seeds, deterministic in the workload seed."""

    def __init__(self, seed: int, stream: int):
        self._next = int(np.random.default_rng([seed, 4, stream]).integers(1, 2**40))
        self._lock = threading.Lock()

    def __next__(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value


# -- operations ---------------------------------------------------------------


@dataclass
class SampleOp:
    """One sample request as the client saw it."""

    n: int
    seed: int
    started: float
    finished: float
    status: int
    body: bytes

    @property
    def seconds(self) -> float:
        return self.finished - self.started


@dataclass
class FitOp:
    """One fit-then-first-sample iteration."""

    fit_seed: int
    started: float
    fit_done: float
    status: str
    job_id: Optional[str] = None
    model_id: Optional[str] = None
    sample: Optional[SampleOp] = None
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        end = self.sample.finished if self.sample is not None else self.fit_done
        return end - self.started


@dataclass
class Window:
    """What one timed window produced."""

    started: float
    finished: float
    ops: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.finished - self.started


def sample_once(client: Client, model_id: str, n: int, seed: int) -> SampleOp:
    path = f"/models/{model_id}/sample"
    started = time.perf_counter()
    try:
        status, body = client.request("POST", path, {"n": n, "seed": seed})
    except (OSError, http.client.HTTPException) as exc:  # includes timeouts
        client.reset()
        status, body = 0, str(exc).encode()
    return SampleOp(n, seed, started, time.perf_counter(), status, body)


def serve_window(
    clients: List[Client], n: int, seeds: SeedStream, seconds: float
) -> Window:
    """Closed loop: each client sends its next request when the last returns."""
    per_client: List[List[SampleOp]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)

    def loop(client: Client, ops: List[SampleOp]) -> None:
        barrier.wait()
        while time.perf_counter() < deadline:
            ops.append(sample_once(client, MODEL_ID, n, next(seeds)))

    threads = [
        threading.Thread(target=loop, args=(c, ops), daemon=True)
        for c, ops in zip(clients, per_client)
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + REQUEST_TIMEOUT_S + 5)
        if thread.is_alive():
            raise BenchError("a load-generator thread overran its request timeout")
    return Window(started, time.perf_counter(), [op for ops in per_client for op in ops])


def fit_once(client: Client, fit_seed: int, sample_seed: Optional[int], n: int) -> FitOp:
    """POST /fits, poll to a terminal state, then the first sample request.

    ``sample_seed=None`` skips the sample request.
    """
    started = time.perf_counter()
    payload = {"dataset_id": DATASET_ID, "method": "kendall",
               "epsilon": spec.FIT_EPSILON, "seed": fit_seed}
    try:
        status, job = client.call("POST", "/fits", payload)
        if status != 202:
            return FitOp(fit_seed, started, time.perf_counter(), f"http-{status}")
        deadline = started + FIT_TIMEOUT_S
        while job["status"] not in ("done", "failed", "cancelled"):
            if time.perf_counter() > deadline:
                return FitOp(fit_seed, started, time.perf_counter(), "timeout",
                             job_id=job["job_id"])
            time.sleep(POLL_INTERVAL_S)
            status, job = client.call("GET", f"/fits/{job['job_id']}")
            if status != 200:
                return FitOp(fit_seed, started, time.perf_counter(), f"http-{status}")
    except (OSError, http.client.HTTPException) as exc:
        client.reset()
        return FitOp(fit_seed, started, time.perf_counter(), "error", error=str(exc))
    op = FitOp(fit_seed, started, time.perf_counter(), job["status"],
               job_id=job["job_id"], model_id=job.get("model_id"), error=job.get("error"))
    if op.status == "done" and sample_seed is not None:
        op.sample = sample_once(client, op.model_id, n, sample_seed)
    return op


def fit_window(
    client: Client, n: int, fit_seeds: SeedStream, sample_seeds: SeedStream,
    seconds: float,
) -> Window:
    """Closed loop of fit-then-first-sample iterations on one connection."""
    window = Window(time.perf_counter(), 0.0)
    deadline = window.started + seconds
    while time.perf_counter() < deadline:
        window.ops.append(fit_once(client, next(fit_seeds), next(sample_seeds), n))
    window.finished = time.perf_counter()
    return window


# -- correctness gates --------------------------------------------------------


def check_sample(op: SampleOp, model: ReleasedModel) -> Optional[str]:
    """None when the response equals ``model.sample(n, default_rng(seed))``."""
    if op.status != 200:
        return f"sample seed={op.seed}: HTTP {op.status} {op.body[:200]!r}"
    document = json.loads(op.body)
    if document.get("privacy_cost") != 0 or document.get("n_records") != op.n:
        return f"sample seed={op.seed}: privacy_cost or n_records is wrong"
    expected = model.sample(op.n, np.random.default_rng(op.seed)).values
    received = np.asarray(document["records"], dtype=expected.dtype)
    if received.shape != expected.shape or not np.array_equal(received, expected):
        return f"sample seed={op.seed}: records differ from ReleasedModel.sample"
    return None


def same_release(dir_a: Path, model_a: str, dir_b: Path, model_b: str) -> bool:
    """Whether two registered models' NPZ arrays are bitwise identical."""
    with np.load(dir_a / f"{model_a}.npz", allow_pickle=False) as a, \
            np.load(dir_b / f"{model_b}.npz", allow_pickle=False) as b:
        return a.files == b.files and all(
            a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes()
            for k in a.files
        )


def register_serve_model(data_dir: Path, model: ReleasedModel) -> None:
    """Put the generated model into the server's registry directory."""
    ModelRegistry(data_dir / "models").put(
        model, dataset_id=DATASET_ID, method="kendall", model_id=MODEL_ID
    )


def load_model(data_dir: Path, model_id: str) -> ReleasedModel:
    return ReleasedModel.load(data_dir / "models" / f"{model_id}.npz")
