"""The repository's benchmark: the synthesis service over HTTP.

One run launches ``python -m repro serve`` as a subprocess, drives one
workload at it in a closed loop for ``--seconds``, checks every output
and prints the metrics, ending with one JSON line::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of the untraced run.
``--trace 1`` runs the same load, then replays its requests and fits
in-process, layer by layer under spans, and reports the per-layer
metrics.  ``--write-manifest`` regenerates ``BENCHMARK.json`` from
``spec.py``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import spec

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


class Watchdog(BaseException):
    """Raised by SIGALRM when a run overruns its time limit, or by SIGTERM."""


def _alarm(signum, frame):
    raise Watchdog(f"run exceeded {RUN_TIMEOUT_S} s")


def _terminate(signum, frame):
    raise Watchdog(f"stopped by signal {signum}")


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": workload,
        "why": spec.WORKLOADS[workload]["why"],
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import Bench, BenchError

    signal.signal(signal.SIGALRM, _alarm)
    # SIGTERM unwinds through the same cleanup, so no server outlives the run.
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(RUN_TIMEOUT_S)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    print(f"provenance: {json.dumps(provenance(args.workload, args.seed))}")
    try:
        metrics = bench.run()
    except (BenchError, Watchdog) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        bench.close()
        shutil.rmtree(tmp, ignore_errors=True)

    metrics["failed_share"] = len(bench.failures) / max(bench.attempted, 1)
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    shown = spec.units(trace=True)
    shown.update(spec.units(trace=False))
    for name, unit in shown.items():
        if name in metrics:
            print(f"{name:40s} {metrics[name]:14.4f} {unit}")
    units = spec.units(trace=bool(args.trace))
    result = {
        "correct": not bench.failures,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
