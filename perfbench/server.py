"""A ``dpcopula serve`` subprocess with bounded start and stop, and its client.

Every wait here has a hard timeout: start-up, each request, each poll
and the stop.  A stop that overruns is escalated to SIGKILL and
reported as a failure, so a hanging server can never hang the run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """A failed operation, lifecycle step or correctness gate."""


class Server:
    """One single-worker ``python -m repro serve`` process."""

    def __init__(self, root: Path, data_dir: Path, epsilon_cap: float):
        self.root = root
        self.data_dir = data_dir
        self.epsilon_cap = epsilon_cap
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log_path = data_dir.parent / f"{data_dir.name}.log"

    def start(self) -> None:
        """Launch and return once ``GET /health`` answers (bounded)."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--workers", "1",
            "--port", "0",
            "--data-dir", str(self.data_dir),
            "--epsilon-cap", repr(float(self.epsilon_cap)),
        ]
        with open(self._log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            if self.process.poll() is not None:
                raise BenchError(f"server exited during start-up: {self.log_tail()}")
            if time.monotonic() > deadline:
                raise BenchError("server did not report its port in time")
            match = _LISTENING.search(self._log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.005)
        with self.connect() as client:
            while True:
                try:
                    status, _ = client.call("GET", "/health")
                    if status == 200:
                        return
                except (OSError, http.client.HTTPException):
                    client.reset()
                if time.monotonic() > deadline:
                    raise BenchError("server did not become healthy in time")
                time.sleep(0.005)

    def connect(self) -> "Client":
        return Client("127.0.0.1", self.port)

    def stop(self) -> bool:
        """SIGTERM, wait, escalate to SIGKILL; True only for a clean exit."""
        process = self.process
        if process is None or process.poll() is not None:
            return process is None or process.returncode == 0
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
            return process.returncode == 0
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=STOP_TIMEOUT_S)
            return False

    def kill(self) -> None:
        """Last-resort cleanup; never raises."""
        process = self.process
        if process is not None and process.poll() is None:
            process.kill()
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def cpu_seconds(self) -> float:
        """Server utime + stime so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self._log_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""


class Client:
    """One persistent HTTP/1.1 keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = REQUEST_TIMEOUT_S):
        self._host, self._port, self._timeout = host, port, timeout
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        self._conn.close()

    def reset(self) -> None:
        self._conn.close()
        self._conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )

    def request(
        self, method: str, path: str, payload: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """Send, read the whole body; returns (status, raw body)."""
        body = None if payload is None else json.dumps(payload).encode()
        all_headers = {"Content-Type": "application/json"}
        all_headers.update(headers or {})
        self._conn.request(method, path, body=body, headers=all_headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def call(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        """Like :meth:`request`, with the body decoded as JSON."""
        status, raw = self.request(method, path, payload)
        return status, json.loads(raw) if raw else None

    def metrics(self) -> Dict[str, Any]:
        """The JSON metrics snapshot (``GET /metrics``)."""
        status, raw = self.request(
            "GET", "/metrics", headers={"Accept": "application/json"}
        )
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
        return json.loads(raw)


def counter(snapshot: Dict[str, Any], name: str, **labels: str) -> float:
    """Sum of a counter's series whose labels include ``labels``."""
    return sum(
        series["value"]
        for series in snapshot.get(name, {}).get("series", [])
        if all(series["labels"].get(k) == v for k, v in labels.items())
    )


def histogram(snapshot: Dict[str, Any], name: str, **labels: str) -> Tuple[float, int]:
    """(sum, count) of a histogram's series whose labels include ``labels``."""
    total, count = 0.0, 0
    for series in snapshot.get(name, {}).get("series", []):
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            total += series["sum"]
            count += series["count"]
    return total, count
