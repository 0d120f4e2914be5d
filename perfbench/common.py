"""Shared pieces of the benchmark: statistics, the span recorder, the
served-process harness and the result line."""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# A run keeps going, in whole rounds, until both hold.
MIN_OPS = 100


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies_s, elapsed_s, cpu_s, setup_times_s, peak_rss_kb):
    """The six end-to-end metrics of one untraced run."""
    ms = [x * 1000.0 for x in latencies_s]
    ops = len(latencies_s)
    return {
        "ops_per_s": metric(ops / elapsed_s, "1/s"),
        "p50_ms": metric(median(ms), "ms"),
        "p90_ms": metric(p90(ms), "ms"),
        "cpu_ms_per_op": metric(cpu_s * 1000.0 / ops, "ms"),
        "setup_s": metric(median(setup_times_s), "s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
    }


# Every per-layer metric, printed by every traced run.  A layer that a
# workload never calls reads 0 there (see README.md for which apply).
PER_LAYER = {
    "protocol.decode_ms": "ms",
    "canonical.form_ms": "ms",
    "canonical.form_p90_ms": "ms",
    "cache.lookup_ms": "ms",
    "server.wire_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "server.solves": "count",
    "portfolio.wall_ms": "ms",
    "portfolio.dispatch_ms": "ms",
    "portfolio.child_cpu_ms": "ms",
    "backend.search_ms": "ms",
    "cache.insert_ms.tw": "ms",
    "cache.insert_ms.ghw": "ms",
    "cache.insert_ms.hw": "ms",
    "cache.insert_ms.fhw": "ms",
    "search.astar_tw_s": "s",
    "search.bb_tw_s": "s",
    "search.astar_ghw_s": "s",
    "search.bb_ghw_s": "s",
    "search.astar_fhw_s": "s",
    "search.optk_hw_s": "s",
    "search.detk_hw_s": "s",
    "sat.cdcl_hw_s": "s",
    "genetic.ga_tw_s": "s",
    "genetic.ga_ghw_s": "s",
    "parallel.balanced_ghw_s": "s",
    "search.nodes_expanded": "count",
    "search.nodes_per_s": "1/s",
    "setcover.cover_queries": "count",
    "setcover.cache_hit_ratio": "ratio",
    "sat.conflicts": "count",
    "genetic.evals_per_s": "1/s",
    "trace.coverage": "ratio",
}


def per_layer(values: dict) -> dict:
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {
        name: metric(float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Spans:
    """In-memory spans: (name, start, end, parent, op), written out once
    at the end of a traced run."""

    def __init__(self):
        self.records: list[tuple] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: int):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def durations_of_last(self, name: str) -> float:
        for r in reversed(self.records):
            if r[0] == name:
                return r[2] - r[1]
        raise KeyError(name)

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary}) + "\n")
            for name, start, end, parent, op in self.records:
                fh.write(json.dumps({
                    "name": name,
                    "start": round(start - self.t0, 9),
                    "end": round(end - self.t0, 9),
                    "parent": parent,
                    "op": op,
                }) + "\n")


# ----------------------------------------------------------------------
# The served process
# ----------------------------------------------------------------------


def _proc_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    return text[text.rindex(")") + 2:].split()


def process_cpu_seconds(pid: int) -> float:
    """User + system time of ``pid`` and of its reaped children."""
    fields = _proc_fields(pid)
    # utime, stime, cutime, cstime are fields 14-17 of /proc/pid/stat;
    # the slice starts at field 3.
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def process_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line")


class Server:
    """A real ``python3 -m repro serve --port 0`` process and one
    blocking JSON-lines connection to it."""

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.log_path = OUT / f"server-{os.getpid()}-{time.time_ns()}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._log = open(self.log_path, "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            port = self._wait_ready()
            self.sock = socket.create_connection(("127.0.0.1", port))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server exited: " + self.log_path.read_text()[-2000:]
                )
            self._log.seek(0)
            for line in self._log.read().splitlines():
                if "listening on" in line:
                    return int(line.split("listening on ")[1]
                               .split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError("server did not become ready")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, line: bytes) -> bytes:
        """One request line out, one response line back."""
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        return response

    def request(self, obj: dict) -> dict:
        return json.loads(self.send(encode(obj)))

    def close(self) -> None:
        """Ask the server to shut down, then make sure it has ended."""
        try:
            if self.proc.poll() is None and hasattr(self, "sock"):
                try:
                    self.request({"op": "shutdown"})
                except OSError:
                    pass
        finally:
            if hasattr(self, "sock"):
                self.reader.close()
                self.sock.close()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._log.close()
            self.log_path.unlink(missing_ok=True)


def encode(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"
