"""The two serve workloads: one closed-loop client against a server
started as ``python -m repro serve`` with default flags.

The server runs in its own process; the client is this process, one
request at a time (closed loop).  Latency is timed from the first byte
sent to the decoded response; request generation and the output checks
run outside that span.
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import workloads
from .checks import check_solution
from .metrics import Outcome, end_to_end, per_layer_metrics, tracing_overhead_pct
from .speed import SpeedMeter
from .tracing import load_spans
from .workloads import Op

__all__ = ["OpSample", "Server", "ServeRun", "run_op", "run_rounds", "run_serve"]

# Server launches per untraced run; setup_s is their median.
SETUP_REPEATS = 3

# Tolerances of the default server (``repro serve --eps 1e-3``).
EPS_ABS = 1e-3
EPS_REL = 1e-3

_BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")
_START_TIMEOUT_S = 60.0
_REQUEST_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0


class Server:
    """One ``repro serve`` process on an ephemeral port.

    ``spans_path`` starts it through :mod:`perfbench.traced_serve`
    instead, which wraps the layer entry points and writes the spans to
    that file when the server exits.
    """

    def __init__(self, root: Path, *, spans_path: Path | None = None) -> None:
        self.root = root
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> "Server":
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [
                sys.executable, "-m", "perfbench.traced_serve",
                str(self.spans_path), "--port", "0",
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(self.root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        # A parent that ignores SIGINT (a shell's background job, say)
        # passes that on through exec, and the server would never see
        # the stop signal; a handler installed here is reset to the
        # default in the child instead.
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        self.proc = subprocess.Popen(
            cmd,
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + _START_TIMEOUT_S
        lines = []
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(2))
                return self
        self.stop()
        raise RuntimeError("server did not start:\n" + "".join(lines))

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        """One request; returns (HTTP status, raw response)."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=_REQUEST_TIMEOUT_S
        )
        try:
            conn.request(
                "POST", path, body, {"Content-Type": "application/json"}
            )
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=_REQUEST_TIMEOUT_S
        )
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def counters(self) -> dict:
        return self.get("/v1/metrics")["counters"]

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait for the exit."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


@dataclass
class OpSample:
    """What one operation produced, for the metrics and the checks."""

    op: Op
    ok: bool = False
    served: bool = False  # a whole answer came, with its server timings
    wrong: bool = False  # answered "solved" but failed a check
    detail: str = ""
    latency_s: float = 0.0
    queue_s: float = 0.0
    solve_s: float = 0.0
    request_bytes: int = 0
    response_bytes: int = 0
    cycles: int = 0
    iterations: int = 0
    rho_updates: int = 0
    delta_binds: int = 0
    worst_ratio: float = 0.0


def _blocks(op: Op, payload: dict) -> list[dict]:
    if op.kind == "solve":
        return [payload]
    return payload.get("steps" if op.kind == "sequence" else "scenarios") or []


def run_op(server: Server, op: Op) -> OpSample:
    """Send one request, time it, then check every solution it carries.

    The latency is kept whether the operation succeeds or fails (until
    the error, if no response came), so a failing request cannot make
    the latency figures look better by dropping out of them.
    """
    sample = OpSample(op=op, request_bytes=len(op.body))
    t0 = time.perf_counter()
    try:
        status, raw = server.post(op.path, op.body)
        payload = json.loads(raw)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        sample.latency_s = time.perf_counter() - t0
        sample.detail = f"{type(exc).__name__}: {exc}"
        return sample
    sample.latency_s = time.perf_counter() - t0
    sample.response_bytes = len(raw)
    if status != 200 or payload.get("status") != "ok":
        sample.detail = f"HTTP {status}: {payload.get('detail', payload.get('status'))}"
        return sample
    blocks = _blocks(op, payload)
    if len(blocks) != op.solves:
        sample.detail = f"{len(blocks)} solutions for {op.solves} instances"
        return sample
    sample.queue_s = float(payload.get("queue_seconds", 0.0))
    # A scenario lane's solve_seconds is its time since the batched pass
    # began, so the pass took the longest of them; sequence steps run
    # one after another.
    lane_seconds = [float(block["solve_seconds"]) for block in blocks]
    sample.solve_s = (
        max(lane_seconds) if op.kind == "scenarios" else sum(lane_seconds)
    )
    sample.served = True
    for problem, block in zip(op.problems, blocks):
        result = block["result"]
        sample.cycles += int(block["cycles"])
        sample.iterations += int(result["iterations"])
        sample.rho_updates += int(result["rho_updates"])
        sample.delta_binds += bool(block.get("delta_bind"))
        if not block.get("solved"):
            sample.detail = f"status {result['status']}"
            return sample
        good, why, ratio = check_solution(
            problem, result["x"], result["y"], result["z"],
            eps_abs=EPS_ABS, eps_rel=EPS_REL,
        )
        sample.worst_ratio = max(sample.worst_ratio, ratio)
        if not good:
            sample.wrong = True
            sample.detail = why
            return sample
    sample.ok = True
    return sample


@dataclass
class ServeRun:
    """The measured window of one server: every sample, in order.

    ``counted`` holds the samples of the first ``counted_rounds`` rounds
    (a fixed list of operations for a seed), over which the exact counts
    — simulated cycles, iterations, ρ updates, delta binds and host
    crossings (``counted_counters``) — are summed.
    """

    samples: list[OpSample] = field(default_factory=list)
    counted: list[OpSample] = field(default_factory=list)
    counted_counters: dict = field(default_factory=dict)
    rounds: int = 0
    window: tuple[float, float] = (0.0, 0.0)


def run_rounds(
    servers: list[Server],
    make_round,
    seconds: float,
    counted_rounds: int,
    meter: SpeedMeter,
) -> list[ServeRun]:
    """Whole rounds until ``seconds`` have passed and at least
    ``counted_rounds`` rounds ran; every round goes to each server in
    turn (a traced run pairs a plain and a traced server).

    ``make_round(r)`` returns round ``r``'s operations; they are built
    before the round starts, so generation never sits between two
    requests of a round.  ``meter`` calibrates between requests.
    """
    runs = [ServeRun() for _ in servers]
    before = [server.counters() for server in servers]
    start = time.monotonic()
    rounds = 0
    while True:
        ops = make_round(rounds)
        # Alternate which server goes first, so neither always follows
        # the other's identical request.
        pairs = list(zip(servers, runs))
        for server, run in pairs if rounds % 2 == 0 else pairs[::-1]:
            for op in ops:
                meter.tick()
                run.samples.append(run_op(server, op))
        rounds += 1
        if rounds == counted_rounds:
            for server, run, counters in zip(servers, runs, before):
                run.counted = list(run.samples)
                after = server.counters()
                run.counted_counters = {
                    k: after[k] - counters.get(k, 0) for k in after
                }
        if rounds >= counted_rounds and time.monotonic() - start >= seconds:
            break
    for run in runs:
        run.rounds = rounds
        run.window = (start, time.monotonic())
    return runs


# workload -> (set-up requests, round, rounds whose exact counts are
# summed).  The counted rounds hold 368 (solo-mix) and 512
# (stream-fanout) solves, so the seed-to-seed spread of the summed
# cycles stays small; a run always completes them.
_WORKLOADS = {
    "solo-mix": (workloads.solo_cold_ops, workloads.solo_round, 16),
    "stream-fanout": (workloads.stream_cold_ops, workloads.stream_round, 4),
}


def _set_up(
    root: Path, cold: list[Op], meter: SpeedMeter, spans_path: Path | None = None
):
    """Launch a server and send the first (cold) request of every
    pattern.  Returns the server, the set-up window and the cold
    requests' samples, which count among the run's operations like any
    other (a failed one fails an operation; the run goes on)."""
    meter.tick()
    t0 = time.monotonic()
    server = Server(root, spans_path=spans_path).start()
    try:
        samples = [run_op(server, op) for op in cold]
    except BaseException:
        server.stop()
        raise
    return server, (t0, time.monotonic()), samples


def _counts(samples: list[OpSample]) -> tuple[int, int, bool]:
    failed = sum(not s.ok for s in samples)
    return len(samples), failed, not any(s.wrong for s in samples)


def _details(run: ServeRun, setup: list[OpSample]) -> dict:
    by_label: dict[str, list[float]] = {}
    for s in run.samples:
        by_label.setdefault(f"{s.op.kind}:{s.op.label}", []).append(s.latency_s * 1e3)
    return {
        "rounds": run.rounds,
        "operations": len(run.samples),
        "setup_operations": len(setup),
        "worst_residual_ratio": max(s.worst_ratio for s in run.samples),
        "failures": sorted({s.detail for s in setup + run.samples if not s.ok}),
        "latency_p50_ms_by_kind": {
            label: float(np.median(v)) for label, v in sorted(by_label.items())
        },
        "queue_wait_p50_ms": 1e3 * float(np.median([s.queue_s for s in run.samples])),
    }


def _measure(
    servers: list[Server], workload: str, seed: int, seconds: float, meter: SpeedMeter
) -> list[ServeRun]:
    _, make_round, counted = _WORKLOADS[workload]
    return run_rounds(servers, lambda r: make_round(seed, r), seconds, counted, meter)


def run_serve(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One run of a serve workload (untraced: end-to-end metrics;
    traced: per-layer metrics)."""
    with SpeedMeter() as meter:
        if trace:
            return _traced(root, workload, seed, seconds, meter)
        return _untraced(root, workload, seed, seconds, meter)


def _untraced(
    root: Path, workload: str, seed: int, seconds: float, meter: SpeedMeter
) -> Outcome:
    cold = _WORKLOADS[workload][0](seed)
    setups = []
    setup_samples: list[OpSample] = []
    for i in range(SETUP_REPEATS):
        server, window, samples = _set_up(root, cold, meter)
        setups.append(window[1] - window[0])
        setup_samples += samples
        if i < SETUP_REPEATS - 1:
            server.stop()
    try:
        (run,) = _measure([server], workload, seed, seconds, meter)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    attempted, failed, correct = _counts(setup_samples + run.samples)
    latencies = [s.latency_s for s in run.samples]
    measured = dict(
        setup_s=setups,
        p50_s=float(np.percentile(latencies, 50)),
        p95_s=float(np.percentile(latencies, 95)),
        solves=sum(s.op.solves for s in run.samples if s.ok),
        busy_s=sum(latencies),
        sim_cycles=sum(s.cycles for s in run.counted),
        peak_rss_mb=rss,
    )
    metrics = end_to_end(**measured, speed=meter.factor)
    details = _details(run, setup_samples) | {
        "setup_s_each": setups,
        "speed_factor": meter.factor,
        "calibrations": len(meter.samples),
        "unscaled": end_to_end(**measured),
    }
    return Outcome(attempted, failed, correct, metrics, details)


def _traced(
    root: Path, workload: str, seed: int, seconds: float, meter: SpeedMeter
) -> Outcome:
    """A plain and a traced server take turns, round by round, on the
    same requests, so host-speed drift cannot pass for tracing
    overhead."""
    cold = _WORKLOADS[workload][0](seed)
    spans_path = root / ".perfbench" / f"spans-{workload}.json"
    spans_path.parent.mkdir(exist_ok=True)
    plain_server, _, plain_setup = _set_up(root, cold, meter)
    try:
        server, setup_window, traced_setup = _set_up(root, cold, meter, spans_path)
        try:
            plain, run = _measure([plain_server, server], workload, seed, seconds, meter)
            compiles = server.counters()["pool_misses"]
        finally:
            server.stop()
    finally:
        plain_server.stop()
    spans = load_spans(spans_path)
    spans_path.unlink()
    setup_samples = plain_setup + traced_setup
    attempted, failed, correct = _counts(setup_samples + plain.samples + run.samples)
    answered = [s for s in run.samples if s.response_bytes]
    # The split of the latency needs the server's own timings.
    served = [s for s in run.samples if s.served] or run.samples
    counted = run.counted
    metrics = per_layer_metrics(
        spans,
        setup_window=setup_window,
        measure_window=run.window,
        ops=len(run.samples),
        wall_s=sum(s.latency_s for s in run.samples),
        counts={
            "admm_iterations": sum(s.iterations for s in counted),
            "rho_updates": sum(s.rho_updates for s in counted),
            "delta_binds": sum(s.delta_binds for s in counted),
            "host_crossings": run.counted_counters.get("host_crossings", 0),
        },
        serve={
            "queue_wait_ms": 1e3 * float(np.median([s.queue_s for s in served])),
            "overhead_ms": 1e3 * float(
                np.median([s.latency_s - s.queue_s - s.solve_s for s in served])
            ),
            "compiles": compiles,
            "request_kb": float(np.mean([s.request_bytes for s in run.samples])) / 1e3,
            "response_kb": float(np.mean([s.response_bytes for s in answered])) / 1e3
            if answered else 0.0,
        },
        overhead_pct=tracing_overhead_pct(
            [s.latency_s for s in plain.samples], [s.latency_s for s in run.samples]
        ),
        speed=meter.factor,
    )
    details = _details(run, setup_samples) | {
        "speed_factor": meter.factor,
        "spans": len(spans),
    }
    return Outcome(attempted, failed, correct, metrics, details)
