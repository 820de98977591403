"""The benchmark's metrics: end to end (untraced runs) and per layer
(traced runs, from their spans and samples).

Per-layer conventions (README.md has the full table):

* ``*_ms`` — mean inclusive milliseconds per call of the entry point,
  over the measured window (set-up window for entry points that only
  run while compiling); ``io.decode_ms``, ``serve.dispatch_window_ms``
  and the ``<layer>.self_ms`` split are per measured operation instead;
* ``*_s`` — seconds summed over one set-up;
* counts — exact totals over the counted rounds (a fixed list of
  operations for a seed), or over one set-up for compile-side counts.

Names, units and directions are listed once, in ``BENCHMARK.json``;
``run.py`` prints the metrics in its order and with its units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tracing import LAYERS, layer_self_ms, span_stats

__all__ = [
    "Outcome",
    "end_to_end",
    "per_layer_metrics",
    "tracing_overhead_pct",
]


@dataclass
class Outcome:
    """One run's result: operation counts, metrics and run details."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    details: dict = field(default_factory=dict)


def end_to_end(
    *,
    setup_s: list[float],
    p50_s: float,
    p95_s: float,
    solves: int,
    busy_s: float,
    sim_cycles: int,
    peak_rss_mb: float,
    speed: float = 1.0,
) -> dict[str, float]:
    """Every end-to-end metric of one untraced run.

    ``setup_s`` holds each set-up's duration (the median is reported);
    ``p50_s``/``p95_s`` are the workload's latency percentiles;
    ``solves`` QP instances were answered in ``busy_s`` seconds of timed
    work.  Times are multiplied by ``speed``
    (:attr:`perfbench.speed.SpeedMeter.factor`) to read in
    reference-host time.
    """
    return {
        "setup_s": float(np.median(setup_s)) * speed,
        "latency_p50_ms": 1e3 * p50_s * speed,
        "latency_p95_ms": 1e3 * p95_s * speed,
        "solves_per_s": solves / (busy_s * speed),
        "sim_cycles": float(sim_cycles),
        "peak_rss_mb": float(peak_rss_mb),
    }


def tracing_overhead_pct(plain_s: list[float], traced_s: list[float]) -> float:
    """How much longer traced operations took than the same operations
    untraced, in percent (the two halves of a traced run take turns
    round by round, so both see the same host speed)."""
    n = min(len(plain_s), len(traced_s))
    return 100.0 * (sum(traced_s[:n]) / sum(plain_s[:n]) - 1.0)


# Mean milliseconds per call: metric -> (span name, window).
_PER_CALL = {
    "serve.fingerprint_ms": ("serve.fingerprint", "measure"),
    "serve.pool_solve_ms": ("serve.pool_solve", "measure"),
    "serve.solve_sequence_ms": ("serve.solve_sequence", "measure"),
    "serve.pool_solve_batch_ms": ("serve.pool_solve_batch", "measure"),
    "backends.update_values_ms": ("backends.update_values", "measure"),
    "backends.host_solve_ms": ("backends.host_solve", "measure"),
    "backends.session_step_ms": ("backends.session_step", "measure"),
    "backends.solve_batch_ms": ("backends.solve_batch", "measure"),
    "solver.setup_ms": ("solver.setup", "setup"),
    "solver.admm_ms": ("solver.admm", "measure"),
    "solver.kkt_solve_ms": ("solver.kkt_solve", "measure"),
    "linalg.amd_ms": ("linalg.amd", "setup"),
    "linalg.symbolic_ms": ("linalg.symbolic", "setup"),
    "linalg.ldl_factor_ms": ("linalg.ldl_factor", "setup"),
    "linalg.ldl_refactor_ms": ("linalg.ldl_refactor", "measure"),
    "linalg.triangular_ms": ("linalg.triangular", "measure"),
    "arch.trace_compile_ms": ("arch.trace_compile", "setup"),
    "arch.replay_ms": ("arch.replay", "measure"),
    "arch.replay_batch_ms": ("arch.replay_batch", "measure"),
}

# Seconds per set-up: metric -> span name.
_PER_SETUP = {
    "backends.construct_s": "backends.construct",
    "compiler.schedule_s": "compiler.schedule",
    "compiler.lower_s": "compiler.lower",
}


def per_layer_metrics(
    spans: list[tuple],
    *,
    setup_window: tuple[float, float],
    measure_window: tuple[float, float],
    ops: int,
    wall_s: float,
    counts: dict,
    serve: dict,
    overhead_pct: float,
    speed: float = 1.0,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``ops`` operations took ``wall_s`` seconds of timed work in the
    measured window.  ``counts`` holds the exact counts over the counted rounds
    (``admm_iterations``, ``rho_updates``, ``delta_binds``,
    ``host_crossings``); ``serve`` the response-side serve metrics
    (``queue_wait_ms``, ``overhead_ms``, ``compiles``, ``request_kb``,
    ``response_kb``), empty off the serve tier.  Times (units ``ms``
    and ``s``, the metrics named ``*_ms`` and ``*_s``) are multiplied
    by ``speed`` to read in reference-host time.
    """
    windows = {
        "setup": span_stats(spans, *setup_window),
        "measure": span_stats(spans, *measure_window),
    }
    out: dict[str, float] = {}
    for metric, (name, window) in _PER_CALL.items():
        entry = windows[window].get(name)
        out[metric] = 1e3 * entry["seconds"] / entry["calls"] if entry else 0.0
    for metric, name in _PER_SETUP.items():
        entry = windows["setup"].get(name)
        out[metric] = entry["seconds"] if entry else 0.0

    measure = windows["measure"]
    batch = measure.get("backends.solve_batch")
    lanes = sum(batch["extras"]) if batch else 0
    out["backends.lane_ms"] = 1e3 * batch["seconds"] / lanes if lanes else 0.0
    decode = measure.get("io.decode")
    out["io.decode_ms"] = 1e3 * decode["seconds"] / ops if decode else 0.0
    windows_granted = measure.get("serve.dispatch_window")
    out["serve.dispatch_window_ms"] = (
        1e3 * sum(windows_granted["extras"]) / ops if windows_granted else 0.0
    )

    sched = windows["setup"].get("compiler.schedule")
    extras = sched["extras"] if sched else []
    slots, issued, busy = (sum(e[i] for e in extras) for i in range(3))
    out["compiler.scheduled_slots"] = float(slots)
    out["compiler.mean_issue_width"] = issued / busy if busy else 0.0

    for key in ("admm_iterations", "rho_updates"):
        out[f"solver.{key}"] = float(counts.get(key, 0))
    for key in ("delta_binds", "host_crossings"):
        out[f"backends.{key}"] = float(counts.get(key, 0))
    out["serve.queue_wait_ms"] = float(serve.get("queue_wait_ms", 0.0))
    out["serve.overhead_ms"] = float(serve.get("overhead_ms", 0.0))
    out["serve.compiles"] = float(serve.get("compiles", 0))
    out["io.request_kb"] = float(serve.get("request_kb", 0.0))
    out["io.response_kb"] = float(serve.get("response_kb", 0.0))

    selfs = layer_self_ms(spans, *measure_window)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = selfs[layer] / ops
    out["trace.coverage_pct"] = 100.0 * selfs["covered"] / (1e3 * wall_s)
    out["trace.overhead_pct"] = overhead_pct
    return {
        name: value * (speed if name.endswith(("_ms", "_s")) else 1.0)
        for name, value in out.items()
    }
