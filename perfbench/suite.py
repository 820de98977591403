"""compile-suite: the paper's evaluation path, in one process, no server.

The grid is the five domains at scales 0-1 of the suite's 4-scale
ladder (:func:`repro.problems.benchmark_suite`), in both variants, at
C=16 (the serve default).  A set-up constructs every cell's
:class:`~repro.backends.mib.MIBSolver` cold — no schedule cache — so
lowering, scheduling, ordering and symbolic analysis all run; the
measured rounds then bind new values into every cell and run the
cycle-priced ``solve()``.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends.mib import MIBSolver
from repro.problems import benchmark_suite

from .checks import check_kkt_solution, check_solution, dense_kkt
from .metrics import Outcome, end_to_end, per_layer_metrics, tracing_overhead_pct
from .speed import SpeedMeter
from .tracing import Recorder
from .workloads import value_seed

__all__ = ["GRID", "run_suite"]

C = 16
N_SCALES = 4
MAX_SCALE = 1
VARIANTS = ("direct", "indirect")
# Grid constructions per untraced run; setup_s is the median of their
# summed construction times.
SETUP_REPEATS = 3
# Rounds whose exact counts (cycles, iterations, ρ updates) are summed;
# a run always completes them.
COUNTED_ROUNDS = 12
# Tolerances of ``Settings()``, which every cell solves with.
EPS_ABS = 1e-3
EPS_REL = 1e-3

GRID = [
    (spec, variant)
    for variant in VARIANTS
    for spec in benchmark_suite(n_scales=N_SCALES)
    if spec.scale_index <= MAX_SCALE
]


def _construct(meter: SpeedMeter) -> tuple[list[MIBSolver], float]:
    solvers = []
    total = 0.0
    for index, (spec, variant) in enumerate(GRID):
        meter.tick()
        problem = spec.generate(value_seed(0, 7, index))
        t0 = time.perf_counter()
        solvers.append(MIBSolver(problem, variant=variant, c=C))
        total += time.perf_counter() - t0
    return solvers, total


@dataclass
class _Sample:
    seconds: float = 0.0
    cycles: int = 0
    iterations: int = 0
    rho_updates: int = 0
    ok: bool = False
    wrong: bool = False  # solved, but failed a check
    detail: str = ""
    ratio: float = 0.0


def _check_cell(solver: MIBSolver, problem, report, rhs_seed: int) -> _Sample:
    """Check one cell's solution and — direct variant — its compiled
    factor and KKT-solve kernels on a seeded right-hand side."""
    result = report.result
    sample = _Sample(
        cycles=report.cycles,
        iterations=result.iterations,
        rho_updates=result.rho_updates,
    )
    if not result.solved:
        sample.detail = f"status {result.status.value}"
        return sample
    good, why, sample.ratio = check_solution(
        problem, result.x, result.y, result.z, eps_abs=EPS_ABS, eps_rel=EPS_REL
    )
    if good and solver.variant == "direct":
        ref = solver.reference
        scaled = ref.scaling.scaled
        kkt = dense_kkt(scaled.p_upper, scaled.a, ref.settings.sigma, ref.rho_vec)
        rhs = np.random.default_rng(rhs_seed).standard_normal(kkt.shape[0])
        good, err = check_kkt_solution(kkt, rhs, solver.solve_kkt_on_network(rhs))
        why = "" if good else f"network KKT solve off by {err:.3g} (relative)"
    sample.ok = good
    sample.wrong = not good
    sample.detail = why
    return sample


@dataclass
class _Pass:
    """One grid's share of the rounds; ``recorder`` is installed while
    this grid solves (a traced run interleaves a plain and a traced
    grid, round by round, on the same values)."""

    solvers: list[MIBSolver]
    recorder: Recorder | None = None
    samples: list[_Sample] = field(default_factory=list)
    counted: list[_Sample] = field(default_factory=list)


def _rounds(passes: list[_Pass], seed: int, seconds: float, meter: SpeedMeter):
    """Whole rounds over the grid until ``seconds`` have passed and at
    least :data:`COUNTED_ROUNDS` rounds ran.

    A round binds fresh values into every cell of every pass and solves
    it (timed), then checks every cell.  The checks run after the
    solves and untraced, so the network-executed KKT check (whose
    simulator stays allocated) is outside both the spans and the
    ``peak_rss_mb`` reading taken before the first check.  Returns
    ``(rounds, window, peak_rss_mb)``.
    """
    rounds = 0
    rss_mb = 0.0
    start = time.monotonic()
    while True:
        # The instances are the suite's fixed ones (round r of cell i is
        # the same for every seed), as in the paper's evaluation: their
        # iteration counts vary so much with the values that seeded
        # instances would spread sim_cycles by ~15 % from seed to seed.
        # The seed picks the KKT checks' right-hand sides.
        problems = [
            spec.generate(value_seed(0, 8, rounds, index))
            for index, (spec, _) in enumerate(GRID)
        ]
        solved: list[list] = [[] for _ in passes]
        # Alternate which pass goes first, so neither always meets the
        # other's warm caches.
        order = range(len(passes)) if rounds % 2 == 0 else reversed(range(len(passes)))
        for i in order:
            p = passes[i]
            if p.recorder is not None:
                p.recorder.install()
            try:
                reports = []
                for solver, problem in zip(p.solvers, problems):
                    meter.tick()
                    t0 = time.perf_counter()
                    solver.update_values(problem)
                    report = solver.solve()
                    reports.append((report, time.perf_counter() - t0))
            finally:
                if p.recorder is not None:
                    p.recorder.uninstall()
            solved[i] = reports
        if rounds == 0:
            rss_mb = _peak_rss_mb()
        for p, reports in zip(passes, solved):
            for index, (solver, problem, (report, seconds_taken)) in enumerate(
                zip(p.solvers, problems, reports)
            ):
                sample = _check_cell(
                    solver, problem, report, value_seed(seed, 9, rounds, index)
                )
                sample.seconds = seconds_taken
                p.samples.append(sample)
        rounds += 1
        if rounds == COUNTED_ROUNDS:
            for p in passes:
                p.counted = list(p.samples)
        if rounds >= COUNTED_ROUNDS and time.monotonic() - start >= seconds:
            break
    return rounds, (start, time.monotonic()), rss_mb


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _details(samples, rounds) -> dict:
    return {
        "rounds": rounds,
        "operations": len(samples),
        "cells": len(GRID),
        "worst_residual_ratio": max(s.ratio for s in samples),
        "failures": sorted({s.detail for s in samples if not s.ok}),
    }


def run_suite(seed: int, seconds: float, trace: bool) -> Outcome:
    """One run of compile-suite."""
    with SpeedMeter() as meter:
        if trace:
            return _traced(seed, seconds, meter)
        return _untraced(seed, seconds, meter)


def _untraced(seed: int, seconds: float, meter: SpeedMeter) -> Outcome:
    setups = []
    solvers = None
    for _ in range(SETUP_REPEATS):
        solvers = None  # free the previous grid before the next one
        solvers, total = _construct(meter)
        setups.append(total)
    grid = _Pass(solvers)
    rounds, _, rss_mb = _rounds([grid], seed, seconds, meter)
    samples, counted = grid.samples, grid.counted
    # Latency of a grid pass at each cell's median (p95) solve time:
    # cells differ in cost by 20x, so percentiles over the pooled solves
    # would fall on the seams between cells.  Failed solves keep their
    # times, so a failing cell cannot make the figures look better.
    per_cell = [
        [s.seconds for s in samples[index::len(GRID)]] for index in range(len(GRID))
    ]
    measured = dict(
        setup_s=setups,
        p50_s=sum(float(np.percentile(c, 50)) for c in per_cell),
        p95_s=sum(float(np.percentile(c, 95)) for c in per_cell),
        solves=sum(s.ok for s in samples),
        busy_s=sum(s.seconds for s in samples),
        sim_cycles=sum(s.cycles for s in counted),
        peak_rss_mb=rss_mb,
    )
    return Outcome(
        len(samples),
        sum(not s.ok for s in samples),
        not any(s.wrong for s in samples),
        end_to_end(**measured, speed=meter.factor),
        _details(samples, rounds)
        | {
            "setup_s_each": setups,
            "speed_factor": meter.factor,
            "calibrations": len(meter.samples),
            "unscaled": end_to_end(**measured),
        },
    )


def _traced(seed: int, seconds: float, meter: SpeedMeter) -> Outcome:
    """A plain grid and a traced grid take turns, round by round, on the
    same values, so host-speed drift cannot pass for tracing
    overhead."""
    plain = _Pass(_construct(meter)[0])
    recorder = Recorder().install()
    try:
        t0 = time.monotonic()
        traced = _Pass(_construct(meter)[0], recorder)
        setup_window = (t0, time.monotonic())
    finally:
        recorder.uninstall()
    rounds, window, _ = _rounds([plain, traced], seed, seconds, meter)
    samples, counted = traced.samples, traced.counted
    metrics = per_layer_metrics(
        recorder.spans,
        setup_window=setup_window,
        measure_window=window,
        ops=len(samples),
        wall_s=sum(s.seconds for s in samples),
        counts={
            "admm_iterations": sum(s.iterations for s in counted),
            "rho_updates": sum(s.rho_updates for s in counted),
        },
        serve={},
        overhead_pct=tracing_overhead_pct(
            [s.seconds for s in plain.samples], [s.seconds for s in samples]
        ),
        speed=meter.factor,
    )
    everything = plain.samples + samples
    return Outcome(
        len(everything),
        sum(not s.ok for s in everything),
        not any(s.wrong for s in everything),
        metrics,
        _details(samples, rounds)
        | {
            "spans": len(recorder.spans),
            "speed_factor": meter.factor,
        },
    )
