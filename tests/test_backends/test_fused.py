"""Fused-vs-replay differential tests for whole-iteration traces.

``execution="fused"`` lowers the per-kernel iteration traces into one
:class:`~repro.arch.FusedTrace` and replays an entire ADMM iteration
per host dispatch round.  The contract is *bit identity*: every
iterate, residual, termination decision and cycle count must equal the
per-kernel replay path (itself bit-identical to the interpretive
oracle) — only the host→numpy crossing count may differ, and it must
shrink.  The matrix here drives that contract through every domain and
network width, warm re-solves, mid-solve ρ refactorization, batched
lanes and the compilation cache's fusion stamp.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.compiler import ScheduleCache
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import QPProblem, Settings

# Realistic solver behaviour: termination checks every 25 iterations
# and adaptive rho on, so the fused path runs through residual-check
# segments and (on some domains) a mid-solve refactorization.
SETTINGS = Settings(max_iter=300, check_interval=25)

# Per-iteration host->numpy crossing budget for the fused path.  The
# measured fleet sits at 71-174 across the domain suite at these
# dimensions; the fixed bound catches any pass regression that starts
# leaking statements back into the flat program.
FUSED_CROSSING_BUDGET = 256

PROBLEMS = {
    "lasso": lambda: lasso_problem(6, seed=0),
    "mpc": lambda: mpc_problem(3, horizon=4, seed=0),
    "portfolio": lambda: portfolio_problem(10, seed=0),
    "svm": lambda: svm_problem(5, n_samples=15, seed=0),
    "huber": lambda: huber_problem(6, n_samples=15, seed=0),
}


def report_key(r):
    """Everything a solve reports, bytes-exact (crossings excluded by
    design: they are what fusion changes).  Scalars compare as float64
    bit patterns so a bitwise-equal NaN (a diverged-but-identical run)
    counts as equal."""
    return (
        r.status,
        r.iterations,
        r.cycles,
        r.rho_updates,
        r.x.tobytes(),
        r.z.tobytes(),
        r.y.tobytes(),
        np.float64(r.primal_residual).tobytes(),
        np.float64(r.dual_residual).tobytes(),
        np.float64(r.objective).tobytes(),
    )


def solver_pair(problem, c=8, settings=SETTINGS):
    return (
        MIBSolver(
            problem, variant="direct", c=c, settings=settings,
            execution="replay",
        ),
        MIBSolver(
            problem, variant="direct", c=c, settings=settings,
            execution="fused",
        ),
    )


def perturbed(base: QPProblem, seed: int) -> QPProblem:
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + 0.05 * rng.standard_normal(base.n))
    return QPProblem(
        p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name
    )


@pytest.mark.parametrize("domain", sorted(PROBLEMS))
def test_fused_matches_replay(domain):
    replay, fused = solver_pair(PROBLEMS[domain]())
    r = replay.solve_on_network()
    f = fused.solve_on_network()
    assert report_key(f) == report_key(r)
    assert f.host_crossings < r.host_crossings


@pytest.mark.slow
@pytest.mark.parametrize("c", [16, 32])
@pytest.mark.parametrize("domain", sorted(PROBLEMS))
def test_fused_matches_replay_wider(domain, c):
    replay, fused = solver_pair(PROBLEMS[domain](), c=c)
    assert report_key(fused.solve_on_network()) == report_key(
        replay.solve_on_network()
    )


@pytest.mark.parametrize("domain", ["mpc", "huber"])
def test_fused_warm_resolve_matches_replay(domain):
    """update_values re-solves ride the already-fused trace: rebound
    coefficients, no recompilation, still bit-identical."""
    base = PROBLEMS[domain]()
    replay, fused = solver_pair(base)
    assert report_key(fused.solve_on_network()) == report_key(
        replay.solve_on_network()
    )
    for seed in (1, 2):
        instance = perturbed(base, seed)
        replay.update_values(instance)
        fused.update_values(instance)
        assert report_key(fused.solve_on_network()) == report_key(
            replay.solve_on_network()
        )


def test_fused_rho_refactorization_matches_replay():
    """A deliberately bad initial rho forces mid-solve adaptation: the
    fused loop must break out, refactorize on the host and re-enter
    exactly where per-kernel replay does."""
    problem = portfolio_problem(10, seed=3)
    settings = Settings(rho=1e-3, eps_abs=1e-4, eps_rel=1e-4, max_iter=4000)
    replay, fused = solver_pair(problem, settings=settings)
    r = replay.solve_on_network()
    f = fused.solve_on_network()
    assert r.rho_updates > 0, "test needs a mid-solve refactorization"
    assert report_key(f) == report_key(r)


@pytest.mark.parametrize("domain", ["lasso", "portfolio"])
def test_fused_batch_lanes_match_solo(domain):
    """Batched fused lanes vs the sequential oracle: bind_instance +
    solve_on_network on the same solver, lane for lane."""
    base = PROBLEMS[domain]()
    solver = MIBSolver(
        base, variant="direct", c=8, settings=SETTINGS, execution="fused"
    )
    lanes = [perturbed(base, seed) for seed in range(1, 6)]
    batch = solver.solve_batch(lanes)
    for problem, lane in zip(lanes, batch.lanes):
        solver.bind_instance(problem)
        solo = solver.solve_on_network()
        assert report_key(lane) == report_key(solo)
        # Same mode on both sides: crossings must match exactly too
        # (harvest re-syncs are never charged to the surviving lanes).
        assert lane.host_crossings == solo.host_crossings


def test_fused_crossing_budget():
    """The observability gate: one fused iteration must stay within a
    fixed host-dispatch budget and strictly under per-kernel replay."""
    for domain, gen in PROBLEMS.items():
        problem = gen()
        replay, fused = solver_pair(problem)
        fused_crossings = fused.iteration_crossings()
        assert fused_crossings <= FUSED_CROSSING_BUDGET, domain
        assert fused_crossings < replay.iteration_crossings(), domain
        # The report carries the whole solve's recorded crossings
        # (iteration loop + factorization + residual checks).
        f = fused.solve_on_network()
        assert f.host_crossings > f.iterations * fused_crossings, domain


def test_fused_matches_replay_per_backend(backend):
    """Whole-iteration fused execution through every available array
    backend vs the numpy per-kernel replay oracle, bytes-exact."""
    base = PROBLEMS["mpc"]()
    replay = MIBSolver(
        base, variant="direct", c=8, settings=SETTINGS, execution="replay"
    )
    fused = MIBSolver(
        base, variant="direct", c=8, settings=SETTINGS, execution="fused",
        array_backend=backend,
    )
    assert report_key(fused.solve_on_network()) == report_key(
        replay.solve_on_network()
    )
    # Device backends never dispatch more than the host fused path.
    assert fused.iteration_crossings(xp=backend) <= replay.iteration_crossings()


def test_fused_batch_lanes_match_solo_per_backend(backend):
    base = PROBLEMS["portfolio"]()
    solver = MIBSolver(
        base, variant="direct", c=8, settings=SETTINGS, execution="fused",
        array_backend=backend,
    )
    oracle = MIBSolver(
        base, variant="direct", c=8, settings=SETTINGS, execution="fused"
    )
    lanes = [perturbed(base, seed) for seed in range(1, 5)]
    batch = solver.solve_batch(lanes)
    for problem, lane in zip(lanes, batch.lanes):
        oracle.bind_instance(problem)
        assert report_key(lane) == report_key(oracle.solve_on_network())
        # Crossings are backend-specific: compare against a solo solve
        # on the batch's own backend.
        solver.bind_instance(problem)
        solo = solver.solve_on_network()
        assert lane.host_crossings == solo.host_crossings


def test_cache_restores_fusion_stamp(tmp_path):
    """A warm cache restore carries the fusion stamp, so the second
    solver skips re-verification yet replays identically."""
    problem = lasso_problem(6, seed=0)
    first = MIBSolver(
        problem, variant="direct", c=8, settings=SETTINGS,
        execution="fused", cache=ScheduleCache(tmp_path),
    )
    baseline = first.solve_on_network()
    stamp = first._fusion_stamps.get("iteration")
    assert stamp, "fused solve must record its fusion stamp"

    second = MIBSolver(
        problem, variant="direct", c=8, settings=SETTINGS,
        execution="fused", cache=ScheduleCache(tmp_path),
    )
    assert second.cache_hit
    assert second._fusion_stamps.get("iteration") == stamp
    assert report_key(second.solve_on_network()) == report_key(baseline)
