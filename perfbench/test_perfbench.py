"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

They check that the output checks reject wrong answers, that a seed
fixes every request byte for byte, that a shrunken pass of each
workload, traced and untraced, runs to its end, and that a failed
set-up request counts as a failed operation without stopping the run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.backends.mib import MIBSolver  # noqa: E402

from perfbench import serving, suite, workloads  # noqa: E402
from perfbench.checks import check_kkt_solution, check_solution, dense_kkt  # noqa: E402
from perfbench.run import metric_units  # noqa: E402

EPS = dict(eps_abs=1e-3, eps_rel=1e-3)


@pytest.fixture(scope="module")
def solved():
    problem = workloads.make_problem("mpc", 2, 3)
    solver = MIBSolver(problem, variant="direct", c=16)
    result = solver.solve().result
    assert result.solved
    return problem, solver, result


def test_checker_accepts_a_solved_instance(solved):
    problem, _, r = solved
    ok, why, ratio = check_solution(problem, r.x, r.y, r.z, **EPS)
    assert ok, why
    assert ratio <= 1.0


@pytest.mark.parametrize("which", ["x", "y", "z"])
def test_checker_rejects_one_perturbed_coordinate(solved, which):
    problem, _, r = solved
    triple = {"x": r.x.copy(), "y": r.y.copy(), "z": r.z.copy()}
    triple[which][0] += 1.0
    ok, why, _ = check_solution(problem, triple["x"], triple["y"], triple["z"], **EPS)
    assert not ok and why


def test_checker_rejects_a_multiplier_outside_the_normal_cone():
    # min x^2 s.t. -1 <= x <= 1: x = z = 0 is optimal with y = 0.  A
    # tiny positive multiplier on the inactive constraint keeps the
    # residuals within tolerance but leaves the normal cone.
    from repro.linalg import CSCMatrix
    from repro.solver import QPProblem

    problem = QPProblem(
        p=CSCMatrix.from_dense(np.array([[2.0]])),
        q=np.zeros(1),
        a=CSCMatrix.from_dense(np.array([[1.0]])),
        l=np.array([-1.0]),
        u=np.array([1.0]),
    )
    zero = np.zeros(1)
    assert check_solution(problem, zero, zero, zero, **EPS)[0]
    ok, why, _ = check_solution(problem, zero, np.array([1e-4]), zero, **EPS)
    assert not ok and "normal cone" in why


def test_kkt_check_rejects_one_perturbed_entry(solved):
    _, solver, _ = solved
    ref = solver.reference
    scaled = ref.scaling.scaled
    kkt = dense_kkt(scaled.p_upper, scaled.a, ref.settings.sigma, ref.rho_vec)
    rhs = np.random.default_rng(0).standard_normal(kkt.shape[0])
    solution = solver.solve_kkt_on_network(rhs)
    ok, err = check_kkt_solution(kkt, rhs, solution)
    assert ok and err < 1e-10
    bad = solution.copy()
    bad[len(bad) // 2] *= 1.0 + 1e-6
    bad[len(bad) // 2] += 1e-6
    assert not check_kkt_solution(kkt, rhs, bad)[0]


def _bodies(ops):
    return [(op.path, op.body) for op in ops]


def test_one_seed_gives_byte_identical_requests():
    for make in (workloads.solo_round, workloads.stream_round):
        assert _bodies(make(5, 0)) == _bodies(make(5, 0))
        assert _bodies(make(5, 0)) != _bodies(make(6, 0))
        assert _bodies(make(5, 0)) != _bodies(make(5, 1))
    for make in (workloads.solo_cold_ops, workloads.stream_cold_ops):
        assert _bodies(make(5)) == _bodies(make(5))


def test_every_request_carries_fresh_values():
    bodies = [op.body for r in range(3) for op in workloads.solo_round(5, r)]
    assert len(set(bodies)) == len(bodies)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small solves and one set-up."""
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SOLO_MIX", (("portfolio", 4, 1), ("lasso", 2, 1)))
    monkeypatch.setattr(workloads, "SOLVES_PER_REQUEST", 2)
    monkeypatch.setattr(suite, "SETUP_REPEATS", 1)
    monkeypatch.setattr(
        suite, "GRID", [g for g in suite.GRID if g[0].label == "portfolio[0]"]
    )


@pytest.mark.parametrize("workload", ["solo-mix", "stream-fanout", "compile-suite"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_runs_to_its_end(tiny, workload, trace):
    if workload == "compile-suite":
        outcome = suite.run_suite(3, 0.0, trace)
    else:
        outcome = serving.run_serve(ROOT, workload, 3, 0.0, trace)
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.details
    assert outcome.correct
    assert set(outcome.metrics) == set(metric_units(trace))
    assert all(np.isfinite(v) for v in outcome.metrics.values())
    if not trace:
        assert outcome.metrics["sim_cycles"] > 0


def test_a_failed_setup_request_counts_and_the_run_goes_on(tiny, monkeypatch):
    cold, make_round, _ = serving._WORKLOADS["solo-mix"]

    def cold_with_a_bad_request(seed):
        ops = cold(seed)
        return ops + [dataclasses.replace(ops[0], body=b"{}")]

    monkeypatch.setitem(
        serving._WORKLOADS, "solo-mix", (cold_with_a_bad_request, make_round, 1)
    )
    outcome = serving.run_serve(ROOT, "solo-mix", 3, 0.0, False)
    assert outcome.failed == 1
    assert outcome.correct  # a refused request is a failure, not a wrong answer
    assert all(np.isfinite(v) for v in outcome.metrics.values())


def test_fails_without_the_sources(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solo-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)

