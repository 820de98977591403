"""Differential tests for the batched lockstep solve.

The oracle for lane *i* of ``solve_batch(problems)`` is
``bind_instance(problems[i])`` + ``solve_on_network()`` on the *same*
solver (same Ruiz scaling, ρ reset to its configured initial value) —
and the contract is bitwise: status, iteration count, executed cycles,
host crossings, ρ adaptations, iterates, residuals, objective and
infeasibility certificates must all be exactly equal, lane by lane,
including lanes that adapt ρ inside the group (a per-lane
refactorization charged only to the lanes that asked for it), lanes
that leave lockstep (early harvest, a controller bail-out) and a lane
going primal-infeasible mid-batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_reference_batch
from repro.backends.mib import MIBSolver
from repro.linalg import CSCMatrix
from repro.problems import mpc_problem
from repro.solver import QPProblem, Settings, SolverStatus
from repro.xp import get_backend

C = 8

# Perturbation scales chosen so one batch exercises every lockstep
# path: mixed-convergence early harvest (lanes converge at different
# iterations), a lane that never adapts ρ, lanes that adapt once,
# twice and three times, a lane whose first adaptation comes checks
# after its siblings', MAX_ITERATIONS leftovers and a primal-infeasible
# lane (which adapts twice before it certifies).
SEED_SCALES = [(11, 3.0), (12, 6.0), (13, 12.0), (14, 25.0), (15, 50.0),
               (16, 4.0), (48, 8.0), (49, 8.0)]

SETTINGS = Settings(
    max_iter=300, check_interval=5, adaptive_rho=True,
    eps_abs=1e-8, eps_rel=1e-8,
)

EXECUTIONS = ("interpret", "replay", "fused")

NUMPY = get_backend("numpy")

# The batch path always replays traces, so an interpret-mode batch
# dispatches exactly what a replay-mode solo solve does: its crossing
# oracle is the replay solo (results and cycles are mode-independent).
ORACLE_EXECUTION = {"interpret": "replay", "replay": "replay",
                    "fused": "fused"}


def perturbed_full(base: QPProblem, seed: int, scale: float) -> QPProblem:
    """A same-pattern instance with every value family perturbed."""
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + scale * rng.standard_normal(base.n))
    a = base.a.copy()
    a.data = a.data * (1.0 + scale * 0.3 * rng.standard_normal(a.nnz))
    p = base.p.copy()  # keep P PSD: one positive factor for the matrix
    p.data = p.data * float(np.exp(scale * rng.standard_normal()))
    fin_l = base.l > -1e20
    fin_u = base.u < 1e20
    l, u = base.l.copy(), base.u.copy()
    l[fin_l] -= scale * np.abs(rng.standard_normal(int(fin_l.sum())))
    u[fin_u] += scale * np.abs(rng.standard_normal(int(fin_u.sum())))
    eq = base.l == base.u  # keep equalities equal but shift them
    shift = scale * 0.1 * rng.standard_normal(int(eq.sum()))
    l[eq] = base.l[eq] + shift
    u[eq] = base.u[eq] + shift
    return QPProblem(p=p, q=q, a=a, l=l, u=u, name=base.name)


def value_key(r):
    """Everything but host crossings: backend-independent, so every
    backend must reproduce the numpy oracle's bytes."""
    return (
        r.status,
        r.iterations,
        r.cycles,
        r.rho_updates,
        r.x.tobytes(),
        r.z.tobytes(),
        r.y.tobytes(),
        r.primal_residual,
        r.dual_residual,
        r.objective,
    )


def report_key(r):
    return value_key(r) + (r.host_crossings,)


def cert_bytes(cert):
    return None if cert is None else cert.tobytes()


@pytest.fixture(scope="module")
def base():
    return mpc_problem(2, horizon=3, seed=5)


@pytest.fixture(scope="module")
def solver(base):
    return MIBSolver(base, variant="direct", c=C, settings=SETTINGS)


@pytest.fixture(scope="module")
def problems(base):
    return [perturbed_full(base, s, sc) for s, sc in SEED_SCALES]


@pytest.fixture(scope="module")
def adaptations():
    """Lane ids given a new ρ at each in-group adaptation, in order
    (filled by the ``batch_and_solo`` pass)."""
    return []


@pytest.fixture(scope="module")
def batch_and_solo(problems, solver, adaptations):
    install = solver._apply_batch_rho

    def recording(g, rows, new_rho):
        adaptations.append(sorted(int(i) for i in g.ids[rows]))
        return install(g, rows, new_rho)

    solver._apply_batch_rho = recording
    try:
        batch = solver.solve_batch(problems)
    finally:
        del solver._apply_batch_rho
    solos = []
    for pr in problems:
        solver.bind_instance(pr)
        solos.append(solver.solve_on_network())
    return problems, batch, solos


@pytest.fixture(scope="module")
def oracle(base, problems):
    """Solo oracles per (execution, backend), built once per module."""
    runs: dict[tuple[str, str], list] = {}

    def get(execution: str, backend):
        key = (ORACLE_EXECUTION[execution], backend.name)
        if key not in runs:
            solver = MIBSolver(
                base, variant="direct", c=C, settings=SETTINGS,
                execution=key[0], array_backend=backend,
            )
            runs[key] = []
            for pr in problems:
                solver.bind_instance(pr)
                runs[key].append(solver.solve_on_network())
        return runs[key]

    return get


def assert_lanes_match(lanes, solos, crossing_solos=None) -> None:
    """Every lane equals its solo oracle bytes-exactly; host crossings
    are checked against ``crossing_solos`` when given (a solo solve on
    the batch's own backend — device backends count transfers, not
    numpy calls)."""
    if crossing_solos is None:
        crossing_solos = solos
    for i, (lane, solo, twin) in enumerate(
        zip(lanes, solos, crossing_solos, strict=True)
    ):
        assert value_key(lane) == value_key(solo), f"lane {i}"
        assert lane.host_crossings == twin.host_crossings, f"lane {i}"
        assert cert_bytes(lane.primal_infeasibility_certificate) == (
            cert_bytes(solo.primal_infeasibility_certificate)
        ), f"lane {i}"
        assert cert_bytes(lane.dual_infeasibility_certificate) == (
            cert_bytes(solo.dual_infeasibility_certificate)
        ), f"lane {i}"


class TestBitwiseDifferential:
    def test_every_lane_bit_identical_to_solo(self, batch_and_solo):
        _, batch, solos = batch_and_solo
        assert_lanes_match(batch.lanes, solos)

    def test_batch_covers_mixed_convergence(self, batch_and_solo):
        """The fixture batch must actually exercise early harvest:
        lanes converge at different iteration counts."""
        _, batch, _ = batch_and_solo
        solved_iters = {
            r.iterations
            for r in batch.lanes
            if r.status is SolverStatus.SOLVED
        }
        assert len(solved_iters) >= 2

    def test_batch_covers_primal_infeasible_lane(self, batch_and_solo):
        _, batch, _ = batch_and_solo
        infeasible = [
            r
            for r in batch.lanes
            if r.status is SolverStatus.PRIMAL_INFEASIBLE
        ]
        assert infeasible
        for r in infeasible:
            assert r.primal_infeasibility_certificate is not None

    def test_rho_adapting_lanes_stay_in_lockstep(
        self, batch_and_solo, adaptations
    ):
        """ρ adaptation refactorizes inside the group: lanes adapt at
        different checks and more than once, alongside a lane that
        never adapts, and none of them leaves lockstep."""
        _, batch, _ = batch_and_solo
        updates = [r.rho_updates for r in batch.lanes]
        assert 0 in updates
        assert max(updates) >= 2
        assert len(adaptations) >= 2
        first = {}
        for k, ids in enumerate(adaptations):
            for lane in ids:
                first.setdefault(lane, k)
        assert len(set(first.values())) >= 2, "adaptations at one check"
        assert any(
            r.status is SolverStatus.MAX_ITERATIONS for r in batch.lanes
        )
        assert not any(r.bailed for r in batch.lanes)
        assert batch.bailout_lanes == 0

    def test_report_aggregates(self, batch_and_solo):
        _, batch, _ = batch_and_solo
        assert batch.batch == len(batch.lanes) == len(SEED_SCALES)
        cycles = [r.cycles for r in batch.lanes]
        assert batch.total_cycles == sum(cycles)
        assert batch.max_cycles == max(cycles)
        assert batch.solved_lanes == sum(
            r.status is SolverStatus.SOLVED for r in batch.lanes
        )

    @pytest.mark.parametrize("seeds", [(21, 22, 23), (31, 32, 33)])
    def test_randomized_mild_batches(self, base, seeds):
        """Randomized mild perturbations (fresh solver per grid): the
        everything-converges regime, still bitwise per lane."""
        st = Settings(
            max_iter=120, check_interval=10, adaptive_rho=True,
            eps_abs=1e-6, eps_rel=1e-6,
        )
        solver = MIBSolver(base, variant="direct", c=C, settings=st)
        problems = [perturbed_full(base, s, 0.5) for s in seeds]
        batch = solver.solve_batch(problems)
        for i, pr in enumerate(problems):
            solver.bind_instance(pr)
            assert report_key(batch.lanes[i]) == report_key(
                solver.solve_on_network()
            ), f"lane {i}"


@pytest.mark.parametrize("execution", EXECUTIONS)
class TestBackendLaneEquality:
    """The lockstep gauntlet — lanes adapting ρ at different checks and
    more than once, next to a never-adapting, a primal-infeasible and
    a MAX_ITERATIONS lane — in every execution mode on every available
    array backend.  Every lane must reproduce the numpy solo oracle
    bytes-exactly; only its host crossings compare against a solo solve
    on the same backend, since device backends count transfers, not
    numpy calls."""

    def test_every_lane_bit_identical_per_backend(
        self, base, problems, oracle, execution, backend
    ):
        solver = MIBSolver(
            base, variant="direct", c=C, settings=SETTINGS,
            execution=execution, array_backend=backend,
        )
        batch = solver.solve_batch(problems)
        assert not any(r.bailed for r in batch.lanes)
        assert_lanes_match(
            batch.lanes, oracle(execution, NUMPY), oracle(execution, backend)
        )

    def test_bailout_after_rho_update_carries_adapted_factor(
        self, base, problems, oracle, execution, backend
    ):
        """A bail-out after a lane's ρ update resumes on the adapted
        L/Dinv rows it carries out of the group: lane 3 bails at the
        very check that adapted it (its fused re-sync still pending),
        lane 7 a check later, and both adapt again on their own."""
        solver = MIBSolver(
            base, variant="direct", c=C, settings=SETTINGS,
            execution=execution, array_backend=backend,
        )
        first_adapt = SETTINGS.adaptive_rho_interval
        plan = {first_adapt: [3], first_adapt + SETTINGS.check_interval: [7]}
        seen = []

        def progress(snapshot):
            seen.append(snapshot.iteration)
            return plan.get(snapshot.iteration, ())

        batch = solver.solve_batch(problems, progress=progress)
        solos = oracle(execution, NUMPY)
        assert set(plan) <= set(seen)
        assert [i for i, r in enumerate(batch.lanes) if r.bailed] == [3, 7]
        assert batch.bailout_lanes == 2
        for lane in (3, 7):
            assert solos[lane].rho_updates >= 2, "needs a later adaptation"
        assert_lanes_match(batch.lanes, solos, oracle(execution, backend))


class TestAgainstHostReference:
    def test_solved_lanes_match_cpu_reference(self, batch_and_solo):
        """The independent host solves (own scaling, to-tolerance) must
        agree with batched lanes on every lane solved by both."""
        problems, batch, _ = batch_and_solo
        ref = run_reference_batch(
            problems, variant="direct", settings=SETTINGS
        )
        assert len(ref.results) == len(batch.lanes)
        compared = 0
        for lane, host in zip(batch.lanes, ref.results):
            if not (
                lane.status is SolverStatus.SOLVED
                and host.status is SolverStatus.SOLVED
            ):
                continue
            np.testing.assert_allclose(
                lane.x, host.x, rtol=1e-4, atol=1e-5
            )
            np.testing.assert_allclose(
                lane.objective, host.objective, rtol=1e-5, atol=1e-7
            )
            compared += 1
        assert compared >= 1


class TestExplicitInfeasibleLane:
    def test_contradictory_equalities_mid_batch(self):
        """A hand-built primal-infeasible lane (two copies of one row
        pinned to different equality values) rides along with feasible
        siblings and certifies without disturbing them."""
        p = CSCMatrix((1, 1), [0, 1], [0], [1.0])
        a = CSCMatrix((2, 1), [0, 2], [0, 1], [1.0, 1.0])
        feasible = QPProblem(
            p=p, q=np.array([1.0]), a=a,
            l=np.zeros(2), u=np.zeros(2), name="tiny",
        )
        infeasible = QPProblem(
            p=p, q=np.array([1.0]), a=a,
            l=np.array([0.0, 1.0]), u=np.array([0.0, 1.0]), name="tiny",
        )
        st = Settings(max_iter=200, check_interval=5, adaptive_rho=False)
        solver = MIBSolver(feasible, variant="direct", c=C, settings=st)
        batch = solver.solve_batch([feasible, infeasible, feasible])
        assert batch.lanes[0].status is SolverStatus.SOLVED
        assert batch.lanes[2].status is SolverStatus.SOLVED
        assert batch.lanes[1].status is SolverStatus.PRIMAL_INFEASIBLE
        assert batch.lanes[1].primal_infeasibility_certificate is not None
        for row in (0, 2):
            np.testing.assert_allclose(
                batch.lanes[row].x, [0.0], atol=1e-3
            )
        for i, pr in enumerate([feasible, infeasible, feasible]):
            solver.bind_instance(pr)
            assert report_key(batch.lanes[i]) == report_key(
                solver.solve_on_network()
            ), f"lane {i}"


class TestValidation:
    def test_empty_batch_rejected(self, solver):
        with pytest.raises(ValueError, match="at least one"):
            solver.solve_batch([])

    def test_pattern_mismatch_rejected(self, solver):
        other = mpc_problem(3, seed=0)
        with pytest.raises(ValueError, match="identical patterns"):
            solver.solve_batch([other])

    def test_indirect_variant_rejected(self, base):
        indirect = MIBSolver(
            base, variant="indirect", c=C, settings=SETTINGS
        )
        with pytest.raises(ValueError, match="direct"):
            indirect.solve_batch([base])

    def test_single_lane_batch_matches_solo(self, base):
        st = Settings(max_iter=60, check_interval=10, adaptive_rho=True)
        solver = MIBSolver(base, variant="direct", c=C, settings=st)
        batch = solver.solve_batch([base])
        solver.bind_instance(base)
        assert report_key(batch.lanes[0]) == report_key(
            solver.solve_on_network()
        )
