"""Seeded request generation for the three benchmark workloads.

Every instance is drawn from the repository's own domain generators
(:mod:`repro.problems`): the *pattern* of a generated QP depends only on
its dimensions, the *values* on the value seed.  The workload seed fixes
every value seed and every request order, so one ``--seed`` always
produces byte-identical request bodies, and every request carries values
no earlier request of the run used.

An :class:`Op` is one request a serve workload sends.  ``problems``
lists, in response order, the QP each returned solution must solve; the
independent checks (:mod:`perfbench.checks`) read nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.io import encode_bounds, problem_to_dict
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import QPProblem

__all__ = [
    "Op",
    "SOLO_MIX",
    "STREAM_SCENARIOS",
    "make_problem",
    "solo_cold_ops",
    "solo_round",
    "stream_cold_ops",
    "stream_round",
    "value_seed",
]

def make_problem(domain: str, dim: int, seed: int) -> QPProblem:
    """One instance of a domain pattern; values from ``seed``.

    ``dim`` is the generator's size parameter, as on the suite's scale
    ladder (``n_samples = 4 * dim`` where the domain has samples).  MPC
    uses a 4-step horizon here, so its smallest pattern is tiny too.
    """
    if domain == "portfolio":
        return portfolio_problem(dim, seed=seed)
    if domain == "lasso":
        return lasso_problem(dim, n_samples=4 * dim, seed=seed)
    if domain == "huber":
        return huber_problem(dim, n_samples=4 * dim, seed=seed)
    if domain == "mpc":
        return mpc_problem(dim, horizon=4, seed=seed)
    if domain == "svm":
        return svm_problem(dim, n_samples=4 * dim, seed=seed)
    raise ValueError(f"unknown domain {domain!r}")


# solo-mix: (domain, dimension, requests per round).  Five tiny patterns,
# one per domain, whose host solves cost about the same (~10-15 ms, so
# HTTP and JSON are a visible share) carry 20 of the 23 requests of a
# round; three mid-size patterns (host solve ~50 ms) carry 3.  With the
# tiny patterns' latencies overlapping each other and every mid request
# slower than nearly every tiny one, the p50 falls inside the tiny range
# and the p95 inside the mid range, on no seam.  Eight patterns: exactly
# the serve pool's default capacity, so the default server never evicts.
SOLO_MIX = (
    ("portfolio", 20, 4),
    ("lasso", 3, 4),
    ("huber", 2, 4),
    ("mpc", 2, 4),
    ("svm", 3, 4),
    ("portfolio", 50, 1),
    ("lasso", 10, 1),
    ("mpc", 6, 1),
)

# stream-fanout: the lasso path of examples/ (at 8 features x 32
# samples) and its portfolio backtest (40 assets), each split into two
# 16-step sequence requests on one session key, so the second request
# resumes the first one's saved state; and 16-lane scenario fan-outs
# over four patterns.  The sizes put the four sequence requests and the
# svm fan-out in one overlapping latency band that holds the p50, two
# fan-outs below it and the mpc fan-out above it, where the p95 falls.
SOLVES_PER_REQUEST = 16
LASSO_FEATURES = 8
LASSO_SAMPLES = 32
PORTFOLIO_ASSETS = 40
PORTFOLIO_DRIFT = 0.02
# Geometric λ grid of the lasso path example, extended to two requests.
LAMBDA_FRACTIONS = np.geomspace(0.9, 0.02, 2 * SOLVES_PER_REQUEST)
STREAM_SCENARIOS = (
    ("mpc", 2),
    ("portfolio", PORTFOLIO_ASSETS),
    ("huber", 3),
    ("svm", 3),
)
SCENARIO_SPREAD = 0.05  # relative perturbation of q per scenario lane


@dataclass(frozen=True)
class Op:
    """One attempted operation and the instances its answer must solve."""

    kind: str  # "solve", "sequence" or "scenarios"
    label: str  # pattern label, e.g. "lasso-10"
    path: str  # HTTP endpoint
    body: bytes  # request body
    problems: tuple[QPProblem, ...]

    @property
    def solves(self) -> int:
        return len(self.problems)


def value_seed(seed: int, *key: int) -> int:
    """A 32-bit value seed derived from the workload seed and a key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _encode(doc: dict) -> bytes:
    return json.dumps(doc).encode()


def _solve_op(domain: str, dim: int, seed: int) -> Op:
    problem = make_problem(domain, dim, seed)
    return Op(
        kind="solve",
        label=f"{domain}-{dim}",
        path="/v1/solve",
        body=_encode({"problem": problem_to_dict(problem)}),
        problems=(problem,),
    )


def _pattern_id(domain: str, dim: int) -> int:
    return 1000 * ("portfolio", "lasso", "huber", "mpc", "svm").index(domain) + dim


# ----------------------------------------------------------------------
# solo-mix
# ----------------------------------------------------------------------
def solo_cold_ops(seed: int) -> list[Op]:
    """One request per pattern: the set-up that compiles the pool.

    Their values are fixed, not drawn from ``seed``.  The server keeps
    each resident solver's adapted ρ from one anonymous solve to the
    next, so the cold instance sets the ρ that the pattern's measured
    requests start from; seeded cold values spread the summed cycles by
    ~8 % from seed to seed however many rounds are counted, fixed ones
    by ~2.5 %.
    """
    return [
        _solve_op(domain, dim, value_seed(0, 1, _pattern_id(domain, dim)))
        for domain, dim, _ in SOLO_MIX
    ]


def solo_round(seed: int, rnd: int) -> list[Op]:
    """Round ``rnd`` of solo-mix: the fixed composition, seeded order."""
    ops = []
    for domain, dim, count in SOLO_MIX:
        for k in range(count):
            vseed = value_seed(seed, 2, rnd, _pattern_id(domain, dim), k)
            ops.append(_solve_op(domain, dim, vseed))
    order = np.random.default_rng(value_seed(seed, 3, rnd)).permutation(len(ops))
    return [ops[i] for i in order]


# ----------------------------------------------------------------------
# stream-fanout
# ----------------------------------------------------------------------
def _override(base: QPProblem, step: QPProblem) -> dict:
    """Wire override of ``base`` into ``step`` (vectors only: the
    matrices of every step equal the base's, so they never cross the
    wire and stay bitwise shared server-side — the delta-bind
    condition)."""
    assert np.array_equal(step.a.data, base.a.data)
    assert np.array_equal(step.p_upper.data, base.p_upper.data)
    return {"q": step.q.tolist(), "l": encode_bounds(step.l), "u": encode_bounds(step.u)}


def _stream_op(
    kind: str,
    label: str,
    steps: list[QPProblem],
    session: str | None,
    base: QPProblem | None = None,
) -> Op:
    field = "steps" if kind == "sequence" else "scenarios"
    base = steps[0] if base is None else base
    doc: dict = {
        "problem": problem_to_dict(base),
        field: [_override(base, s) for s in steps],
    }
    if session is not None:
        doc["session"] = session
    return Op(
        kind=kind,
        label=label,
        path=f"/v1/{kind}",
        body=_encode(doc),
        problems=tuple(steps),
    )


def _lasso_path(seed: int, part: int, steps: int) -> list[QPProblem]:
    """Half ``part`` of one dataset's λ path (only q moves along it)."""
    fractions = LAMBDA_FRACTIONS[part * SOLVES_PER_REQUEST:][:steps]
    return [
        lasso_problem(
            LASSO_FEATURES,
            n_samples=LASSO_SAMPLES,
            lam_fraction=float(frac),
            seed=seed,
        )
        for frac in fractions
    ]


def _backtest_day(seed: int) -> list[QPProblem]:
    """Two requests' worth of intraday ticks of one market day: one
    risk model (matrices), expected returns drifting multiplicatively,
    as in the portfolio backtest example."""
    base = portfolio_problem(PORTFOLIO_ASSETS, seed=seed)
    rng = np.random.default_rng(seed)
    q = base.q
    ticks = []
    for tick in range(2 * SOLVES_PER_REQUEST):
        if tick:
            q = q * (1.0 + PORTFOLIO_DRIFT * rng.standard_normal(base.n))
        ticks.append(
            QPProblem(p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name)
        )
    return ticks


def _scenarios(
    base: QPProblem, lane_seed: int, lanes: int
) -> list[QPProblem]:
    """Perturbed-q variants of one base instance."""
    rng = np.random.default_rng(lane_seed)
    return [
        QPProblem(
            p=base.p,
            q=base.q * (1.0 + SCENARIO_SPREAD * rng.standard_normal(base.n)),
            a=base.a,
            l=base.l,
            u=base.u,
            name=base.name,
        )
        for _ in range(lanes)
    ]


def _stream_requests(seed: int, rnd: int, size: int) -> list[Op]:
    """The eight requests of one stream-fanout round, in send order:
    sequences and scenario fan-outs alternate.  ``size`` is the steps
    per sequence and the lanes per fan-out."""
    lasso_seed = value_seed(seed, 4, rnd)
    day_seed = value_seed(seed, 5, rnd)
    day = _backtest_day(day_seed)
    lasso_key = f"lasso-{rnd}"
    day_key = f"backtest-{rnd}"
    scen = []
    for domain, dim in STREAM_SCENARIOS:
        pid = _pattern_id(domain, dim)
        # Whether a fan-out stays in lockstep or every lane falls back to
        # solo (when ρ adapts) depends mostly on the base instance, and
        # the two cost 10-40x apart.  Each pattern's base values are
        # therefore fixed (not drawn from the workload seed), so every
        # run meets the same mix of both.  The lanes' perturbations come
        # from the workload seed.
        base = make_problem(domain, dim, value_seed(0, 6, pid))
        lanes = _scenarios(base, value_seed(seed, 6, rnd, pid), size)
        scen.append(_stream_op("scenarios", f"{domain}-{dim}", lanes, None, base))
    lasso_label = f"lasso-path-{LASSO_FEATURES}"
    day_label = f"backtest-{PORTFOLIO_ASSETS}"
    return [
        _stream_op("sequence", lasso_label, _lasso_path(lasso_seed, 0, size), lasso_key),
        scen[0],
        _stream_op("sequence", day_label, day[:size], day_key),
        scen[1],
        _stream_op("sequence", lasso_label, _lasso_path(lasso_seed, 1, size), lasso_key),
        scen[2],
        _stream_op(
            "sequence", day_label, day[SOLVES_PER_REQUEST:SOLVES_PER_REQUEST + size], day_key
        ),
        scen[3],
    ]


def stream_cold_ops(seed: int) -> list[Op]:
    """Set-up: one short request (two steps or lanes) of every (kind,
    pattern) pair, which compiles each pattern and lowers the batch
    traces."""
    first = _stream_requests(seed, 0, 2)
    return [first[0], first[1], first[2], first[3], first[5], first[7]]


def stream_round(seed: int, rnd: int) -> list[Op]:
    """Round ``rnd`` of stream-fanout (fixed order, fresh values)."""
    return _stream_requests(seed, rnd + 1, SOLVES_PER_REQUEST)
