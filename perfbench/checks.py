"""Output checks made apart from the program, in plain numpy.

Each returned ``(x, y, z)`` is judged against the instance's own
``P, q, A, l, u`` only — never against a stored copy of earlier output
and never through the solver's own residual code:

* OSQP's termination test on the unscaled residuals at the tolerances
  the solve ran with (Stellato et al., eq. 23)::

      ||Ax - z||_inf       <= eps_abs + eps_rel * max(||Ax||, ||z||)
      ||Px + q + A'y||_inf <= eps_abs + eps_rel * max(||Px||, ||A'y||, ||q||)

* ``z`` lies within ``[l, u]``;
* ``y`` lies in the normal cone of ``[l, u]`` at ``z``: a positive
  multiplier only on a constraint at its upper bound, a negative one
  only at its lower bound.

For the compiled kernels, :func:`check_kkt_solution` compares the
network-executed KKT solve with ``numpy.linalg.solve`` of the dense KKT
matrix.
"""

from __future__ import annotations

import numpy as np

from repro.solver import QPProblem

__all__ = [
    "KKT_RTOL",
    "check_kkt_solution",
    "check_solution",
    "dense_kkt",
    "to_dense",
]

# Floating-point slack on the termination test: the solver evaluates the
# same norms in scaled space, so a solve that stopped exactly at the
# tolerance may read a few ulps above it when recomputed here.
RESIDUAL_SLACK = 1e-9
# Bound and normal-cone slack, relative to the magnitude involved
# (unscaling z and y multiplies by the equilibration factors).
BOUND_RTOL = 1e-9
KKT_RTOL = 1e-8


def to_dense(matrix) -> np.ndarray:
    """Dense copy of a CSC matrix, built from its raw arrays."""
    rows, cols = matrix.shape
    dense = np.zeros((rows, cols))
    indptr = np.asarray(matrix.indptr)
    counts = np.diff(indptr)
    col_of = np.repeat(np.arange(cols), counts)
    np.add.at(dense, (np.asarray(matrix.indices), col_of), np.asarray(matrix.data))
    return dense


def _symmetric(p) -> np.ndarray:
    """Dense symmetric P from its upper triangle (stored full or upper)."""
    upper = np.triu(to_dense(p))
    return upper + np.triu(upper, 1).T


def check_solution(
    problem: QPProblem,
    x,
    y,
    z,
    *,
    eps_abs: float,
    eps_rel: float,
) -> tuple[bool, str, float]:
    """Judge one solution triple.

    Returns ``(ok, reason, ratio)`` where ``ratio`` is the larger of the
    primal and dual residuals as a share of their tolerances.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n, m = problem.n, problem.m
    if x.shape != (n,) or y.shape != (m,) or z.shape != (m,):
        return False, "solution has the wrong shape", float("inf")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(z).all()):
        return False, "solution is not finite", float("inf")
    p = _symmetric(problem.p)
    a = to_dense(problem.a)
    q = np.asarray(problem.q, dtype=np.float64)
    l = np.asarray(problem.l, dtype=np.float64)
    u = np.asarray(problem.u, dtype=np.float64)

    ax, px, aty = a @ x, p @ x, a.T @ y

    def norm(v: np.ndarray) -> float:
        return float(np.abs(v).max()) if v.size else 0.0

    prim = norm(ax - z)
    dual = norm(px + q + aty)
    eps_prim = eps_abs + eps_rel * max(norm(ax), norm(z))
    eps_dual = eps_abs + eps_rel * max(norm(px), norm(aty), norm(q))
    ratio = max(prim / eps_prim, dual / eps_dual)
    if ratio > 1.0 + RESIDUAL_SLACK:
        return False, f"residuals at {ratio:.3g} x tolerance", ratio

    tol_z = BOUND_RTOL * (1.0 + np.abs(z))
    if np.any(z < l - tol_z) or np.any(z > u + tol_z):
        return False, "z outside [l, u]", ratio

    tol_y = BOUND_RTOL * (1.0 + norm(y))
    at_upper = np.abs(z - u) <= tol_z
    at_lower = np.abs(z - l) <= tol_z
    if np.any((y > tol_y) & ~at_upper) or np.any((y < -tol_y) & ~at_lower):
        return False, "y outside the normal cone of [l, u] at z", ratio
    return True, "", ratio


def dense_kkt(p_upper, a, sigma: float, rho_vec) -> np.ndarray:
    """The dense KKT matrix ``[[P + sigma I, A'], [A, -diag(1/rho)]]``."""
    p = _symmetric(p_upper)
    a_dense = to_dense(a)
    n = p.shape[0]
    m = a_dense.shape[0]
    k = np.zeros((n + m, n + m))
    k[:n, :n] = p + sigma * np.eye(n)
    k[:n, n:] = a_dense.T
    k[n:, :n] = a_dense
    k[n:, n:] = -np.diag(1.0 / np.asarray(rho_vec, dtype=np.float64))
    return k


def check_kkt_solution(kkt: np.ndarray, rhs, solution) -> tuple[bool, float]:
    """Compare a KKT solve with ``numpy.linalg.solve``; returns
    ``(ok, relative error)`` with the error in the infinity norm."""
    reference = np.linalg.solve(kkt, np.asarray(rhs, dtype=np.float64))
    solution = np.asarray(solution, dtype=np.float64)
    if solution.shape != reference.shape or not np.isfinite(solution).all():
        return False, float("inf")
    err = float(np.abs(solution - reference).max()) / max(
        float(np.abs(reference).max()), 1e-300
    )
    return err <= KKT_RTOL, err
