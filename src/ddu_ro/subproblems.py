"""The per-iteration oracles evaluated at a candidate first stage: recourse
feasibility over the whole uncertainty set, worst-case cost with its dual
seed, infeasibility rays, MIP-recourse surrogates, and the Pareto-improved
dual selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .backend import GEQ, BackendError, SolveTimeLimit
from .instances import recourse_value
from .maxmin import (
    MaxMinProblem,
    ParametricLPResult,
    check_inner_feasibility,
    dual_polyhedron_lp,
    lp_parametric,
    maxmin_from_instance,
    solve_maxmin_dual,
)
from .model import Instance

_PI_FEAS_TOL = 1e-6
_AUDIT_TOL = 1e-4


@dataclass
class SubproblemReport:
    kind: str
    value: float | None = None
    u: np.ndarray | None = None
    pi: np.ndarray | None = None
    ray: np.ndarray | None = None
    basis_result: ParametricLPResult | None = None
    audit_gap: float | None = None
    status: str = backend.OPTIMAL
    used_fallback: bool = False


def sp1(inst: Instance, x: np.ndarray, M: float = 1e4,
        time_limit: float | None = None) -> SubproblemReport:
    """Worst-case artificial mass of the recourse over U(x): zero means every
    scenario is servable, positive comes with the witness scenario."""
    problem = maxmin_from_instance(inst, x)
    try:
        v_f, u_f = check_inner_feasibility(problem, M=M, time_limit=time_limit)
    except SolveTimeLimit:
        return SubproblemReport(kind="SP1", status=backend.TIME_LIMIT)
    return SubproblemReport(kind="SP1", value=v_f, u=u_f)


def sp2(inst: Instance, x: np.ndarray, M: float = 1e4,
        time_limit: float | None = None, kind: str = "SP2") -> SubproblemReport:
    """Worst-case recourse cost at x with the dual extreme point that
    certifies it.

    Whichever route solved the max-min, pi is re-solved as a vertex of Pi:
    the simplex optimum of the recourse dual at the worst-case scenario u*.
    The max-min's own pi may sit at its cap M on rows of zero weight, and
    seeds off the vertices of Pi need master multipliers beyond any bound.
    Two audits follow: the max-min value must equal that uncapped LP value
    (a binding cap fails it), and the split identity must hold: the value
    equals (d - B1 x)' pi plus the parametric-LP value at pi, whose solve
    comes back as basis_result."""
    problem = maxmin_from_instance(inst, x)
    res = solve_maxmin_dual(problem, M=M, time_limit=time_limit,
                            check_feasibility=False)
    if res.status == backend.UNBOUNDED:
        raise BackendError(
            "worst-case problem unbounded: recourse infeasible somewhere, "
            "the feasibility subproblem should have caught this")
    if res.status != backend.OPTIMAL:
        return SubproblemReport(kind=kind, status=res.status)
    out = backend.solve_lp(dual_polyhedron_lp(
        problem.B_y, problem.c_y, problem.d - problem.B_x @ res.outer,
        name=f"{kind}_vertex_dual"), time_limit=time_limit)
    if out.status == backend.TIME_LIMIT:
        return SubproblemReport(kind=kind, status=out.status)
    if not out.is_optimal:
        raise BackendError(f"recourse dual at the worst-case scenario ended "
                           f"{out.status}")
    cap_gap = abs(res.value - out.objective)
    if cap_gap > _AUDIT_TOL * max(1.0, abs(res.value)):
        raise BackendError(f"worst-case value {res.value:.10g} differs from the "
                           f"recourse value {out.objective:.10g} at its scenario: "
                           "the dual bound M binds")
    pi = out.x
    infeas = _pi_violation(inst, pi)
    if infeas > _PI_FEAS_TOL:
        raise BackendError(f"returned dual violates its polyhedron by {infeas:.2e}")

    # the parametric LP relaxes any integrality on u, so the split identity
    # only holds when the uncertainty set is purely continuous
    if inst.U.n_int_u:
        return SubproblemReport(kind=kind, value=float(res.value), u=res.outer,
                                pi=pi)
    try:
        lp_res = lp_parametric(inst, x, pi, time_limit=time_limit)
    except SolveTimeLimit:
        return SubproblemReport(kind=kind, status=backend.TIME_LIMIT)
    audit = abs(res.value - (float((inst.Y.d - inst.Y.B1 @ x) @ pi) + lp_res.value))
    if audit > _AUDIT_TOL * max(1.0, abs(res.value)):
        raise BackendError(f"split identity violated by {audit:.2e}: "
                           "dual point inconsistent with the parametric LP")
    return SubproblemReport(kind=kind, value=float(res.value), u=res.outer,
                            pi=pi, basis_result=lp_res, audit_gap=audit)


def sp3(inst: Instance, x: np.ndarray, u_f: np.ndarray,
        time_limit: float | None = None) -> SubproblemReport:
    """Extreme ray of the dual polyhedron certifying that the recourse at
    (x, u_f) is infeasible."""
    x = np.asarray(x, dtype=float)
    u_f = np.asarray(u_f, dtype=float)
    Y = inst.Y
    rhs_eff = Y.d - Y.B1 @ x - Y.E @ u_f
    lp = dual_polyhedron_lp(Y.B2, Y.c2, rhs_eff, name="sp3")
    out = backend.solve_lp(lp, time_limit=time_limit)
    if out.status == backend.TIME_LIMIT:
        return SubproblemReport(kind="SP3", status=out.status)
    if out.status == backend.INFEASIBLE:
        raise BackendError("dual polyhedron empty: recourse LP unbounded below")
    if out.status != backend.UNBOUNDED:
        raise BackendError(
            "recourse is feasible at the supplied scenario: no ray exists")
    try:
        gamma = backend.extract_ray(lp, time_limit=time_limit)
    except SolveTimeLimit:
        return SubproblemReport(kind="SP3", status=backend.TIME_LIMIT)
    if float(rhs_eff @ gamma) <= 1e-8:
        raise BackendError("extracted ray does not certify infeasibility")
    cone_gap = float(np.max(Y.B2.T @ gamma)) if Y.dim else 0.0
    if cone_gap > 1e-8:
        raise BackendError(f"ray leaves the recession cone by {cone_gap:.2e}")
    return SubproblemReport(kind="SP3", ray=gamma, u=u_f)


def sp2_mip_relax(inst: Instance, x: np.ndarray, M: float = 1e4,
                  time_limit: float | None = None) -> SubproblemReport:
    """Worst case of the LP relaxation of a MIP recourse: a lower-bound
    surrogate. With no integer recourse variables this is plain sp2."""
    return sp2(inst, x, M=M, time_limit=time_limit, kind="SP2relax")


def recourse_mip_at(inst: Instance, x: np.ndarray, u: np.ndarray,
                    time_limit: float | None = None) -> tuple[float, np.ndarray]:
    """Exact MIP recourse at a fixed scenario; returns value and y."""
    val, y = recourse_value(inst, x, u, time_limit=time_limit)
    if y is None:
        raise BackendError("exact recourse MIP infeasible or unbounded at "
                           "the supplied scenario")
    return val, y


def sp4(inst: Instance, x: np.ndarray, y_d: np.ndarray, M: float = 1e4,
        time_limit: float | None = None) -> SubproblemReport:
    """Worst case with the integer recourse block frozen at y_d: an
    upper-bound surrogate. Infinite when some scenario is unservable under
    that freeze."""
    nd = inst.Y.n_int_y
    y_d = np.asarray(y_d, dtype=float)
    if y_d.shape != (nd,):
        raise ValueError(f"y_d must have shape ({nd},)")
    if np.max(np.abs(y_d - np.round(y_d))) > 1e-9:
        raise ValueError("y_d must be integral")
    x = np.asarray(x, dtype=float)
    Y = inst.Y
    problem = MaxMinProblem(
        A_out=inst.U.F.evaluate(x),
        b_out=inst.U.h + inst.U.G @ x,
        c_y=Y.c2[nd:],
        B_y=Y.B2[:, nd:],
        B_x=Y.E,
        d=Y.d - Y.B1 @ x - Y.B2[:, :nd] @ y_d,
        n_int_out=inst.U.n_int_u,
        name=f"{inst.name}_sp4",
    )
    res = solve_maxmin_dual(problem, M=M, time_limit=time_limit,
                            check_feasibility=True)
    offset = float(Y.c2[:nd] @ y_d)
    if res.status == backend.UNBOUNDED:
        return SubproblemReport(kind="SP4", value=np.inf, u=res.outer,
                                ray=res.ray, status=backend.UNBOUNDED)
    if res.status != backend.OPTIMAL:
        return SubproblemReport(kind="SP4", status=res.status)
    return SubproblemReport(kind="SP4", value=float(res.value) + offset,
                            u=res.outer, pi=res.dual)


def sp2_pareto_lp(inst: Instance, x0: np.ndarray, u_ref: np.ndarray,
                  x_star: np.ndarray, u_star: np.ndarray, eta_s: float,
                  time_limit: float | None = None) -> SubproblemReport:
    """Pick, among the duals as good as pi* for the cut at x*, one that is
    strongest at the core point (x0, u_ref). Falls back to the original
    seed when the LP rejects the combination."""
    x0 = np.asarray(x0, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    u_star = np.asarray(u_star, dtype=float)
    Y = inst.Y
    m_rows = Y.n_rows
    core = Y.d - Y.B1 @ x0 - Y.E @ u_ref
    lp = dual_polyhedron_lp(Y.B2, Y.c2, core, name="sp2_pol")
    anchor = Y.d - Y.B1 @ x_star - Y.E @ u_star
    lp.add_constr({i: anchor[i] for i in range(m_rows) if anchor[i] != 0.0},
                  GEQ, eta_s)
    out = backend.solve_lp(lp, time_limit=time_limit)
    if not out.is_optimal:
        return SubproblemReport(kind="SP2POL", status=out.status,
                                used_fallback=True)
    pi_dot = out.x[:m_rows]
    return SubproblemReport(kind="SP2POL", value=float(out.objective),
                            pi=pi_dot)


def _pi_violation(inst: Instance, pi: np.ndarray) -> float:
    if inst.Y.dim == 0:
        return 0.0
    slack = inst.Y.B2.T @ pi - inst.Y.c2
    return max(float(np.max(slack)), float(-np.min(pi)), 0.0)
