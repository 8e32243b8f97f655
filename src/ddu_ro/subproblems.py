"""The per-iteration oracles evaluated at a candidate first stage: recourse
feasibility over the whole uncertainty set, worst-case cost with its dual
seed, infeasibility rays, MIP-recourse surrogates, and the Pareto-improved
dual selection.

A solve that does not end as an oracle needs raises BackendError where it
fails, so every report carries a result, except the Pareto LP's: a failure
there leaves pi None, and the caller keeps its seed."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import backend
from .backend import GEQ, LEQ, BackendError
from .instances import recourse_value
from .maxmin import (
    _AUDIT_TOL,
    ParametricLPResult,
    MaxMinResult,
    audit_value,
    audited_dual_lp,
    check_inner_feasibility,
    lp_parametric,
    maxmin_from_instance,
    solve_maxmin_dual,
)
from .model import Instance, max_lp

_PI_FEAS_TOL = 1e-6
# artificial mass above this times max(1, |d|) leaves a scenario without
# recourse: sp1's in the loop against the instance's d, sp4's against its
# own d - B1 x - B2_int y_d
_FEAS_TOL = 1e-7
_RAY_TOL = 1e-8


@dataclass
class SubproblemReport:
    value: float | None = None
    u: np.ndarray | None = None
    pi: np.ndarray | None = None
    ray: np.ndarray | None = None
    basis_result: ParametricLPResult | None = None
    worst: MaxMinResult | None = None


def sp1(inst: Instance, x: np.ndarray) -> SubproblemReport:
    """Worst-case artificial mass of the recourse over U(x)
    (check_inner_feasibility): zero means every scenario is servable,
    positive comes with the witness scenario. Where U(x)'s 0/1 points
    settled it, worst carries their enumeration, sp2's worst case, with u
    its scenario."""
    v_f, u_f, worst = check_inner_feasibility(maxmin_from_instance(inst, x))
    return SubproblemReport(value=v_f, u=u_f, worst=worst)


def sp2(inst: Instance, x: np.ndarray, kind: str = "SP2",
        worst: MaxMinResult | None = None) -> SubproblemReport:
    """Worst-case recourse cost at x with the dual extreme point that
    certifies it. worst, sp1's report of the max-min at the same x where it
    has one, stands for solve_maxmin_dual, which runs only after sp1 has
    found the recourse feasible; the audits below run either way.

    pi is an optimal basic dual of the recourse at the worst-case scenario
    u*, a vertex of Pi: a max-min route's own pi may sit at its cap on rows
    of zero weight, and seeds off the vertices of Pi need master multipliers
    beyond any bound. On the enumeration route it is the worst copy's row
    duals (enumerate_outer), and sp2 solves no LP: pi must lie in Pi within
    _PI_FEAS_TOL, unclipped, and the max-min value must equal the dual
    objective (d - B1 x - E u*)' pi (audit_value). On the other routes pi is
    the simplex optimum of the recourse dual LP at u* ("<kind>_vertex_dual",
    audited_dual_lp), which holds both, a binding cap failing the second.
    Then the split identity must hold: the value equals (d - B1 x)' pi plus
    the parametric-LP value at pi (lp_parametric, over the enumerated
    vertices where there are some, else its LP), which comes back as
    basis_result."""
    problem = maxmin_from_instance(inst, x)
    res = worst if worst is not None else solve_maxmin_dual(problem)
    rhs, name = problem.d - problem.B_x @ res.outer, f"{kind}_vertex_dual"
    pi = res.pi if res.pi is not None else audited_dual_lp(
        problem.B_y, problem.c_y, rhs, res.value, name).x
    infeas = _pi_violation(inst, pi)
    if infeas > _PI_FEAS_TOL:
        raise BackendError(f"returned dual violates its polyhedron by {infeas:.2e}")
    if res.pi is not None:
        audit_value(res.value, float(rhs @ pi), name)

    # the parametric LP relaxes any integrality on u, so the split identity
    # only holds when the uncertainty set is purely continuous
    if inst.U.n_int_u:
        return SubproblemReport(value=float(res.value), u=res.outer, pi=pi)
    lp_res = lp_parametric(inst, x, pi, res.vertices)
    audit = abs(res.value - (float((inst.Y.d - inst.Y.B1 @ x) @ pi) + lp_res.value))
    if audit > _AUDIT_TOL * max(1.0, abs(res.value)):
        raise BackendError(f"split identity violated by {audit:.2e}: "
                           "dual point inconsistent with the parametric LP")
    return SubproblemReport(value=float(res.value), u=res.outer, pi=pi,
                            basis_result=lp_res)


def sp3(inst: Instance, x: np.ndarray, u_f: np.ndarray) -> SubproblemReport:
    """Ray g of the recourse dual cone certifying that the recourse at
    (x, u_f) is infeasible, scaled so that max|g| = 1: the optimum of the
    Farkas LP max{r' g : B2' g <= 0, g >= 0, 1' g <= 1}, r = d - B1 x - E u_f.
    By Farkas' lemma {y >= 0 : B2 y >= r} is empty exactly when its value is
    positive (Schrijver, Theory of Linear and Integer Programming, 1986)."""
    x, u_f, Y = np.asarray(x, dtype=float), np.asarray(u_f, dtype=float), inst.Y
    rhs_eff = Y.d - Y.B1 @ x - Y.E @ u_f
    lp = max_lp(Y.B2.T, np.zeros(Y.dim), rhs_eff, "sp3")
    lp.add_rows([(range(Y.n_rows), np.ones((1, Y.n_rows)))], LEQ, [1.0])
    out = backend.solve_lp(lp)
    if not out.is_optimal:
        raise BackendError(f"sp3 ended {out.status}")
    if out.objective <= _RAY_TOL:
        raise BackendError(
            "recourse is feasible at the supplied scenario: no ray exists")
    gamma = out.x / np.max(np.abs(out.x))
    if float(rhs_eff @ gamma) <= _RAY_TOL:
        raise BackendError("the Farkas ray does not certify infeasibility")
    cone_gap = float(np.max(Y.B2.T @ gamma)) if Y.dim else 0.0
    if cone_gap > _RAY_TOL:
        raise BackendError(f"ray leaves the recession cone by {cone_gap:.2e}")
    return SubproblemReport(ray=gamma, u=u_f)


def sp2_mip_relax(inst: Instance, x: np.ndarray,
                  worst: MaxMinResult | None = None) -> SubproblemReport:
    """Worst case of the LP relaxation of a MIP recourse: a lower-bound
    surrogate. With no integer recourse variables this is plain sp2; worst
    as in sp2, since sp1 too relaxes the integer recourse."""
    return sp2(inst, x, kind="SP2relax", worst=worst)


def recourse_mip_at(inst: Instance, x: np.ndarray,
                    u: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Exact MIP recourse at a fixed scenario: its value and y, or, where it
    has no optimum, +inf (infeasible) or -inf (unbounded) and None."""
    return recourse_value(inst, x, u)


def sp4(inst: Instance, x: np.ndarray, y_d: np.ndarray) -> SubproblemReport:
    """Worst case with the integer recourse block frozen at y_d: an
    upper-bound surrogate. check_inner_feasibility screens the frozen
    recourse first: infinite, with the witness scenario, above _FEAS_TOL;
    otherwise the screen's worst case where it has one, else
    solve_maxmin_dual. Not audited."""
    nd = inst.Y.n_int_y
    y_d = np.asarray(y_d, dtype=float)
    if y_d.shape != (nd,):
        raise ValueError(f"y_d must have shape ({nd},)")
    if np.max(np.abs(y_d - np.round(y_d))) > 1e-9:
        raise ValueError("y_d must be integral")
    Y = inst.Y
    wc = maxmin_from_instance(inst, x)
    problem = replace(wc, c_y=Y.c2[nd:], B_y=Y.B2[:, nd:],
                      d=wc.d - Y.B2[:, :nd] @ y_d, name=f"{inst.name}_sp4")
    v_f, witness, worst = check_inner_feasibility(problem)
    if v_f > _FEAS_TOL * max(1.0, float(np.abs(problem.d).max())):
        return SubproblemReport(value=np.inf, u=witness)
    res = worst if worst is not None else solve_maxmin_dual(problem)
    return SubproblemReport(value=res.value + float(Y.c2[:nd] @ y_d), u=res.outer)


def sp2_pareto_lp(inst: Instance, x0: np.ndarray, u_ref: np.ndarray,
                  x_star: np.ndarray, u_star: np.ndarray,
                  eta_s: float) -> SubproblemReport:
    """Pick, among the duals as good as pi* for the cut at x*, one that is
    strongest at the core point (x0, u_ref). When the LP does not end
    Optimal the report has no pi, and the caller keeps the original seed."""
    x0, u_ref, x_star, u_star = (np.asarray(a, dtype=float)
                                 for a in (x0, u_ref, x_star, u_star))
    Y = inst.Y
    m_rows = Y.n_rows
    core = Y.d - Y.B1 @ x0 - Y.E @ u_ref
    lp = max_lp(Y.B2.T, Y.c2, core, "sp2_pol")
    anchor = Y.d - Y.B1 @ x_star - Y.E @ u_star
    lp.add_rows([(range(m_rows), anchor[None])], GEQ, [eta_s])
    out = backend.solve_lp(lp)
    if not out.is_optimal:
        return SubproblemReport()
    return SubproblemReport(value=float(out.objective), pi=out.x[:m_rows])


def _pi_violation(inst: Instance, pi: np.ndarray) -> float:
    if inst.Y.dim == 0:
        return 0.0
    slack = inst.Y.B2.T @ pi - inst.Y.c2
    return max(float(np.max(slack)), float(-np.min(pi)), 0.0)
