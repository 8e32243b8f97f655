"""Max-min linear programs over a polyhedral outer set and the
optimality-condition blocks the cutting-plane masters embed.

Each max-min question has one function:
- enumerate_outer takes the 0/1 points of an outer set whose vertices are
  all 0/1 from the one lister (enumeration.binary_vertices) and solves the
  inner LP at every one of them in one LP of a copy per point
  (backend.copies_lp), with no big-M: the inner value is convex in the
  outer point, so its maximum sits at a vertex;
- check_inner_feasibility, the one feasibility screen, asks whether the
  inner LP is feasible on the whole outer set. enumerate_outer answers
  first, with the worst case besides, where every copy ends Optimal.
  Otherwise the network product MIP (_product_mip) answers where it
  applies: the feasibility dual of a network recourse matrix has 0/1
  vertices, so each product pi_i z_j of the dualized inner LP is
  linearized exactly with pi binary and z_j capped by its probed range, no
  big-M. Elsewhere the extended problem goes to solve_maxmin_dual;
- solve_maxmin_dual chooses the worst case once the screen has vouched for
  feasibility: enumerate_outer where it answers, else the KKT MIP
  (solve_maxmin_kkt), which holds the inner LP at its optimum by that LP's
  optimality block (below), complementarities linearized with a big-M per
  side, and which also takes the 0/1 points that outrun the enumeration's
  cap.
The audits: one LP at the witness (audited_dual_lp, "_polish") audits the
screen's value on every path through the network MIP or the extended
problem; sp2's vertex-dual and split-identity audits run on every path of
sp2, the screen's worst case included, as arithmetic on the enumeration's
row duals and vertices where it answered, else by LPs; sp4's value is not
audited.

An optimality block (build_optimality_block) holds an LP over U(x) at an
optimum of its cost row, x being model columns, by primal and dual
feasibility plus either the big-M complementarities ("kkt") or the one
strong-duality row ("primal-dual", where every column U(x) depends on is
binary, so that its products with lambda are enveloped exactly). It is the
one writer of an LP's optimality conditions: the masters' blocks, a block
at one first stage (those columns fixed) and the KKT MIP, whose inner LP is
a set over its unbounded outer columns and so gets "kkt", all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import backend
from .backend import EQ, GEQ, LEQ, BackendError, LinearModel
from .enumeration import binary_vertices
from .model import (AffineMatrixMap, BasisId, Instance, UncertaintySet, _binary_products,
                    affine_blocks, binary_coupling, max_lp, range_probe)

_ZERO_RC_TOL = 1e-9
_AUDIT_TOL = 1e-4     # relative: a max-min route against its LP, sp2 against its split


@dataclass(eq=False)
class MaxMinProblem:
    """max over {z >= 0 : A_out z <= b_out} of min{c_y y : B_y y >= d - B_x z}.

    The common case fixes the first stage and takes z = u over U(x*); the
    generic shape also covers outer sets with integer components.
    """
    A_out: np.ndarray
    b_out: np.ndarray
    c_y: np.ndarray
    B_y: np.ndarray
    B_x: np.ndarray
    d: np.ndarray
    n_int_out: int = 0
    name: str = "maxmin"

    def __post_init__(self):
        for name in ("A_out", "b_out", "c_y", "B_y", "B_x", "d"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n_out(self) -> int:
        return self.A_out.shape[1]


def maxmin_from_instance(inst: Instance, x: np.ndarray) -> MaxMinProblem:
    """The worst-case recourse problem at a fixed first stage: outer set
    U(x), inner LP the recourse with its rhs already shifted by B1 x."""
    x = np.asarray(x, dtype=float)
    return MaxMinProblem(*inst.U.at(x), c_y=inst.Y.c2, B_y=inst.Y.B2, B_x=inst.Y.E,
                         d=inst.Y.d - inst.Y.B1 @ x, n_int_out=inst.U.n_int_u,
                         name=f"{inst.name}_wc")


@dataclass
class MaxMinResult:
    """A max-min's optimum and the outer point attaining it; a route whose
    MIP or enumeration LP does not end as it must raises BackendError
    naming that model instead. The enumeration route (enumerate_outer) also
    gives pi, the row duals of the inner LP at that point, a vertex of its
    dual polyhedron, and vertices, the outer points it valued; the KKT and
    product routes give neither."""
    value: float
    outer: np.ndarray
    pi: np.ndarray | None = None
    vertices: np.ndarray | None = None


# -- parametric LP over U(x) ---------------------------------------------------

@dataclass
class ParametricLPResult:
    """The optimum u and value of max{c_u'u : u in U(x)}, U(x) = {u >= 0 :
    Fx u <= rhs}, with cost_row the standard-form objective (c_u, zeros)
    over (u, slacks) and beta the seed it was solved at.

    basis and reduced_costs are rebuilt from u on first read: over the
    standard form [F(x) | I] from the positive support, completed with
    slack columns (_complete_basis), then pivoted to one that prices out
    (_pivot_to_dual_feasible). Duals and reduced costs come from that basis
    directly, so the report does not depend on which optimal basis HiGHS
    stopped at. At a degenerate vertex the slack completion keeps the zero
    coordinates of u nonbasic, so the basis stays feasible at first stages
    where a zero coordinate made basic would leave U(x), and a basis
    cutting set built from it binds there: on pm_uk8 at 56 of 56 first
    stages, against 6 of 56 for a lowest-index completion. Only the basis
    and parametric-modified cuts read them (ccg.MasterState.cut)."""
    u: np.ndarray
    value: float
    cost_row: np.ndarray
    beta: np.ndarray
    Fx: np.ndarray
    rhs: np.ndarray

    @cached_property
    def basis(self) -> BasisId:
        A, z = self._standard_form()
        scale = max(1.0, float(np.abs(z).max()))
        support = [j for j in range(z.size) if z[j] > 1e-9 * scale]
        return BasisId(tuple(_pivot_to_dual_feasible(A, self.cost_row, z,
                                                     _complete_basis(A, support))))

    @cached_property
    def reduced_costs(self) -> np.ndarray:
        """Over the standard-form columns (u then slacks)."""
        return _basis_prices(self._standard_form()[0], self.cost_row,
                             list(self.basis.indices))[1]

    def _standard_form(self) -> tuple[np.ndarray, np.ndarray]:
        """[F(x) | I] and the point (u, slacks)."""
        return (np.hstack([self.Fx, np.eye(self.Fx.shape[0])]),
                np.concatenate([self.u, self.rhs - self.Fx @ self.u]))


def lp_parametric(inst: Instance, x: np.ndarray, beta: np.ndarray,
                  vertices: np.ndarray | None = None) -> ParametricLPResult:
    """max{(-E u)' beta : u in U(x)}: from the listed vertices of U(x) where
    given, as the first of them attaining the largest value, with no LP;
    else from one LP ("lp_parametric"), HiGHS's optimal point. Its basis
    and reduced costs follow on first read (ParametricLPResult)."""
    beta = np.asarray(beta, dtype=float)
    Fx, rhs = inst.U.at(x)
    mu, n = Fx.shape
    c_u = -(inst.Y.E.T @ beta)
    c_full = np.concatenate([c_u, np.zeros(mu)])
    if vertices is not None:
        values = vertices @ c_u
        k = int(np.argmax(values))
        return ParametricLPResult(u=vertices[k], value=float(values[k]), cost_row=c_full,
                                  beta=beta, Fx=Fx, rhs=rhs)

    out = backend.solve_lp(max_lp(Fx, rhs, c_u, "lp_parametric"))
    if out.status == backend.INFEASIBLE:
        raise BackendError("U(x) is empty: nonemptiness assumption violated")
    if out.status == backend.UNBOUNDED:
        raise BackendError("U(x) is unbounded: boundedness assumption violated")
    if not out.is_optimal:
        raise BackendError(f"parametric LP ended {out.status}")
    return ParametricLPResult(u=out.x[:n], value=float(out.objective), cost_row=c_full,
                              beta=beta, Fx=Fx, rhs=rhs)


def _basis_prices(A: np.ndarray, c: np.ndarray, cols: list[int]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The prices lam of the basis cols of A (A_B' lam = c_B) and the
    reduced costs c - A' lam, set to zero on the basis."""
    lam = np.linalg.solve(A[:, cols].T, c[cols]) if A.shape[0] else np.zeros(0)
    rc = c - A.T @ lam
    rc[cols] = 0.0
    return lam, rc


def _pivot_to_dual_feasible(A: np.ndarray, c: np.ndarray, z: np.ndarray,
                            cols: list[int]) -> list[int]:
    """Lowest-index pivoting from a primal-feasible basis of the optimal
    vertex z to one that also prices out (max sense: nonbasic rc <= 0).

    The greedy completion can land on a dual-infeasible basis of a degenerate
    vertex; since z is optimal, every exchange below has step zero, so the
    point never moves and Bland's rule guarantees termination.
    """
    mu = A.shape[0]
    if mu == 0:
        return cols
    cols = list(cols)
    c_scale = max(1.0, float(np.abs(c).max()))
    z_scale = max(1.0, float(np.abs(z).max()))
    for _ in range(10000):
        _, rc = _basis_prices(A, c, cols)
        in_basis = set(cols)
        entering = next((j for j in range(A.shape[1])
                         if j not in in_basis and rc[j] > 1e-9 * c_scale), None)
        if entering is None:
            return sorted(cols)
        d = np.linalg.solve(A[:, cols], A[:, entering])
        blockers = [i for i in range(mu) if d[i] > 1e-9]
        if not blockers:
            raise BackendError("improving ray at a vertex the solver called "
                               "optimal; inconsistent basis data")
        ratios = [z[cols[i]] / d[i] for i in blockers]
        best = min(ratios)
        if best > 1e-7 * z_scale:
            raise BackendError("improving step at a vertex the solver called "
                               "optimal; inconsistent basis data")
        leave = min((i for i, r in zip(blockers, ratios)
                     if r <= best + 1e-9 * z_scale), key=lambda i: cols[i])
        cols[leave] = entering
    raise BackendError("basis cleanup did not terminate")


def _complete_basis(A: np.ndarray, support: list[int]) -> list[int]:
    """Greedy completion of a column support to a full basis of the standard
    form A = [F | I]: the support in index order, then the slack columns
    (the last A.shape[0]) in index order, each taken where it is
    independent of those already taken. The slacks span, so no structural
    column outside the support enters.

    At a degenerate vertex this keeps a zero coordinate u_j nonbasic, so the
    basis's point has u_j = 0 at every first stage. A basic u_j at zero
    would instead hold some row at equality and follow its right-hand side
    as x moves, leaving U(x) wherever that pushes u_j or another row's
    slack negative."""
    mu, n_cols = A.shape
    order = sorted(support) + sorted(set(range(n_cols - mu, n_cols)) - set(support))
    cols: list[int] = []
    Q = np.zeros((mu, 0))
    for j in order:
        if len(cols) == mu:
            break
        v = A[:, j].astype(float)
        resid = v - Q @ (Q.T @ v)
        nv = np.linalg.norm(resid)
        if nv > 1e-9 * max(1.0, np.linalg.norm(v)):
            Q = np.hstack([Q, (resid / nv)[:, None]])
            cols.append(j)
    return sorted(cols)


# -- feasibility of the inner LP over the whole outer set -----------------------

def check_inner_feasibility(problem: MaxMinProblem
                            ) -> tuple[float, np.ndarray, MaxMinResult | None]:
    """Worst-case artificial mass v_f = max_z min{1'w : B_y y + w >= d - B_x z}
    with its witness outer point, and the max-min itself where it comes
    free: (v_f, witness, worst). Zero means the inner LP is feasible at
    every outer point; a positive value comes with the witness where it is
    not.

    enumerate_outer comes first. Where its LP ends Optimal, which
    backend.linprog grants only where HiGHS's x holds lhs <= A x <= rhs on
    every row of the LP's arrays to 10 sqrt(1e-9), every 0/1 point of the
    outer set is served, and so is the whole set:
    the z where the inner LP is feasible form a convex set (the projection
    of a polyhedron) holding every vertex. The answer is then (0, worst
    point, worst result), the result with the worst copy's row duals and
    the listed points, which sp2 reads in place of LPs of its own.
    Otherwise (worst None) the dual of the inner LP is max{(d - B_x z)' pi :
    pi in Pi_1}, with Pi_1 = {0 <= pi <= 1, B_y' pi <= 0}. When B_y has
    network columns and every z_j that the objective reads has a finite
    range over the outer set (one range_probe LP), Pi_1 has 0/1 vertices
    and the product MIP takes pi binary; otherwise solve_maxmin_dual answers
    the extended problem. Either way the value is audited by the
    feasibility LP at the witness z*, and the LP's value is returned.
    """
    try:
        worst = enumerate_outer(problem)
    except _EnumerationFailed:
        worst = None
    if worst is not None:
        return 0.0, worst.outer, worst
    m_rows, ny = problem.B_y.shape
    ext = replace(problem, c_y=np.concatenate([np.zeros(ny), np.ones(m_rows)]),
                  B_y=np.hstack([problem.B_y, np.eye(m_rows)]),
                  name=problem.name + "_feas")
    res = None
    if has_network_columns(problem.B_y):
        cols = np.flatnonzero(problem.B_x.any(axis=0))
        hi = range_probe(problem.A_out, problem.b_out, cols)
        if np.isfinite(hi).all():
            # Pi_1 with pi <= 1 as the bound of binary columns, not as rows
            res = _product_mip(replace(problem, c_y=np.zeros(ny), name=ext.name),
                               caps=dict(zip(cols.tolist(), hi)))
    if res is None:
        res = solve_maxmin_dual(ext)
    polish = audited_dual_lp(ext.B_y, ext.c_y, ext.d - ext.B_x @ res.outer,
                             res.value, ext.name + "_polish")
    return max(0.0, float(polish.objective)), res.outer, None


def has_network_columns(B: np.ndarray) -> bool:
    """Every entry is 0 or +/-1, and every column has at most one +1 and at
    most one -1.

    B is then the incidence matrix of a directed graph, some arc ends left
    out, so B' is totally unimodular, and {0 <= pi <= 1, B' pi <= 0} has 0/1
    vertices (Schrijver, Theory of Linear and Integer Programming, 1986,
    sec. 19)."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return bool(np.all((B == 0.0) | (np.abs(B) == 1.0))
                and np.all((B == 1.0).sum(axis=0) <= 1)
                and np.all((B == -1.0).sum(axis=0) <= 1))


def _add_outer_set(m: LinearModel, problem: MaxMinProblem,
                   caps: dict[int, float] | None = None) -> list[int]:
    """Columns z >= 0 and rows A_out z <= b_out of the outer set: the first
    n_int_out integer, z_j capped at caps[j] where given."""
    caps = caps or {}
    n = problem.n_out
    z_ids = m.add_vars(n, ub=[caps.get(j, np.inf) for j in range(n)],
                       integer=np.arange(n) < problem.n_int_out)
    m.add_rows([(z_ids, problem.A_out)], LEQ, problem.b_out)
    return z_ids


# -- KKT route ------------------------------------------------------------------

def solve_maxmin_kkt(problem: MaxMinProblem) -> MaxMinResult:
    """The inner LP min{c_y'y : B_y y >= d - B_x z} is the LP over
    {y >= 0 : -B_y y <= -d + B_x z} with cost row (-c_y, 0), so its
    optimality block (build_optimality_block) over the outer columns z holds
    y at an inner optimum; maximize c_y'y over the block."""
    m = LinearModel(name=problem.name + "_kkt")
    z_ids = _add_outer_set(m, problem)
    inner = UncertaintySet(F=AffineMatrixMap(-problem.B_y), G=problem.B_x, h=-problem.d)
    cost_row = np.concatenate([-problem.c_y, np.zeros(inner.n_rows)])
    y_ids = build_optimality_block(m, inner, cost_row, z_ids).u_ids
    m.set_objective(dict(zip(y_ids, problem.c_y)), sense="max")
    out = backend.solve_mip(m)
    if out.status == backend.INFEASIBLE:
        # distinguish an empty outer set from a too-small M
        probe = LinearModel()
        _add_outer_set(probe, problem)
        probe.set_objective({})
        if backend.solve_mip(probe).is_optimal:
            raise BackendError(
                "optimality system infeasible though the outer set is not: "
                "M too small or inner LP infeasible/unbounded somewhere")
    if not out.is_optimal:
        raise BackendError(f"{m.name} ended {out.status}")
    return MaxMinResult(value=float(out.objective), outer=out.x[:problem.n_out])


# -- enumeration, worst-case chooser and network product MIP ---------------------

class _EnumerationFailed(BackendError):
    """enumerate_outer's "<name>_enum" LP ended other than Optimal."""


def enumerate_outer(problem: MaxMinProblem) -> MaxMinResult | None:
    """The max-min over the points enumeration.binary_vertices lists, every
    vertex of the outer set (the inner value is convex in the outer point):
    the largest inner value and the first point attaining it, from one LP
    ("<name>_enum") of a copy of the inner LP per point (backend.copies_lp).
    The result also carries that copy's row duals as pi, an optimum of the
    inner LP's dual at the point and a basic one, so a vertex of {pi >= 0 :
    B_y' pi <= c_y} (None where HiGHS gives no duals), and the listed
    points as vertices. None where it lists
    none or the inner LP has no columns (sp4's under an all-integer
    recourse; the KKT MIP takes it); BackendError where the list is empty,
    _EnumerationFailed where the LP does not end Optimal."""
    points = None if problem.B_y.shape[1] == 0 else binary_vertices(
        problem.A_out, problem.b_out, problem.n_int_out)
    if points is None:
        return None
    if not len(points):
        raise BackendError(f"{problem.name}: the outer set has no 0/1 point "
                           "(nonemptiness violated)")
    name, rhs = problem.name + "_enum", problem.d - points @ problem.B_x.T
    out = backend.solve_lp(backend.copies_lp(name, problem.B_y, GEQ, rhs, 0.0, np.inf,
                                             problem.c_y))
    if not out.is_optimal:
        raise _EnumerationFailed(f"{name} ended {out.status}")
    values = out.x.reshape(len(points), -1) @ problem.c_y
    k, m = int(np.argmax(values)), problem.B_y.shape[0]
    pi = None if out.row_dual is None else out.row_dual[k * m:(k + 1) * m].copy()
    return MaxMinResult(value=float(values[k]), outer=points[k], pi=pi, vertices=points)


def solve_maxmin_dual(problem: MaxMinProblem) -> MaxMinResult:
    """max over z in the outer set of min{c_y'y : B_y y >= d - B_x z, y >= 0},
    for an inner LP that the caller's check_inner_feasibility has found
    feasible on the whole outer set: enumerate_outer where it answers, else
    the KKT MIP (solve_maxmin_kkt). Either raises BackendError naming its
    model when that model does not end as it must."""
    res = enumerate_outer(problem)
    return res if res is not None else solve_maxmin_kkt(problem)


def _product_mip(problem: MaxMinProblem, caps: dict[int, float]) -> MaxMinResult:
    """max (d - B_x z)' pi over z in the outer set and pi in {0, 1} with
    B_y' pi <= c_y ("<name>_net"), each product pi_i z_j linearized exactly
    by the envelope of a binary and a bounded factor. The feasibility dual
    of a network B_y has 0/1 vertices, so pi binary loses nothing. caps, the
    probed maximum of each z_j the objective reads, bounds z_j and is the M
    of its products, since a bound holds exactly in the MIP while the rows
    implying it hold only to feasibility tolerance, which the maximizing z
    would exploit."""
    m = LinearModel(name=problem.name + "_net")
    z_ids = _add_outer_set(m, problem, caps=caps)
    pi_ids = m.add_vars(problem.B_y.shape[0], ub=1.0, integer=True)
    m.add_rows([(pi_ids, problem.B_y.T)], LEQ, problem.c_y)
    obj = dict(zip(pi_ids, problem.d))
    rows, cols = np.nonzero(problem.B_x)
    w = _binary_products(m, [(pi_ids[i], z_ids[j]) for i, j in zip(rows, cols)],
                         [caps[j] for j in cols])
    obj.update(zip(w, -problem.B_x[rows, cols]))
    m.set_objective(obj, sense="max")
    out = backend.solve_mip(m)
    if not out.is_optimal:
        raise BackendError(f"{m.name} ended {out.status}")
    return MaxMinResult(value=float(out.objective), outer=out.x[:problem.n_out])


def audited_dual_lp(B_y: np.ndarray, c_y: np.ndarray, rhs: np.ndarray,
                    value: float, name: str) -> backend.SolveOutcome:
    """The optimum of the recourse dual max{rhs' pi : B_y' pi <= c_y, pi >= 0}
    at one outer point, whose value a max-min route claims: BackendError,
    naming the LP, unless the LP ends Optimal and agrees with value
    (audit_value)."""
    out = backend.solve_lp(max_lp(B_y.T, c_y, rhs, name))
    if not out.is_optimal:
        raise BackendError(f"{name} ended {out.status}")
    audit_value(value, out.objective, name)
    return out


def audit_value(value: float, lp_value: float, name: str) -> None:
    """BackendError, naming the check, unless a max-min route's value is
    within _AUDIT_TOL (relative) of the LP value at its outer point."""
    if abs(lp_value - value) > _AUDIT_TOL * max(1.0, abs(value)):
        raise BackendError(f"{name}: the max-min value {value:.10g} differs from "
                           f"the LP value {lp_value:.10g} at its outer point")


# -- optimality blocks ----------------------------------------------------------

@dataclass
class OptimalityBlock:
    u_ids: list[int]
    representation: str


def build_optimality_block(model: LinearModel, U: UncertaintySet, cost_row: np.ndarray,
                           x_ids: list[int]) -> OptimalityBlock:
    """Append fresh (u, lambda) columns and the rows pinning (u, s) to an
    optimum of the LP max{c_u'u + c_s's : F(x) u + s = h + G x, u, s >= 0},
    x being the model's columns x_ids and (c_u, c_s) the standard-form
    cost_row; a perturbed row with a single optimal vertex pins that vertex.
    Primal and dual feasibility (F(x)' lambda >= c_u, lambda >= c_s) come
    with the strong-duality row c_u'u + c_s's >= (h + G x)' lambda
    ("primal-dual") when every column that U(x) depends on is binary in the
    model (binary_coupling), so that its products with lambda are enveloped
    exactly, and with the linearized complementarities ("kkt") otherwise.
    The strong-duality row needs no binary per row and column of U, and its
    only big-M is the bound on the lambda of coupled rows, which the KKT
    block needs too. A block at one first stage is this block with the x
    columns fixed, and the KKT max-min (solve_maxmin_kkt) is the block of
    its inner LP over its outer columns.

    The primal side (u, the row slacks, their products with x) is bounded
    by the run's big-M M (backend.current_big_m), the dual side (lambda,
    the reduced costs, their products with x) by M_d = dual_bound(U,
    cost_row).
    """
    representation = "primal-dual" if binary_coupling(model, U, x_ids) else "kkt"
    mu, n = U.n_rows, U.dim
    c_struct, c_slack = np.split(np.asarray(cost_row, dtype=float), [n])
    u_ids = model.add_vars(n)
    # the dual needs lam_i >= c_slack_i only; a perturbed slack cost is
    # negative, and lam_i >= 0 would then force its row tight
    lam_ids = model.add_vars(mu, lb=c_slack)
    products: dict[tuple[int, int], int] = {}
    M, M_d = backend.current_big_m(), dual_bound(U, cost_row)

    # primal rows, with explicit slack columns for the slack costs and the
    # complementarities
    slack_ids = model.add_vars(mu)
    primal = affine_blocks(model, U.F, u_ids, x_ids, M, products)
    model.add_rows([(slack_ids, np.eye(mu)), *primal, (x_ids, -U.G)], EQ, U.h)
    # dual rows F(x)' lam >= c
    dual = affine_blocks(model, U.F, lam_ids, x_ids, M_d, products, transpose=True,
                         lo=c_slack)
    model.add_rows(dual, GEQ, c_struct)

    if representation == "kkt":
        # lam_i - c_slack_i against the row slack, then u_j against its
        # reduced cost
        backend.linearize_complementarity(model, lam_ids, -c_slack,
                                          [(slack_ids, np.eye(mu))], np.zeros(mu), M_d, M)
        backend.linearize_complementarity(model, u_ids, np.zeros(n), dual,
                                          -c_struct, M, M_d)
    else:
        rhs = affine_blocks(model, U.rhs_map, lam_ids, x_ids, M_d, products,
                            transpose=True, lo=c_slack)
        model.add_rows([(u_ids, c_struct[None]), (slack_ids, c_slack[None]),
                        *[(ids, -A) for ids, A in rhs]], GEQ, [0.0])
    return OptimalityBlock(u_ids=u_ids, representation=representation)


def dual_bound(U: UncertaintySet, cost_row: np.ndarray | None) -> float:
    """M_d = max(M, 2 ||c||_1 kappa), M the run's big-M
    (backend.current_big_m): the bound on the dual side (lambda, the
    reduced costs, their products with x) of a block that holds an optimum
    of max{c'(u, s) : u in U(x)}, c the standard-form cost row cost_row and
    kappa the largest entry of |F0| + sum_k |Fk|; M itself without a cost
    row.

    A constant interval F (kappa 1) has a TU [F | I], so some optimal dual
    vertex has |lam_i| <= ||c||_1 and reduced costs below 2 ||c||_1; on any
    other F kappa is an empirical scale, not a proof."""
    M = backend.current_big_m()
    if cost_row is None:
        return M
    kappa = np.max(np.abs(U.F.base) + sum(np.abs(Fk) for _, Fk in U.F.terms), initial=0.0)
    return max(M, 2.0 * float(np.abs(cost_row).sum()) * float(kappa))


# -- uniqueness perturbation ------------------------------------------

def perturb_for_uniqueness(cost_row: np.ndarray, basis: BasisId,
                           reduced_costs: np.ndarray, epsilon: float) -> np.ndarray:
    """Lower the cost by epsilon on nonbasic columns whose reduced cost
    vanishes; every alternative optimal vertex then prices out strictly."""
    c = np.asarray(cost_row, dtype=float).copy()
    free = np.abs(reduced_costs) <= _ZERO_RC_TOL * max(1.0, float(np.abs(c).max()))
    free[list(basis.indices)] = False
    c[free] -= epsilon
    return c


def ensure_unique_optimum(base: ParametricLPResult) -> np.ndarray:
    """The cost row of base, a parametric LP over U(x) (lp_parametric), with
    a verified uniqueness perturbation.

    Lowering the costs of the nonbasic columns with zero reduced cost keeps
    the basis optimal and gives each reduced cost -epsilon, so a smaller
    epsilon could not pass a check this one fails. The check re-solves over
    base's own U(x) with the perturbed costs: the vertex must stay optimal
    with strictly negative reduced costs on every nonbasic column, else
    BackendError.
    """
    eps = 1e-4 * max(1.0, float(np.abs(base.cost_row).max()))
    c_hat = perturb_for_uniqueness(base.cost_row, base.basis, base.reduced_costs, eps)
    if not _perturbation_is_clean(base, c_hat):
        raise BackendError("uniqueness perturbation failed to isolate the vertex")
    return c_hat


def _perturbation_is_clean(base: ParametricLPResult, c_hat: np.ndarray) -> bool:
    Fx, rhs = base.Fx, base.rhs
    mu, n = Fx.shape
    out = backend.solve_lp(max_lp(Fx, rhs, c_hat[:n], "perturb_check"))
    if not out.is_optimal:
        return False
    # same vertex still optimal
    u_new = out.x[:n]
    if np.max(np.abs(u_new - base.u)) > 1e-7 * max(1.0, np.abs(base.u).max()):
        return False
    # and strictly so: every nonbasic column prices out negative
    cols = list(base.basis.indices)
    _, rc = _basis_prices(np.hstack([Fx, np.eye(mu)]), c_hat, cols)
    return bool(np.all(np.delete(rc, cols) < -1e-12))
