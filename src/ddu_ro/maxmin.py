"""Max-min linear programs over a polyhedral outer set and the
optimality-condition blocks the cutting-plane masters embed.

One route chooser, solve_maxmin_dual, picks between two MIP builders:
- the product MIP (_product_mip) dualizes the inner LP into a disjoint
  bilinear program whose products pi_i z_j are linearized exactly because
  one factor is binary: z when every vertex of the outer set is 0/1
  ("_bilin", pi capped at M), or pi when the dual polyhedron has 0/1
  vertices, as the feasibility dual of a network recourse matrix does
  ("_net", each z_j capped by its probed range, no big-M);
- the KKT MIP (solve_maxmin_kkt) replaces the inner LP by its KKT system,
  complementarities linearized with indicator big-Ms; it answers every
  problem that no product MIP solves exactly.
The feasibility check (check_inner_feasibility) takes the network MIP where
it applies and otherwise hands its extended problem to the chooser, whose
pi <= 1 makes the product MIP exact on 0/1 outer sets. One LP at the
route's outer point (audited_dual_lp) audits every value of the feasibility
check, sp1's included, and sp2's worst case; sp4's frozen-recourse value is
not audited.
Optimality blocks take the first stage as master columns, so any
matrix-coefficient dependence must sit on binary components, since products
with continuous components have no exact linearization; a caller that wants
a block at one first stage fixes those columns.

An optimality block pins u to an optimum of the LP over U(x) by primal and
dual feasibility plus either the big-M complementarities ("kkt") or the one
strong-duality row ("primal-dual"). The block takes "primal-dual" when U(x)
depends only on binary first-stage components, whose products with lambda
are enveloped exactly, and "kkt" otherwise; the perturbed-unique blocks of
parametric-modified stay complementarities ("unique").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import backend
from .backend import EQ, GEQ, LEQ, BackendError, LinearModel
from .model import (BasisId, Instance, _binary_products, _is_binary, affine_blocks,
                    max_over_u, range_probe, require_binary_terms)

_ZERO_RC_TOL = 1e-9
_AUDIT_TOL = 1e-4     # relative: a product MIP against its LP, sp2 against its split


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
        self.A_out = np.asarray(self.A_out, dtype=float)
        self.b_out = np.asarray(self.b_out, dtype=float)
        self.c_y = np.asarray(self.c_y, dtype=float)
        self.B_y = np.asarray(self.B_y, dtype=float)
        self.B_x = np.asarray(self.B_x, dtype=float)
        self.d = np.asarray(self.d, dtype=float)

    @property
    def n_out(self) -> int:
        return self.A_out.shape[1]


def maxmin_from_instance(inst: Instance, x: np.ndarray) -> MaxMinProblem:
    """The worst-case recourse problem at a fixed first stage: outer set
    U(x), inner LP the recourse with its rhs already shifted by B1 x."""
    x = np.asarray(x, dtype=float)
    return MaxMinProblem(
        A_out=inst.U.F.evaluate(x),
        b_out=inst.U.h + inst.U.G @ x,
        c_y=inst.Y.c2,
        B_y=inst.Y.B2,
        B_x=inst.Y.E,
        d=inst.Y.d - inst.Y.B1 @ x,
        n_int_out=inst.U.n_int_u,
        name=f"{inst.name}_wc",
    )


@dataclass
class MaxMinResult:
    """A max-min's optimum and the outer point attaining it, or value inf
    and a witness where the inner LP is infeasible; a route whose MIP does
    not end Optimal raises BackendError naming that MIP instead."""
    value: float
    outer: np.ndarray


# -- parametric LP over U(x) ---------------------------------------------------

@dataclass
class ParametricLPResult:
    u: np.ndarray
    basis: BasisId
    reduced_costs: np.ndarray     # over standard-form columns (u then slacks)
    value: float
    cost_row: np.ndarray          # standard-form objective (u costs, zeros)


def lp_parametric(inst: Instance, x: np.ndarray,
                  beta: np.ndarray) -> ParametricLPResult:
    """max{(-E u)' beta : u in U(x)} with a deterministic basis report.

    The solver supplies an optimal point; the basis is rebuilt here over the
    standard form [F(x) | I] by greedy lowest-index completion of the positive
    support, and duals/reduced costs come from that basis directly, so the
    report does not depend on which optimal basis HiGHS stopped at.
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    U = inst.U
    Fx = U.F.evaluate(x)
    rhs = U.h + U.G @ x
    mu, n = Fx.shape
    c_u = -(inst.Y.E.T @ beta)

    out = max_over_u(Fx, rhs, c_u, "lp_parametric")
    if out.status == backend.INFEASIBLE:
        raise BackendError("U(x) is empty: nonemptiness assumption violated")
    if out.status == backend.UNBOUNDED:
        raise BackendError("U(x) is unbounded: boundedness assumption violated")
    if not out.is_optimal:
        raise BackendError(f"parametric LP ended {out.status}")

    u_star = out.x[:n]
    slack = rhs - Fx @ u_star
    A = np.hstack([Fx, np.eye(mu)])
    z = np.concatenate([u_star, slack])
    scale = max(1.0, float(np.abs(z).max()))
    support = [j for j in range(n + mu) if z[j] > 1e-9 * scale]
    basis_cols = _complete_basis(A, support)
    c_full = np.concatenate([c_u, np.zeros(mu)])
    basis_cols = _pivot_to_dual_feasible(A, c_full, z, basis_cols)
    lam = np.linalg.solve(A[:, basis_cols].T, c_full[basis_cols]) if mu else np.zeros(0)
    rc = c_full - A.T @ lam
    rc[basis_cols] = 0.0
    return ParametricLPResult(u=u_star, basis=BasisId(tuple(basis_cols)),
                              reduced_costs=rc, value=float(out.objective),
                              cost_row=c_full)


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
    cscale = max(1.0, float(np.abs(c).max()))
    zscale = max(1.0, float(np.abs(z).max()))
    for _ in range(10000):
        B = A[:, cols]
        lam = np.linalg.solve(B.T, c[cols])
        rc = c - A.T @ lam
        in_basis = set(cols)
        entering = next((j for j in range(A.shape[1])
                         if j not in in_basis and rc[j] > 1e-9 * cscale), None)
        if entering is None:
            return sorted(cols)
        d = np.linalg.solve(B, A[:, entering])
        blockers = [i for i in range(mu) if d[i] > 1e-9]
        if not blockers:
            raise BackendError("improving ray at a vertex the solver called "
                               "optimal; inconsistent basis data")
        ratios = [z[cols[i]] / d[i] for i in blockers]
        best = min(ratios)
        if best > 1e-7 * zscale:
            raise BackendError("improving step at a vertex the solver called "
                               "optimal; inconsistent basis data")
        leave = min((i for i, r in zip(blockers, ratios)
                     if r <= best + 1e-9 * zscale), key=lambda i: cols[i])
        cols[leave] = entering
    raise BackendError("basis cleanup did not terminate")


def _complete_basis(A: np.ndarray, support: list[int]) -> list[int]:
    """Greedy lowest-index completion of a column support to a full basis."""
    mu = A.shape[0]
    if mu == 0:
        return []
    order = sorted(support) + [j for j in range(A.shape[1]) if j not in support]
    cols: list[int] = []
    Q = np.zeros((mu, 0))
    for j in order:
        v = A[:, j].astype(float)
        resid = v - Q @ (Q.T @ v)
        nv = np.linalg.norm(resid)
        if nv > 1e-9 * max(1.0, np.linalg.norm(v)):
            Q = np.hstack([Q, (resid / nv)[:, None]])
            cols.append(j)
            if len(cols) == mu:
                break
    if len(cols) < mu:
        raise BackendError("standard form is row-rank deficient")
    return sorted(cols)


# -- feasibility of the inner LP over the whole outer set -----------------------

def check_inner_feasibility(problem: MaxMinProblem,
                            M: float = 1e4) -> tuple[float, np.ndarray]:
    """Worst-case artificial mass: v_f = max_z min{1'w : B_y y + w >= d - B_x z}.

    Zero means the inner LP is feasible at every outer point; a positive value
    comes with the witness outer point where it is not.

    The dual of the inner LP is max{(d - B_x z)' pi : pi in Pi_1}, with
    Pi_1 = {0 <= pi <= 1, B_y' pi <= 0}. When B_y has network columns and
    every z_j that the objective reads has a finite range over the outer set,
    Pi_1 has 0/1 vertices and the product MIP takes pi binary; otherwise
    solve_maxmin_dual answers the extended problem, whose pi <= 1 makes its
    product route exact. Either way the value is audited by the feasibility
    LP at the witness z*, and the LP's value is returned.
    """
    m_rows, ny = problem.B_y.shape
    ext = replace(problem, c_y=np.concatenate([np.zeros(ny), np.ones(m_rows)]),
                  B_y=np.hstack([problem.B_y, np.eye(m_rows)]),
                  name=problem.name + "_feas")
    res = None
    if has_network_columns(problem.B_y):
        caps = {j: range_probe(problem.A_out, problem.b_out, j)
                for j in np.flatnonzero(problem.B_x.any(axis=0))}
        if all(np.isfinite(list(caps.values()))):
            # Pi_1 with pi <= 1 as the bound of binary columns, not as rows
            res = _product_mip(replace(problem, c_y=np.zeros(ny), name=ext.name), M,
                               caps=caps)
    if res is None:
        res = solve_maxmin_dual(ext, M=M, check_feasibility=False)
    polish = audited_dual_lp(ext.B_y, ext.c_y, ext.d - ext.B_x @ res.outer,
                             res.value, ext.name + "_polish")
    return max(0.0, float(polish.objective)), res.outer


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
                   caps: dict[int, float] | None = None,
                   binary: bool = False) -> list[int]:
    """Columns z >= 0 and rows A_out z <= b_out of the outer set: every z_j
    binary with binary, else the first n_int_out integer and z_j capped at
    caps[j] where given."""
    caps = caps or {}
    n = problem.n_out
    z_ids = m.add_vars(n, ub=[1.0 if binary else caps.get(j, np.inf) for j in range(n)],
                       integer=binary | (np.arange(n) < problem.n_int_out))
    m.add_rows([(z_ids, problem.A_out)], LEQ, problem.b_out)
    return z_ids


# -- KKT route ------------------------------------------------------------------

def solve_maxmin_kkt(problem: MaxMinProblem, M: float = 1e4) -> MaxMinResult:
    """Replace the inner LP by primal feasibility, dual feasibility, and the
    two linearized complementarity families; maximize the inner objective."""
    m_rows, ny = problem.B_y.shape

    m = LinearModel(name=problem.name + "_kkt")
    z_ids = _add_outer_set(m, problem)
    y_ids = m.add_vars(ny)
    pi_ids = m.add_vars(m_rows)

    surplus = [(y_ids, problem.B_y), (z_ids, problem.B_x)]
    m.add_rows(surplus, GEQ, problem.d)
    m.add_rows([(pi_ids, problem.B_y.T)], LEQ, problem.c_y)
    backend.linearize_complementarity(m, pi_ids, np.zeros(m_rows), surplus,
                                      -problem.d, M, M)
    backend.linearize_complementarity(m, y_ids, np.zeros(ny),
                                      [(pi_ids, -problem.B_y.T)], problem.c_y, M, M)

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


# -- route chooser and product MIP ----------------------------------------------

def solve_maxmin_dual(problem: MaxMinProblem, M: float = 1e4,
                      check_feasibility: bool = True) -> MaxMinResult:
    """max{(d - B_x z)' pi : z in outer set, pi in Pi}.

    Outer sets whose coordinates are all capped at one and whose vertices
    are 0/1 get the product MIP over binary z: either every coordinate is
    declared integer, or the set has integral vertices
    (has_integral_vertices), so that the maximum of the convex inner value
    sits at a binary vertex anyway. pi is capped at M there, which is sound
    whenever the optimal dual stays below it; the audit in the calling layer
    catches violations. Otherwise the KKT route answers.
    Inner infeasibility at some z makes the program unbounded: the result
    then carries the witness z and the value inf. Either route raises
    BackendError naming its MIP when that MIP does not end Optimal.
    """
    if check_feasibility:
        v_f, witness = check_inner_feasibility(problem, M=M)
        if v_f > 1e-7 * max(1.0, float(np.abs(problem.d).max())):
            return MaxMinResult(value=np.inf, outer=witness)

    binary_outer = _outer_is_binary(problem) and (
        problem.n_int_out == problem.n_out
        or has_integral_vertices(problem.A_out, problem.b_out))
    if not binary_outer:
        return solve_maxmin_kkt(problem, M=M)
    return _product_mip(problem, M)


def _product_mip(problem: MaxMinProblem, M: float,
                 caps: dict[int, float] | None = None) -> MaxMinResult:
    """max (d - B_x z)' pi over z in the outer set and pi >= 0 with
    B_y' pi <= c_y, each product pi_i z_j linearized exactly by the envelope
    of a binary and a bounded factor. caps, the probed maximum of each z_j
    the objective reads, makes pi the binary side ("<name>_net"): pi <= 1
    then bounds a dual polyhedron with 0/1 vertices, and caps[j] bounds z_j
    and is the M of its products, since a bound holds exactly in the MIP
    while the rows implying it hold only to feasibility tolerance, which the
    maximizing z would exploit. Without caps z is binary and pi <= M
    ("<name>_bilin")."""
    network = caps is not None
    m_rows = problem.B_y.shape[0]
    m = LinearModel(name=problem.name + ("_net" if network else "_bilin"))
    z_ids = _add_outer_set(m, problem, caps=caps, binary=not network)
    pi_ids = m.add_vars(m_rows, ub=1.0 if network else M, integer=network)
    m.add_rows([(pi_ids, problem.B_y.T)], LEQ, problem.c_y)
    obj = dict(zip(pi_ids, problem.d))
    rows, cols = np.nonzero(problem.B_x)
    pairs = [(pi_ids[i], z_ids[j]) if network else (z_ids[j], pi_ids[i])
             for i, j in zip(rows, cols)]
    w = _binary_products(m, pairs, [caps[j] for j in cols] if network else M)
    obj.update(zip(w, -problem.B_x[rows, cols]))
    m.set_objective(obj, sense="max")
    out = backend.solve_mip(m)
    if not out.is_optimal:
        cap = (f": pi <= M = {M:g} may cut off every dual point (M too small)"
               if out.status == backend.INFEASIBLE and not network else "")
        raise BackendError(f"{m.name} ended {out.status}{cap}")
    return MaxMinResult(value=float(out.objective), outer=out.x[:problem.n_out])


def _outer_is_binary(problem: MaxMinProblem) -> bool:
    # integer coordinate capped at one by some row with unit coefficient
    for j in range(problem.n_out):
        capped = False
        for i in range(problem.A_out.shape[0]):
            row = problem.A_out[i]
            if row[j] > 0 and problem.b_out[i] / row[j] <= 1.0 + 1e-9 and \
                    np.all(row >= 0):
                capped = True
                break
        if not capped:
            return False
    return True


def has_interval_rows(A: np.ndarray) -> bool:
    """Every row is +/- a 0/1 vector whose ones are consecutive.

    Such an interval matrix is totally unimodular, and so is [A | I]
    (Schrijver, Theory of Linear and Integer Programming, 1986, sec. 19)."""
    for row in np.atleast_2d(np.asarray(A, dtype=float)):
        nz = np.flatnonzero(row)
        if nz.size and (abs(row[nz[0]]) != 1.0 or np.any(row[nz] != row[nz[0]])
                        or nz[-1] - nz[0] + 1 != nz.size):
            return False
    return True


def has_integral_vertices(A: np.ndarray, b: np.ndarray) -> bool:
    """{z >= 0 : A z <= b} has integral vertices because A is an interval
    matrix and b is integral."""
    b = np.asarray(b, dtype=float)
    return has_interval_rows(A) and bool(np.all(
        np.abs(b - np.round(b)) <= 1e-9 * np.maximum(1.0, np.abs(b))))


def dual_polyhedron_lp(B_y: np.ndarray, c_y: np.ndarray, rhs: np.ndarray,
                       name: str = "dual_lp") -> LinearModel:
    """max{rhs' pi : B_y' pi <= c_y, pi >= 0}: the dual of the recourse LP
    min{c_y' y : B_y y >= rhs, y >= 0}. Variable i is pi_i, for i = 0..m-1."""
    lp = LinearModel(name=name)
    pi_ids = lp.add_vars(B_y.shape[0])
    lp.add_rows([(pi_ids, B_y.T)], LEQ, c_y)
    lp.set_objective(dict(zip(pi_ids, rhs)), sense="max")
    return lp


def audited_dual_lp(B_y: np.ndarray, c_y: np.ndarray, rhs: np.ndarray,
                    value: float, name: str) -> backend.SolveOutcome:
    """The optimum of dual_polyhedron_lp at one outer point, whose value a
    product MIP claims: BackendError, naming the LP, unless the LP ends
    Optimal within _AUDIT_TOL (relative) of value."""
    out = backend.solve_lp(dual_polyhedron_lp(B_y, c_y, rhs, name=name))
    if not out.is_optimal:
        raise BackendError(f"{name} ended {out.status}")
    if abs(out.objective - value) > _AUDIT_TOL * max(1.0, abs(value)):
        raise BackendError(f"{name}: the max-min value {value:.10g} differs from "
                           f"the LP value {out.objective:.10g} at its outer point")
    return out


# -- optimality blocks ----------------------------------------------------------

@dataclass
class OptimalityBlock:
    u_ids: list[int]
    representation: str


def build_optimality_block(model: LinearModel, inst: Instance, beta: np.ndarray,
                           x_ids: list[int], representation: str | None = None,
                           M: float = 1e4, unique_data: np.ndarray | None = None
                           ) -> OptimalityBlock:
    """Append fresh (u, lambda) columns and the rows pinning u to an optimum
    of max{(-E u)' beta : u in U(x)}, x being the model's columns x_ids.

    representation "kkt": primal + dual + linearized complementarities.
    representation "primal-dual": primal + dual + the strong-duality row
    (-E u)' beta >= (h + G x)' lambda; products of x with lambda are
    linearized exactly for binary x and rejected otherwise.
    representation "unique": KKT of the perturbed objective unique_data
    (standard-form cost row), whose optimal set is a single vertex.
    representation None picks "primal-dual" when every first-stage component
    that U(x) depends on is binary, and "kkt" otherwise. The strong-duality
    row needs no binary per row and column of U, and its only big-M is the
    bound on the lambda of coupled rows, which the KKT block needs too.
    A block at one first stage is this block with the x columns fixed.

    The primal side (u, the row slacks, their products with x) is bounded
    by M, the dual side (lambda, the reduced costs, their products with x)
    by M_d = max(M, 2 ||c||_1 kappa), with c the block's cost row
    (c_struct, c_slack) and kappa the largest entry of |F0| + sum_k |Fk|.
    """
    if representation is None:
        representation = "primal-dual" if _couples_only_binary(inst) else "kkt"
    if representation not in ("kkt", "primal-dual", "unique"):
        raise ValueError(f"unknown representation {representation!r}")
    if representation == "unique" and unique_data is None:
        raise ValueError("unique representation needs the perturbed cost row")
    U = inst.U
    mu, n = U.n_rows, U.dim
    beta = np.asarray(beta, dtype=float)
    require_binary_terms(inst)
    if representation == "primal-dual" and not _couples_only_binary(inst):
        raise ValueError("primal-dual block needs binary first-stage "
                         "components wherever G couples them to the set")

    if representation == "unique":
        c_struct = np.asarray(unique_data, dtype=float)[:n]
        c_slack = np.asarray(unique_data, dtype=float)[n:n + mu]
    else:
        c_struct = -(inst.Y.E.T @ beta)
        c_slack = np.zeros(mu)
    u_ids = model.add_vars(n)
    # the dual needs lam_i >= c_slack_i only; a perturbed slack cost is
    # negative, and lam_i >= 0 would then force its row tight
    lam_ids = model.add_vars(mu, lb=c_slack)
    products: dict[tuple[int, int], int] = {}
    # a constant interval F (kappa 1) has a TU [F | I], so some optimal dual
    # vertex has |lam_i| <= ||c||_1 and reduced costs below 2 ||c||_1; on any
    # other F kappa is an empirical scale, not a proof
    kappa = np.max(np.abs(U.F.base) + sum(np.abs(Fk) for _, Fk in U.F.terms), initial=0.0)
    M_d = max(M, 2.0 * float(np.abs(c_struct).sum() + np.abs(c_slack).sum()) * float(kappa))

    # primal rows, with explicit slack columns so degenerate-row
    # complementarities of the perturbed objective can bind on them
    slack_ids = model.add_vars(mu)
    primal = affine_blocks(model, U.F, u_ids, x_ids, M, products)
    model.add_rows([(slack_ids, np.eye(mu)), *primal, (x_ids, -U.G)], EQ, U.h)
    # dual rows F(x)' lam >= c
    dual = affine_blocks(model, U.F, lam_ids, x_ids, M_d, products, transpose=True,
                         lo=c_slack)
    model.add_rows(dual, GEQ, c_struct)

    if representation in ("kkt", "unique"):
        # lam_i (+ its perturbed slack cost) against the row slack, then u_j
        # against its reduced cost
        backend.linearize_complementarity(model, lam_ids, -c_slack,
                                          [(slack_ids, np.eye(mu))], np.zeros(mu), M_d, M)
        backend.linearize_complementarity(model, u_ids, np.zeros(n), dual,
                                          -c_struct, M, M_d)
    else:
        # strong duality: (-E u)' beta >= (h + G x)' lambda
        rhs = affine_blocks(model, U.rhs_map, lam_ids, x_ids, M_d, products,
                            transpose=True)
        model.add_rows([(u_ids, c_struct[None]), *[(ids, -A) for ids, A in rhs]],
                       GEQ, [0.0])
    return OptimalityBlock(u_ids=u_ids, representation=representation)


def _couples_only_binary(inst: Instance) -> bool:
    """Every first-stage component that U(x) depends on is binary."""
    return all(_is_binary(inst, k) for k in inst.U.coupled_columns)


# -- uniqueness perturbation ------------------------------------------

def perturb_for_uniqueness(cost_row: np.ndarray, basis: BasisId,
                           reduced_costs: np.ndarray, epsilon: float) -> np.ndarray:
    """Lower the cost by epsilon on nonbasic columns whose reduced cost
    vanishes; every alternative optimal vertex then prices out strictly."""
    c = np.asarray(cost_row, dtype=float).copy()
    rc = np.asarray(reduced_costs, dtype=float)
    in_basis = set(basis.indices)
    tol = _ZERO_RC_TOL * max(1.0, float(np.abs(c).max()))
    for j in range(c.size):
        if j not in in_basis and abs(rc[j]) <= tol:
            c[j] -= epsilon
    return c


def ensure_unique_optimum(inst: Instance, x: np.ndarray, beta: np.ndarray
                          ) -> tuple[ParametricLPResult, np.ndarray]:
    """Parametric LP solve plus a verified uniqueness perturbation.

    Lowering the costs of the nonbasic columns with zero reduced cost keeps
    the basis optimal and gives each reduced cost -epsilon, so a smaller
    epsilon could not pass a check this one fails. The check re-solves with
    the perturbed costs: the vertex must stay optimal with strictly negative
    reduced costs on every nonbasic column, else BackendError.
    """
    base = lp_parametric(inst, x, beta)
    eps = 1e-4 * max(1.0, float(np.abs(base.cost_row).max()))
    c_hat = perturb_for_uniqueness(base.cost_row, base.basis, base.reduced_costs, eps)
    if not _perturbation_is_clean(inst, x, base, c_hat):
        raise BackendError("uniqueness perturbation failed to isolate the vertex")
    return base, c_hat


def _perturbation_is_clean(inst: Instance, x: np.ndarray,
                           base: ParametricLPResult, c_hat: np.ndarray) -> bool:
    x = np.asarray(x, dtype=float)
    U = inst.U
    Fx = U.F.evaluate(x)
    mu, n = Fx.shape
    out = max_over_u(Fx, U.h + U.G @ x, c_hat[:n], "perturb_check")
    if not out.is_optimal:
        return False
    # same vertex still optimal
    u_new = out.x[:n]
    if np.max(np.abs(u_new - base.u)) > 1e-7 * max(1.0, np.abs(base.u).max()):
        return False
    # and strictly so: every nonbasic column prices out negative
    A = np.hstack([Fx, np.eye(mu)])
    cols = list(base.basis.indices)
    lam = np.linalg.solve(A[:, cols].T, c_hat[cols]) if mu else np.zeros(0)
    rc = c_hat - A.T @ lam
    nonbasic = [j for j in range(n + mu) if j not in set(cols)]
    return all(rc[j] < -1e-12 for j in nonbasic)
