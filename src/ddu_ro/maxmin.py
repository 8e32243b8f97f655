"""Max-min linear programs over a polyhedral outer set and the
optimality-condition blocks the cutting-plane masters embed.

Three routes solve a max-min and are cross-checked against each other:
- the KKT route replaces the inner LP by its KKT system, complementarities
  linearized with indicator big-Ms; it applies to every problem;
- the product route dualizes the inner LP into a disjoint bilinear program,
  linearized exactly when every vertex of the outer set is binary;
- the network route answers the feasibility check when the recourse matrix
  has network columns: the feasibility dual then has 0/1 vertices, so pi is
  binary and each product pi_i z_j is linearized exactly over the probed
  range of z_j, with no big-M.
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

from dataclasses import dataclass

import numpy as np

from . import backend
from .backend import EQ, GEQ, LEQ, BackendError, LinearModel
from .model import (BasisId, Instance, _binary_product, _is_binary, affine_blocks,
                    max_over_u, range_probe, require_binary_terms)

_ZERO_RC_TOL = 1e-9
_MEMBERSHIP_TOL = 1e-6
_POLISH_TOL = 1e-4    # relative, the product MIP's value against its LP polish


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
    status: str
    value: float | None = None
    outer: np.ndarray | None = None
    dual: np.ndarray | None = None
    ray: np.ndarray | None = None


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
    the network route solves it (_feasibility_by_network); otherwise the KKT
    route does.
    """
    m_rows, ny = problem.B_y.shape
    if has_network_columns(problem.B_y):
        caps = {j: range_probe(problem.A_out, problem.b_out, j)
                for j in np.flatnonzero(problem.B_x.any(axis=0))}
        if all(np.isfinite(list(caps.values()))):
            return _feasibility_by_network(problem, caps)
    ext = MaxMinProblem(
        A_out=problem.A_out, b_out=problem.b_out,
        c_y=np.concatenate([np.zeros(ny), np.ones(m_rows)]),
        B_y=np.hstack([problem.B_y, np.eye(m_rows)]),
        B_x=problem.B_x, d=problem.d,
        n_int_out=problem.n_int_out, name=problem.name + "_feas",
    )
    res = solve_maxmin_kkt(ext, M=M)
    if res.status != backend.OPTIMAL:
        raise BackendError(f"feasibility reformulation ended {res.status}")
    return max(0.0, float(res.value)), res.outer


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


def _feasibility_by_network(problem: MaxMinProblem,
                            caps: dict[int, float]) -> tuple[float, np.ndarray]:
    """v_f = max (d - B_x z)' pi over z in the outer set and binary pi in
    Pi_1, exact because Pi_1 has 0/1 vertices (has_network_columns).

    caps[j], the probed maximum of each z_j the objective reads, is the
    M of the exact envelope w_ij = pi_i z_j and also the bound of z_j: a
    bound holds exactly in the MIP, while the rows that imply it hold only
    to feasibility tolerance, which the maximizing z would exploit. The
    value is then polished by the recourse feasibility LP at the witness z*,
    which must agree with the MIP's value."""
    m_rows, ny = problem.B_y.shape
    n_out = problem.n_out
    m = LinearModel(name=problem.name + "_feas_net")
    z_ids = [m.add_var(0.0, caps.get(j, np.inf), integer=j < problem.n_int_out,
                       name=f"z{j}") for j in range(n_out)]
    if problem.A_out.shape[0]:
        m.add_block(z_ids, problem.A_out, LEQ, problem.b_out)
    pi_ids = m.add_vars(m_rows, ub=1.0, integer=True, prefix="pi")
    if ny:
        m.add_block(pi_ids, problem.B_y.T, LEQ, np.zeros(ny))
    obj = {pi_ids[i]: problem.d[i] for i in range(m_rows) if problem.d[i] != 0.0}
    for i, j in zip(*np.nonzero(problem.B_x)):
        w = _binary_product(m, pi_ids[i], z_ids[j], caps[j], name=f"w{i}_{j}")
        obj[w] = -problem.B_x[i, j]
    m.set_objective(obj, sense="max")
    out = backend.solve_mip(m)
    if not out.is_optimal:
        raise BackendError(f"feasibility product MIP ended {out.status}")

    z = out.x[:n_out]
    polish = backend.solve_lp(dual_polyhedron_lp(
        np.hstack([problem.B_y, np.eye(m_rows)]),
        np.concatenate([np.zeros(ny), np.ones(m_rows)]),
        problem.d - problem.B_x @ z, name=problem.name + "_feas_polish"))
    if not polish.is_optimal:
        raise BackendError(f"feasibility polish LP ended {polish.status}")
    if abs(polish.objective - out.objective) > _POLISH_TOL * max(1.0, abs(out.objective)):
        raise BackendError(f"worst-case unserved mass {out.objective:.10g} differs "
                           f"from {polish.objective:.10g} at its witness")
    return max(0.0, float(polish.objective)), z


# -- KKT route ------------------------------------------------------------------

def solve_maxmin_kkt(problem: MaxMinProblem, M: float = 1e4) -> MaxMinResult:
    """Replace the inner LP by primal feasibility, dual feasibility, and the
    two linearized complementarity families; maximize the inner objective."""
    m_rows, ny = problem.B_y.shape
    n_out = problem.n_out

    m = LinearModel(name=problem.name + "_kkt")
    z_ids = [m.add_var(0.0, np.inf, integer=j < problem.n_int_out, name=f"z{j}")
             for j in range(n_out)]
    if problem.A_out.shape[0]:
        m.add_block(z_ids, problem.A_out, LEQ, problem.b_out)
    y_ids = m.add_vars(ny, prefix="y")
    pi_ids = m.add_vars(m_rows, prefix="pi")

    surplus = [(y_ids, problem.B_y), (z_ids, problem.B_x)]
    m.add_rows(surplus, GEQ, problem.d, name="pf")
    m.add_rows([(pi_ids, problem.B_y.T)], LEQ, problem.c_y, name="df")
    backend.linearize_complementarity(m, pi_ids, np.zeros(m_rows), surplus,
                                      -problem.d, M=M)
    backend.linearize_complementarity(m, y_ids, np.zeros(ny),
                                      [(pi_ids, -problem.B_y.T)], problem.c_y, M=M)

    m.set_objective({y_ids[j]: problem.c_y[j] for j in range(ny)
                     if problem.c_y[j] != 0.0}, sense="max")
    out = backend.solve_mip(m)
    if out.status == backend.INFEASIBLE:
        # distinguish an empty outer set from a too-small M
        probe = LinearModel()
        p_ids = [probe.add_var(0.0, np.inf, integer=j < problem.n_int_out)
                 for j in range(n_out)]
        if problem.A_out.shape[0]:
            probe.add_block(p_ids, problem.A_out, LEQ, problem.b_out)
        probe.set_objective({})
        if backend.solve(probe).is_optimal:
            raise BackendError(
                "optimality system infeasible though the outer set is not: "
                "M too small or inner LP infeasible/unbounded somewhere")
        return MaxMinResult(status=backend.INFEASIBLE)
    if not out.is_optimal:
        return MaxMinResult(status=out.status)
    z = out.x[:n_out]
    pi = out.x[n_out + ny:n_out + ny + m_rows]
    return MaxMinResult(status=backend.OPTIMAL, value=float(out.objective),
                        outer=z, dual=pi)


# -- disjoint bilinear route ----------------------------------------------------

def solve_maxmin_dual(problem: MaxMinProblem, M: float = 1e4,
                      check_feasibility: bool = True) -> MaxMinResult:
    """max{(d - B_x z)' pi : z in outer set, pi in Pi}.

    Outer sets whose coordinates are all capped at one and whose vertices
    are 0/1 get the exact product linearization over binary z: either every
    coordinate is declared integer, or the set has integral vertices
    (has_integral_vertices), so that the maximum of the convex inner value
    sits at a binary vertex anyway. pi is capped at M there, which is sound
    whenever the optimal dual stays below it; the audit in the calling layer
    catches violations. Otherwise the KKT route answers.
    Inner infeasibility at some z makes the program unbounded: the result
    then carries a dual ray and the witness z instead of a point.
    """
    if check_feasibility:
        v_f, witness = check_inner_feasibility(problem, M=M)
        if v_f > 1e-7 * max(1.0, float(np.abs(problem.d).max())):
            return MaxMinResult(status=backend.UNBOUNDED, outer=witness,
                                ray=_dual_ray_at(problem, witness))

    binary_outer = _outer_is_binary(problem) and (
        problem.n_int_out == problem.n_out
        or has_integral_vertices(problem.A_out, problem.b_out))
    if not binary_outer:
        return solve_maxmin_kkt(problem, M=M)

    m_rows, ny = problem.B_y.shape
    n_out = problem.n_out
    m = LinearModel(name=problem.name + "_bilin")
    z_ids = [m.add_var(0.0, 1.0, integer=True, name=f"z{j}") for j in range(n_out)]
    if problem.A_out.shape[0]:
        m.add_block(z_ids, problem.A_out, LEQ, problem.b_out)
    pi_ids = m.add_vars(m_rows, ub=M, prefix="pi")
    m.add_rows([(pi_ids, problem.B_y.T)], LEQ, problem.c_y, name="dual")
    obj = dict(zip(pi_ids, problem.d))
    for i, j in zip(*np.nonzero(problem.B_x)):
        w = _binary_product(m, z_ids[j], pi_ids[i], M, name=f"w{i}_{j}")
        obj[w] = -problem.B_x[i, j]
    m.set_objective(obj, sense="max")
    out = backend.solve_mip(m)
    if not out.is_optimal:
        return MaxMinResult(status=out.status)
    return MaxMinResult(status=backend.OPTIMAL, value=float(out.objective),
                        outer=out.x[:n_out],
                        dual=out.x[n_out:n_out + m_rows])


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
    pi_ids = lp.add_vars(B_y.shape[0], prefix="pi")
    lp.add_block(pi_ids, B_y.T, LEQ, c_y)
    lp.set_objective({pi_ids[i]: rhs[i] for i in range(rhs.size)
                      if rhs[i] != 0.0}, sense="max")
    return lp


def _dual_ray_at(problem: MaxMinProblem, z: np.ndarray) -> np.ndarray:
    """Extreme ray of Pi certifying inner infeasibility at the witness z."""
    lp = dual_polyhedron_lp(problem.B_y, problem.c_y,
                            problem.d - problem.B_x @ z, name="dual_at_witness")
    out = backend.solve_lp(lp)
    if out.status != backend.UNBOUNDED:
        raise BackendError("witness did not make the dual LP unbounded")
    return backend.extract_ray(lp)


# -- optimality blocks ----------------------------------------------------------

@dataclass
class OptimalityBlock:
    u_ids: list[int]
    representation: str


def build_optimality_block(model: LinearModel, inst: Instance, beta: np.ndarray,
                           x_ids: list[int], representation: str | None = None,
                           M: float = 1e4, unique_data: np.ndarray | None = None,
                           tag: str = "") -> OptimalityBlock:
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
    bound M on the lambda of coupled rows, which the KKT block needs too.
    A block at one first stage is this block with the x columns fixed.
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

    u_ids = model.add_vars(n, prefix=f"u{tag}")
    lam_ids = model.add_vars(mu, prefix=f"lam{tag}")
    products: dict[tuple[int, int], int] = {}

    if representation == "unique":
        c_struct = np.asarray(unique_data, dtype=float)[:n]
        c_slack = np.asarray(unique_data, dtype=float)[n:n + mu]
    else:
        c_struct = -(inst.Y.E.T @ beta)
        c_slack = np.zeros(mu)
    if U.F.is_constant and has_interval_rows(U.F.base):
        # [F | I] is totally unimodular, so some optimal dual is a vertex
        # with |lam_i| <= ||c||_1, and its reduced costs stay below 2 ||c||_1:
        # a bound from the block's own cost row, whatever the seed's scale
        M = max(M, 2.0 * float(np.abs(c_struct).sum() + np.abs(c_slack).sum()))

    # primal rows, with explicit slack columns so degenerate-row
    # complementarities of the perturbed objective can bind on them
    slack_ids = model.add_vars(mu, prefix=f"s{tag}")
    primal = affine_blocks(model, U.F, u_ids, x_ids, M, products, name=f"fu{tag}_")
    model.add_rows([(slack_ids, np.eye(mu)), *primal, (x_ids, -U.G)], EQ, U.h,
                   name=f"up{tag}")
    # dual rows F(x)' lam >= c
    dual = affine_blocks(model, U.F, lam_ids, x_ids, M, products, transpose=True,
                         name=f"fl{tag}_")
    model.add_rows(dual, GEQ, c_struct, name=f"ud{tag}")

    if representation in ("kkt", "unique"):
        # lam_i (+ its perturbed slack cost) against the row slack, then u_j
        # against its reduced cost
        backend.linearize_complementarity(model, lam_ids, -c_slack,
                                          [(slack_ids, np.eye(mu))], np.zeros(mu), M)
        backend.linearize_complementarity(model, u_ids, np.zeros(n), dual,
                                          -c_struct, M)
    else:
        # strong duality: (-E u)' beta >= (h + G x)' lambda
        rhs = affine_blocks(model, U.rhs_map, lam_ids, x_ids, M, products,
                            transpose=True, name=f"gl{tag}_")
        model.add_rows([(u_ids, c_struct[None]), *[(ids, -A) for ids, A in rhs]],
                       GEQ, [0.0], name=f"sd{tag}")
    return OptimalityBlock(u_ids=u_ids, representation=representation)


def _couples_only_binary(inst: Instance) -> bool:
    """Every first-stage component that U(x) depends on is binary."""
    return all(_is_binary(inst, k) for k in inst.U.coupled_columns)


# -- uniqueness perturbation ------------------------------------------

def perturb_for_uniqueness(cost_row: np.ndarray, basis: BasisId,
                           reduced_costs: np.ndarray,
                           epsilon: float | None = None) -> np.ndarray:
    """Lower the cost by epsilon on nonbasic columns whose reduced cost
    vanishes; every alternative optimal vertex then prices out strictly."""
    c = np.asarray(cost_row, dtype=float).copy()
    rc = np.asarray(reduced_costs, dtype=float)
    if epsilon is None:
        epsilon = 1e-4 * max(1.0, float(np.abs(c).max()))
    in_basis = set(basis.indices)
    tol = _ZERO_RC_TOL * max(1.0, float(np.abs(c).max()))
    for j in range(c.size):
        if j not in in_basis and abs(rc[j]) <= tol:
            c[j] -= epsilon
    return c


def ensure_unique_optimum(inst: Instance, x: np.ndarray, beta: np.ndarray,
                          max_halvings: int = 5
                          ) -> tuple[ParametricLPResult, np.ndarray]:
    """Parametric LP solve plus a verified uniqueness perturbation.

    Halves epsilon (up to max_halvings times) until re-solving with the
    perturbed costs keeps the original vertex optimal with strictly negative
    reduced costs on every nonbasic column.
    """
    base = lp_parametric(inst, x, beta)
    eps = 1e-4 * max(1.0, float(np.abs(base.cost_row).max()))
    for _ in range(max_halvings + 1):
        c_hat = perturb_for_uniqueness(base.cost_row, base.basis,
                                       base.reduced_costs, eps)
        if _perturbation_is_clean(inst, x, base, c_hat):
            return base, c_hat
        eps *= 0.5
    raise BackendError("uniqueness perturbation failed to isolate the vertex")


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
