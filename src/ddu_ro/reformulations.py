"""Structural rewrites for special shapes of decision-dependent uncertainty.

Three rewrites, each exact on its shape class:

* ``neutralize``: masked sets {u : F u <= h, u <= caps * x'} with binary
  switch columns x'. Scenarios outside U(x) are projected onto it by
  replacing E u with E (u o x') in the recourse, so the set itself loses
  its x dependence.
* ``normalize``: hypercube sets {x_l <= u <= x_h} whose endpoints are
  first-stage variables. Rescaling to the unit box moves the dependence
  into the recourse rows.
* ``order_switch``: uncertainty that only tilts the recourse objective.
  The inner max-min collapses by minimax duality into one flat model.

The first two return a new standard instance; the third returns a solved
ready single-level model. Hadamard products are linearized exactly, so
values are preserved, not approximated.
"""

from dataclasses import dataclass

import numpy as np

from . import backend
from .backend import GEQ, LinearModel
from .enumeration import OracleError, lattice_points
from .model import (AffineMatrixMap, Instance, RecourseSet, UncertaintySet,
                    _is_binary, add_first_stage, add_recourse_rows,
                    add_recourse_vars, affine_blocks, envelope_rows, max_lp)

_TOL = 1e-9


@dataclass(frozen=True)
class ReformulationOutput:
    """A rewritten problem plus the bookkeeping to map solutions back.

    Exactly one of ``instance`` and ``model`` is set: the first two rewrites
    stay two-stage, order switching flattens to a single level. ``mapping``
    names the new columns (masked copies v, multiplier ids, ...) in terms of
    the original (x, x', v) data.
    """

    kind: str
    instance: Instance | None
    model: LinearModel | None
    mapping: dict


# -- downward closedness -------------------------------------------------------

def _closure_counterexample(F: np.ndarray, h: np.ndarray, caps: np.ndarray,
                            n_int: int):
    """A feasible u whose copy with some coordinates zeroed leaves {u : F u
    <= h, 0 <= u <= caps}, as (u, masked); None where there is none.

    All-binary sets are checked exhaustively over u = p * caps, p the 0/1
    vectors that enumeration.lattice_points lists, in lexicographic order
    (closure under zeroing one coordinate at a time is full downward
    closedness). Otherwise, and past the lister's cap, one LP per row i
    with a negative entry takes the largest value of row i once those
    coordinates are zeroed, max sum_j max(F_ij, 0) u_j over the set; the
    set is open when it exceeds h_i. The LP relaxes integer coordinates, so
    it may refuse a closed integer set but never accepts an open one.
    """
    mu, dim = F.shape
    if dim == 0 or mu == 0:
        return None
    slack = _TOL * max(1.0, float(np.abs(h).max()))

    def feasible(u: np.ndarray) -> bool:
        return bool(np.all(F @ u <= h + slack))

    try:
        points = (lattice_points(np.zeros(dim), np.ones(dim), -F * caps, -h - slack, "u")
                  if n_int == dim else None)
    except OracleError:
        points = None
    if points is not None:
        for u in (u for u in points * caps if feasible(u)):
            masked = (np.where(np.arange(dim) == j, 0.0, u) for j in np.flatnonzero(u > 0.0))
            bad = next((m for m in masked if not feasible(m)), None)
            if bad is not None:
                return u, bad
        return None

    A, b = np.vstack([F, np.eye(dim)]), np.concatenate([h, caps])
    for i in np.flatnonzero((F < 0.0).any(axis=1)):
        out = backend.solve_lp(max_lp(A, b, np.maximum(F[i], 0.0), "closure"))
        if out.is_optimal and out.objective > h[i] + slack:
            u = out.x[:dim]
            return u, np.where(F[i] < 0.0, 0.0, u)
    return None


# -- neutralization ------------------------------------------------------------

def _split_masked_rows(U: UncertaintySet) -> tuple[dict, list[int]]:
    """Partition the rows of a masked set into per-coordinate links u_i <=
    cap * x_k and plain x-free rows; anything else is a shape violation."""
    if not U.F.is_constant:
        raise ValueError("a masked set has a constant left-hand side; "
                         "F depends on x here")
    F0, G, h = U.F.base, U.G, U.h
    links: dict[int, tuple[int, int, float]] = {}
    plain: list[int] = []
    for r in range(U.n_rows):
        grow = np.flatnonzero(G[r])
        if grow.size == 0:
            plain.append(r)
            continue
        frow = np.flatnonzero(F0[r])
        if (grow.size != 1 or frow.size != 1 or h[r] != 0.0
                or F0[r, frow[0]] <= 0.0 or G[r, grow[0]] <= 0.0):
            raise ValueError(f"row {r} is neither x-free nor a single mask "
                             "link u_i <= cap * x_k")
        i, k = int(frow[0]), int(grow[0])
        if i in links:
            raise ValueError(f"u[{i}] has two mask links (rows {links[i][0]} "
                             f"and {r})")
        links[i] = (r, k, float(G[r, k] / F0[r, i]))
    missing = [i for i in range(U.dim) if i not in links]
    if missing:
        raise ValueError(f"coordinates {missing} have no mask link; every "
                         "u_i needs one row u_i <= cap * x_k")
    return links, plain


def neutralize(inst: Instance) -> ReformulationOutput:
    """Rewrite a masked decision-dependent set as a decision-independent one.

    Shape: every coordinate carries one link row u_i <= cap_i * x_k with a
    binary switch column x_k, and the remaining rows F u <= h are x-free and
    downward closed (checked, by exhaustion when all-binary and small, by
    one LP per row otherwise). The output set drops the switches (links become
    u_i <= cap_i) and the recourse sees v = u o x' through the exact
    envelope v <= cap x', v <= u, v >= u - cap (1 - x'), which for binary
    coordinates is the usual v <= x', v <= u, v >= x' + u - 1.

    A scenario outside the original U(x) is thereby projected onto the one
    with its masked coordinates zeroed, which the closure property keeps
    inside the set, so worst cases are unchanged.
    """
    U = inst.U
    links, plain = _split_masked_rows(U)
    caps = np.array([links[i][2] for i in range(U.dim)])
    for i in range(U.n_int_u):
        if caps[i] != 1.0:
            raise ValueError(f"binary u[{i}] needs a unit mask link, "
                             f"got cap {caps[i]}")
    for i, (r, k, _) in links.items():
        if not _is_binary(inst, k):
            raise ValueError(f"mask column x[{k}] for u[{i}] is not binary "
                             "in the first stage")

    F0 = U.F.base
    bad = _closure_counterexample(F0[plain], U.h[plain], caps, U.n_int_u)
    if bad is not None:
        raise ValueError("the x-free rows are not downward closed: "
                         f"u = {bad[0].tolist()} is feasible but its masked "
                         f"copy {bad[1].tolist()} is not")

    h0 = U.h.copy()
    for i, (r, _, cap) in links.items():
        h0[r] = cap * F0[r, i]
    U0 = UncertaintySet(F=AffineMatrixMap(base=F0), G=np.zeros_like(U.G),
                        h=h0, n_int_u=U.n_int_u)

    # v = x' u over the columns (v | x | u), with u at most cap
    nu, nx = U.dim, inst.dim_x
    v, x, u = np.split(np.eye(2 * nu + nx), [nu, nu + nx])
    mask = [links[i][1] for i in range(nu)]
    link = envelope_rows(v, x[mask], u, caps)
    return _read_through(inst, U0, link, "neutralized-diu",
                         {"mask_column": dict(enumerate(mask)), "cap": caps.tolist()})


def _read_through(inst: Instance, U0: UncertaintySet, link: tuple,
                  kind: str, mapping: dict) -> ReformulationOutput:
    """inst with the set U0 and a recourse that reads a copy v of u: the
    rows B2 y + E v >= d - B1 x, then the link rows (A, d), A (v | x | u)
    >= d, that tie v to u and x. v takes the columns after y and costs
    nothing."""
    Y = inst.Y
    ny, nu = Y.dim, inst.dim_u
    A, d = link
    V, B1, E = np.split(A, [nu, nu + inst.dim_x], axis=1)
    Y0 = RecourseSet(B1=np.vstack([Y.B1, B1]),
                     B2=np.block([[Y.B2, Y.E], [np.zeros((len(V), ny)), V]]),
                     E=np.vstack([np.zeros_like(Y.E), E]),
                     d=np.concatenate([Y.d, d]),
                     c2=np.concatenate([Y.c2, np.zeros(nu)]), n_int_y=Y.n_int_y)
    out = Instance(name=f"{inst.name}-{kind.split('-')[0]}", c1=inst.c1, X=inst.X,
                   U=U0, Y=Y0, metadata=dict(inst.metadata))
    return ReformulationOutput(kind, out, None,
                               {"v_columns": list(range(ny, ny + nu)), **mapping})


# -- normalization -------------------------------------------------------------

def _match_box_rows(U: UncertaintySet, lo: list[int], hi: list[int]) -> None:
    nu = U.dim
    if not U.F.is_constant:
        raise ValueError("a variable hypercube has a constant left-hand side")
    if U.n_rows != 2 * nu:
        raise ValueError(f"expected the 2 * {nu} rows of a two-sided box, "
                         f"got {U.n_rows}")
    eye_u, eye_x = np.eye(nu), np.eye(U.G.shape[1])

    def rows(sign: float, i: int, k: int) -> list[int]:
        # the rows sign u_i <= sign x_k
        return [r for r in range(U.n_rows) if U.h[r] == 0.0
                and np.array_equal(U.F.base[r], sign * eye_u[i])
                and np.array_equal(U.G[r], sign * eye_x[k])]

    for i in range(nu):
        if len(rows(1.0, i, hi[i])) != 1 or len(rows(-1.0, i, lo[i])) != 1:
            raise ValueError(f"u[{i}] lacks the pair x_l[{i}] <= u_{i} <= "
                             f"x_h[{i}] against columns {lo[i]}, {hi[i]}")


def _crossed_interval(inst: Instance, lo: int, hi: int) -> float:
    mdl = LinearModel(name="crossing")
    ids = add_first_stage(mdl, inst)
    mdl.set_objective({ids[lo]: 1.0, ids[hi]: -1.0}, sense="max")
    out = backend.solve_mip(mdl)
    if out.status == backend.INFEASIBLE:
        return -np.inf
    if not out.is_optimal:
        raise ValueError(f"could not certify x_l <= x_h over X ({out.status})")
    return float(out.objective)


def normalize(inst: Instance, lo_cols: list[int], hi_cols: list[int]) -> ReformulationOutput:
    """Rescale a variable hypercube {x_l <= u <= x_h} to the fixed unit box.

    ``lo_cols`` and ``hi_cols`` name the first-stage columns holding the
    endpoints, coordinate by coordinate. The recourse then reads the
    denormalized point v = x_l + u o (x_h - x_l) through an envelope that
    pins v to x_l at u_i = 0 and to x_h at u_i = 1 using the endpoint
    bounds from X. At fractional u the envelope only relaxes the recourse,
    and the inner value is convex in u, so every worst case sits on a
    vertex where the envelope is tight; values are preserved exactly. The
    unit box's vertices are 0/1, so the max-min enumerates them
    (enumeration.binary_vertices) with u left continuous.

    A first stage that admits a crossed interval x_l > x_h is rejected:
    add the ordering rows to X first.
    """
    U, X = inst.U, inst.X
    nu = U.dim
    if len(lo_cols) != nu or len(hi_cols) != nu:
        raise ValueError("need one lo and one hi column per u coordinate")
    if U.n_int_u:
        raise ValueError("a hypercube set has continuous coordinates")
    _match_box_rows(U, lo_cols, hi_cols)

    bounds = []
    for i, (lo, hi) in enumerate(zip(lo_cols, hi_cols)):
        if X.lb[lo] < 0.0 or X.lb[hi] < 0.0:
            raise ValueError(f"endpoint columns {lo}, {hi} must be "
                             "nonnegative")
        B = max(float(X.ub[lo]), float(X.ub[hi]))
        if not np.isfinite(B):
            raise ValueError(f"endpoint columns {lo}, {hi} need finite "
                             "upper bounds")
        gap = _crossed_interval(inst, lo, hi)
        if gap > 1e-9 * max(1.0, B):
            raise ValueError(f"X admits x_l > x_h at coordinate {i} "
                             f"(by {gap:.3g}); add x_l <= x_h rows to X")
        bounds.append(B)

    U0 = UncertaintySet(F=AffineMatrixMap(base=np.eye(nu)),
                        G=np.zeros((nu, inst.dim_x)), h=np.ones(nu))

    # v - x_l = u (x_h - x_l) over the columns (v | x | u), |v - x_l| <= B
    nx = inst.dim_x
    v, x, u = np.split(np.eye(2 * nu + nx), [nu, nu + nx])
    B = np.array(bounds)
    link = envelope_rows(v - x[lo_cols], u, x[hi_cols] - x[lo_cols], B, -B)
    return _read_through(inst, U0, link, "normalized-diu",
                         {"lo_columns": list(lo_cols), "hi_columns": list(hi_cols),
                          "box_bound": bounds})


# -- order switching -----------------------------------------------------------

def order_switch(inst: Instance, E_hat: np.ndarray,
                 force_upper_bound: bool = False) -> ReformulationOutput:
    """Collapse objective-only uncertainty into one flat model.

    Shape: the recourse rows never see u (the instance's E is zero) and the
    random factor tilts the cost to (E_hat u + c2) y. Minimax duality then
    swaps the inner max and min, and dualizing the max over U(x) gives

        min  c1 x + c2 y + (h + G x)' lam
        s.t. x in X,  B2 y >= d - B1 x,  F(x)' lam >= E_hat' y,  lam >= 0.

    Products of lam with x (from G or from x-dependent F terms) are
    linearized exactly for binary columns, with lam capped at the run's
    big-M (backend.current_big_m); any other coupled column is rejected.
    The swap needs both u and y continuous; with integer coordinates the
    flat value is only an upper bound, which ``force_upper_bound`` accepts
    explicitly.
    """
    U, Y = inst.U, inst.Y
    E_hat = np.atleast_2d(np.asarray(E_hat, dtype=float))
    if E_hat.shape != (Y.dim, U.dim):
        raise ValueError(f"E_hat must be (dim_y, dim_u) = ({Y.dim}, {U.dim}),"
                         f" got {E_hat.shape}")
    if np.any(Y.E):
        raise ValueError("the recourse rows see u through E; order switching "
                         "covers objective uncertainty only")
    if (U.n_int_u or Y.n_int_y) and not force_upper_bound:
        raise ValueError("integer u or y breaks the max-min swap; the flat "
                         "value is only an upper bound "
                         "(force_upper_bound=True to accept)")

    for k in U.coupled_columns:
        if not _is_binary(inst, k):
            raise ValueError(f"multiplier products need binary x[{k}]; the "
                             "coupled column is not")

    model = LinearModel(name=f"{inst.name}-switched")
    x_ids = add_first_stage(model, inst)
    y_ids = add_recourse_vars(model, Y)
    add_recourse_rows(model, Y, y_ids, x_ids)

    # lam rows involved in any x product get the finite cap the envelopes need
    M = backend.current_big_m()
    in_product = U.G.any(axis=1)
    for _, Fk in U.F.terms:
        in_product |= Fk.any(axis=1)
    lam_ids = model.add_vars(U.n_rows, 0.0, np.where(in_product, M, np.inf))

    # dual rows F(x)' lam >= E_hat' y, one per u coordinate that meets a row
    products: dict[tuple[int, int], int] = {}
    dual = affine_blocks(model, U.F, lam_ids, x_ids, M, products, transpose=True)
    dual.append((y_ids, -E_hat.T))
    meets = np.any([np.any(A != 0.0, axis=1) for _, A in dual], axis=0)
    model.add_rows([(ids, A[meets]) for ids, A in dual], GEQ,
                   np.zeros(int(meets.sum())))

    # c1 x + c2 y + (h + G x)' lam
    rhs = affine_blocks(model, U.rhs_map, lam_ids, x_ids, M, products, transpose=True)
    obj = np.zeros(model.n_vars)
    for ids, c in [(x_ids, inst.c1), (y_ids, Y.c2), *[(ids, A[0]) for ids, A in rhs]]:
        np.add.at(obj, np.asarray(ids, dtype=int), c)
    model.set_objective(dict(enumerate(obj)), sense="min")

    mapping = {"x": x_ids, "y": y_ids, "lam": lam_ids,
               "upper_bound_only": bool(U.n_int_u or Y.n_int_y)}
    return ReformulationOutput("order-switched-flat", None, model, mapping)
