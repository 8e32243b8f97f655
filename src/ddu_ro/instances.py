"""Benchmark instance generators, the brute-force exactness oracle, and
instance file I/O: io_read leaves the file's layout to
model.instance_from_dict, the one reader, which checks each part where it
builds it.

The oracle defines the ground truth the solvers are tested against: it
enumerates the first stage over its integer lattice (continuous components are
pinned, gridded, or optimized out, see oracle_exact), takes the worst recourse
value over the vertices of U(x), and then the min over x. The points come from
the enumeration module, the one lister, which also refuses past its caps
(OracleError, re-exported here): the lattice by lattice_points, the vertices
of U(x) by enumerate_vertices, once per distinct U(x) of a worst_case_values
call: first stages with the same F(x) and h + G x share them. The LPs are
batched, one LP of copies per run, narrowed by halves where it is not Optimal
(backend.solve_copies, which also cuts a run past its nonzero bound): a run
of integer assignments shares the range probes of its coupled continuous x,
the first dropping assignments without completion, and one LP over every
(assignment, grid point); a run of first stages with continuous y shares
one shortfall LP over their first vertices, which drops the x whose first
vertex has no recourse (not narrowed: where it is not Optimal,
recourse_value decides each pair), and one LP over every other (x, vertex)
pair (worst_case_values). It shares two things with the cutting-plane
machinery beyond the LP/MIP primitives: the instance's lattice, which
lattice_first_stages derives once per instance for the oracle and every
lattice master, and recourse_value, which the mixed-integer recourse loop
reprices each incumbent by (subproblems.recourse_mip_at).
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .backend import GEQ, LinearModel
# by name: perfbench/tracing.py wraps instances.enumerate_vertices
from .enumeration import OracleError, enumerate_vertices, lattice_points
from .model import (
    AffineMatrixMap,
    FirstStageSet,
    Instance,
    RecourseSet,
    UncertaintySet,
    add_recourse_vars,
    envelope_rows,
    instance_from_dict,
    instance_to_dict,
    uncertainty_set_to_dict,
)


# -- canonical tiny fixtures ---------------------------------------------------

def t1() -> Instance:
    """One binary x, one u, one y: U(x) = {0 <= u <= 1 + x}, recourse
    min{y : y >= u}. Worst case is u at its cap, so w(0) = 1, w(1) = 3."""
    return Instance(
        name="T1",
        c1=[1.0],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        lb=[0.0], ub=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[1.0]], h=[1.0]),
        Y=RecourseSet(B1=[[0.0]], B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0]),
    )


# -- recourse evaluation -------------------------------------------------------

def recourse_value(inst: Instance, x: np.ndarray,
                   u: np.ndarray) -> tuple[float, np.ndarray | None]:
    """min{c2 y : y in Y(x, u)}; +inf when infeasible, -inf when unbounded."""
    Y = inst.Y
    m = LinearModel(name="recourse")
    y_ids = add_recourse_vars(m, Y)
    rhs = Y.d - Y.B1 @ np.asarray(x, dtype=float) - Y.E @ np.asarray(u, dtype=float)
    if Y.n_rows:
        m.add_rows([(y_ids, Y.B2)], GEQ, rhs)
    m.set_objective(dict(zip(y_ids, Y.c2)), sense="min")
    out = backend.solve_mip(m)
    if out.is_optimal:
        return float(out.objective), out.x[:Y.dim]
    if out.status == backend.INFEASIBLE:
        return np.inf, None
    if out.status == backend.UNBOUNDED:
        return -np.inf, None
    raise backend.BackendError(f"recourse solve ended {out.status}")


# the most vertex entries worst_case_values' memo of U(x) keeps
_MEMO_ENTRIES = 1e5

# a pair (x, u) whose least shortfall exceeds this times max(1, |d - B1 x -
# E u|_inf) has no recourse; HiGHS holds rows to an absolute 1e-7, so a
# smaller positive shortfall is left to recourse_value
_SHORTFALL_TOL = 1e-3


def worst_case_values(inst: Instance, xs) -> list[tuple[float, np.ndarray]]:
    """For every x in xs, the max over the vertices of U(x) of the recourse
    value, with the first vertex (in enumerate_vertices order) that attains
    it, a copy of its own. The x with one U(x), the same F(x) and h + G x
    to the byte, share one enumerate_vertices call: for the length of the
    call a memo keeps the vertices of each U(x) met, until they hold
    _MEMO_ENTRIES entries in all. The x come in runs whose LPs over copies
    hold at most backend._COPIES_NONZEROS nonzeros: an x counts the nonzeros
    of B2 over its vertices, or of its shortfall copy where that is larger
    (backend.solve_copies cuts an x whose vertices alone exceed it). For
    continuous y, one shortfall LP over a run's first vertices finds the x
    whose first vertex has no recourse (_no_recourse); such an x is worth
    (inf, that vertex). _worst_vertices values every vertex of the others in
    one block LP of the recourse, where a later vertex without recourse is
    worth inf. Integer y needs no screen: the per-vertex loop of
    _worst_vertices stops at the first vertex without recourse.
    """
    nnz = np.count_nonzero(inst.Y.B2)
    memo, room = {}, _MEMO_ENTRIES

    def vertices(x):
        nonlocal room
        key = tuple(a.tobytes() for a in inst.U.at(x))
        verts = memo.get(key)
        if verts is None:
            verts = enumerate_vertices(inst.U, x)
            if verts.size <= room:
                memo[key], room = verts, room - verts.size
        return verts

    xs = (np.asarray(x, dtype=float) for x in xs)
    pairs = ((x, vertices(x)) for x in xs)
    out = []
    for run in backend._runs(pairs, backend._COPIES_NONZEROS,
                             size=lambda item: max(len(item[1]) * nnz, nnz + inst.Y.n_rows)):
        missing = [False] * len(run) if inst.Y.n_int_y else [
            m[0] for m in _no_recourse(inst, [(x, verts[:1]) for x, verts in run])]
        rest = [item for item, miss in zip(run, missing) if not miss]
        valued = iter(_worst_vertices(inst, rest) if rest else [])
        out += [(np.inf, verts[0]) if miss else next(valued)
                for (_, verts), miss in zip(run, missing)]
    return [(value, u.copy()) for value, u in out]


def _worst_vertices(inst: Instance, run: list) -> list[tuple[float, np.ndarray]]:
    """For every (x, verts) of run, the largest recourse value over verts and
    the first vertex that attains it. Continuous y takes one LP of a copy of
    the recourse per pair (backend.solve_copies), where a copy that ends
    Infeasible is worth +inf and one that ends Unbounded -inf. Integer y
    takes the per-vertex loop up to the first +inf, since a MIP gap on the
    sum does not bound each block."""
    Y, vals = inst.Y, []
    if Y.n_int_y:
        for x, verts in run:
            vals.append([])
            for u in verts:
                vals[-1].append(recourse_value(inst, x, u)[0])
                if vals[-1][-1] == np.inf:
                    break
    else:
        status, value, _ = backend.solve_copies("recourse_block", Y.B2, GEQ,
                                                _pair_rhs(inst, run), 0.0, np.inf, Y.c2)
        failed = status[np.isnan(value)]
        if failed.size:
            raise backend.BackendError(f"recourse solve ended {failed[0]}")
        vals = np.split(value, np.cumsum([len(v) for _, v in run])[:-1])
    return [(float(np.max(p)), v[int(np.argmax(p))]) for (_, v), p in zip(run, vals)]


def _pair_rhs(inst: Instance, run: list) -> np.ndarray:
    """d - B1 x - E u for every vertex u of every (x, verts) of run, as rows."""
    xs = np.vstack([np.tile(x, (len(v), 1)) for x, v in run])
    return inst.Y.d - xs @ inst.Y.B1.T - np.vstack([v for _, v in run]) @ inst.Y.E.T


def _no_recourse(inst: Instance, run: list) -> list[np.ndarray]:
    """For every (x, verts) of run, a mask of the vertices without
    (continuous) recourse, from one shortfall LP (see
    _block_recourse_values): a shortfall above _SHORTFALL_TOL, or a smaller
    positive one where recourse_value finds none. recourse_value decides
    every pair when the LP is not Optimal, and when it finds recourse at the
    LP's first pair above _SHORTFALL_TOL, which it audits."""
    gaps = _block_recourse_values(inst, run)
    audit = next(((x, verts[k]) for (x, verts), gap in zip(run, gaps or [])
                  for k in np.flatnonzero(gap > _SHORTFALL_TOL)), None)
    if gaps is None or audit is not None and recourse_value(inst, *audit)[0] != np.inf:
        return [np.array([recourse_value(inst, x, u)[0] == np.inf for u in verts])
                for x, verts in run]
    missing = [gap > _SHORTFALL_TOL for gap in gaps]
    for (x, verts), gap, miss in zip(run, gaps, missing):
        for k in np.flatnonzero((gap > 0.0) & ~miss):
            miss[k] = recourse_value(inst, x, verts[k])[0] == np.inf
    return missing


def _block_recourse_values(inst: Instance, run: list) -> list[np.ndarray] | None:
    """For every (x, verts) of run, the least shortfall of the (continuous)
    recourse at its vertices u_k, from one LP of a copy per pair
    (backend.copies_lp); None unless it ends Optimal, as no caller reads a
    copy's status. Copy k holds (y_k, s_k) and the rows D^-1 (B2 y_k - r_k)
    + s_k >= 0, s_k >= 0, r_k = d - B1 x - E u_k, with D the largest |entry|
    of each row of B2 (1 for a zero row), since HiGHS holds rows of tiny
    entries to its absolute tolerance. The LP minimizes the sum of every
    s_k, and each pair's value is 1'D s_k over max(1, |r_k|_inf)."""
    Y, rhs = inst.Y, _pair_rhs(inst, run)
    scale = np.abs(Y.B2).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    A = np.hstack([Y.B2 / scale[:, None], np.eye(Y.n_rows)])
    out = backend.solve_lp(backend.copies_lp("recourse_shortfall", A, GEQ, rhs / scale, 0.0,
                                             np.inf, np.r_[np.zeros(Y.dim), np.ones(Y.n_rows)]))
    if not out.is_optimal:
        return None
    sol = out.x.reshape(len(rhs), -1)
    vals = (sol[:, Y.dim:] * scale).sum(axis=1) / np.maximum(1.0, np.abs(rhs).max(
        axis=1, initial=0.0))
    return np.split(vals, np.cumsum([len(v) for _, v in run])[:-1])


# -- the exactness oracle ------------------------------------------------------

_GRID = 7       # grid points per free coupled continuous dim

@dataclass
class OracleResult:
    value: float
    x: np.ndarray
    worst_u: np.ndarray
    evaluations: list[tuple[np.ndarray, float]] = field(default_factory=list)


def oracle_exact(inst: Instance) -> OracleResult:
    """Ground-truth solve by full enumeration; desk-scale only.

    Integer x components are enumerated over their (finite) bound lattice.
    Continuous components that never touch the uncertainty set or the recourse
    rows only matter through c1 and X, so LPs optimize them out; coupled
    continuous components are pinned when X forces their value and gridded
    (_GRID points) when at most two stay free. A run of lattice points
    shares these LPs (see _complete_continuous). The points are the
    instance's lattice (lattice_first_stages); the result's x and
    evaluations are rows of a copy of it of the caller's own.
    """
    xs = lattice_first_stages(inst).copy()
    best = OracleResult(value=np.inf, x=np.zeros(inst.dim_x), worst_u=np.zeros(inst.dim_u))
    evals: list[tuple[np.ndarray, float]] = []
    for x, (wc, u_wc) in zip(xs, worst_case_values(inst, xs)):
        val = float(inst.c1 @ x) + wc
        evals.append((x, val))
        if val < best.value - 1e-12:
            best = OracleResult(value=val, x=x, worst_u=u_wc)
    if not evals:
        raise OracleError("first stage has no feasible point")
    best.evaluations = evals
    return best


def coupled_continuous(inst: Instance) -> list[int]:
    """The continuous first-stage components that U(x) or the recourse rows
    read; the others are separable and matter only through c1 and X."""
    in_U = inst.U.coupled_columns
    return [k for k in range(inst.X.n_int, inst.dim_x)
            if k in in_U or np.any(inst.Y.B1[:, k])]


def lattice_first_stages(inst: Instance) -> np.ndarray:
    """The first stages oracle_exact values, one row each in lattice order:
    every integer assignment of X's bound box that the rows on integer
    components alone admit, completed by _complete_continuous (coupled
    continuous x pinned or gridded, separable x at their least c1 cost),
    none where X admits no completion. Raises OracleError when an integer x
    has an infinite bound, lattice_points refuses the assignments, or a
    completion LP ends neither Optimal nor Infeasible. The array is
    read-only and derived once per instance (Instance.fact): the oracle and
    every C&CG master on the instance (ccg.MasterState.lattice) share it."""
    return inst.fact(lattice_first_stages, lambda: _lattice(inst))


def _lattice(inst: Instance) -> np.ndarray:
    X, nx, n_int = inst.X, inst.dim_x, inst.X.n_int
    coupled = coupled_continuous(inst)
    sep = [k for k in range(n_int, nx) if k not in coupled]

    for k in range(n_int):
        if not np.isfinite([X.lb[k], X.ub[k]]).all():
            raise OracleError(f"x[{k}] integer with an infinite bound")
    # rows touching only integer components can prefilter the lattice
    int_rows = ~np.any(X.A[:, n_int:], axis=1)
    points = lattice_points(X.lb[:n_int], X.ub[:n_int], X.A[int_rows, :n_int], X.b[int_rows], "x")
    if n_int < nx:      # else every row of X has been checked
        # runs of points whose copies of X, _GRID ** 2 a point at most, hold
        # at most backend._COPIES_NONZEROS nonzeros; their completions go
        # into one array, a row a point unless a coupled x is gridded
        cap = max(1, int(backend._COPIES_NONZEROS
                         // (max(1, np.count_nonzero(X.A)) * _GRID ** min(2, len(coupled)))))
        full, n = np.empty((len(points), nx)), 0
        for run in backend._runs(points, cap):
            x = _complete_continuous(inst, run, coupled, sep)
            if n + len(x) > len(full):
                full = np.concatenate([full[:n], np.empty((len(full) + len(x), nx))])
            full[n:n + len(x)], n = x, n + len(x)
        points = full[:n]
    points.setflags(write=False)
    return points


def _complete_continuous(inst: Instance, run: list[np.ndarray], coupled: list[int],
                         sep: list[int]) -> np.ndarray:
    """The full x vectors extending the integer assignments of run (x has
    continuous components), as rows in order, none where X admits no
    extension. The run shares its LPs (_xfill), one copy of the first stage
    per assignment: a min LP of x_k and one of -x_k per coupled x pin it (a
    point) or grid it (_GRID points) in every copy, the first dropping the
    copies without completion, and one LP takes every (assignment, grid
    point) to its least c1 cost over the separable x. Raises OracleError
    where more than two coupled x stay free."""
    X = inst.X
    nx, n_int = inst.dim_x, X.n_int
    # each copy's bounds (lb, ub), and the grids of its free coupled x
    bounds = np.tile(np.stack([X.lb, X.ub]), (len(run), 1, 1))
    bounds[:, :, :n_int] = np.asarray(run)[:, None]
    grids = np.array([{} for _ in run])
    for k in coupled:
        ends, unit = [], np.arange(nx) == k
        for sign in (1.0, -1.0):
            x, ok = _xfill(inst, bounds, sign * unit, f"coupled x[{k}] unbounded over X")
            bounds, grids, ends = bounds[ok], grids[ok], [e[ok] for e in ends] + [x[ok, k]]
        lo, hi = ends
        pin = hi - lo <= 1e-9 * np.maximum(1.0, np.abs(hi))
        bounds[pin, :, k] = 0.5 * (lo[pin] + hi[pin])[:, None]
        for c in np.flatnonzero(~pin):
            grids[c][k] = np.linspace(lo[c], hi[c], _GRID)
    too_many = next((len(g) for g in grids if len(g) > 2), None)
    if too_many:
        raise OracleError(f"{too_many} free coupled continuous dims exceed the grid limit")

    # one copy per (assignment, grid point), none when every copy is dropped
    spread = [bounds[:0]]
    for box, grid in zip(bounds, grids):
        points = np.array(list(itertools.product(*grid.values())))
        spread.append(np.tile(box, (len(points), 1, 1)))
        spread[-1][:, :, list(grid)] = points[:, None]
    x, ok = _xfill(inst, np.concatenate(spread), inst.c1 * np.isin(np.arange(nx), sep),
                   "separable continuous block unbounded below")
    return x[ok]


def _xfill(inst: Instance, bounds: np.ndarray, cost: np.ndarray,
           unbounded: str) -> tuple[np.ndarray, np.ndarray]:
    """The x of least cost of the first stage between each pair of bounds
    (lb, ub), and a mask of the Optimal ones, from backend.solve_copies. The
    first copy that ends neither Optimal nor Infeasible raises OracleError,
    with the message unbounded if Unbounded: leaving it out could drop the
    best first stage."""
    X = inst.X
    status, _, x = backend.solve_copies("xfill", X.A, GEQ, np.tile(X.b, (len(bounds), 1)),
                                        *bounds.transpose(1, 0, 2), cost)
    failed = status[~np.isin(status, (backend.OPTIMAL, backend.INFEASIBLE))]
    if failed.size:
        raise OracleError(unbounded if failed[0] == backend.UNBOUNDED
                          else f"completing a first stage ended {failed[0]}")
    return x, status == backend.OPTIMAL


# -- facility-location generators ----------------------------------------------

@dataclass
class FLParams:
    n_sites: int = 6
    n_facilities: int | None = None      # first n_facilities sites host facilities
    seed: int = 0
    high_fixed: bool = False             # one third larger fixed costs
    capacity_upper_frac: float = 1.5     # upper cap = frac * total demand / |J|
    capacity_lower_frac: float = 0.0
    # explicit data overrides synthesis when given
    costs: np.ndarray | None = None
    demands: np.ndarray | None = None
    profits: np.ndarray | None = None


def _sites(p: FLParams | PMedianParams):
    """The site data both families share: (nI, nJ, c, dem, rng), with c the
    service costs between all sites (100 x distance unless given).
    Coordinates and then, unless given, demands in [50, 150] are drawn from
    the seed; the rng is returned so that a family draws its own data next.
    Raises ValueError, naming the field, on sizes no instance has."""
    nI = p.n_sites
    nJ = p.n_facilities if p.n_facilities is not None else nI
    if nI < 1:
        raise ValueError(f"n_sites must be at least 1, got {nI}")
    if not 1 <= nJ <= nI:
        raise ValueError(f"n_facilities must be in 1..n_sites = {nI}, got {nJ}")
    if p.costs is not None and np.shape(p.costs) != (nI, nI):
        raise ValueError(f"costs must be n_sites x n_sites, got shape {np.shape(p.costs)}")
    if p.demands is not None and np.shape(p.demands) != (nI,):
        raise ValueError(f"demands must be n_sites long, got shape {np.shape(p.demands)}")
    rng = np.random.default_rng(p.seed)
    coords = rng.uniform(size=(nI, 2))
    c = (np.asarray(p.costs, dtype=float) if p.costs is not None
         else 100.0 * np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)))
    dem = (np.asarray(p.demands, dtype=float) if p.demands is not None
           else rng.uniform(50.0, 150.0, size=nI))
    return nI, nJ, c, dem, rng


def _incidence(nI: int, nJ: int) -> tuple[np.ndarray, np.ndarray]:
    """The transport incidence of flows v_ij held at column i nJ + j: rows
    sum_j v_ij, one per i in order, and rows sum_i v_ij, one per j in order,
    as arrays of shape (nI, nI nJ) and (nJ, nI nJ)."""
    return np.repeat(np.eye(nI), nJ, axis=1), np.tile(np.eye(nJ), nI)


def _interleave(*blocks):
    """Row r of every block in turn, for r = 0, 1, ...: with blocks (rows,
    partners) each row directly followed by its partner. A block is a tuple
    of arrays of one length, such as (F, G, h) or (A, b); the result holds
    each of them interleaved with the same array of the other blocks."""
    return tuple(np.stack(parts, axis=1).reshape(-1, *np.shape(parts[0])[1:])
                 for parts in zip(*blocks))


def _fl_uncertainty_rhs(nI, nJ, dem, near) -> UncertaintySet:
    """Coordinates (u, incr, dev) in R^{3|I|}: u_i = base_i (1 + incr_i),
    incr_i between xi_lo and xi_hi times the facilities built in the
    neighborhood, dev_i at least the distance of incr_i from its midpoint,
    total deviation at most alpha x installed capacity / total demand.  All
    dependence sits in the right-hand side. Rows, as pairs per site: u_i -
    base_i incr_i <= base_i and its negation; incr_i <= xi_hi (built nearby)
    and -incr_i <= -xi_lo (built nearby); +-(incr_i - mid) - dev_i <= 0.
    Then the budget row."""
    xi_lo, xi_hi, alpha = 0.05, 0.08, 0.05
    u, incr, dev = np.split(np.eye(3 * nI), 3)      # row i: coordinate i of a block
    built = np.hstack([near, np.zeros((nI, nJ))])   # over x = (x_d | x_c)
    no_x, h0 = np.zeros((nI, 2 * nJ)), np.zeros(nI)
    mid = 0.5 * (xi_lo + xi_hi) * built
    F1 = u - dem[:, None] * incr
    capacity = np.concatenate([np.zeros(nJ), np.full(nJ, alpha / dem.sum())])
    F, G, h = (np.concatenate(parts) for parts in zip(
        _interleave((F1, no_x, dem), (-F1, no_x, -dem)),
        _interleave((incr, xi_hi * built, h0), (-incr, -xi_lo * built, h0)),
        _interleave((incr - dev, mid, h0), (-incr - dev, -mid, h0)),
        (dev.sum(axis=0)[None], capacity[None], [0.0])))
    return UncertaintySet(F=AffineMatrixMap(base=F), G=G, h=h)


def _fl_uncertainty_lhs(nI, nJ, dem, near) -> UncertaintySet:
    """Coordinates (u, reg, surge): u_i = reg_i + surge_i, reg_i grows by k1
    per unit of neighborhood capacity (right-hand side), surge_i capped at
    gamma dem_i, and the surge budget, whose weights grow by k2 per unit of
    neighborhood capacity, puts x_c into the constraint matrix. Rows: per
    site u_i - reg_i - surge_i <= 0 and its negation, then reg_i per site,
    surge_i per site and the budget."""
    k1, k2, gamma = 0.05, 0.05, 0.1
    u, reg, surge = np.split(np.eye(3 * nI), 3)     # row i: coordinate i of a block
    no_x, h0 = np.zeros((nI, 2 * nJ)), np.zeros(nI)
    F1 = u - reg - surge
    F0, G, h = (np.concatenate(parts) for parts in zip(
        _interleave((F1, no_x, h0), (-F1, no_x, h0)),
        (reg, np.hstack([np.zeros((nI, nJ)), k1 * near]), dem),
        (surge, no_x, gamma * dem),
        ((dem @ surge)[None], np.zeros((1, 2 * nJ)), [gamma * float(dem @ dem)])))
    terms = []
    for j in range(nJ):
        M = np.zeros_like(F0)
        M[-1] = k2 * near[:, j] @ surge
        terms.append((nJ + j, M))
    return UncertaintySet(F=AffineMatrixMap(base=F0, terms=tuple(terms)), G=G, h=h)


def gen_robust_fl(params: FLParams, dependence: str = "rhs") -> Instance:
    """Facility location with opening + capacity first stage and profit-netted
    service recourse, under a construction-driven demand set. dependence picks
    where x enters the demand set: "rhs" keeps the constraint matrix constant,
    "lhs" puts capacity into the surge-budget row's coefficients."""
    if dependence not in ("rhs", "lhs"):
        raise ValueError(f"unknown dependence {dependence!r}")
    return _fl_instance(params, dependence)


def gen_mip_recourse_fl(params: FLParams) -> Instance:
    """Same structure with on-demand capacity modules in the recourse: binary
    z_j adds temp capacity at cost, unmet demand is penalized, so the recourse
    is a MIP and always feasible."""
    return _fl_instance(params, "mip")


def _fl_instance(p: FLParams, kind: str) -> Instance:
    """The instance of family fl-<kind>: "rhs" and "lhs" pick the demand set,
    "mip" takes the "rhs" set and adds the modules and shortfalls."""
    nI, nJ, full, dem, rng = _sites(p)
    c = full[:, :nJ]
    f = rng.uniform(1000.0, 2000.0, size=nJ)       # fixed costs
    if p.high_fixed:
        f = f * (4.0 / 3.0)
    a = rng.uniform(5.0, 10.0, size=nJ)            # capacity costs
    profit = (np.asarray(p.profits, dtype=float) if p.profits is not None
              else rng.uniform(100.0, 200.0, size=nI))
    # site i's neighborhood: the facilities within the lower quartile of all
    # positive site distances
    positive = full[full > 0]
    radius = float(np.quantile(positive, 0.25)) if positive.size else 0.0
    near = (c <= radius + 1e-12).astype(float)
    U = (_fl_uncertainty_lhs if kind == "lhs" else _fl_uncertainty_rhs)(
        nI, nJ, dem, near)

    # x = (x_d binary | x_c capacity), rows x_c - cap_lo x_d >= 0, one per
    # facility, then cap_hi x_d - x_c >= 0, one per facility
    cap_hi = p.capacity_upper_frac * dem.sum() / nJ
    cap_lo = p.capacity_lower_frac * dem.sum() / nJ
    eye = np.eye(nJ)
    X = FirstStageSet(A=np.block([[-cap_lo * eye, eye], [cap_hi * eye, -eye]]),
                      b=np.zeros(2 * nJ), n_int=nJ,
                      ub=np.concatenate([np.ones(nJ), np.full(nJ, np.inf)]))
    c1 = np.concatenate([f, a])
    # y_ij flows, rows sum_j y_ij >= u_i, one per site, then
    # sum_i y_ij <= x_c_j, one per facility
    by_i, by_j = _incidence(nI, nJ)
    B2 = np.vstack([by_i, -by_j])
    B1 = np.vstack([np.zeros((nI, 2 * nJ)), np.eye(nJ, 2 * nJ, nJ)])
    E = np.vstack([-np.eye(nI, 3 * nI), np.zeros((nJ, 3 * nI))])
    d = np.zeros(nI + nJ)
    c2 = (c - profit[:, None]).ravel()
    blocks = {"x_d": list(range(nJ)), "x_c": list(range(nJ, 2 * nJ)),
              "u": list(range(nI))}
    n_int_y = 0
    if kind == "mip":
        temp_cap = rng.uniform(30.0, 80.0, size=nJ)
        temp_cost = 5.0 * temp_cap * a.max()
        # y = (z | flows | y2): modules z_j (integer block) add temp_cap_j to
        # the capacity rows and get rows z_j <= 1; shortfall y2_i joins the
        # demand rows
        B2 = np.hstack([np.vstack([np.zeros((nI, nJ)), np.diag(temp_cap), -np.eye(nJ)]),
                        np.vstack([B2, np.zeros((nJ, nI * nJ))]),
                        np.vstack([np.eye(nI), np.zeros((2 * nJ, nI))])])
        B1, E = (np.vstack([M, np.zeros((nJ, M.shape[1]))]) for M in (B1, E))
        d = np.concatenate([d, -np.ones(nJ)])
        c2 = np.concatenate([temp_cost, c2, np.full(nI, 1.5 * c.max())])
        blocks["z"] = list(range(nJ))
        n_int_y = nJ
    meta = {"family": f"fl-{kind}", "blocks": blocks, "seed": p.seed}
    return Instance(name=f"fl_{kind}_{nI}s_seed{p.seed}", c1=c1, X=X, U=U,
                    Y=RecourseSet(B1=B1, B2=B2, E=E, d=d, c2=c2, n_int_y=n_int_y),
                    metadata=meta)


# -- reliable p-median generator -----------------------------------------------

@dataclass
class PMedianParams:
    n_sites: int = 8
    n_facilities: int | None = None
    seed: int = 0
    p: int = 3
    k: int = 1
    rho: float = 0.2
    theta: float | np.ndarray = 0.0
    penalty: float | None = None                 # None: 1.5 * max service cost
    q: int = 3                                   # demand-ranked extension sites
    costs: np.ndarray | None = None
    demands: np.ndarray | None = None


PMEDIAN_KINDS = ("diu_u0", "ddu_uk", "ddu_ukq", "ddu_ur", "ddu_us_pair")


def _disruption_set(nx: int, k: int, exposed: np.ndarray, markers=(),
                    n_int_u: int = 0) -> UncertaintySet:
    """{u >= 0 : 1'u <= k, u_i <= exposed_i + x[markers[i]]}: at most k sites
    fail, site i at any x when exposed_i is 1, otherwise only where its
    marker column, the i-th of markers, is 1 (never when it has none)."""
    nI, i = len(exposed), np.arange(len(markers))
    G = np.zeros((nI + 1, nx))
    G[1 + i, list(markers)] = 1.0 - exposed[i]
    F = np.vstack([np.ones((1, nI)), np.eye(nI)])
    return UncertaintySet(F=AffineMatrixMap(base=F), G=G,
                          h=np.concatenate([[float(k)], exposed]), n_int_u=n_int_u)


def gen_reliable_pmedian(params: PMedianParams,
                         uncertainty: str = "ddu_uk") -> Instance:
    """Reliable p-median: weighted nominal + worst-disruption objective.

    uncertainty picks the disruption set: diu_u0 (binary, up to k sites,
    decision-independent), ddu_uk (disruptions only at built facilities),
    ddu_ukq (additionally the q largest-demand sites), ddu_ur (only at the
    min(p, k + 2) built facilities with the largest first-stage service cost,
    via sorting binaries), ddu_us_pair (the decision-independent instance
    carrying both sorting sets in metadata for approximation runs).
    """
    if uncertainty not in PMEDIAN_KINDS:
        raise ValueError(f"unknown uncertainty {uncertainty!r}")
    p = params
    if p.p < 1:
        raise ValueError(f"p must be at least 1, got {p.p}")
    if p.k < 0:
        raise ValueError(f"k must be at least 0, got {p.k}")
    if p.q < 0:
        raise ValueError(f"q must be at least 0, got {p.q}")
    nI, nJ, c, dem, _ = _sites(p)
    c = c[:, :nJ]
    cap = np.full(nJ, 1.4 * dem.sum() / p.p)     # p facilities hold 1.4 x demand
    pen = p.penalty if p.penalty is not None else 1.5 * float(c.max())
    theta = np.broadcast_to(np.asarray(p.theta, dtype=float), (nI,)).copy()
    if uncertainty != "diu_u0" and (pen < float(c.max()) or np.any(theta > 0)):
        warnings.warn(
            "restricting disruptions to built sites only matches the "
            "decision-independent model when the shortfall penalty "
            "dominates every service cost and demand sensitivities are "
            "nonpositive", stacklevel=2)

    # x = (x_d | x_r | x_s | x_c | x0_r | x0_s | w | z): ddu_ur adds the
    # sorting binaries x_r and their threshold x0_r, ddu_us_pair also x_s,
    # x0_s and the pairing and product columns w, z
    n_sorts = {"ddu_ur": 1, "ddu_us_pair": 2}.get(uncertainty, 0)
    n_int = nJ * (1 + n_sorts)
    x0r = n_int + nI * nJ
    nx = x0r + n_sorts + (2 * nJ * nJ if n_sorts == 2 else 0)
    xc = slice(n_int, x0r)
    by_i, by_j = _incidence(nI, nJ)

    # rows sum x_d >= p, sum x_d <= p, allocations cover demand (one per
    # site), allocations within capacity (one per facility)
    A = np.zeros((2 + nI + nJ, nx))
    A[:2, :nJ] = [[1.0], [-1.0]]
    A[2:2 + nI, xc] = by_i
    A[2 + nI:, :nJ] = np.diag(cap)
    A[2 + nI:, xc] = -by_j
    rows = [(A, np.concatenate([[float(p.p), -float(p.p)], dem, np.zeros(nJ)]))]
    ub = np.full(nx, np.inf)
    ub[:n_int] = 1.0
    c1 = np.zeros(nx)
    c1[xc] = ((1.0 - p.rho) * c).ravel()

    # y = (y1 | y2): service flows, then shortfalls; rows: demand, grown to
    # (1 + theta_i u_i) d_i, per site; sum_i y1_ij <= cap_j x_d_j and
    # sum_i y1_ij <= cap_j (1 - u_j) per facility
    zero = np.zeros((nJ, nI))
    B2 = np.block([[by_i, np.eye(nI)], [-by_j, zero], [-by_j, zero]])
    B1 = np.vstack([np.zeros((nI, nx)), cap[:, None] * np.eye(nJ, nx), np.zeros((nJ, nx))])
    E = np.vstack([np.diag(-theta * dem), np.zeros((nJ, nI)), -cap[:, None] * np.eye(nJ, nI)])
    d = np.concatenate([dem, np.zeros(nJ), -cap])
    c2 = np.concatenate([p.rho * c.flatten(), p.rho * pen * np.ones(nI)])

    meta = {"family": f"pmedian-{uncertainty}",
            "blocks": {"x_d": list(range(nJ)), "x_c": list(range(n_int, x0r)),
                       "u": list(range(nI))},
            "seed": p.seed, "p": p.p, "k": p.k, "rho": p.rho,
            "penalty": pen, "max_cost": float(c.max())}
    if n_sorts:
        rows += _sorting_part(p, c, dem, cap, by_j, xc, nx, meta, n_sorts == 2)

    # the kind picks the disruption set: a facility's site fails only where
    # its marker column is 1 (x_d for ddu_uk and ddu_ukq, whose q
    # largest-demand sites fail at any x, x_r for ddu_ur), otherwise any site
    exposed = np.zeros(nI)
    if uncertainty == "ddu_ukq":
        dq = list(np.argsort(-dem)[:p.q])
        exposed[dq] = 1.0
        meta["d_q"] = [int(i) for i in dq]
    marker = {"ddu_uk": 0, "ddu_ukq": 0, "ddu_ur": nJ}.get(uncertainty)
    U = (_disruption_set(nx, p.k, np.ones(nI), n_int_u=nI) if marker is None
         else _disruption_set(nx, p.k, exposed, range(marker, marker + nJ)))
    if uncertainty == "ddu_us_pair":
        meta["ddu_sets"] = [uncertainty_set_to_dict(_disruption_set(
            nx, p.k, np.zeros(nI), range(m, m + nJ))) for m in (nJ, 2 * nJ)]

    A, b = (np.concatenate(parts) for parts in zip(*rows))
    X = FirstStageSet(A=A, b=b, n_int=n_int, ub=ub)
    name = f"pm_{uncertainty}_{nI}s_p{p.p}_k{p.k}_seed{p.seed}"
    return Instance(name=name, c1=c1, X=X, U=U,
                    Y=RecourseSet(B1=B1, B2=B2, E=E, d=d, c2=c2),
                    metadata=meta)


def _sorting_part(p, c, dem, cap, by_j, xc, nx, meta, pair):
    """The X rows of the sorting binaries, as (A, b) blocks: x_r (columns
    nJ to 2 nJ - 1, threshold the column after x_c) marks the min(p, k + 2)
    built facilities of largest service cost sum_i c_ij xc_ij; for
    ddu_us_pair (pair) the rows of _pairing_part follow. Records the
    columns, q and the big-M in meta."""
    nJ = len(cap)
    q = min(p.p, p.k + 2)
    sort_m = 1.1 * float(c.max()) * float(dem.sum())
    S, score = np.zeros((nJ, nx)), np.zeros((nJ, nx))
    S[:, xc] = by_j                         # s_j = sum_i xc_ij
    score[:, xc] = by_j * c.ravel()
    rows = [_sorting_rows(score, q, nJ, xc.stop, sort_m)]
    meta["blocks"]["x_r"] = list(range(nJ, 2 * nJ))
    meta["q1"] = q
    if pair:
        rows += _pairing_part(S, c, cap, q, sort_m, meta)
    meta["sort_big_m"] = sort_m
    return rows


def _pairing_part(S, c, cap, q, sort_m, meta):
    """The X rows ddu_us_pair adds after x_r's, as (A, b) blocks: for each
    pair (j, l) in order the envelopes of w_jl = x_d_j x_d_l and of
    z_jl = s_j w_jl, with s_j = sum_i xc_ij (row j of S) at most cap_j;
    then the sorting rows of x_s, which marks the q facilities of largest
    capacity-weighted distance to the co-built set, sum_l c_jl z_jl.
    Records x_s's columns and q in meta."""
    nJ, nx = S.shape
    K = nJ * nJ
    w = nx - 2 * K + np.arange(K)       # x = (... | x0_r | x0_s | w | z)
    j, l = np.divmod(np.arange(K), nJ)
    eye = np.eye(nx)
    pairs = envelope_rows(*_interleave((eye[w], eye[j], eye[l], np.ones(K)),
                                       (eye[w + K], eye[w], S[j], cap[j])))
    score = np.zeros((nJ, nx))
    score[j, w + K] = c[j, l]
    meta["blocks"]["x_s"] = list(range(2 * nJ, 3 * nJ))
    meta["q2"] = q
    return [pairs, _sorting_rows(score, q, 2 * nJ, w[0] - 1, sort_m)]


def _sorting_rows(score, q, marker, threshold, sort_m):
    """Big-M rows forcing m_j = x[marker + j] to 1 exactly on the q
    facilities whose score, row j of score over all columns, is above the
    threshold column t: per facility j the rows m_j <= x_d_j,
    score_j >= t - M(1-m_j) and score_j <= t + M m_j, M = sort_m, in that
    order, then sum m_j >= q and sum m_j <= q; as (A, b) with A x >= b."""
    nJ, nx = score.shape
    m, t = np.eye(nJ, nx, marker), np.eye(1, nx, threshold)
    zero = np.zeros(nJ)
    A, b = _interleave((np.eye(nJ, nx) - m, zero),
                       (score - t - sort_m * m, np.full(nJ, -sort_m)),
                       (t - score + sort_m * m, zero))
    total = m.sum(axis=0)
    return np.vstack([A, total, -total]), np.concatenate([b, [float(q), -float(q)]])


# -- instance file I/O ---------------------------------------------------------

def io_read(path: str) -> Instance:
    """The instance in a JSON file; SchemaError when the file does not have
    the layout of model.instance_to_dict or its parts disagree in their
    dimensions."""
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def io_write(path: str, inst: Instance) -> None:
    """Atomic: write to a temp file in the same directory, then rename."""
    payload = json.dumps(instance_to_dict(inst), indent=2)
    write_atomic(path, payload)


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
