"""Benchmark instance generators, the brute-force exactness oracle, and
instance file I/O.

The oracle defines the ground truth the solvers are tested against: it
enumerates the first stage over its integer lattice (continuous components are
pinned, gridded, or optimized out, see oracle_exact), takes the worst
recourse value over the vertices of U(x), and then the min over x. The
vertices come from solving every nonsingular basis system of the standard
form. Which bases are nonsingular depends on F(x) alone, so one oracle_exact
call finds them once per distinct F(x), in 2e7-entry chunks, and takes the
first stages one F(x), so one such table, at a time; a table that serves a
second first stage inverts its bases once, and the inverses screen out the
bases infeasible at each later one. The LPs are batched, one
block-diagonal LP per run: a run of integer assignments shares its
feasibility LP, its range probes of the coupled continuous x and one LP over
every (assignment, grid point); a run of first stages shares one shortfall LP,
which finds the (x, vertex) pairs without recourse, and its recourse LPs. An
assignment, grid point or first stage gets LPs of its own only where a block
LP is not Optimal (see _complete_continuous and worst_case_values). It shares
nothing with the cutting-plane machinery beyond the LP/MIP primitives.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import eye_array, kron

from . import backend
from .backend import GEQ, LinearModel
from .model import (
    AffineMatrixMap,
    FirstStageSet,
    Instance,
    RecourseSet,
    UncertaintySet,
    add_recourse_vars,
    dimension_errors,
    instance_from_dict,
    instance_to_dict,
    max_over_u,
    range_probe,
    uncertainty_set_to_dict,
)


class OracleError(Exception):
    """Raised when an instance exceeds the oracle's enumeration limits or
    violates the assumptions the enumeration relies on."""


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


# -- vertex enumeration --------------------------------------------------------

# the oracle's enumeration limits
_MAX_LATTICE = 20000        # integer x assignments, and integer u points
_MAX_BASES = 2_000_000      # basis systems per U(x)
_MAX_VERTICES = 5000        # distinct vertices kept per U(x)
_GRID = 7                   # grid points per free coupled continuous dim
_DEDUP_TOL = 1e-9


def enumerate_vertices(U: UncertaintySet, x: np.ndarray,
                       bases: dict | None = None) -> np.ndarray:
    """All vertices of U(x) = {u >= 0 : F(x) u <= h + G x} as rows.

    Continuous case: A z = rhs with A = [F(x) | I], each row scaled by its
    largest entry. The bases of A with |det| > 1e-12 depend on A alone: a
    determinant sweep over every basis whose pattern has no empty row or
    column finds them, and `bases`, a one-entry memo keyed on A's shape and
    bytes, keeps their index sets for the next call with the same A, and
    from its second enumeration the inverses of those bases. worst_case_values
    passes one memo per distinct F(x), so each is swept once. Each call
    solves only the nonsingular bases that the inverses, where the memo
    holds them, do not show infeasible for its rhs (_basic_vertices); a
    basic solution with all components nonnegative is a vertex. Every step
    works in chunks of at most 2e7 matrix entries. Vertices are de-duplicated
    and ordered by the first basis (in itertools.combinations order) that
    yields them. All-integer case (n_int_u == dim): the integer lattice
    inside the per-coordinate LP bounds is enumerated and filtered by
    membership.
    """
    x = np.asarray(x, dtype=float)
    if U.n_int_u:
        if U.n_int_u != U.dim:
            raise OracleError("mixed-integer u is outside the oracle's scope")
        return _integer_points(U.F.evaluate(x), U.h + U.G @ x)

    if U.n_rows == 0:
        if U.dim == 0:
            return np.zeros((1, 0))
        raise OracleError("U(x) has no rows: unbounded, violates boundedness")

    u = np.concatenate([np.zeros((0, U.dim)), *_basic_vertices(U, x, bases)])
    if not len(u):
        raise OracleError("U(x) is empty at the probed x (nonemptiness violated)")
    first = _first_rows(np.round(u / _DEDUP_TOL).astype(np.int64))
    if len(first) > _MAX_VERTICES:
        raise OracleError(f"more than {_MAX_VERTICES} vertices")
    return u[first]


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys, axis=0, return_index=True)'s indices, ascending, from
    np.unique over one np.void per row, which sorts bytes instead of rows."""
    if not keys.shape[1]:
        return np.arange(min(1, len(keys)))
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    return np.sort(np.unique(rows, return_index=True)[1])


def _basic_vertices(U: UncertaintySet, x: np.ndarray, bases: dict | None,
                    size: int | None = None):
    """The u parts of the feasible basic solutions of U(x) (continuous u,
    at least one row), one array per slice of `size` solved bases in table
    order; `size` defaults to the 2e7-entry chunk.

    The memo `bases` holds, for one A, a dict: the table of nonsingular
    bases, the count of full sweeps (calls without `size`) made against it
    and, from the second, the inverses of the table's first 2e7 entries'
    worth of bases with their inf-norms. With inverses, one matmul screens
    every basis that has one: it is solved only when every component of
    inv_B @ rhs is at least -(_DEDUP_TOL scale + delta_B), where the margin
    delta_B bounds the difference between that product and the solve (see
    below). The bases past the inverses are solved unscreened. The solves
    and the tests on their results are those of a sweep over every basis,
    so the vertices, and their order, do not depend on the screen."""
    Fx = U.F.evaluate(x)
    rhs = U.h + U.G @ x
    mu, n = Fx.shape
    n_cols = n + mu
    n_bases = math.comb(n_cols, mu)
    if n_bases > _MAX_BASES:
        raise OracleError(f"{n_bases} basis systems exceed the cap {_MAX_BASES}")

    A = np.hstack([Fx, np.eye(mu)])
    # row equilibration keeps basis determinants O(1); structural u parts of
    # the basic solutions are unchanged, slack values rescale harmlessly
    row_scale = np.maximum(np.abs(A).max(axis=1), 1e-30)
    A = A / row_scale[:, None]
    rhs_s = rhs / row_scale
    chunk = max(1, int(2e7 // (mu * mu)))
    bases = {} if bases is None else bases
    key = (A.shape, A.tobytes())
    if key not in bases:
        bases.clear()
        bases[key] = {"table": _nonsingular_bases(A, chunk), "sweeps": 0}
    memo = bases[key]
    table = memo["table"]
    if size is None:
        memo["sweeps"] += 1
        # an inverse costs two to three solves, so a table swept once is
        # only solved; the second full sweep takes the inverses
        if memo["sweeps"] == 2:
            memo["inverses"] = _basis_inverses(A, table[:chunk])

    scale = max(1.0, np.abs(rhs_s).max())
    todo = table
    if "inverses" in memo:
        inv, inv_norm = memo["inverses"]
        z = (inv.reshape(-1, mu) @ rhs_s).reshape(-1, mu)
        # To first order, the solve z' and z = fl(inv_B rhs) are both within
        # gamma_3mu |A_B^-1| |L||U| of A_B^-1 rhs, times |z'| for the solve
        # and |inv_B| |rhs| for the product (Higham 2002, Thm 9.4 and sec.
        # 14.1; inv solves A_B inv_B = I by the same LU); the product adds
        # gamma_mu |inv_B| |rhs|. Rows scaled to a largest entry 1 and
        # partial pivoting give || |L||U| ||_inf <= mu^2 rho, so with growth
        # rho <= 10 the two differ by at most delta_B = 16 mu^3 eps ||inv_B||
        # (||z|| + ||inv_B|| scale) in the inf-norm, with z for z'. Measured
        # over the first stages of pm_uk8, fl_rhs2 and 2-site fl-lhs, they
        # differ by at most 0.98 eps ||inv_B|| scale.
        delta = 16 * mu ** 3 * np.finfo(float).eps * inv_norm * (
            np.abs(z).max(axis=1) + inv_norm * scale)
        # a NaN in z compares False, so its basis is kept
        kept = ~np.any(z < -(_DEDUP_TOL * scale + delta)[:, None], axis=1)
        todo = np.concatenate([table[:len(inv)][kept], table[len(inv):]])
    step = size or chunk
    for lo in range(0, len(todo), step):
        sub = todo[lo:lo + step]
        mats = A[:, sub].transpose(1, 0, 2)          # (batch, mu, mu)
        b_batch = np.broadcast_to(rhs_s[:, None], (len(sub), mu, 1)).copy()
        sols = np.linalg.solve(mats, b_batch)[:, :, 0]
        feas = np.all(sols >= -_DEDUP_TOL * scale, axis=1)
        # guard against ill-conditioned near-singular systems
        resid = np.einsum("bij,bj->bi", mats, sols) - rhs_s
        feas &= np.max(np.abs(resid), axis=1) <= 1e-7 * scale
        cols, sols = sub[feas], sols[feas]
        u = np.zeros((len(cols), n))
        rows, pos = np.nonzero(cols < n)
        u[rows, cols[rows, pos]] = np.maximum(sols[rows, pos], 0.0)
        yield u


def _nonsingular_bases(A: np.ndarray, chunk: int) -> np.ndarray:
    """Column index sets of the bases of A with |det| > 1e-12, in
    itertools.combinations order, as an int array of shape (count, rows).

    A basis whose nonzero pattern has an empty row or column is dropped
    before the determinants are taken: LU with partial pivoting leaves an
    exact zero on U's diagonal there, so LAPACK's determinant of it is 0.
    Each column's pattern is a bit mask of the rows it meets, in words of
    64 rows, so the test is an OR over the basis's columns."""
    mu, n_cols = A.shape
    combos = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n_cols), mu)), dtype=int,
        count=math.comb(n_cols, mu) * mu).reshape(-1, mu)
    words = -(-mu // 64)
    meets = np.zeros((64 * words, n_cols), dtype=bool)
    meets[:mu] = A != 0.0
    masks = np.ascontiguousarray(np.packbits(meets, axis=0).T).view(np.uint64)
    every_row = np.packbits(np.arange(64 * words) < mu).view(np.uint64)
    kept = []
    for lo in range(0, len(combos), chunk):
        sub = combos[lo:lo + chunk]
        m = masks[sub]                                  # (batch, mu, words)
        sub = sub[(np.bitwise_or.reduce(m, axis=1) == every_row).all(axis=1)
                  & m.any(axis=2).all(axis=1)]
        dets = np.abs(np.linalg.det(A[:, sub].transpose(1, 0, 2)))
        kept.append(sub[dets > 1e-12])
    return np.concatenate(kept)


def _basis_inverses(A: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of the bases of table, and their inf-norms."""
    inv = np.linalg.inv(A[:, table].transpose(1, 0, 2))
    return inv, np.abs(inv).sum(axis=2).max(axis=1)


def _integer_points(Fx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    mu, n = Fx.shape
    ubs = []
    for j in range(n):
        try:
            hi = range_probe(Fx, rhs, j)
        except backend.BackendError as exc:
            raise OracleError("U(x) is empty at the probed x "
                              "(nonemptiness violated)") from exc
        if hi == np.inf:
            raise OracleError(f"u[{j}] unbounded: integer enumeration impossible")
        ubs.append(int(np.floor(hi + 1e-9)))
    total = 1
    for b in ubs:
        total *= b + 1
        if total > _MAX_LATTICE:
            raise OracleError(f"integer u lattice exceeds {_MAX_LATTICE}")
    pts = []
    for combo in itertools.product(*[range(b + 1) for b in ubs]):
        u = np.array(combo, dtype=float)
        if mu == 0 or np.all(Fx @ u <= rhs + 1e-9):
            pts.append(u)
    if not pts:
        raise OracleError("U(x) has no integer points (nonemptiness violated)")
    return np.array(pts)


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


# matrix entries (rows x columns) of the B2 blocks one block-diagonal LP holds
# at most; its model is built in Python, so this bounds the memory it takes
_BLOCK_ENTRIES = 1e5

# a pair (x, u) whose least shortfall exceeds this times max(1, |d - B1 x -
# E u|_inf) has no recourse; HiGHS holds rows to an absolute 1e-7, so a
# smaller positive shortfall is left to recourse_value
_SHORTFALL_TOL = 1e-3


def worst_case_values(inst: Instance, xs) -> list[tuple[float, np.ndarray]]:
    """For every x in xs, the max over the vertices of U(x) of the recourse
    value, with the first vertex (in enumerate_vertices order) that attains
    it. The x are taken one distinct F(x), so one basis table, at a time.

    For continuous u the first vertex of every U(x) is found by solving the
    nonsingular bases in slices of 64 until one is feasible, and _no_recourse
    finds those without recourse: such an x is worth (inf, that vertex) and
    is not enumerated (so _MAX_VERTICES does not apply to it).
    _worst_vertices values the other x, in runs of _BLOCK_ENTRIES entries.
    A group's memo holds its basis table and, once a second x of the group
    is enumerated, the inverses that screen its bases (_basic_vertices);
    both go with the group.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    groups: dict[bytes, list[int]] = {}
    for i, x in enumerate(xs):
        groups.setdefault(inst.U.F.evaluate(x).tobytes(), []).append(i)
    cap = 1 if inst.Y.n_int_y else max(1, int(_BLOCK_ENTRIES // max(1, inst.Y.B2.size)))
    out: dict[int, tuple[float, np.ndarray]] = {}
    for group in groups.values():
        bases: dict = {}        # the table of this F(x) only
        if not inst.U.n_int_u and inst.U.n_rows:
            firsts = ((i, next((u[:1] for u in _basic_vertices(
                inst.U, xs[i], bases, 64) if len(u)), None)) for i in group)
            for run in _runs([(i, u) for i, u in firsts if u is not None], cap):
                missing = _no_recourse(inst, [(xs[i], u) for i, u in run])
                out.update((i, (np.inf, u[0])) for (i, u), m in zip(run, missing) if m[0])
        todo = [i for i in group if i not in out]
        runs = _runs(((xs[i], enumerate_vertices(inst.U, xs[i], bases)) for i in todo),
                     cap, size=lambda item: len(item[1]))
        out.update(zip(todo, (w for run in runs for w in _worst_vertices(inst, run))))
    return [out[i] for i in range(len(xs))]


def _runs(items, cap: int, size=lambda item: 1):
    """Consecutive runs of items whose sizes sum to at most cap; an item
    larger than cap makes a run of its own."""
    run, total = [], 0
    for item in items:
        if run and total + size(item) > cap:
            yield run
            run, total = [], 0
        run.append(item)
        total += size(item)
    if run:
        yield run


def _worst_vertices(inst: Instance, run: list, shortfall: bool = True
                    ) -> list[tuple[float, np.ndarray]]:
    """For every (x, verts) of run, the largest recourse value over verts and
    the first vertex that attains it, from one block LP over every pair. When
    it is not Optimal, a shortfall LP (_no_recourse) finds each x with a vertex
    without recourse, worth (inf, its first such vertex), and the others share
    one block LP again; one that still fails (unbounded recourse, numerical
    trouble) narrows to each x alone, then to each vertex. Integer y takes the
    per-vertex loop, since a MIP gap on the sum does not bound each block."""
    vals = None if inst.Y.n_int_y else _block_recourse_values(inst, run)
    if vals is not None:
        return [(float(p.max()), v[int(np.argmax(p))]) for (_, v), p in zip(run, vals)]
    missing = _no_recourse(inst, run) if shortfall and not inst.Y.n_int_y else []
    if any(m.any() for m in missing):
        rest = [item for item, m in zip(run, missing) if not m.any()]
        found = iter(_worst_vertices(inst, rest, shortfall=False) if rest else [])
        return [(np.inf, v[int(np.argmax(m))]) if m.any() else next(found)
                for (_, v), m in zip(run, missing)]
    if len(run) > 1:
        return [w for item in run for w in _worst_vertices(inst, [item], shortfall=False)]
    [(x, verts)] = run
    best, best_u = -np.inf, verts[0]
    for u in verts:
        val, _ = recourse_value(inst, x, u)
        if val > best:
            best, best_u = val, u
            if np.isinf(best):
                break
    return [(best, best_u)]


def _no_recourse(inst: Instance, run: list) -> list[np.ndarray]:
    """For every (x, verts) of run, a mask of the vertices without recourse,
    from one shortfall LP (see _block_recourse_values): a shortfall above
    _SHORTFALL_TOL, or a smaller positive one where recourse_value finds none.
    recourse_value decides every pair for integer y, when the LP is not
    Optimal, and when it finds recourse at the LP's first pair above
    _SHORTFALL_TOL, which it audits."""
    gaps = None if inst.Y.n_int_y else _block_recourse_values(inst, run, shortfall=True)
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


def _block_recourse_values(inst: Instance, run: list, shortfall: bool = False
                           ) -> list[np.ndarray] | None:
    """For every (x, verts) of run, the values c2'y_k at its vertices u_k, from
    one LP holding a copy y_k of the (continuous) recourse with the rows
    B2 y_k >= r_k = d - B1 x - E u_k per pair; None unless that LP is Optimal.

    With shortfall the rows read D^-1 (B2 y_k - r_k) + s_k >= 0, s_k >= 0,
    with D the largest |entry| of each row of B2 (1 for a zero row), since
    HiGHS holds rows of tiny entries to its absolute tolerance; the LP
    minimizes the sum of every s_k, and the values are each pair's least
    shortfall, 1'D s_k, over max(1, |r_k|_inf) (the copies are independent).
    The copies enter as one block kron(I_K, B2).
    """
    Y = inst.Y
    xs = np.vstack([np.tile(x, (len(v), 1)) for x, v in run])
    verts = np.vstack([v for _, v in run])
    rhs = Y.d - xs @ Y.B1.T - verts @ Y.E.T
    K, n_s = len(verts), Y.n_rows if shortfall else 0
    scale = np.abs(Y.B2).max(axis=1, initial=0.0)
    scale = np.where(shortfall & (scale > 0.0), scale, 1.0)
    m = LinearModel(name="recourse_shortfall" if shortfall else "recourse_block")
    ys, ss = m.add_vars(K * Y.dim), m.add_vars(K * n_s)
    m.add_rows([(ys, kron(eye_array(K), Y.B2 / scale[:, None])),
                (ss, eye_array(K * Y.n_rows, K * n_s))], GEQ, (rhs / scale).ravel())
    m.set_objective(dict.fromkeys(ss, 1.0) if shortfall else
                    dict(zip(ys, np.tile(Y.c2, K))))
    out = backend.solve_lp(m)
    if not out.is_optimal:
        return None
    y, s = np.split(out.x, [K * Y.dim])
    vals = ((s.reshape(K, Y.n_rows) * scale).sum(axis=1) / np.maximum(1.0, np.abs(rhs).max(
        axis=1, initial=0.0)) if shortfall else y.reshape(K, Y.dim) @ Y.c2)
    return np.split(vals, np.cumsum([len(v) for _, v in run])[:-1])


# -- the exactness oracle ------------------------------------------------------

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
    shares these LPs (see _complete_continuous). One LP per distinct F(x)
    first checks that U(x) is bounded (_require_bounded).
    """
    xs = lattice_first_stages(inst)
    _require_bounded(inst.U, xs)
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


def lattice_first_stages(inst: Instance, max_points: int = _MAX_LATTICE) -> list[np.ndarray]:
    """The first stages oracle_exact values, in lattice order: every integer
    assignment of X's bound box that the rows on integer components alone
    admit, completed by _complete_continuous (coupled continuous x pinned or
    gridded, separable x at their least c1 cost), none where X admits no
    completion. Raises OracleError when an integer x has an infinite bound,
    the box holds more than _MAX_LATTICE assignments, the rows admit more
    than max_points of them or a completion LP ends neither Optimal nor
    Infeasible. The C&CG master takes these points as its lattice
    (ccg.MasterState.solve)."""
    X = inst.X
    nx = inst.dim_x
    n_int = X.n_int
    coupled = coupled_continuous(inst)
    sep = [k for k in range(n_int, nx) if k not in coupled]

    for k in range(n_int):
        if not np.isfinite([X.lb[k], X.ub[k]]).all():
            raise OracleError(f"x[{k}] integer with an infinite bound")
    ranges = [range(int(np.ceil(X.lb[k] - 1e-9)), int(np.floor(X.ub[k] + 1e-9)) + 1)
              for k in range(n_int)]
    total = 1
    for r in ranges:
        total *= len(r)
        if total > _MAX_LATTICE:
            raise OracleError(f"integer x lattice exceeds {_MAX_LATTICE}")

    # rows touching only integer components can prefilter the lattice
    int_rows = [i for i in range(X.A.shape[0]) if not np.any(X.A[i, n_int:])]
    points = (np.array(combo, dtype=float)
              for combo in (itertools.product(*ranges) if ranges else [()]))
    points = [xi for xi in points
              if not any(X.A[i, :n_int] @ xi < X.b[i] - 1e-9 for i in int_rows)]
    if len(points) > max_points:
        raise OracleError(f"{len(points)} integer x assignments exceed {max_points}")
    # at most _GRID ** 2 copies of X per lattice point
    copies = _GRID ** min(2, len(coupled))
    cap = max(1, int(_BLOCK_ENTRIES // (max(1, X.A.size) * copies)))
    return [x for run in _runs(points, cap)
            for x in _complete_continuous(inst, run, coupled, sep)]


def _require_bounded(U: UncertaintySet, xs: list[np.ndarray]) -> None:
    """Raise OracleError when U(x) has a direction of recession for some x
    of xs, which its vertices alone would miss: the LP max{1'd : d >= 0,
    F(x) d <= 0} is unbounded exactly then. One LP per distinct F(x); integer
    u and a set without rows are left to enumerate_vertices."""
    if U.n_int_u or not U.n_rows:
        return
    for Fx in {Fx.tobytes(): Fx for Fx in map(U.F.evaluate, xs)}.values():
        out = max_over_u(Fx, np.zeros(U.n_rows), np.ones(U.dim), "recession")
        if out.status == backend.UNBOUNDED:
            raise OracleError("U(x) is unbounded (boundedness violated)")


def _complete_continuous(inst: Instance, run: list[np.ndarray], coupled: list[int],
                         sep: list[int]):
    """Yield full x vectors extending the integer assignments of run, in
    order, none for an assignment X admits no extension of. The run shares
    its LPs, with a copy of the first stage per assignment: one checks X, a
    min and a max LP per coupled x probe its range in every copy to pin it (a
    point) or grid it (_GRID points), and _fill takes every (assignment,
    grid point). When a run LP is not Optimal, or a copy leaves more than two
    coupled x free, each assignment is taken alone; one whose own LPs end
    neither Optimal nor Infeasible raises OracleError."""
    X = inst.X
    nx, n_int = inst.dim_x, X.n_int
    if n_int == nx:
        yield from (x.copy() for x in run if np.all(X.A @ x >= X.b - 1e-9))
        return

    # the values each copy fixes (nan where an LP decides), and its grids
    fixed = np.full((len(run), nx), np.nan)
    fixed[:, :n_int] = run
    free: list[dict[int, np.ndarray]] = [{} for _ in run]
    if coupled:
        m = LinearModel(name="xfill")
        copies = _fixed_first_stage(m, inst, fixed)
        out = backend.solve_lp(m)       # the fresh model's empty objective
        for k in coupled:
            if not out.is_optimal:
                break
            bounds = []
            for sense in ("min", "max"):
                m.set_objective(dict.fromkeys(copies[:, k].tolist(), 1.0), sense=sense)
                out = backend.solve_lp(m)
                if not out.is_optimal:
                    break
                bounds.append(out.x[copies[:, k]])
            else:
                lo, hi = bounds
                pin = hi - lo <= 1e-9 * np.maximum(1.0, np.abs(hi))
                fixed[pin, k] = 0.5 * (lo[pin] + hi[pin])
                m.set_bounds(copies[pin, k], fixed[pin, k], fixed[pin, k])
                for c in np.flatnonzero(~pin):
                    free[c][k] = np.linspace(lo[c], hi[c], _GRID)
        if len(run) > 1 and (not out.is_optimal or max(map(len, free)) > 2):
            for x_int in run:
                yield from _complete_continuous(inst, [x_int], coupled, sep)
            return
        if out.status == backend.UNBOUNDED:
            raise OracleError(f"coupled x[{k}] unbounded over X")
        if out.status == backend.INFEASIBLE:
            return
        if not out.is_optimal:
            raise OracleError(f"completing a first stage ended {out.status}")
        if len(free[0]) > 2:
            raise OracleError(f"{len(free[0])} free coupled continuous dims exceed the grid limit")

    groups = []
    for f, grids in zip(fixed, free):
        points = np.array(list(itertools.product(*grids.values())))
        groups.append(np.tile(f, (len(points), 1)))
        groups[-1][:, list(grids)] = points
    yield from _fill(inst, groups, sep)


def _fixed_first_stage(m: LinearModel, inst: Instance, values: np.ndarray) -> np.ndarray:
    """add_first_stage once per row of values, as one block kron(I_K, A), each
    x fixed at its value where that is not nan; the (K, dim_x) id array."""
    X, K = inst.X, len(values)
    ids = np.reshape(m.add_vars(K * X.dim, np.tile(X.lb, K), np.tile(X.ub, K),
                                np.tile(np.arange(X.dim) < X.n_int, K)), (K, X.dim))
    if X.A.shape[0]:
        m.add_rows([(ids.ravel(), kron(eye_array(K), X.A))], GEQ, np.tile(X.b, K))
    fixed = ~np.isnan(values)
    m.set_bounds(ids[fixed], values[fixed], values[fixed])
    return ids


def _fill(inst: Instance, groups: list, sep: list[int]):
    """Yield, for every point (row) of every group in order, the x that keeps
    its values and minimizes c1 over the separable x, none where X admits no
    such x: from one LP with a copy of the first stage per point, and when it
    is not Optimal from each group alone, then from each point alone. A
    point whose own LP ends neither Optimal nor Infeasible raises
    OracleError: leaving it out could drop the best first stage."""
    points = np.vstack(groups)
    m = LinearModel(name="xfill")
    copies = _fixed_first_stage(m, inst, points)
    m.set_objective(dict(zip(copies[:, sep].ravel().tolist(),
                             np.tile(inst.c1[sep], len(points)))))
    out = backend.solve_lp(m)
    if out.is_optimal:
        yield from out.x.reshape(len(points), inst.dim_x)
    elif len(points) > 1:
        for part in groups if len(groups) > 1 else [[p] for p in points]:
            yield from _fill(inst, [part], sep)
    elif out.status == backend.UNBOUNDED:
        raise OracleError("separable continuous block unbounded below")
    elif out.status != backend.INFEASIBLE:
        raise OracleError(f"completing a first stage ended {out.status}")


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


def _distances(coords: np.ndarray) -> np.ndarray:
    return 100.0 * np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))


def _sites(p: FLParams | PMedianParams):
    """The site data both families share: (nI, nJ, c, dem, rng), with c the
    service costs between all sites (100 x distance unless given).
    Coordinates and then, unless given, demands in [50, 150] are drawn from
    the seed; the rng is returned so that a family draws its own data next."""
    rng = np.random.default_rng(p.seed)
    nI = p.n_sites
    nJ = p.n_facilities if p.n_facilities is not None else nI
    coords = rng.uniform(size=(nI, 2))
    c = np.asarray(p.costs, dtype=float) if p.costs is not None else _distances(coords)
    dem = (np.asarray(p.demands, dtype=float) if p.demands is not None
           else rng.uniform(50.0, 150.0, size=nI))
    return nI, nJ, c, dem, rng


def _fl_first_stage(nJ, f, a, dem, p: FLParams):
    """x = (x_d binary | x_c capacity), rows cap_lo*x_d <= x_c <= cap_hi*x_d."""
    cap_hi = p.capacity_upper_frac * dem.sum() / nJ
    cap_lo = p.capacity_lower_frac * dem.sum() / nJ
    nx = 2 * nJ
    A = np.zeros((2 * nJ, nx))
    b = np.zeros(2 * nJ)
    for j in range(nJ):
        A[j, nJ + j] = 1.0          # x_c - cap_lo x_d >= 0
        A[j, j] = -cap_lo
        A[nJ + j, j] = cap_hi       # cap_hi x_d - x_c >= 0
        A[nJ + j, nJ + j] = -1.0
    ub = np.concatenate([np.ones(nJ), np.full(nJ, np.inf)])
    X = FirstStageSet(A=A, b=b, n_int=nJ, ub=ub)
    c1 = np.concatenate([f, a])
    return X, c1


def _fl_recourse(nI, nJ, c, profit):
    """y_ij flows: serve the realized demand within installed capacity."""
    ny = nI * nJ
    n_rows = nI + nJ
    B2 = np.zeros((n_rows, ny))
    B1 = np.zeros((n_rows, 2 * nJ))
    E = np.zeros((n_rows, 3 * nI))
    d = np.zeros(n_rows)
    for i in range(nI):
        for j in range(nJ):
            B2[i, i * nJ + j] = 1.0
        E[i, i] = -1.0              # sum_j y_ij >= u_i
    for j in range(nJ):
        for i in range(nI):
            B2[nI + j, i * nJ + j] = -1.0
        B1[nI + j, nJ + j] = 1.0    # sum_i y_ij <= x_c_j
    c2 = np.array([c[i, j] - profit[i] for i in range(nI) for j in range(nJ)])
    return B1, B2, E, d, c2


def _fl_uncertainty_rhs(nI, nJ, dem, nbhd) -> UncertaintySet:
    """Coordinates (u, incr, dev) in R^{3|I|}: u_i = base_i (1 + incr_i),
    incr_i between xi_lo and xi_hi times the facilities built in the
    neighborhood, dev_i at least the distance of incr_i from its midpoint,
    total deviation at most alpha x installed capacity / total demand.  All
    dependence sits in the right-hand side."""
    xi_lo, xi_hi, alpha = 0.05, 0.08, 0.05
    n_u = 3 * nI
    nx = 2 * nJ
    u0 = dem.sum()
    rows_F, rows_G, rows_h = [], [], []

    def row(Fr, Gr, hv):
        rows_F.append(Fr)
        rows_G.append(Gr)
        rows_h.append(hv)

    for i in range(nI):
        # u_i - base_i * incr_i = base_i, split into <= pairs
        Fr = np.zeros(n_u); Fr[i] = 1.0; Fr[nI + i] = -dem[i]
        row(Fr, np.zeros(nx), dem[i])
        row(-Fr, np.zeros(nx), -dem[i])
    for i in range(nI):
        Fr = np.zeros(n_u); Fr[nI + i] = 1.0
        Gr = np.zeros(nx)
        for j in nbhd[i]:
            Gr[j] = xi_hi
        row(Fr, Gr, 0.0)
        Gr2 = np.zeros(nx)
        for j in nbhd[i]:
            Gr2[j] = -xi_lo
        row(-Fr, Gr2, 0.0)
    for i in range(nI):
        mid = np.zeros(nx)
        for j in nbhd[i]:
            mid[j] = 0.5 * (xi_lo + xi_hi)
        Fr = np.zeros(n_u); Fr[nI + i] = 1.0; Fr[2 * nI + i] = -1.0
        row(Fr, mid, 0.0)
        Fr2 = np.zeros(n_u); Fr2[nI + i] = -1.0; Fr2[2 * nI + i] = -1.0
        row(Fr2, -mid, 0.0)
    Fr = np.zeros(n_u); Fr[2 * nI:] = 1.0
    Gr = np.zeros(nx); Gr[nJ:] = alpha / u0
    row(Fr, Gr, 0.0)

    return UncertaintySet(F=AffineMatrixMap(base=np.array(rows_F)),
                          G=np.array(rows_G), h=np.array(rows_h))


def _fl_uncertainty_lhs(nI, nJ, dem, nbhd) -> UncertaintySet:
    """Coordinates (u, reg, surge): u_i = reg_i + surge_i, reg_i grows by k1
    per unit of neighborhood capacity (right-hand side), surge_i capped at
    gamma dem_i, and the surge budget, whose weights grow by k2 per unit of
    neighborhood capacity, puts x_c into the constraint matrix."""
    k1, k2, gamma = 0.05, 0.05, 0.1
    n_u = 3 * nI
    nx = 2 * nJ
    mu = 2 * nI + nI + nI + 1
    F0 = np.zeros((mu, n_u))
    G = np.zeros((mu, nx))
    h = np.zeros(mu)
    r = 0
    for i in range(nI):
        F0[r, i] = 1.0; F0[r, nI + i] = -1.0; F0[r, 2 * nI + i] = -1.0
        h[r] = 0.0; r += 1
        F0[r, i] = -1.0; F0[r, nI + i] = 1.0; F0[r, 2 * nI + i] = 1.0
        h[r] = 0.0; r += 1
    for i in range(nI):
        F0[r, nI + i] = 1.0
        for j in nbhd[i]:
            G[r, nJ + j] = k1
        h[r] = dem[i]; r += 1
    for i in range(nI):
        F0[r, 2 * nI + i] = 1.0
        h[r] = gamma * dem[i]; r += 1
    budget = r
    for i in range(nI):
        F0[budget, 2 * nI + i] = dem[i]
    h[budget] = gamma * float(dem @ dem)
    terms = []
    for j in range(nJ):
        M = np.zeros((mu, n_u))
        for i in range(nI):
            if j in nbhd[i]:
                M[budget, 2 * nI + i] = k2
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
    nbhd = [[j for j in range(nJ) if full[i, j] <= radius + 1e-12] for i in range(nI)]

    X, c1 = _fl_first_stage(nJ, f, a, dem, p)
    B1, B2, E, d, c2 = _fl_recourse(nI, nJ, c, profit)
    U = (_fl_uncertainty_lhs if kind == "lhs" else _fl_uncertainty_rhs)(
        nI, nJ, dem, nbhd)
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
        B1 = np.vstack([B1, np.zeros((nJ, 2 * nJ))])
        E = np.vstack([E, np.zeros((nJ, 3 * nI))])
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


def _disruption_set(nx: int, k: int, exposed: np.ndarray, links: dict | None = None,
                    n_int_u: int = 0) -> UncertaintySet:
    """{u >= 0 : 1'u <= k, u_i <= exposed_i + x[links[i]]}: at most k sites
    fail, site i at any x when exposed_i is 1, otherwise only where its
    linked first-stage column is 1 (never when it has none)."""
    nI = len(exposed)
    G = np.zeros((nI + 1, nx))
    for i, col in (links or {}).items():
        G[1 + i, col] = 1.0
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
    xc = lambda i, j: n_int + i * nJ + j

    rows = []
    b = []
    r0 = np.zeros(nx); r0[:nJ] = 1.0
    rows.append(r0); b.append(float(p.p))            # sum x_d >= p
    rows.append(-r0); b.append(-float(p.p))          # sum x_d <= p
    for i in range(nI):
        r = np.zeros(nx)
        for j in range(nJ):
            r[xc(i, j)] = 1.0
        rows.append(r); b.append(dem[i])             # allocations cover demand
    for j in range(nJ):
        r = np.zeros(nx)
        r[j] = cap[j]
        for i in range(nI):
            r[xc(i, j)] = -1.0
        rows.append(r); b.append(0.0)                # allocations within capacity
    A, b = np.array(rows), np.array(b)

    ub = np.full(nx, np.inf)
    ub[:n_int] = 1.0
    c1 = np.zeros(nx)
    for i in range(nI):
        for j in range(nJ):
            c1[xc(i, j)] = (1.0 - p.rho) * c[i, j]

    # y = (y1 | y2): service flows, then shortfalls
    ny = nI * nJ + nI
    n_rows = nI + nJ + nJ
    B2 = np.zeros((n_rows, ny))
    B1 = np.zeros((n_rows, nx))
    E = np.zeros((n_rows, nI))
    d_vec = np.zeros(n_rows)
    y1 = lambda i, j: i * nJ + j
    y2 = lambda i: nI * nJ + i
    for i in range(nI):
        for j in range(nJ):
            B2[i, y1(i, j)] = 1.0
        B2[i, y2(i)] = 1.0
        d_vec[i] = dem[i]
        E[i, i] = -theta[i] * dem[i]      # demand grows to (1 + theta_i u_i) d_i
    for j in range(nJ):
        for i in range(nI):
            B2[nI + j, y1(i, j)] = -1.0
        B1[nI + j, j] = cap[j]            # sum_i y1_ij <= cap_j x_d_j
    for j in range(nJ):
        for i in range(nI):
            B2[nI + nJ + j, y1(i, j)] = -1.0
        d_vec[nI + nJ + j] = -cap[j]
        E[nI + nJ + j, j] = -cap[j]       # sum_i y1_ij <= cap_j (1 - u_j)
    c2 = np.concatenate([p.rho * c.flatten(), p.rho * pen * np.ones(nI)])

    meta = {"family": f"pmedian-{uncertainty}",
            "blocks": {"x_d": list(range(nJ)),
                       "x_c": [xc(i, j) for i in range(nI) for j in range(nJ)],
                       "u": list(range(nI))},
            "seed": p.seed, "p": p.p, "k": p.k, "rho": p.rho,
            "penalty": pen, "max_cost": float(c.max())}

    if n_sorts:
        # x_r marks the q_sort built facilities of largest service cost, and
        # for the pair x_s the q_sort of largest distance to the co-built set
        q_sort = min(p.p, p.k + 2)
        xr = lambda j: nJ + j
        sort_M = 1.1 * float(c.max()) * float(dem.sum())
        rows_r, b_r = _sorting_rows(nx, nJ, q_sort, xr, x0r,
                                    lambda j: [(xc(i, j), c[i, j]) for i in range(nI)],
                                    sort_M)
        A = np.vstack([A, rows_r]); b = np.concatenate([b, b_r])
        meta["blocks"]["x_r"] = [xr(j) for j in range(nJ)]
        meta["q1"] = q_sort

    if uncertainty == "diu_u0":
        U = _disruption_set(nx, p.k, np.ones(nI), n_int_u=nI)
    elif uncertainty == "ddu_uk":
        U = _disruption_set(nx, p.k, np.zeros(nI), {j: j for j in range(nJ)})
    elif uncertainty == "ddu_ukq":
        dq = list(np.argsort(-dem)[:p.q])
        # demand-ranked sites always exposed, other facility sites when built
        U = _disruption_set(nx, p.k, np.isin(np.arange(nI), dq).astype(float),
                            {i: i for i in range(nJ) if i not in dq})
        meta["d_q"] = [int(i) for i in dq]
    elif uncertainty == "ddu_ur":
        U = _disruption_set(nx, p.k, np.zeros(nI), {j: xr(j) for j in range(nJ)})
        meta["sort_big_m"] = sort_M
    else:  # ddu_us_pair: decision-independent instance + two sorting sets
        xs = lambda j: 2 * nJ + j
        x0s = x0r + 1
        w0 = x0s + 1                        # w_jl = x_d_j x_d_l
        z0 = w0 + nJ * nJ                   # z_jl = (sum_i xc_ij) w_jl
        wv = lambda j, l: w0 + j * nJ + l
        zv = lambda j, l: z0 + j * nJ + l
        extra = []
        eb = []
        for j in range(nJ):
            for l in range(nJ):
                # w = x_d_j x_d_l exactly at binary points
                r = np.zeros(nx); r[j] = 1.0; r[wv(j, l)] = -1.0
                extra.append(r); eb.append(0.0)
                r = np.zeros(nx); r[l] = 1.0; r[wv(j, l)] = -1.0
                extra.append(r); eb.append(0.0)
                r = np.zeros(nx); r[wv(j, l)] = 1.0; r[j] = -1.0; r[l] = -1.0
                extra.append(r); eb.append(-1.0)
                # z = (sum_i xc_ij) w, using the capacity bound on the sum
                r = np.zeros(nx); r[wv(j, l)] = cap[j]; r[zv(j, l)] = -1.0
                extra.append(r); eb.append(0.0)
                r = np.zeros(nx)
                for i in range(nI):
                    r[xc(i, j)] = 1.0
                r[zv(j, l)] = -1.0
                extra.append(r); eb.append(0.0)
                r = np.zeros(nx); r[zv(j, l)] = 1.0; r[wv(j, l)] = -cap[j]
                for i in range(nI):
                    r[xc(i, j)] = -1.0
                extra.append(r); eb.append(-cap[j])
        # score of facility j: capacity-weighted distance to the co-built set,
        # sum_l c[site(j), site(l)] z_jl with z linearized above
        rows_s, b_s = _sorting_rows(
            nx, nJ, q_sort, xs, x0s,
            lambda j: [(zv(j, l), float(c[j, l])) for l in range(nJ)], sort_M)
        A = np.vstack([A, np.array(extra), rows_s])
        b = np.concatenate([b, np.array(eb), b_s])
        U = _disruption_set(nx, p.k, np.ones(nI), n_int_u=nI)
        Ur = _disruption_set(nx, p.k, np.zeros(nI), {j: xr(j) for j in range(nJ)})
        Us = _disruption_set(nx, p.k, np.zeros(nI), {j: xs(j) for j in range(nJ)})
        meta["blocks"]["x_s"] = [xs(j) for j in range(nJ)]
        meta["q2"] = q_sort
        meta["sort_big_m"] = sort_M
        meta["ddu_sets"] = [uncertainty_set_to_dict(Ur), uncertainty_set_to_dict(Us)]

    X = FirstStageSet(A=A, b=b, n_int=n_int, ub=ub)
    name = f"pm_{uncertainty}_{nI}s_p{p.p}_k{p.k}_seed{p.seed}"
    return Instance(name=name, c1=c1, X=X, U=U,
                    Y=RecourseSet(B1=B1, B2=B2, E=E, d=d_vec, c2=c2),
                    metadata=meta)


def _sorting_rows(nx, nJ, q, marker, threshold, score_cols, M):
    """Big-M rows forcing marker_j = 1 exactly on the q facilities whose score
    is above the threshold variable: score_j >= t - M(1-m_j), score_j <= t + M m_j,
    m_j <= x_d_j, sum m_j = q."""
    rows, b = [], []
    for j in range(nJ):
        r = np.zeros(nx); r[j] = 1.0; r[marker(j)] = -1.0
        rows.append(r); b.append(0.0)                 # m_j <= x_d_j
        r = np.zeros(nx)
        for col, v in score_cols(j):
            r[col] = v
        r[threshold] = -1.0; r[marker(j)] = -M
        rows.append(r); b.append(-M)                  # score >= t - M(1-m)
        r = np.zeros(nx)
        for col, v in score_cols(j):
            r[col] = -v
        r[threshold] = 1.0; r[marker(j)] = M
        rows.append(r); b.append(0.0)                 # score <= t + M m
    r = np.zeros(nx)
    for j in range(nJ):
        r[marker(j)] = 1.0
    rows.append(r); b.append(float(q))
    rows.append(-r); b.append(-float(q))
    return np.array(rows), np.array(b)


# -- instance file I/O ---------------------------------------------------------

class SchemaError(Exception):
    pass


# per object of the file: its required keys, then the optional ones
_TOP_KEYS = (("c1", "X", "U", "Y"), ("name", "metadata"))
_X_KEYS = (("A", "b"), ("n_int", "bounds"))
_BOUNDS_KEYS = (("lb", "ub"), ())
_U_KEYS = (("F", "G", "h"), ("n_int_u",))
_F_KEYS = (("base",), ("terms",))
_TERM_KEYS = (("k", "matrix"), ())
_Y_KEYS = (("B1", "B2", "E", "d", "c2"), ("n_int_y",))
_MAT_KEYS = (("rows", "cols", "triplets"), ())


def _check_keys(d, keys: tuple, where: str):
    if not isinstance(d, dict):
        raise SchemaError(f"expected an object at {where}")
    required, optional = keys
    for key in d:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown key {key!r} at {where}")
    for key in required:
        if key not in d:
            raise SchemaError(f"missing key {key!r} at {where}")


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_matrix(d, where: str):
    _check_keys(d, _MAT_KEYS, where)
    rows, cols = d["rows"], d["cols"]
    if not (_is_index(rows) and _is_index(cols)):
        raise SchemaError(f"rows and cols must be nonnegative integers at {where}")
    for trip in d["triplets"]:
        if not (isinstance(trip, list) and len(trip) == 3 and _is_index(trip[0])
                and _is_index(trip[1]) and isinstance(trip[2], (int, float))):
            raise SchemaError(f"triplet {trip!r} at {where} is not [i, j, value]")
        i, j, _ = trip
        if not (i < rows and j < cols):
            raise SchemaError(f"triplet ({i},{j}) out of bounds at {where} "
                              f"(shape {rows}x{cols})")


def _check_vector(v, where: str, nullable: bool = False):
    # null stands for an infinite bound, and only bounds may hold it
    if not (isinstance(v, list) and all(
            isinstance(e, (int, float)) and not isinstance(e, bool)
            or (nullable and e is None) for e in v)):
        raise SchemaError(f"expected a list of numbers at {where}")


def check_uncertainty_schema(d, where: str = "$"):
    """Raise SchemaError, naming the place, unless d has the layout that
    model.uncertainty_set_to_dict writes."""
    _check_keys(d, _U_KEYS, where)
    _check_vector(d["h"], f"{where}.h")
    _check_keys(d["F"], _F_KEYS, f"{where}.F")
    _check_matrix(d["F"]["base"], f"{where}.F.base")
    for t, term in enumerate(d["F"].get("terms", [])):
        _check_keys(term, _TERM_KEYS, f"{where}.F.terms[{t}]")
        _check_matrix(term["matrix"], f"{where}.F.terms[{t}].matrix")
    _check_matrix(d["G"], f"{where}.G")


def check_schema(d: dict):
    """Raise SchemaError, naming the place, unless d has the layout that
    model.instance_to_dict writes, surrogate sets in metadata.ddu_sets
    included."""
    _check_keys(d, _TOP_KEYS, "$")
    for part, keys in (("X", _X_KEYS), ("Y", _Y_KEYS)):
        _check_keys(d[part], keys, f"$.{part}")
    for where, v in (("$.c1", d["c1"]), ("$.X.b", d["X"]["b"]),
                     ("$.Y.d", d["Y"]["d"]), ("$.Y.c2", d["Y"]["c2"])):
        _check_vector(v, where)
    _check_matrix(d["X"]["A"], "$.X.A")
    if "bounds" in d["X"]:
        _check_keys(d["X"]["bounds"], _BOUNDS_KEYS, "$.X.bounds")
        for key in ("lb", "ub"):
            _check_vector(d["X"]["bounds"][key], f"$.X.bounds.{key}", nullable=True)
    check_uncertainty_schema(d["U"], "$.U")
    for key in ("B1", "B2", "E"):
        _check_matrix(d["Y"][key], f"$.Y.{key}")
    check_surrogate_schema(d.get("metadata", {}).get("ddu_sets", []),
                           "$.metadata.ddu_sets")


def check_surrogate_schema(sets, where: str):
    """Raise SchemaError, naming the place, unless sets is a list whose
    entries pass check_uncertainty_schema."""
    if not isinstance(sets, list):
        raise SchemaError(f"expected a list of uncertainty sets at {where}")
    for i, U in enumerate(sets):
        check_uncertainty_schema(U, f"{where}[{i}]")


def io_read(path: str) -> Instance:
    """The instance in a JSON file; SchemaError when the file does not have
    the layout of check_schema or its parts disagree in their dimensions."""
    with open(path) as fh:
        d = json.load(fh)
    check_schema(d)
    inst = instance_from_dict(d)
    errors = dimension_errors(inst)
    if errors:
        raise SchemaError("; ".join(errors))
    return inst


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
