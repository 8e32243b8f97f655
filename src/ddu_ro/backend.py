"""Thin LP/MILP layer: append-only model builder, scipy/HiGHS solves (LPs by
linprog's "highs" method with the rows passed as CSR, MIPs by milp), big-M
complementarity linearization, and ray extraction for unbounded linear
programs.

Wall clock. A run's time budget is held here, not passed through the calls
that lead to a solve: inside ``with deadline(seconds):`` every solve_lp and
solve_mip hands HiGHS the time left until the deadline, and raises
SolveTimeLimit when the deadline has passed before the call or HiGHS stops on
its limit. A nested block keeps whichever deadline comes first. Outside any
block HiGHS gets no time limit.

solve_lp reports the status, objective and solution of an LP, no duals: the
algorithms that need dual values take them from a dual LP of their own or
from a basis (maxmin).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array

# Per-solve statuses. A solve that hits the wall clock raises SolveTimeLimit
# instead of reporting TIME_LIMIT.
OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
TIME_LIMIT = "TimeLimit"
NUMERICAL = "Numerical"

LEQ, GEQ, EQ = "<=", ">=", "=="

_RAY_TOL = 1e-8


class BackendError(Exception):
    """Raised on contract violations (bad arguments, impossible extractions)."""


class SolveTimeLimit(BackendError):
    """A solve ran out of the time left before the current deadline."""


# time.monotonic() at the earliest end of the enclosing deadline blocks,
# None outside every block
_DEADLINE: ContextVar[float | None] = ContextVar("ddu_ro_deadline", default=None)


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Give the solves inside the block `seconds` of wall clock in all; an
    enclosing block that ends sooner keeps its own deadline."""
    end = time.monotonic() + seconds
    outer = _DEADLINE.get()
    token = _DEADLINE.set(end if outer is None else min(outer, end))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


@dataclass
class _Var:
    lb: float
    ub: float
    integer: bool
    name: str


@dataclass
class _Constr:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str


class LinearModel:
    """Append-only LP/MILP builder.

    Variable and constraint ids are their insertion indices and never change
    as the model grows, which is what the column-and-constraint pattern needs:
    cutting sets appended in later iterations can keep referencing first-stage
    variable ids from iteration zero.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[_Var] = []
        self.constrs: list[_Constr] = []
        self.obj: dict[int, float] = {}
        self.obj_const = 0.0
        self.sense = "min"

    # -- construction ------------------------------------------------------

    def add_var(self, lb: float = 0.0, ub: float = np.inf, integer: bool = False,
                name: str = "") -> int:
        if lb > ub:
            raise BackendError(f"variable {name!r}: lb {lb} > ub {ub}")
        self.vars.append(_Var(float(lb), float(ub), bool(integer), name))
        return len(self.vars) - 1

    def add_vars(self, n: int, lb: float = 0.0, ub: float = np.inf,
                 integer: bool = False, prefix: str = "v") -> list[int]:
        return [self.add_var(lb, ub, integer, f"{prefix}{i}") for i in range(n)]

    def add_constr(self, coeffs: dict[int, float], sense: str, rhs: float,
                   name: str = "") -> int:
        if sense not in (LEQ, GEQ, EQ):
            raise BackendError(f"bad sense {sense!r}")
        clean = {j: float(v) for j, v in coeffs.items() if v != 0.0}
        self.constrs.append(_Constr(clean, sense, float(rhs), name))
        return len(self.constrs) - 1

    def add_rows(self, blocks: list[tuple[list[int], np.ndarray]], sense: str,
                 rhs: np.ndarray, name: str = "") -> list[int]:
        """Append the rows sum_k A_k @ v[ids_k] (sense) rhs, one per entry of
        rhs, from the blocks (ids_k, A_k) with A_k of shape (len(rhs),
        len(ids_k)). A column that repeats, within a block or across blocks,
        gets the sum of its entries in the order given, at the place it
        first appears; exact zeros are dropped after summing."""
        if sense not in (LEQ, GEQ, EQ):
            raise BackendError(f"bad sense {sense!r}")
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        m = rhs.size
        ids_all, mats = [], [np.zeros((m, 0))]
        for ids, A in blocks:
            A = np.atleast_2d(np.asarray(A, dtype=float))
            if A.shape != (m, len(ids)):
                raise BackendError(f"block shape {A.shape} vs {m} rhs / {len(ids)} ids")
            ids_all.extend(ids)
            mats.append(A)
        vals = np.hstack(mats)
        row, pos = np.nonzero(vals)
        col, val = np.asarray(ids_all, dtype=np.int64)[pos], vals[row, pos]
        if len(set(ids_all)) < len(ids_all):
            # sum each repeated column in its row, kept where it first appears
            key = row * (int(col.max(initial=0)) + 1) + col
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            order = np.argsort(first)
            row, col = row[first[order]], col[first[order]]
            val = np.bincount(inverse, weights=val)[order]
            nz = val != 0.0
            row, col, val = row[nz], col[nz], val[nz]
        ends = np.cumsum(np.bincount(row, minlength=m)).tolist()
        col, val = col.tolist(), val.tolist()
        start, n0 = 0, self.n_constrs
        for i, end in enumerate(ends):
            self.constrs.append(_Constr(dict(zip(col[start:end], val[start:end])), sense,
                                        float(rhs[i]), f"{name}[{i}]" if name else ""))
            start = end
        return list(range(n0, self.n_constrs))

    def add_block(self, var_ids: list[int], A: np.ndarray, sense: str,
                  rhs: np.ndarray, name: str = "") -> list[int]:
        """Append rows A @ x[var_ids] (sense) rhs. A is (m, len(var_ids))."""
        return self.add_rows([(var_ids, A)], sense, rhs, name)

    def set_objective(self, coeffs: dict[int, float], sense: str = "min",
                      constant: float = 0.0) -> None:
        if sense not in ("min", "max"):
            raise BackendError(f"bad objective sense {sense!r}")
        self.obj = {j: float(v) for j, v in coeffs.items() if v != 0.0}
        self.obj_const = float(constant)
        self.sense = sense

    def fix_var(self, j: int, value: float) -> None:
        self.vars[j].lb = self.vars[j].ub = float(value)

    # -- inspection --------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def n_constrs(self) -> int:
        return len(self.constrs)

    @property
    def has_integers(self) -> bool:
        return any(v.integer for v in self.vars)

    def sparse(self) -> tuple[csr_array, list[str], np.ndarray]:
        """Constraint data as (A, senses, rhs), A in CSR with one row per
        constraint, built straight from the row dicts."""
        indptr = np.zeros(self.n_constrs + 1, dtype=np.int64)
        indices: list[int] = []
        data: list[float] = []
        for i, con in enumerate(self.constrs):
            indices.extend(con.coeffs.keys())
            data.extend(con.coeffs.values())
            indptr[i + 1] = len(indices)
        A = csr_array((np.asarray(data, dtype=float),
                       np.asarray(indices, dtype=np.int64), indptr),
                      shape=(self.n_constrs, self.n_vars))
        senses = [con.sense for con in self.constrs]
        rhs = np.array([con.rhs for con in self.constrs], dtype=float)
        return A, senses, rhs

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        for j, v in self.obj.items():
            c[j] = v
        return c

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective_vector() @ x + self.obj_const)


@dataclass
class SolveOutcome:
    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    bound: float | None = None            # best dual bound from a MIP solve

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _assemble_lp(model: LinearModel):
    """The objective, the <= and = CSR blocks of linprog, each as (block,
    rhs) with (None, None) for an empty block, and the variable bounds. A >=
    row enters the <= block negated."""
    c = model.objective_vector()
    if model.sense == "max":
        c = -c
    A, senses, rhs = model.sparse()
    senses = np.array(senses)
    sign = np.where(senses == GEQ, -1.0, 1.0)
    counts = np.diff(A.indptr)
    entry_row = np.repeat(np.arange(model.n_constrs), counts)
    data = A.data * sign[entry_row]
    blocks = []
    for mask in (senses != EQ, senses == EQ):
        rows = np.flatnonzero(mask)
        if not len(rows):
            blocks.append((None, None))
            continue
        keep = mask[entry_row]
        indptr = np.concatenate(([0], np.cumsum(counts[rows])))
        blocks.append((csr_array((data[keep], A.indices[keep], indptr),
                                 shape=(len(rows), model.n_vars)),
                       sign[rows] * rhs[rows]))
    bounds = np.array([(v.lb, v.ub) for v in model.vars]).reshape(-1, 2)
    return c, blocks, bounds


def _with_time_left(model: LinearModel, options: dict) -> dict:
    """options plus HiGHS's time_limit, the time left before the deadline;
    unchanged outside every deadline block."""
    end = _DEADLINE.get()
    if end is None:
        return options
    left = end - time.monotonic()
    if left <= 0:
        raise SolveTimeLimit(f"{model.name}: the deadline passed before the solve")
    return {**options, "time_limit": left}


# linprog's and milp's status codes
_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: NUMERICAL}


def _status(model: LinearModel, code: int) -> str:
    """The status of a linprog or milp result code; a stop on the time limit
    raises SolveTimeLimit instead."""
    status = _STATUS.get(code, NUMERICAL)
    if status == TIME_LIMIT:
        raise SolveTimeLimit(f"{model.name}: HiGHS stopped on its time limit")
    return status


def solve_lp(model: LinearModel) -> SolveOutcome:
    """Solve ignoring integrality."""
    c, ((a_ub, b_ub), (a_eq, b_eq)), bounds = _assemble_lp(model)
    options = _with_time_left(model, {"presolve": True})
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=options)
    status = _status(model, res.status)
    if status != OPTIMAL:
        return SolveOutcome(status=status)
    x = np.asarray(res.x, dtype=float)
    return SolveOutcome(status=OPTIMAL, objective=model.objective_value(x), x=x)


def solve_mip(model: LinearModel) -> SolveOutcome:
    """Solve with integrality."""
    if not model.has_integers:
        return solve_lp(model)
    c = model.objective_vector()
    sign = 1.0
    if model.sense == "max":
        c = -c
        sign = -1.0
    A, senses, rhs = model.sparse()
    lo = np.array([-np.inf if s == LEQ else rhs[i] for i, s in enumerate(senses)])
    hi = np.array([np.inf if s == GEQ else rhs[i] for i, s in enumerate(senses)])
    lb = np.array([v.lb for v in model.vars])
    ub = np.array([v.ub for v in model.vars])
    integrality = np.array([1 if v.integer else 0 for v in model.vars])
    options = _with_time_left(model, {})
    constraints = LinearConstraint(A, lo, hi) if model.n_constrs else ()
    res = milp(c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lb, ub), options=options)
    status = _status(model, res.status)
    if res.x is None:
        return SolveOutcome(status=status if status != OPTIMAL else NUMERICAL)
    x = np.asarray(res.x, dtype=float)
    bound = None
    if getattr(res, "mip_dual_bound", None) is not None:
        bound = sign * float(res.mip_dual_bound)
    return SolveOutcome(status=status, objective=model.objective_value(x),
                        x=x, bound=bound)


def solve(model: LinearModel) -> SolveOutcome:
    """Dispatch on integrality."""
    if model.has_integers:
        return solve_mip(model)
    return solve_lp(model)


# -- big-M complementarity ---------------------------------------------------

def linearize_complementarity(model: LinearModel, a_ids: list[int],
                              a_const: np.ndarray,
                              b_blocks: list[tuple[list[int], np.ndarray]],
                              b_const: np.ndarray, M: float) -> list[int]:
    """For each pair k of nonnegative scalars a_k = v[a_ids[k]] + a_const[k]
    and b_k = row k of the blocks + b_const[k], add a binary switch delta_k
    and the rows a_k <= M delta_k, b_k <= M (1 - delta_k), in that order,
    whose feasible set projects onto {a_k b_k = 0}. Returns the ids of the
    added binaries."""
    if M <= 0:
        raise BackendError(f"big-M must be positive, got {M}")
    n = len(a_ids)
    deltas = model.add_vars(n, 0.0, 1.0, integer=True, prefix="delta")

    def interleave(top, bottom):
        # row 2k from top[k], row 2k+1 from bottom[k]
        return np.stack([top, bottom], axis=1).reshape(2 * n, *np.shape(top)[1:])

    eye = np.eye(n)
    blocks = [(a_ids, interleave(eye, np.zeros((n, n))))]
    blocks += [(ids, interleave(np.zeros(np.shape(B)), B)) for ids, B in b_blocks]
    blocks.append((deltas, interleave(-M * eye, M * eye)))
    rhs = interleave(-np.asarray(a_const, dtype=float), M - np.asarray(b_const, dtype=float))
    model.add_rows(blocks, LEQ, rhs, name="comp")
    return deltas


# -- ray extraction -----------------------------------------------------------

def extract_ray(model: LinearModel) -> np.ndarray:
    """A primal ray r of the recession cone of an unbounded LP with c'r > 0
    (improving for the model's sense), scaled so its largest magnitude
    component is 1. Solved via the normalized ray LP
    max { c'r : recession rows, sum of positive parts <= 1 }.
    """
    n = model.n_vars
    ray_lp = LinearModel(name=model.name + "_ray")
    ids = []
    for v in model.vars:
        lb = 0.0 if np.isfinite(v.lb) else -np.inf
        ub = 0.0 if np.isfinite(v.ub) else np.inf
        ids.append(ray_lp.add_var(lb, ub, name=v.name))
    for con in model.constrs:
        ray_lp.add_constr(dict(con.coeffs), con.sense, 0.0)
    # normalization: the positive parts sum to at most one
    pos = ray_lp.add_vars(n, lb=0.0, prefix="pos")
    for j in range(n):
        ray_lp.add_constr({pos[j]: 1.0, ids[j]: -1.0}, GEQ, 0.0)
    ray_lp.add_constr({p: 1.0 for p in pos}, LEQ, 1.0)
    sense = model.sense
    obj = {ids[j]: v for j, v in model.obj.items()}
    ray_lp.set_objective(obj, sense=sense)
    out = solve_lp(ray_lp)
    if not out.is_optimal:
        raise BackendError(f"ray LP not optimal ({out.status})")
    r = out.x[:n]
    gain = float(model.objective_vector() @ r)
    if (sense == "min" and gain > -_RAY_TOL) or (sense == "max" and gain < _RAY_TOL):
        raise BackendError("model was not actually unbounded (ray improves by <= 1e-8)")
    return r / np.max(np.abs(r))
