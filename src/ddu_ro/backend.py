"""Thin LP/MILP layer: append-only model builder, scipy/HiGHS solves (LPs by
linprog's "highs" method with the rows passed as CSR, MIPs by milp), big-M
complementarity linearization, and ray extraction for unbounded or
infeasible linear programs.

Sign conventions. Duals are reported for rows as written: for a row a.x >= b
of a minimization model the dual is >= 0, for a.x <= b it is <= 0, equality
rows are free. Reduced costs are c - A'dual in the model's own sense, so at a
minimum variables sitting at their lower bound have nonnegative reduced cost
and at a maximum nonpositive. For every optimal LP,

    objective == duals.rhs + reduced_costs.x

holds to solver tolerance (bound contributions live in the reduced-cost term).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array

# Solve statuses. Run-level statuses live in model.py; these are per-solve.
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
    """A solve that a routine needs to finish ran out of its time limit."""


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

    def add_block(self, var_ids: list[int], A: np.ndarray, sense: str,
                  rhs: np.ndarray, name: str = "") -> list[int]:
        """Append rows A @ x[var_ids] (sense) rhs. A is (m, len(var_ids))."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if A.shape != (rhs.size, len(var_ids)):
            raise BackendError(f"block shape {A.shape} vs {rhs.size} rhs / {len(var_ids)} ids")
        cols = np.asarray(var_ids)
        ids = []
        for i in range(rhs.size):
            nz = np.flatnonzero(A[i])
            row = dict(zip(cols[nz].tolist(), A[i, nz].tolist()))
            ids.append(self.add_constr(row, sense, rhs[i], f"{name}[{i}]" if name else ""))
        return ids

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
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    ray: np.ndarray | None = None
    bound: float | None = None            # best dual bound from a MIP solve

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _assemble_lp(model: LinearModel):
    """Split the rows of model.sparse() into the <= and = CSR blocks of
    linprog, each as (row ids, block, rhs), None for an empty block. A >= row
    enters the <= block negated: sign is -1 on those rows, +1 elsewhere."""
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
            blocks.append((rows, None, None))
            continue
        keep = mask[entry_row]
        indptr = np.concatenate(([0], np.cumsum(counts[rows])))
        blocks.append((rows, csr_array((data[keep], A.indices[keep], indptr),
                                       shape=(len(rows), model.n_vars)),
                       sign[rows] * rhs[rows]))
    bounds = np.array([(v.lb, v.ub) for v in model.vars]).reshape(-1, 2)
    return c, blocks, sign, bounds


_LP_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: NUMERICAL}


def solve_lp(model: LinearModel, time_limit: float | None = None) -> SolveOutcome:
    """Solve ignoring integrality. Returns duals and reduced costs."""
    c, ((ub_rows, a_ub, b_ub), (eq_rows, a_eq, b_eq)), sign, bounds = _assemble_lp(model)
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=options)
    status = _LP_STATUS.get(res.status, NUMERICAL)
    if status != OPTIMAL:
        return SolveOutcome(status=status)

    flip = -1.0 if model.sense == "max" else 1.0
    x = np.asarray(res.x, dtype=float)
    duals = np.zeros(model.n_constrs)
    duals[ub_rows] = flip * sign[ub_rows] * res.ineqlin.marginals
    duals[eq_rows] = flip * res.eqlin.marginals
    rc = flip * (np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals))
    return SolveOutcome(status=OPTIMAL, objective=model.objective_value(x),
                        x=x, duals=duals, reduced_costs=rc)


_MIP_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: NUMERICAL}


def solve_mip(model: LinearModel, time_limit: float | None = None,
              mip_gap: float | None = None) -> SolveOutcome:
    """Solve with integrality. No duals or basis."""
    if not model.has_integers:
        return solve_lp(model, time_limit=time_limit)
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
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)
    constraints = LinearConstraint(A, lo, hi) if model.n_constrs else ()
    res = milp(c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lb, ub), options=options)
    status = _MIP_STATUS.get(res.status, NUMERICAL)
    if res.x is None:
        # milp can hit its time limit with no incumbent
        return SolveOutcome(status=status if status != OPTIMAL else NUMERICAL)
    x = np.asarray(res.x, dtype=float)
    bound = None
    if getattr(res, "mip_dual_bound", None) is not None:
        bound = sign * float(res.mip_dual_bound)
    return SolveOutcome(status=status, objective=model.objective_value(x),
                        x=x, bound=bound)


def solve(model: LinearModel, time_limit: float | None = None) -> SolveOutcome:
    """Dispatch on integrality."""
    if model.has_integers:
        return solve_mip(model, time_limit=time_limit)
    return solve_lp(model, time_limit=time_limit)


# -- big-M complementarity ---------------------------------------------------

LinExpr = tuple[dict[int, float], float]  # (coefficients, constant)


def linearize_complementarity(model: LinearModel,
                              pairs: list[tuple[LinExpr, LinExpr]],
                              M: float) -> list[int]:
    """For each pair (a, b) of nonnegative scalar expressions add a binary
    switch delta and the rows a <= M*delta, b <= M*(1 - delta), whose feasible
    set projects onto {a*b = 0}. Returns the ids of the added binaries."""
    if M <= 0:
        raise BackendError(f"big-M must be positive, got {M}")
    deltas = []
    for k, (ea, eb) in enumerate(pairs):
        d = model.add_var(0.0, 1.0, integer=True, name=f"delta{k}")
        (ca, consta), (cb, constb) = ea, eb
        rowa = dict(ca)
        rowa[d] = rowa.get(d, 0.0) - M
        model.add_constr(rowa, LEQ, -consta, name=f"comp_a{k}")
        rowb = dict(cb)
        rowb[d] = rowb.get(d, 0.0) + M
        model.add_constr(rowb, LEQ, M - constb, name=f"comp_b{k}")
        deltas.append(d)
    return deltas


# -- ray extraction -----------------------------------------------------------

def extract_ray(model: LinearModel, kind: str = "unbounded",
                time_limit: float | None = None) -> np.ndarray:
    """Certificate for an LP the solver refused.

    kind="unbounded": a primal ray r of the recession cone with c'r > 0
    (improving for the model's sense), scaled so its largest magnitude
    component is 1. Solved via the normalized ray LP
    max { c'r : recession rows, sum of positive parts <= 1 }.

    kind="infeasible": a Farkas certificate y for the rows as written
    (y_i <= 0 on <=-rows, y_i >= 0 on >=-rows, free on equalities) with
    A'y nonpositive where x is lower-bounded, zero on free coordinates,
    and y'rhs > 0, proving emptiness.

    time_limit bounds the ray LP of kind="unbounded"; running out raises
    SolveTimeLimit.
    """
    if kind == "unbounded":
        return _primal_ray(model, time_limit)
    if kind == "infeasible":
        return _farkas_ray(model)
    raise BackendError(f"unknown ray kind {kind!r}")


def _primal_ray(model: LinearModel, time_limit: float | None) -> np.ndarray:
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
    out = solve_lp(ray_lp, time_limit=time_limit)
    if out.status == TIME_LIMIT:
        raise SolveTimeLimit("ray LP ran out of time")
    if not out.is_optimal:
        raise BackendError(f"ray LP not optimal ({out.status})")
    r = out.x[:n]
    gain = float(model.objective_vector() @ r)
    if (sense == "min" and gain > -_RAY_TOL) or (sense == "max" and gain < _RAY_TOL):
        raise BackendError("model was not actually unbounded (ray improves by <= 1e-8)")
    return r / np.max(np.abs(r))


def _farkas_ray(model: LinearModel) -> np.ndarray:
    # Shift finite lower bounds to zero; finite upper bounds become extra rows.
    senses, rows, rhs = [], [], []
    n = model.n_vars
    lb = np.array([v.lb for v in model.vars])
    shift = np.where(np.isfinite(lb), lb, 0.0)
    for con in model.constrs:
        row = np.zeros(n)
        for j, v in con.coeffs.items():
            row[j] = v
        rows.append(row)
        senses.append(con.sense)
        rhs.append(con.rhs - row @ shift)
    extra = []   # synthetic ub rows do not correspond to model rows
    for j, v in enumerate(model.vars):
        if np.isfinite(v.ub):
            row = np.zeros(n)
            row[j] = 1.0
            rows.append(row)
            senses.append(LEQ)
            rhs.append(v.ub - shift[j])
            extra.append(len(rows) - 1)
    A = np.array(rows)
    b = np.array(rhs)
    m = len(rows)
    cert = LinearModel(name=model.name + "_farkas")
    y = []
    for i, s in enumerate(senses):
        if s == LEQ:
            y.append(cert.add_var(-np.inf, 0.0, name=f"y{i}"))
        elif s == GEQ:
            y.append(cert.add_var(0.0, np.inf, name=f"y{i}"))
        else:
            y.append(cert.add_var(-np.inf, np.inf, name=f"y{i}"))
    lower_bounded = np.isfinite(lb)
    for j in range(n):
        col = {y[i]: A[i, j] for i in range(m) if A[i, j] != 0.0}
        if not col:
            continue
        cert.add_constr(col, LEQ if lower_bounded[j] else EQ, 0.0)
    # normalization over |y|
    mag = cert.add_vars(m, lb=0.0, prefix="mag")
    for i in range(m):
        cert.add_constr({mag[i]: 1.0, y[i]: -1.0}, GEQ, 0.0)
        cert.add_constr({mag[i]: 1.0, y[i]: 1.0}, GEQ, 0.0)
    cert.add_constr({g: 1.0 for g in mag}, LEQ, 1.0)
    # infeasibility certificate: y'b > 0 while y'A x <= 0 for every feasible x
    cert.set_objective({y[i]: b[i] for i in range(m) if b[i] != 0.0}, sense="max")
    out = solve_lp(cert)
    if not out.is_optimal:
        raise BackendError(f"Farkas LP not optimal ({out.status})")
    if out.objective < _RAY_TOL:
        raise BackendError("model was not actually infeasible (no Farkas ray)")
    full = out.x[:m]
    keep = np.delete(full, extra) if extra else full
    top = np.max(np.abs(keep))
    if top < _RAY_TOL:
        raise BackendError("infeasibility rests on variable bounds alone, "
                           "no model-row certificate exists")
    return keep / top


def strong_duality_gap(model: LinearModel, out: SolveOutcome) -> float:
    """|objective - duals.rhs - reduced_costs.x| for an optimal LP outcome."""
    rhs = np.array([c.rhs for c in model.constrs])
    val = float(out.duals @ rhs + out.reduced_costs @ out.x) + model.obj_const
    return abs(out.objective - val)
