"""Thin LP/MILP layer: append-only models (LinearModel) that grow by blocks
of columns (add_vars) and of rows (add_rows) and keep both in numpy arrays
(vars and constrs are read-only views of them), HiGHS solves (solve_lp and
solve_mip), K copies of an LP in runs of LPs over copies (solve_copies,
solve_run) with the value of each copy (copy_values) and big-M
complementarity linearization.

How a model reaches HiGHS. solve_lp passes <= and = CSR blocks to linprog,
solve_mip lo <= A x <= hi to milp. Both are this module's, not scipy's: each
hands _highs the CSC matrix and options that scipy's function of its name
would, and _highs solves them on one fresh _Highs of scipy's bundled binding
(setOptionValue, the array form of passModel, run, getSolution; no basis, no
duals), so every input and answer is byte-identical to scipy's, without the
fifth of a pm_uk8 pass that scipy's wrapper took. They keep scipy's names,
keywords and result fields because every solve meets HiGHS there: tests
replace them or hash their arguments, and perfbench/tracing.py times them.
scipy's checks stay: non-finite c, A or b raises ValueError; an Optimal LP
whose x misses a bound or a row by more than 10 sqrt(1e-9) is code 4; a
limit is code 1, a model HiGHS refuses 2 and an unlisted status 4; a MIP at
a limit keeps x unless its objective is +inf; a rejected option warns.
Import fails with an ImportError naming scipy 1.17 (HiGHS 1.12), the tested
series, when _Highs lacks a method _highs calls.

Wall clock. A run's time budget is held here, not passed through the calls
that lead to a solve: inside ``with deadline(seconds):`` every solve_lp and
solve_mip hands HiGHS the time left until the deadline, and raises
SolveTimeLimit when the deadline has passed before the call or HiGHS stops on
its limit. A nested block keeps whichever deadline comes first. Outside any
block HiGHS gets no time limit.

Big-M. A run's big-M is held here the same way: inside ``with big_m(M):``
current_big_m() is M, the innermost block winning, and DEFAULT_BIG_M
outside every block. Five builders read it, each where it writes an
M-bounded row: maxmin.build_optimality_block (the primal side),
maxmin.dual_bound (its floor under the dual side), ccg._add_basis_seed (the
u x products), model.build_deterministic_mip (the u x products) and
reformulations.order_switch (the lambda cap). A bound that differs per
product is an argument of the envelope writers instead.

solve_lp reports the status, objective and solution of an LP, no duals: the
algorithms that need dual values take them from a dual LP of their own or
from a basis (maxmin).

HiGHS options of every MIP (_MIP_OPTIONS): the RINS sub-MIP (Danna, Rothberg
and Le Pape, Math. Prog. 2005) and Feasibility Jump (Luteberget and Sartor,
Math. Prog. Comp. 2023) are off; mip_rel_gap and the deadline's time_limit
are added to them. On our MIPs these two heuristics cost more than the
search they save: the 79 MIPs of pm_uk8 s0 (parametric, benders, basis)
took 1.81 s of HiGHS 1.12.0 time instead of 2.96 s (median of 5 replays),
with all 79 objectives identical and 434 nodes instead of 429. The one case
found slower is fl_rhs10 s0 benders (about 5 %): without RINS its third
master, with 283 binaries, takes 442 nodes instead of 99. RENS stays on:
without it the last fl_rhs8 s0 benders master took 17 s and 7953 nodes
instead of 0.15 s and 1 node, and the run ended GapReached instead of
Optimal. HiGHS prints a stray line (transformNewIntegerFeasibleSolution) to
stdout with a raw printf whatever output_flag says, so file descriptor 1
points at standard error for the length of each milp call.
"""

from __future__ import annotations

import ctypes
import os
import sys
import time
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning
from scipy.optimize._highspy import _core
from scipy.sparse import coo_array, csc_array, csr_array, issparse, vstack

# Per-solve statuses. A solve that hits the wall clock raises SolveTimeLimit
# instead of reporting TIME_LIMIT.
OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
TIME_LIMIT = "TimeLimit"
NUMERICAL = "Numerical"

LEQ, GEQ, EQ = "<=", ">=", "=="


class BackendError(Exception):
    """Raised on contract violations (bad arguments, failed audits)."""


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


# the big-M of a run outside every big_m block: AlgorithmConfig's and the CLI's
DEFAULT_BIG_M = 1e4
_BIG_M: ContextVar[float] = ContextVar("ddu_ro_big_m", default=DEFAULT_BIG_M)


@contextmanager
def big_m(M: float) -> Iterator[None]:
    """Make M the big-M of the builders inside the block (module docstring);
    ValueError unless M is finite and positive."""
    M = float(M)
    if not 0.0 < M < np.inf:
        raise ValueError(f"big-M must be finite and positive, got {M}")
    token = _BIG_M.set(M)
    try:
        yield
    finally:
        _BIG_M.reset(token)


def current_big_m() -> float:
    """The big-M of the innermost enclosing big_m block, else DEFAULT_BIG_M."""
    return _BIG_M.get()


# the records of the read-only views LinearModel.vars and LinearModel.constrs
_Var = namedtuple("_Var", "lb ub integer")
_Constr = namedtuple("_Constr", "coeffs sense rhs")
# the arrays of a row chunk: nonzeros per row, column ids, values, senses, rhs
_ROW_DTYPES = (np.int64, np.int64, float, "<U2", float)


class LinearModel:
    """Append-only LP/MILP builder.

    Variable and constraint ids are their insertion indices and never change
    as the model grows, which is what the column-and-constraint pattern needs:
    cutting sets appended in later iterations can keep referencing first-stage
    variable ids from iteration zero.

    The model grows one way: columns through add_vars, rows through
    add_rows, bounds through set_bounds (lb = ub fixes a column). Column j's
    bounds and integrality are entry j of numpy arrays that grow by
    doubling; rows are CSR chunks (_ROW_DTYPES), one per add_rows call, so a
    single row is a one-row block. vars and constrs are read-only views
    built on each access, kept for the tests and for perfbench/tracing.py.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._lb, self._ub, self._int = np.empty(0), np.empty(0), np.empty(0, dtype=bool)
        self._n = self._m = 0
        self._chunks = [tuple(np.zeros(0, dtype=d) for d in _ROW_DTYPES)]
        self.obj: dict[int, float] = {}
        self.sense = "min"

    # -- construction ------------------------------------------------------

    def add_vars(self, n: int, lb=0.0, ub=np.inf, integer=False) -> list[int]:
        """n columns; lb, ub and integer are scalars or one entry per column."""
        lb, ub, integer = (np.broadcast_to(np.asarray(a, dtype=t), (n,))
                           for a, t in ((lb, float), (ub, float), (integer, bool)))
        if np.any(lb > ub):
            raise BackendError(f"variables from {self._n}: some lb > ub")
        j = self._reserve(n)
        self._lb[j:j + n], self._ub[j:j + n], self._int[j:j + n] = lb, ub, integer
        return list(range(j, j + n))

    def _reserve(self, n: int) -> int:
        """Room for n more columns; the id of the first."""
        j, self._n = self._n, self._n + n
        if self._n > self._lb.size:
            self._lb, self._ub, self._int = (
                np.concatenate([a[:j], np.empty(2 * self._n - j, a.dtype)])
                for a in (self._lb, self._ub, self._int))
        return j

    def add_rows(self, blocks: list[tuple[list[int], np.ndarray]],
                 sense: str | list[str] | np.ndarray, rhs: np.ndarray) -> list[int]:
        """Append the rows sum_k A_k @ v[ids_k] (sense) rhs, one per entry of
        rhs, from the blocks (ids_k, A_k) with A_k, dense or scipy sparse, of
        shape (len(rhs), len(ids_k)); sense is one of LEQ, GEQ and EQ for
        every row, or a sequence of them with one per row. Within a row,
        entries follow the blocks and, within a block, the columns; a sparse
        block counts as its toarray(). A column that repeats, within a block
        or across blocks, gets the sum of its entries in that order, at the
        place it first appears; exact zeros are dropped after summing. A
        canonical CSR block (sorted indices, no duplicates) is read as it
        is, with no COO copy. A single dense or canonical CSR block already
        holds its entries in that order, so only several blocks or another
        sparse block are sorted, and only repeated ids are merged."""
        rhs = np.array(rhs, dtype=float, ndmin=1)
        m = rhs.size
        senses = np.asarray(sense)
        if senses.shape not in ((), (m,)) or not {*senses.ravel().tolist()} <= {LEQ, GEQ, EQ}:
            raise BackendError(f"bad sense {sense!r} for {m} rows")
        entries, ids_all, offset, ordered = [], [], 0, len(blocks) == 1
        for ids, A in blocks:
            if isinstance(A, csr_array) and A.has_canonical_format:
                nz = A.data != 0.0
                row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))[nz]
                pos, val = A.indices[nz], A.data[nz]
            elif issparse(A):
                A = coo_array(A)
                row, pos, val = _sum_repeats(*A.coords, A.data)
                ordered = False
            else:
                A = np.atleast_2d(np.asarray(A, dtype=float))
                row, pos = np.nonzero(A)
                val = A[row, pos]
            if A.shape != (m, len(ids)):
                raise BackendError(f"block shape {A.shape} vs {m} rhs / {len(ids)} ids")
            entries.append((row, pos + offset, val))
            ids_all.append(np.asarray(ids, dtype=np.int64))
            offset += len(ids)
        row, pos, val, ids_all = (np.concatenate([np.zeros(0, d), *parts]) for d, parts in
                                  zip((np.int64, np.int64, float, np.int64),
                                      [*zip(*entries), ids_all]))
        if not ordered:
            order = np.argsort(row * offset + pos, kind="stable")
            row, pos, val = row[order], pos[order], val[order]
        col = ids_all[pos]
        if np.unique(ids_all).size < ids_all.size:
            row, col, val = _sum_repeats(row, col, val)
        self._chunks.append((np.bincount(row, minlength=m), col, val,
                             np.full(m, senses, dtype=_ROW_DTYPES[3]), rhs))
        self._m += m
        return list(range(self._m - m, self._m))

    def set_objective(self, coeffs: dict[int, float], sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise BackendError(f"bad objective sense {sense!r}")
        self.obj = {j: float(v) for j, v in coeffs.items() if v != 0.0}
        self.sense = sense

    def set_bounds(self, j, lb, ub) -> None:
        """Set the bounds of column j, or of the columns of an array j; lb = ub
        fixes them."""
        self._lb[:self._n][j], self._ub[:self._n][j] = lb, ub

    # -- inspection --------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self._n

    @property
    def n_constrs(self) -> int:
        return self._m

    @property
    def has_integers(self) -> bool:
        return bool(self._int[:self._n].any())

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the columns' lower bounds, upper bounds and integrality."""
        return tuple(a[:self._n].copy() for a in (self._lb, self._ub, self._int))

    def sparse(self, first: int = 0) -> tuple[csr_array, np.ndarray, np.ndarray]:
        """Constraint data of the rows from first on as (A, senses, rhs), A in
        CSR with one row per constraint; only the chunks holding those rows
        are read."""
        k, start = len(self._chunks), self._m
        while start > first:
            k -= 1
            start -= self._chunks[k][0].size
        counts, cols, vals, senses, rhs = map(
            np.concatenate, zip(self._chunks[0], *self._chunks[k:]))
        indptr = np.zeros(self._m - start + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        A = csr_array((vals, cols, indptr), shape=(self._m - start, self._n))
        skip = max(0, first - start)
        return (A[skip:], senses[skip:], rhs[skip:]) if skip else (A, senses, rhs)

    @property
    def vars(self) -> list[_Var]:
        return list(map(_Var, *(a.tolist() for a in self.columns())))

    @property
    def constrs(self) -> list[_Constr]:
        A, senses, rhs = self.sparse()
        cols, vals, ends = A.indices.tolist(), A.data.tolist(), A.indptr.tolist()
        return [_Constr(dict(zip(cols[a:b], vals[a:b])), s, r)
                for a, b, s, r in zip(ends, ends[1:], senses.tolist(), rhs.tolist())]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        c[list(self.obj)] = list(self.obj.values())
        return c

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective_vector() @ x)


def _sum_repeats(row: np.ndarray, col: np.ndarray, val: np.ndarray):
    """The entries with each repeated (row, col) summed in the order given, kept
    where it first appears; exact zeros are dropped after summing."""
    key = row.astype(np.int64) * (int(col.max(initial=0)) + 1) + col
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    val = np.bincount(inverse, weights=val, minlength=len(first))[order]
    nz = val != 0.0
    return row[first[order]][nz], col[first[order]][nz], val[nz]


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
    row enters the <= block negated. The rows are sliced apart only when
    the model has both = rows and others; else one block takes every row."""
    c = model.objective_vector()
    if model.sense == "max":
        c = -c
    A, senses, rhs = model.sparse()
    sign = np.where(senses == GEQ, -1.0, 1.0)
    A.data *= np.repeat(sign, np.diff(A.indptr))
    eq = senses == EQ
    if eq.any() and not eq.all():
        blocks = [(A[rows], sign[rows] * rhs[rows]) for rows in map(np.flatnonzero, (~eq, eq))]
    else:
        blocks = [(None, None)] * 2
        if len(rhs):
            blocks[int(eq[0])] = (A, sign * rhs)
    return c, blocks, np.column_stack(model.columns()[:2])


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


# -- HiGHS -----------------------------------------------------------------------

def _binding(core):
    """core._Highs; ImportError when it lacks a method _highs calls."""
    methods = ("passModel", "setOptionValue", "getInfo", "getSolution")
    if not all(hasattr(getattr(core, "_Highs", None), m) for m in methods):
        raise ImportError(f"ddu_ro.backend calls {', '.join(methods)} of scipy.optimize."
                          "_highspy._core._Highs, tested with scipy 1.17 (HiGHS 1.12)")
    return core._Highs


_Highs, _MS, _ERROR = _binding(_core), _core.HighsModelStatus, _core.HighsStatus.kError
# scipy's result codes of HiGHS's model statuses; any other is 4
_CODES = {_MS.kOptimal: 0, _MS.kTimeLimit: 1, _MS.kIterationLimit: 1, _MS.kInfeasible: 2,
          _MS.kModelError: 2, _MS.kUnbounded: 3}
# linprog(method="highs")'s options; log_to_console comes first in every
# option set, so that HiGHS logs nothing about an option it rejects
_LP_OPTIONS = {"log_to_console": False, "output_flag": False, "highs_debug_level": 0,
               "simplex_strategy": 1}
_Result = namedtuple("_Result", "status x fun mip_node_count mip_dual_bound mip_gap",
                     defaults=(None,) * 5)


def _highs(c, A, lhs, rhs, lb, ub, integrality, options) -> tuple[_Result, np.ndarray]:
    """min c'x s.t. lhs <= A x <= rhs, lb <= x <= ub, x_j integer where
    integrality_j is 1, A in CSC, by one fresh HiGHS model, read as scipy's
    _highs_wrapper reads it: the result and the row activities, with x only
    for an Optimal solution or a MIP's incumbent (objective not +inf) at a
    limit."""
    h = _Highs()
    for key, value in options.items():
        if h.setOptionValue(key, value) == _ERROR:
            warnings.warn(f"HiGHS rejected the option {key}={value!r}", OptimizeWarning,
                          stacklevel=3)
    if h.passModel(c.size, rhs.size, A.nnz, 1, 1, 0.0, c, lb, ub, lhs, rhs,
                   A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data,
                   integrality) == _ERROR:
        return _Result(2), None                         # kModelError
    if h.run() == _ERROR:
        return _Result(_CODES.get(h.getModelStatus(), 4)), None
    status, info, mip = h.getModelStatus(), h.getInfo(), bool(integrality.any())
    code = _CODES.get(status, 4)
    if not (status == _MS.kOptimal or mip and info.objective_function_value != np.inf
            and status in (_MS.kTimeLimit, _MS.kIterationLimit, _MS.kSolutionLimit)):
        return _Result(code), None
    solution = h.getSolution()
    counts = (info.mip_node_count, info.mip_dual_bound, info.mip_gap) if mip else ()
    return (_Result(code, np.array(solution.col_value), info.objective_function_value, *counts),
            np.array(solution.row_value))


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, np.inf),
            method="highs", options=None) -> _Result:
    """scipy.optimize.linprog(method="highs") on the arguments solve_lp
    passes, with its input and result checks (module docstring)."""
    c = np.asarray(c, dtype=float)
    b_ub, b_eq = (np.zeros(0) if b is None else np.asarray(b, dtype=float) for b in (b_ub, b_eq))
    blocks = [a for a in (A_ub, A_eq) if a is not None]
    A = csc_array(vstack(blocks) if len(blocks) > 1 else blocks[0] if blocks else (0, c.size))
    if not (c.size and np.isfinite(np.concatenate([c, b_ub, b_eq, A.data])).all()):
        raise ValueError("linprog: c, A_ub, b_ub, A_eq and b_eq must be finite, c not empty")
    lb, ub = np.broadcast_to(np.asarray(bounds, dtype=float), (c.size, 2)).T.copy()
    options = dict(options or {})
    presolve = "on" if options.pop("presolve", True) else "off"
    res, row = _highs(c, A, np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
                      np.concatenate([b_ub, b_eq]), lb, ub, np.zeros(c.size, dtype=np.int32),
                      {**_LP_OPTIONS, "presolve": presolve, **options})
    tol, m = 10 * np.sqrt(1e-9), b_ub.size
    if res.x is not None and (np.isnan(res.fun) or not (
            np.all((res.x >= lb - tol) & (res.x <= ub + tol)) and np.all(b_ub - row[:m] >= -tol)
            and np.all(np.abs(b_eq - row[m:]) <= tol))):
        res = res._replace(status=4)
    return res


def milp(c, *, integrality=None, bounds=Bounds(0, np.inf), constraints=None,
         options=None) -> _Result:
    """scipy.optimize.milp on the arguments solve_mip passes (constraints one
    LinearConstraint or ()), with its check of c."""
    c = np.asarray(c, dtype=float)
    if not (c.size and np.isfinite(c).all()):
        raise ValueError("milp: c must be finite, not empty")
    A, lhs, rhs = ((constraints.A, constraints.lb, constraints.ub) if constraints
                   else ((0, c.size), (), ()))
    lb, ub = (np.broadcast_to(b, c.shape).astype(float) for b in (bounds.lb, bounds.ub))
    integrality = np.broadcast_to(0 if integrality is None else integrality, c.shape)
    return _highs(c, csc_array(A), np.array(lhs, dtype=float), np.array(rhs, dtype=float),
                  lb, ub, integrality.astype(np.int32),
                  {"log_to_console": False, **(options or {})})[0]


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


# -- block LPs over copies -----------------------------------------------------

# the most matrix entries of one LP over copies (the model is built in
# Python, so this bounds its memory): solve_copies' runs count nonzeros of
# A. worst_case_values and lattice_first_stages form runs of their own, of
# B2's entries over (x, vertex) pairs (and the vertex entries its memo of
# U(x) keeps) and of X.A's over grid copies, for solve_run, and
# ccg._lattice_relaxation refuses the copies past it (the MIP was faster)
_BLOCK_ENTRIES = 1e5


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


def copies_lp(name: str, A, senses, rhs: np.ndarray, lb, ub, cost) -> LinearModel:
    """The LP of the K = len(rhs) copies min{cost_k'v : A v (senses) rhs_k,
    lb_k <= v <= ub_k} that minimizes the sum of their costs: the rows are
    I_K (x) A, the columns copy-major. senses is one sense or one per row of
    A; lb, ub and cost are each one vector for every copy or a (K, n) array
    of one row per copy. Only the nonzero costs enter the objective."""
    (K, m), n = np.shape(rhs), A.shape[1]
    lb, ub, cost = (np.broadcast_to(a, (K, n)).ravel() for a in (lb, ub, cost))
    lp = LinearModel(name=name)
    ids = lp.add_vars(K * n, lb, ub)
    # I_K (x) A in canonical CSR, which add_rows reads as it is; a third of
    # the time of scipy's kron at pm_uk8's sizes
    A = csr_array(A, copy=True)
    A.sum_duplicates()
    shift = np.arange(K)[:, None]
    rows = csr_array((np.tile(A.data, K), (A.indices + n * shift).ravel(),
                      np.r_[0, (A.indptr[1:] + A.nnz * shift).ravel()]), shape=(K * m, K * n))
    lp.add_rows([(ids, rows)], senses if np.ndim(senses) == 0 else np.tile(senses, K),
                np.ravel(rhs))
    nz = np.flatnonzero(cost)
    lp.set_objective(dict(zip(nz.tolist(), cost[nz].tolist())))
    return lp


def solve_copies(name: str, A, senses, rhs: np.ndarray, lb, ub, cost
                 ) -> tuple[np.ndarray, np.ndarray]:
    """solve_run's (status, x) of the copies, in runs of at most _BLOCK_ENTRIES nonzeros of A."""
    cap = max(1, int(_BLOCK_ENTRIES // max(1, A.nnz if issparse(A) else np.count_nonzero(A))))
    return _joined(name, A, senses, rhs, lb, ub, cost,
                   [slice(lo, lo + cap) for lo in range(0, max(1, len(rhs)), cap)])


def solve_run(name: str, A, senses, rhs: np.ndarray, lb, ub, cost
              ) -> tuple[np.ndarray, np.ndarray]:
    """Each copy's status and x, a (K, n) array with nan rows where a copy is
    not Optimal, from one solve_lp of copies_lp's LP; where that is not
    Optimal, from each half of the copies in turn, down to single copies, so
    one failing copy of K costs about 2 log2 K LPs. Copies that share one
    feasible set (one lb, one ub, equal rhs rows) differ only in cost, so an
    Infeasible LP of them is every copy's status at once. No copies, no LP.
    For callers that form runs of their own (_BLOCK_ENTRIES)."""
    K, n = len(rhs), A.shape[1]
    if not K:
        return np.zeros(0, dtype=str), np.zeros((0, n))
    out = solve_lp(copies_lp(name, A, senses, rhs, lb, ub, cost))
    if out.is_optimal:
        return np.full(K, OPTIMAL), out.x.reshape(K, n)
    if K == 1 or (out.status == INFEASIBLE and np.ndim(lb) < 2 and np.ndim(ub) < 2
                  and (rhs == rhs[0]).all()):
        return np.full(K, out.status), np.full((K, n), np.nan)
    return _joined(name, A, senses, rhs, lb, ub, cost, [slice(K // 2), slice(K // 2, K)])


def _joined(name, A, senses, rhs, lb, ub, cost, parts: list[slice]):
    """solve_run over each slice of the copies, joined in order."""
    return tuple(map(np.concatenate, zip(*(
        solve_run(name, A, senses, rhs[part],
                  *(a[part] if np.ndim(a) == 2 else a for a in (lb, ub, cost)))
        for part in parts))))


def copy_values(what: str, status: np.ndarray, x: np.ndarray, cost) -> np.ndarray:
    """The value of each copy from solve_copies' status and x: x_k'cost_k
    where Optimal, with cost one vector for every copy or a (K, n) array of
    one row per copy as solve_copies takes it, +inf where Infeasible and
    -inf where Unbounded; BackendError "<what> ended <status>" where a copy
    ends otherwise."""
    failed = status[~np.isin(status, [OPTIMAL, INFEASIBLE, UNBOUNDED])]
    if failed.size:
        raise BackendError(f"{what} ended {failed[0]}")
    values = x @ cost if np.ndim(cost) < 2 else np.einsum("kn,kn->k", x, cost)
    return np.select([status == OPTIMAL, status == INFEASIBLE], [values, np.inf], -np.inf)


# HiGHS options of every MIP, under mip_rel_gap and time_limit (module docstring)
_MIP_OPTIONS = {"mip_heuristic_run_rins": False, "mip_heuristic_run_feasibility_jump": False}

_LIBC = ctypes.CDLL(None)
_LIBC.fflush.argtypes, _LIBC.fflush.restype = [ctypes.c_void_p], ctypes.c_int


@contextmanager
def _stdout_to_stderr() -> Iterator[None]:
    """Point file descriptor 1 at standard error inside the block. Python's
    and C's stdio buffers are flushed at each switch, so what was written
    before goes to stdout and what was written inside to stderr. File
    descriptors are per process: two threads must not be inside at once."""
    sys.stdout.flush()
    _LIBC.fflush(None)
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        _LIBC.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def solve_mip(model: LinearModel, mip_rel_gap: float | None = None) -> SolveOutcome:
    """Solve with integrality, to HiGHS's relative gap mip_rel_gap when given
    (its default is 1e-4); a model without integer columns goes to
    solve_lp. A MIP that ends code 4 without x, as HiGHS reports an
    unbounded or infeasible one, is settled by _unbounded_or_infeasible."""
    if not model.has_integers:
        return solve_lp(model)
    c = model.objective_vector()
    sign = 1.0
    if model.sense == "max":
        c = -c
        sign = -1.0
    A, senses, rhs = model.sparse()
    lo = np.where(senses == LEQ, -np.inf, rhs)
    hi = np.where(senses == GEQ, np.inf, rhs)
    lb, ub, integer = model.columns()
    gap = {} if mip_rel_gap is None else {"mip_rel_gap": mip_rel_gap}
    options = _with_time_left(model, {**_MIP_OPTIONS, **gap})
    constraints = LinearConstraint(A, lo, hi) if model.n_constrs else ()
    with _stdout_to_stderr():
        res = milp(c, constraints=constraints, integrality=integer.astype(np.int64),
                   bounds=Bounds(lb, ub), options=options)
    status = _status(model, res.status)
    if res.x is None:
        if res.status == 4:
            return SolveOutcome(status=_unbounded_or_infeasible(model))
        return SolveOutcome(status=status if status != OPTIMAL else NUMERICAL)
    x = np.asarray(res.x, dtype=float)
    bound = None
    if res.mip_dual_bound is not None:
        bound = sign * float(res.mip_dual_bound)
    return SolveOutcome(status=status, objective=model.objective_value(x),
                        x=x, bound=bound)


def _unbounded_or_infeasible(model: LinearModel) -> str:
    """The status of a MIP that HiGHS left undecided: Infeasible where its
    LP relaxation is; where that is Unbounded, Unbounded if the MIP with a
    zero objective, put back afterwards, has a feasible point (Meyer, Math.
    Prog. 1974, for rational data) and Infeasible if not; else Numerical."""
    relaxation = solve_lp(model).status
    if relaxation != UNBOUNDED:
        return INFEASIBLE if relaxation == INFEASIBLE else NUMERICAL
    obj, sense = model.obj, model.sense
    model.set_objective({})
    try:
        feasible = solve_mip(model).status
    finally:
        model.obj, model.sense = obj, sense
    return {OPTIMAL: UNBOUNDED, INFEASIBLE: INFEASIBLE}.get(feasible, NUMERICAL)


# -- big-M complementarity ---------------------------------------------------

def linearize_complementarity(model: LinearModel, a_ids: list[int],
                              a_const: np.ndarray,
                              b_blocks: list[tuple[list[int], np.ndarray]],
                              b_const: np.ndarray, M_a: float, M_b: float) -> list[int]:
    """For each pair k of nonnegative scalars a_k = v[a_ids[k]] + a_const[k]
    and b_k = row k of the blocks + b_const[k], add a binary switch delta_k
    and the rows a_k <= M_a delta_k, b_k <= M_b (1 - delta_k), in that
    order, whose feasible set projects onto {a_k b_k = 0}. A primal and a
    dual member scale differently, so each side has its own bound; one too
    small cuts off the optimum unseen (Kleinert, Labbe, Plein and Schmidt,
    Oper. Res. 2020). Returns the ids of the added binaries."""
    if min(M_a, M_b) <= 0:
        raise BackendError(f"big-M must be positive, got {M_a} and {M_b}")
    n = len(a_ids)
    deltas = model.add_vars(n, 0.0, 1.0, integer=True)

    def interleave(top, bottom):
        # row 2k from top[k], row 2k+1 from bottom[k]
        return np.stack([top, bottom], axis=1).reshape(2 * n, *np.shape(top)[1:])

    eye = np.eye(n)
    blocks = [(a_ids, interleave(eye, np.zeros((n, n))))]
    blocks += [(ids, interleave(np.zeros(np.shape(B)), B)) for ids, B in b_blocks]
    blocks.append((deltas, interleave(-M_a * eye, M_b * eye)))
    rhs = interleave(-np.asarray(a_const, dtype=float), M_b - np.asarray(b_const, dtype=float))
    model.add_rows(blocks, LEQ, rhs)
    return deltas
