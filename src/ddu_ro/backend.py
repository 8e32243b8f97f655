"""Thin LP/MILP layer: append-only models (LinearModel) that grow by blocks
of columns (add_vars) and of rows (add_rows) and keep both in numpy arrays
(vars and constrs are read-only views of them), HiGHS solves (solve_lp and
solve_mip), K copies of an LP in runs of LPs over copies with the value
of each copy (solve_copies) and big-M complementarity linearization.

One sparse form: the CSR tuple (indptr, indices, data) of numpy arrays that
LinearModel.rows reads, and add_rows, copies_lp and solve_copies take.

How a model reaches HiGHS. highs_arrays reads a model's row chunks into
passModel's arrays (HighsArrays) in one layout for every LP and MIP: the
model's rows in order as lhs <= A x <= rhs, A the chunks' own CSR, so
HiGHS's row i is the model's row i with the model's sign; c, column bounds,
and integrality for a MIP. solve_lp hands them to linprog, solve_mip to
milp, both this module's: _highs solves them on one fresh _Highs of scipy's
bundled binding (setOptionValue, passModel's rowwise arrays, run,
getSolution; no basis, no duals) with the options scipy's function of that
name would add, and maps HiGHS's model status once, by one table
(_STATUS_OF): Optimal, Infeasible and Unbounded as they are, a time or
iteration limit TimeLimit, any other status and a model HiGHS refuses (such
as a coefficient of 1e15) Numerical. From _highs up every solve returns a
SolveOutcome, in the arrays' min sense until solve_lp and solve_mip restate
it in the model's; x, the objective, the row activity A x, a MIP's dual
bound and its node count come only with Optimal. linprog and milp keep
scipy's names because every solve meets HiGHS there: tests replace them,
and perfbench/tracing.py times them and reads milp's mip_node_count.
scipy's checks stay: c, A and the row bounds a row's sense sets (rhs of <=,
lhs of >=, both of =) must be finite, else ValueError; an Optimal LP whose
x misses a bound or a row by more than 10 sqrt(1e-9) is Numerical; a
rejected option warns.
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
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import OptimizeWarning
from scipy.optimize._highspy import _core

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
    doubling; rows are CSR chunks (_ROW_DTYPES), one per add_rows call and
    read back by rows(). vars and constrs are read-only views built on each
    access, kept for the tests and for perfbench/tracing.py.
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
        rhs, from the blocks (ids_k, A_k), A_k of shape (len(rhs), len(ids_k))
        dense or a CSR tuple (indptr, indices, data) that counts as its dense
        form, repeats summed in stored order; sense is LEQ, GEQ or EQ, or one
        of them per row. Within a row, entries follow the blocks and, within
        a block, the columns. A column that repeats, within a block or across
        blocks, gets the sum of its entries in that order, at the place it
        first appears; exact zeros are dropped after summing. Only several
        blocks or a CSR block are sorted (a dense block holds its entries in
        that order), and only repeated ids are merged."""
        rhs = np.array(rhs, dtype=float, ndmin=1)
        m = rhs.size
        senses = np.asarray(sense)
        if senses.shape not in ((), (m,)) or not {*senses.ravel().tolist()} <= {LEQ, GEQ, EQ}:
            raise BackendError(f"bad sense {sense!r} for {m} rows")
        entries, ids_all, offset, ordered = [], [], 0, len(blocks) == 1
        for ids, A in blocks:
            if isinstance(A, tuple):
                row = np.repeat(np.arange(len(A[0]) - 1), np.diff(A[0]))
                row, pos, val = _sum_repeats(row, np.asarray(A[1]), np.asarray(A[2], float))
                shape = (len(A[0]) - 1, max(len(ids), int(pos.max(initial=-1)) + 1))
                ordered = False
            else:
                A = np.atleast_2d(np.asarray(A, dtype=float))
                shape, (row, pos) = A.shape, np.nonzero(A)
                val = A[row, pos]
            if shape != (m, len(ids)):
                raise BackendError(f"block shape {shape} vs {m} rhs / {len(ids)} ids")
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
        return self._append_rows(np.bincount(row, minlength=m), col, val, senses, rhs)

    def _append_rows(self, counts, cols, vals, senses, rhs: np.ndarray) -> list[int]:
        """Append one row chunk (_ROW_DTYPES) as it is: counts nonzeros per
        row, their column ids and values row by row, no zeros and no column
        twice in a row; senses one or one per row."""
        m = rhs.size
        self._chunks.append((counts, cols, vals, np.full(m, senses, dtype=_ROW_DTYPES[3]), rhs))
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

    def rows(self, first: int = 0, cols=None) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The rows from first on, read from the chunks that hold them, as
        (A, senses, rhs) with A the CSR tuple (indptr, indices, data): every
        entry as stored, indices the column ids; or with cols, ids without
        repeats, the entries in those columns, indices their places in cols,
        ascending in each row (the canonical order of scipy's A[:, cols])."""
        k, start = len(self._chunks), self._m
        while start > first:
            k -= 1
            start -= self._chunks[k][0].size
        counts, ids, vals, senses, rhs = map(
            np.concatenate, zip(self._chunks[0], *self._chunks[k:]))
        counts, senses, rhs = (a[first - start:] for a in (counts, senses, rhs))
        ids, vals = (a[a.size - counts.sum():] for a in (ids, vals))
        if cols is not None:
            place = np.full(self._n, -1)
            place[cols] = np.arange(len(cols))
            row, pos = np.repeat(np.arange(rhs.size), counts), place[ids]
            keep = np.flatnonzero(pos >= 0)
            keep = keep[np.argsort(row[keep] * len(cols) + pos[keep])]
            counts, ids, vals = np.bincount(row[keep], minlength=rhs.size), pos[keep], vals[keep]
        return (np.r_[0, np.cumsum(counts)], ids, vals), senses, rhs

    @property
    def vars(self) -> list[_Var]:
        return list(map(_Var, *(a.tolist() for a in self.columns())))

    @property
    def constrs(self) -> list[_Constr]:
        (ends, cols, vals), senses, rhs = self.rows()
        cols, vals, ends = cols.tolist(), vals.tolist(), ends.tolist()
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
    mip_node_count: int | None = None     # HiGHS's branch-and-bound nodes of a MIP
    row_activity: np.ndarray | None = None    # A x, HiGHS's row values

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


# min c'x s.t. lhs <= A x <= rhs, lb <= x <= ub, x_j integer where
# integrality_j is 1, A in CSR (indptr, indices, data) with int32 indices,
# row i the model's row i: passModel's rowwise arrays (module docstring)
HighsArrays = namedtuple("HighsArrays", "c indptr indices data lhs rhs lb ub integrality")


def highs_arrays(model: LinearModel, mip: bool = False) -> HighsArrays:
    """The model's HiGHS arrays from its row chunks, in model order and as
    the chunks hold them: a <= row has lhs -inf, a >= row rhs +inf, an =
    row both at its rhs; c negated for a max; no integer column unless
    mip."""
    c = model.objective_vector()
    if model.sense == "max":
        c = -c
    (indptr, cols, vals), senses, rhs = model.rows()
    lb, ub, integer = model.columns()
    return HighsArrays(c, indptr.astype(np.int32), cols.astype(np.int32), vals,
                       np.where(senses == LEQ, -np.inf, rhs), np.where(senses == GEQ, np.inf, rhs),
                       lb, ub, (integer & mip).astype(np.int32))


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
# HiGHS's model statuses as this module's; any other is Numerical
_STATUS_OF = {_MS.kOptimal: OPTIMAL, _MS.kInfeasible: INFEASIBLE, _MS.kUnbounded: UNBOUNDED,
              _MS.kTimeLimit: TIME_LIMIT, _MS.kIterationLimit: TIME_LIMIT}
# linprog(method="highs")'s options; log_to_console comes first in every
# option set, so that HiGHS logs nothing about an option it rejects
_LP_OPTIONS = {"log_to_console": False, "output_flag": False, "highs_debug_level": 0,
               "simplex_strategy": 1, "presolve": "on"}


def _highs(a: HighsArrays, options: dict) -> SolveOutcome:
    """Solve a by one fresh HiGHS model: the outcome in a's min sense, with
    x, the objective, the row activity and a MIP's dual bound and node count
    only where it is Optimal; a model HiGHS refuses is Numerical, and so is
    an optimum of a run that errs."""
    h = _Highs()
    for key, value in options.items():
        if h.setOptionValue(key, value) == _ERROR:
            warnings.warn(f"HiGHS rejected the option {key}={value!r}", OptimizeWarning,
                          stacklevel=3)
    # a_format 2: A rowwise; sense 1: minimize
    if h.passModel(a.c.size, a.rhs.size, a.data.size, 2, 1, 0.0, a.c, a.lb, a.ub, a.lhs, a.rhs,
                   a.indptr, a.indices, a.data, a.integrality) == _ERROR:
        return SolveOutcome(NUMERICAL)
    erred = h.run() == _ERROR
    status = _STATUS_OF.get(h.getModelStatus(), NUMERICAL)
    if status != OPTIMAL or erred:
        return SolveOutcome(NUMERICAL if status == OPTIMAL else status)
    info, solution = h.getInfo(), h.getSolution()
    mip = (info.mip_dual_bound, info.mip_node_count) if a.integrality.any() else (None, None)
    return SolveOutcome(OPTIMAL, info.objective_function_value, np.array(solution.col_value),
                        *mip, np.array(solution.row_value))


def linprog(lp: HighsArrays, options=None) -> SolveOutcome:
    """scipy.optimize.linprog(method="highs") on an LP of highs_arrays, with
    its input and result checks restated on lhs <= A x <= rhs (module
    docstring); options are added to _LP_OPTIONS."""
    # the row bounds the senses set: rhs of <= (lhs -inf), lhs of >= (rhs
    # +inf), both of =; a NaN is read wherever it is
    rows = np.where(lp.lhs == -np.inf, lp.rhs, lp.lhs), np.where(lp.rhs == np.inf, lp.lhs, lp.rhs)
    if not (lp.c.size and np.isfinite(np.concatenate([lp.c, lp.data, *rows])).all()):
        raise ValueError("linprog: c, A and the row bounds must be finite, c not empty")
    out = _highs(lp, {**_LP_OPTIONS, **(options or {})})
    if not out.is_optimal:
        return out
    x, row, tol = out.x, out.row_activity, 10 * np.sqrt(1e-9)
    if np.isnan(out.objective) or not (
            np.all((x >= lp.lb - tol) & (x <= lp.ub + tol))
            and np.all(lp.rhs - row >= -tol) and np.all(row - lp.lhs >= -tol)):
        return SolveOutcome(NUMERICAL)
    return out


def milp(mip: HighsArrays, options=None) -> SolveOutcome:
    """scipy.optimize.milp on a MIP of highs_arrays, with its check of c."""
    if not (mip.c.size and np.isfinite(mip.c).all()):
        raise ValueError("milp: c must be finite, not empty")
    return _highs(mip, {"log_to_console": False, **(options or {})})


def _restated(model: LinearModel, out: SolveOutcome) -> SolveOutcome:
    """out, an outcome of the model's HiGHS arrays, in the model's sense:
    the objective from the model, the bound negated for a max; a stop on a
    limit raises SolveTimeLimit instead."""
    if out.status == TIME_LIMIT:
        raise SolveTimeLimit(f"{model.name}: HiGHS stopped on its time limit")
    if not out.is_optimal:
        return out
    bound = out.bound if out.bound is None or model.sense == "min" else -out.bound
    return replace(out, objective=model.objective_value(out.x), bound=bound)


def solve_lp(model: LinearModel) -> SolveOutcome:
    """Solve ignoring integrality."""
    return _restated(model, linprog(highs_arrays(model), options=_with_time_left(model, {})))


# -- block LPs over copies -----------------------------------------------------

# the most nonzeros of A in one LP over copies: HiGHS's working set for the
# largest of them sets the process's peak RSS. solve_copies cuts its copies
# into runs of at most this many; worst_case_values and lattice_first_stages
# form their runs of x by it, counted in the nonzeros of B2 and of X.A. On
# pm_uk8 s0 parametric the first lattice master, 56 copies of 20384
# nonzeros, lifted peak RSS by 2.9 MB inside _highs; at 1e4 the 16- to
# 24-site p-median runs peaked 12-31 % lower, their seconds within the
# spread of runs (ROADMAP, Baseline)
_COPIES_NONZEROS = 1e4


def _runs(items, cap: float, size=lambda item: 1):
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
    I_K (x) A, the columns copy-major. A is dense or CSR as LinearModel.rows
    gives it with cols (ascending in a row, no repeat, no zero); senses is
    one sense or one per row of A; lb, ub and cost are each one vector for
    every copy or a (K, n) array of one row per copy, n the columns of
    cost. Only the nonzero costs enter the objective."""
    (K, m), n = np.shape(rhs), np.shape(cost)[-1]
    lb, ub, cost = (np.broadcast_to(a, (K, n)).ravel() for a in (lb, ub, cost))
    lp = LinearModel(name=name)
    lp.add_vars(K * n, lb, ub)
    # I_K (x) A as one row chunk: A's entries row by row, columns ascending,
    # exact zeros dropped, as add_rows would hold them
    if isinstance(A, tuple):
        counts, cols, vals = np.diff(A[0]), A[1], A[2]
    else:
        rows, cols = np.nonzero(A)
        counts, vals = np.bincount(rows, minlength=m), np.asarray(A, dtype=float)[rows, cols]
    lp._append_rows(np.tile(counts.astype(np.int64), K),
                    (cols + n * np.arange(K)[:, None]).ravel(), np.tile(vals, K),
                    np.tile(np.broadcast_to(senses, (m,)), K), np.array(rhs, dtype=float).ravel())
    nz = np.flatnonzero(cost)
    lp.set_objective(dict(zip(nz.tolist(), cost[nz].tolist())))
    return lp


def solve_copies(name: str, A, senses, rhs: np.ndarray, lb, ub, cost
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each copy's status, value and x: the value cost_k'x_k where the copy
    is Optimal, +inf where Infeasible, -inf where Unbounded and nan
    otherwise, priced once over every copy's x, a (K, n) array with nan
    rows where a copy is not Optimal. The copies come in runs of at most
    _COPIES_NONZEROS nonzeros of A, which bounds HiGHS's working set (a
    copy past it runs alone); a run is one solve_lp of copies_lp's LP, and
    where that is not Optimal, each half of the run in turn, down to single
    copies, so one failing copy of K costs about 2 log2 K LPs. Copies that
    share one feasible set (one lb, one ub, equal rhs rows) differ only in
    cost, so an Infeasible LP of them is every copy's status at once. No
    copies, no LP."""
    K, n = len(rhs), np.shape(cost)[-1]
    # written as each run ends, not while HiGHS holds its working set;
    # "Infeasible" is the longest status
    status, x = np.empty(K, dtype="<U10"), np.empty((K, n))
    shared = np.ndim(lb) < 2 and np.ndim(ub) < 2

    def solve(lo: int, hi: int) -> None:
        out = solve_lp(copies_lp(name, A, senses, rhs[lo:hi], *(
            a[lo:hi] if np.ndim(a) == 2 else a for a in (lb, ub, cost))))
        if out.is_optimal:
            status[lo:hi], x[lo:hi] = OPTIMAL, out.x.reshape(hi - lo, n)
        elif hi - lo == 1 or (out.status == INFEASIBLE and shared
                              and (rhs[lo:hi] == rhs[lo]).all()):
            status[lo:hi], x[lo:hi] = out.status, np.nan
        else:
            solve(lo, (lo + hi) // 2)
            solve((lo + hi) // 2, hi)

    cap = max(1, int(_COPIES_NONZEROS // max(1, A[2].size if isinstance(A, tuple)
                                             else np.count_nonzero(A))))
    for lo in range(0, K, cap):
        solve(lo, min(lo + cap, K))
    value = x @ cost if np.ndim(cost) < 2 else np.einsum("kn,kn->k", x, cost)
    return status, np.select([status == OPTIMAL, status == INFEASIBLE, status == UNBOUNDED],
                             [value, np.inf, -np.inf], np.nan), x


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
    solve_lp. A MIP that ends Numerical, as HiGHS's status "unbounded or
    infeasible" reads, is settled by _unbounded_or_infeasible; one HiGHS
    refuses ends Numerical there, its relaxation refused too."""
    if not model.has_integers:
        return solve_lp(model)
    mip = highs_arrays(model, mip=True)
    gap = {} if mip_rel_gap is None else {"mip_rel_gap": mip_rel_gap}
    options = _with_time_left(model, {**_MIP_OPTIONS, **gap})
    with _stdout_to_stderr():
        out = _restated(model, milp(mip, options=options))
    return SolveOutcome(_unbounded_or_infeasible(model)) if out.status == NUMERICAL else out


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
