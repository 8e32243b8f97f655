import copy
import gc
import os
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, milp
from scipy.sparse import coo_array, csr_array

from ddu_ro import backend
from ddu_ro.backend import (GEQ, LEQ, EQ, INFEASIBLE, NUMERICAL, OPTIMAL, TIME_LIMIT, UNBOUNDED,
                            BackendError, LinearModel, SolveOutcome, SolveTimeLimit)
from toys import sparse


def small_min_lp():
    # min 2x + 3y  s.t. x + y >= 1
    m = LinearModel(name="min_lp")
    x, y = m.add_vars(2)
    m.add_rows([([x, y], [[1.0, 1.0]])], GEQ, [1.0])
    m.set_objective({x: 2.0, y: 3.0}, sense="min")
    return m, x, y


def test_sparse_from_a_row_reads_the_rows_from_there():
    m = LinearModel()
    m.add_vars(3)
    m.add_rows([([0, 1], [[1.0, 2.0], [0.0, 3.0]])], GEQ, [1.0, 2.0])
    m.add_rows([([2], [[4.0]])], LEQ, [3.0])
    m.add_rows([([0, 2], np.zeros((0, 2)))], EQ, np.zeros(0))
    m.add_rows([([1, 2], [[5.0, 6.0], [7.0, 0.0]])], [EQ, LEQ], [4.0, 5.0])
    A, senses, rhs = sparse(m)
    for first in range(m.n_constrs + 2):
        A_f, senses_f, rhs_f = sparse(m, first)
        assert A_f.shape == (max(0, m.n_constrs - first), 3)
        assert np.array_equal(A_f.toarray(), A.toarray()[first:])
        assert senses_f.tolist() == senses[first:].tolist()
        assert np.array_equal(rhs_f, rhs[first:])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_rows_are_scipys_slice_of_the_chunks(seed):
    # several chunks, ids out of order within a block, first anywhere (inside
    # a chunk and past the last row); cols a permuted subset, none, every
    # column, or None for the entries as stored
    rng = np.random.default_rng(seed)
    m = LinearModel()
    n = int(rng.integers(1, 7))
    m.add_vars(n)
    for _ in range(rng.integers(1, 5)):
        rows = int(rng.integers(0, 4))
        ids = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
        B = rng.choice([1.0, -2.0, 0.5], size=(rows, len(ids))) * (rng.random((rows, len(ids)))
                                                                   < 0.6)
        m.add_rows([(ids, B)], rng.choice([LEQ, GEQ, EQ], size=rows), rng.normal(size=rows))
    # the reference: scipy's CSR of the chunks as stored
    counts, ids, vals, senses, rhs = map(np.concatenate, zip(*m._chunks))
    stored = csr_array((vals, ids, np.r_[0, np.cumsum(counts)]), shape=(rhs.size, n))
    first = int(rng.integers(0, m.n_constrs + 2))
    for cols in (None, rng.permutation(n)[:rng.integers(1, n + 1)], [], np.arange(n)):
        if cols is None:
            want = stored[first:]
        else:
            want = stored[first:, np.asarray(cols, dtype=int)]
            want.sort_indices()
        (indptr, indices, data), senses_f, rhs_f = m.rows(first, cols)
        assert indptr.tolist() == want.indptr.tolist()
        assert indices.tolist() == want.indices.tolist() and data.tobytes() == want.data.tobytes()
        assert senses_f.tolist() == senses[first:].tolist()
        assert rhs_f.tobytes() == rhs[first:].tobytes()


def test_ids_are_append_only():
    m = LinearModel()
    assert m.add_vars(2) + m.add_vars(3) == [0, 1, 2, 3, 4]
    rows = m.add_rows([([0], [[1.0]])], GEQ, [0.0])
    rows += m.add_rows([([0], np.ones((2, 1)))], GEQ, np.zeros(2))
    assert rows == [0, 1, 2]
    assert m.n_vars == 5 and m.n_constrs == 3


def test_add_rows_takes_one_sense_per_row():
    m = LinearModel()
    x = m.add_vars(2)
    senses = [LEQ, GEQ, EQ]
    rows = m.add_rows([(x, np.arange(6.0).reshape(3, 2))], senses, np.ones(3))
    rows += m.add_rows([(x, [[1.0, 1.0]])], [EQ], [2.0])
    assert [m.constrs[r].sense for r in rows] == senses + [EQ]
    assert m.rows()[1].tolist() == senses + [EQ]
    for bad in ("=<", [LEQ, "<"], [LEQ, GEQ], np.array([LEQ, GEQ, EQ, EQ])):
        with pytest.raises(BackendError, match="bad sense"):
            m.add_rows([(x, np.ones((3, 2)))], bad, np.zeros(3))
    assert m.n_constrs == 4


def test_add_block_rows_match_the_entrywise_dicts():
    # reference: the per-entry dict accumulation, same entries in the same
    # order, exact zeros dropped after summing
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, size=(6, 5)) * (rng.random((6, 5)) < 0.5)
    A[2] = 0.0
    A[3, 1] = -0.0
    B = rng.uniform(-1, 1, size=(6, 3)) * (rng.random((6, 3)) < 0.7)
    A[4, 0], B[4, 1] = 0.5, -0.5                # cancel in row 4
    m = LinearModel()
    m.add_vars(3)
    var_ids = m.add_vars(5)[::-1]
    b_ids = [1, var_ids[0], 0]                  # var_ids[0] sits in both blocks
    rows = m.add_rows([(var_ids, A)], LEQ, np.arange(6.0))
    for i, r in enumerate(rows):
        ref = {var_ids[j]: float(A[i, j]) for j in range(5) if A[i, j] != 0.0}
        assert list(m.constrs[r].coeffs.items()) == list(ref.items())
    rows = m.add_rows([(var_ids, A), (b_ids, B)], GEQ, np.ones(6))
    for i, r in enumerate(rows):
        ref: dict[int, float] = {}
        for ids, M in ((var_ids, A), (b_ids, B)):
            for j, v in zip(ids, M[i]):
                if v != 0.0:
                    ref[j] = ref.get(j, 0.0) + float(v)
        ref = {j: v for j, v in ref.items() if v != 0.0}
        assert list(m.constrs[r].coeffs.items()) == list(ref.items())
        assert (m.constrs[r].sense, m.constrs[r].rhs) == (GEQ, 1.0)
    assert var_ids[0] not in m.constrs[rows[4]].coeffs
    with pytest.raises(BackendError, match="block shape"):
        m.add_rows([(var_ids, A[:, :4])], LEQ, np.zeros(6))


# -- array storage against the row-dict LinearModel it replaced ----------------
# _RowDictModel is the earlier LinearModel, whose rows were dicts, kept as the
# reference: every sequence of calls must give HiGHS the same arrays.

@dataclass
class _RefVar:
    lb: float
    ub: float
    integer: bool
    name: str


@dataclass
class _RefConstr:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str


class _RowDictModel:
    """Append-only LP/MILP model whose rows are dicts (the reference).

    Variable and constraint ids are their insertion indices and never change
    as the model grows, which is what the column-and-constraint pattern needs:
    cutting sets appended in later iterations can keep referencing first-stage
    variable ids from iteration zero.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[_RefVar] = []
        self.constrs: list[_RefConstr] = []
        self.obj: dict[int, float] = {}
        self.sense = "min"

    # -- construction ------------------------------------------------------

    def add_var(self, lb: float = 0.0, ub: float = np.inf, integer: bool = False,
                name: str = "") -> int:
        if lb > ub:
            raise BackendError(f"variable {name!r}: lb {lb} > ub {ub}")
        self.vars.append(_RefVar(float(lb), float(ub), bool(integer), name))
        return len(self.vars) - 1

    def add_vars(self, n: int, lb: float = 0.0, ub: float = np.inf,
                 integer: bool = False, prefix: str = "v") -> list[int]:
        return [self.add_var(lb, ub, integer, f"{prefix}{i}") for i in range(n)]

    def add_rows(self, blocks: list[tuple[list[int], np.ndarray]], sense,
                 rhs: np.ndarray, name: str = "") -> list[int]:
        """Append the rows sum_k A_k @ v[ids_k] (sense) rhs, one per entry of
        rhs, from the blocks (ids_k, A_k) with A_k of shape (len(rhs),
        len(ids_k)); sense is one for every row or a list with one per row.
        A column that repeats, within a block or across blocks, gets the sum
        of its entries in the order given, at the place it first appears;
        exact zeros are dropped after summing."""
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        m = rhs.size
        senses = [sense] * m if isinstance(sense, str) else list(sense)
        if len(senses) != m or any(s not in (LEQ, GEQ, EQ) for s in senses):
            raise BackendError(f"bad sense {sense!r}")
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
            self.constrs.append(_RefConstr(dict(zip(col[start:end], val[start:end])),
                                           senses[i], float(rhs[i]),
                                           f"{name}[{i}]" if name else ""))
            start = end
        return list(range(n0, self.n_constrs))

    def set_objective(self, coeffs: dict[int, float], sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise BackendError(f"bad objective sense {sense!r}")
        self.obj = {j: float(v) for j, v in coeffs.items() if v != 0.0}
        self.sense = sense

    def set_bounds(self, j: int, lb: float, ub: float) -> None:
        self.vars[j].lb, self.vars[j].ub = float(lb), float(ub)

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


def _same_model(m: LinearModel, ref: _RowDictModel) -> None:
    A, senses, rhs = sparse(m)
    A_ref, senses_ref, rhs_ref = ref.sparse()
    for a, b in ((A.data, A_ref.data), (A.indices, A_ref.indices),
                 (A.indptr, A_ref.indptr), (rhs, rhs_ref)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert A.shape == A_ref.shape and senses.tolist() == senses_ref
    lb, ub, integer = m.columns()
    assert np.array_equal(lb, [v.lb for v in ref.vars])
    assert np.array_equal(ub, [v.ub for v in ref.vars])
    assert integer.tolist() == [v.integer for v in ref.vars]
    assert [(c.coeffs, c.sense, c.rhs) for c in m.constrs] == \
        [(c.coeffs, c.sense, c.rhs) for c in ref.constrs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_call_sequences_match_the_row_dict_model(seed):
    # values that cancel (0.5 - 0.5) or round when summed (0.1 + 0.2), exact
    # zeros in dense and sparse blocks, ids repeated within and across blocks
    rng = np.random.default_rng(seed)
    values = np.array([0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 0.2, 0.3, -2.5])
    m, ref = LinearModel(), _RowDictModel()
    assert m.add_vars(4) == ref.add_vars(4)
    for _ in range(rng.integers(1, 12)):
        op = rng.integers(3)
        n = m.n_vars
        if op == 0:
            k = int(rng.integers(0, 4))
            lb = rng.choice([-1.0, 0.0, -np.inf], size=k)
            ub = rng.choice([1.0, 3.0, np.inf], size=k)
            integer = rng.integers(2, size=k).astype(bool)
            ids = m.add_vars(k, lb, ub, integer)
            assert ids == [ref.add_var(*a) for a in zip(lb, ub, integer)]
        elif op == 1:
            rows = int(rng.integers(1, 5))
            blocks, dense = [], []
            for _ in range(rng.integers(1, 4)):
                ids = rng.integers(n, size=rng.integers(0, 5)).tolist()
                if rng.integers(2):
                    B = rng.choice(values, size=(rows, len(ids)))
                    dense.append((ids, B))
                else:
                    # CSR with places repeated in a row, in no order
                    nnz = int(rng.integers(0, 8)) if ids else 0
                    r = np.sort(rng.integers(rows, size=nnz))
                    c, v = rng.integers(max(1, len(ids)), size=nnz), rng.choice(values, size=nnz)
                    B = (np.r_[0, np.cumsum(np.bincount(r, minlength=rows))], c, v)
                    # the dense form sums a place's repeats in their stored order
                    D = np.zeros((rows, len(ids)))
                    np.add.at(D, (r, c), v)
                    dense.append((ids, D))
                blocks.append((ids, B))
            # one sense for all rows, or one per row
            senses = rng.choice([LEQ, GEQ, EQ], size=rows)
            sense = str(senses[0]) if rng.integers(2) else senses
            rhs = rng.choice(values, size=rows)
            assert m.add_rows(blocks, sense, rhs) == ref.add_rows(dense, sense, rhs)
        else:
            js = rng.choice(n, size=min(n, 3), replace=False)
            lb = rng.choice(values, size=len(js))
            ub = lb + rng.choice([0.0, 1.0, np.inf], size=len(js))
            m.set_bounds(js, lb, ub)
            for j, a, b in zip(js, lb, ub):
                ref.set_bounds(int(j), a, b)
    _same_model(m, ref)
    assert m.has_integers == ref.has_integers


def test_min_lp_solution():
    m, x, y = small_min_lp()
    out = backend.solve_lp(m)
    assert out.is_optimal
    assert out.objective == pytest.approx(2.0)
    assert out.x[x] == pytest.approx(1.0)
    assert out.x[y] == pytest.approx(0.0)


def test_max_lp_solution():
    # max 2x + 3y  s.t. x + y <= 1: all of the row goes to y
    m = LinearModel()
    x, y = m.add_vars(2)
    m.add_rows([([x, y], [[1.0, 1.0]])], LEQ, [1.0])
    m.set_objective({x: 2.0, y: 3.0}, sense="max")
    out = backend.solve_lp(m)
    assert out.is_optimal and out.objective == pytest.approx(3.0)
    assert out.x[[x, y]] == pytest.approx([0.0, 1.0])


def test_equality_row_and_objective_constant():
    m = LinearModel()
    x = m.add_vars(1)[0]
    m.add_rows([([x], [[2.0]])], EQ, [3.0])
    m.set_objective({x: 1.0})
    out = backend.solve_lp(m)
    assert out.objective == pytest.approx(1.5)


def test_infeasible_and_unbounded_status():
    m = LinearModel()
    x = m.add_vars(1, ub=1.0)[0]
    m.add_rows([([x], [[1.0]])], GEQ, [2.0])
    m.set_objective({x: 1.0})
    assert backend.solve_lp(m).status == backend.INFEASIBLE

    m2 = LinearModel()
    x2 = m2.add_vars(1)[0]
    m2.set_objective({x2: 1.0}, sense="max")
    assert backend.solve_lp(m2).status == backend.UNBOUNDED


# -- block LPs over copies ------------------------------------------------------

def test_each_copy_gets_its_own_status_in_copy_order():
    # copies of min c v s.t. v >= r, 0 <= v <= ub: optimal at r = 0, no v
    # at r = 2 <= ub = 1, unbounded at c = -1 without ub, optimal again
    status, value, x = backend.solve_copies(
        "copies", np.array([[1.0]]), GEQ, np.array([[0.0], [2.0], [0.0], [0.5]]), 0.0,
        np.array([[1.0], [1.0], [np.inf], [1.0]]), np.array([[1.0], [1.0], [-1.0], [1.0]]))
    assert status.tolist() == [backend.OPTIMAL, backend.INFEASIBLE, backend.UNBOUNDED,
                               backend.OPTIMAL]
    assert value.tolist() == [0.0, np.inf, -np.inf, 0.5]
    assert x[[0, 3], 0] == pytest.approx([0.0, 0.5])
    assert np.isnan(x[[1, 2]]).all()


def _halving_toy():
    # v = (w, eta) with w >= r, w <= 1 and eta >= w, eta minimized; only the
    # copy at r = 2 is infeasible
    rhs = np.zeros((16, 2))
    rhs[:, 0] = np.arange(16) / 16
    rhs[11, 0] = 2.0
    return ("toy", _csr([[1.0, 0.0], [-1.0, 1.0]]), np.array([GEQ, GEQ]), rhs,
            np.array([0.0, -10.0]), np.array([1.0, 10.0]), np.array([0.0, 1.0]))


def test_a_failing_copy_narrows_the_lp_by_halves(monkeypatch):
    # each halving leaves one failing half: 1 + 2 log2 K LPs rather than 1 + K
    real, sizes = backend.solve_lp, []

    def counted(model):
        sizes.append(model.n_vars // 2)
        return real(model)

    monkeypatch.setattr(backend, "solve_lp", counted)
    toy = _halving_toy()
    status, value, x = backend.solve_copies(*toy)
    failed = np.arange(16) == 11
    assert status.tolist() == np.where(failed, backend.INFEASIBLE, backend.OPTIMAL).tolist()
    assert x[~failed, 1] == pytest.approx(toy[3][~failed, 0])
    assert value.tolist() == np.where(failed, np.inf, x[:, 1]).tolist()
    assert sizes == [16, 8, 8, 4, 2, 2, 1, 1, 4]


@pytest.mark.parametrize("halving", [False, True], ids=["plain", "halving"])
def test_solve_copies_leaves_no_garbage_cycle(halving):
    # every array of a call is freed on return by reference counting, not
    # held in a cycle until the cyclic collector runs
    name, A, senses, rhs, lb, ub, cost = _halving_toy()
    if not halving:
        rhs = rhs.copy()
        rhs[11, 0] = 0.5
    backend.solve_copies(name, A, senses, rhs, lb, ub, cost)
    gc.collect()
    gc.disable()
    try:
        status, _, _ = backend.solve_copies(name, A, senses, rhs, lb, ub, cost)
        assert (status == backend.INFEASIBLE).sum() == int(halving)
        del status
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_optimal_run_returns_highs_x_as_it_is(monkeypatch):
    real, xs = backend.solve_lp, []

    def kept(model):
        out = real(model)
        xs.append(out.x)
        return out

    monkeypatch.setattr(backend, "solve_lp", kept)
    name, A, senses, rhs, lb, ub, cost = _halving_toy()
    _, _, x = backend.solve_copies(name, A, senses, rhs[:8], lb, ub, cost)
    assert len(xs) == 1 and x.shape == (8, 2) and np.shares_memory(x, xs[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_the_run_size_leaves_each_copys_status_and_value(seed):
    # copies of min c_k'v s.t. A v >= r_k, 0 <= v <= 1, A >= 0 with a
    # positive entry a row: r_k is drawn from a pool of a few feasible rows
    # (A v0 - slack) and one infeasible row (past A's row sums), so copies
    # share feasible sets and differ in cost, and all K may share the
    # infeasible one. Every copy alone, the default runs and one run of
    # all give each copy one status and value
    rng = np.random.default_rng(seed)
    m, n, K = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 13)
    A = rng.uniform(0.1, 1.0, (m, n)) * (rng.random((m, n)) < 0.6)
    A[np.arange(m), rng.integers(n, size=m)] = rng.uniform(0.5, 1.0, m)
    feasible = rng.random((3, n)) @ A.T - rng.uniform(0.0, 0.5, (3, m))
    infeasible = A.sum(axis=1) + rng.uniform(0.1, 1.0, m)
    pool = np.vstack([feasible[:rng.integers(1, 4)], infeasible])
    rhs = pool[rng.integers(len(pool), size=K)]
    cost = rng.uniform(-1.0, 1.0, (K, n))
    args = ("runs", _csr(A), GEQ, rhs, 0.0, 1.0, cost)
    outs = []
    for bound in (1, backend._COPIES_NONZEROS, K * A.size + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backend, "_COPIES_NONZEROS", bound)
            status, value, _ = backend.solve_copies(*args)
        outs.append((status.tolist(), value))
    want = np.where((rhs == infeasible).all(axis=1), backend.INFEASIBLE, backend.OPTIMAL)
    for status, values in outs:
        assert status == want.tolist()
        assert values == pytest.approx(outs[0][1], rel=1e-9, abs=1e-12)


def test_rows_per_copy_build_the_lp_of_shared_rows():
    name, A, senses, rhs, lb, ub, cost = _halving_toy()
    shared = backend.copies_lp(name, A, senses, rhs, lb, ub, cost)
    per_copy = [np.tile(a, (len(rhs), 1)) for a in (lb, ub, cost)]
    got = backend.copies_lp(name, A, senses, rhs, *per_copy)
    assert (got.constrs, got.vars, got.obj) == (shared.constrs, shared.vars, shared.obj)
    assert np.flatnonzero(shared.objective_vector()).tolist() == list(range(1, 32, 2))
    for got, ref in zip(backend.solve_copies(name, A, senses, rhs, *per_copy),
                        backend.solve_copies(name, A, senses, rhs, lb, ub, cost)):
        assert np.array_equal(got, ref, equal_nan=got.dtype.kind == "f")


@pytest.mark.parametrize("K", [3, 4])
def test_copy_values_prices_each_copy_by_its_own_cost_row(K):
    # copies of min c_k'v s.t. v >= r_k, 0 <= v <= ub_k over n = 3 columns,
    # Optimal, Infeasible (r_k past ub_k), Optimal and Unbounded (a negative
    # cost without ub); K = n is the shape a (K, n) cost could be misread in
    rhs = np.array([[0.5, 0.25, 1.0], [2.0, 0.0, 0.0], [0.75, 1.5, 0.0], [0.0, 0.0, 0.0]])[:K]
    ub = np.array([[1.0] * 3, [1.0] * 3, [1.0, 2.0, 3.0], [np.inf] * 3])[:K]
    costs = np.array([[1.0, 3.0, 7.0], [1.0, 1.0, 1.0], [-2.0, 5.0, 3.0], [1.0, -1.0, 0.0]])[:K]
    args = ("copies", np.eye(3), GEQ, rhs, 0.0, ub)
    status, got, x = backend.solve_copies(*args, costs)
    assert status.tolist() == [backend.OPTIMAL, backend.INFEASIBLE, backend.OPTIMAL,
                               backend.UNBOUNDED][:K]
    ends = {backend.INFEASIBLE: np.inf, backend.UNBOUNDED: -np.inf}
    assert got.tolist() == [float(x[k] @ costs[k]) if s == backend.OPTIMAL else ends[s]
                            for k, s in enumerate(status)]
    # one cost vector for every copy keeps x @ cost to the bit
    _, one, x = backend.solve_copies(*args, costs[0])
    ok = np.isfinite(one)
    assert ok.sum() == K - 1 and one[ok].tobytes() == (x @ costs[0])[ok].tobytes()


def test_a_copy_that_ends_otherwise_is_worth_nan(monkeypatch):
    real = backend.solve_lp

    def numerical_at_two(model):
        if 2.0 in model.rows()[2]:
            return SolveOutcome(status=backend.NUMERICAL)
        return real(model)

    monkeypatch.setattr(backend, "solve_lp", numerical_at_two)
    status, value, _ = backend.solve_copies("copies", np.array([[1.0]]), GEQ,
                                            np.array([[0.0], [2.0], [0.5]]), 0.0, 3.0, np.ones(1))
    assert status.tolist() == [backend.OPTIMAL, backend.NUMERICAL, backend.OPTIMAL]
    assert value[[0, 2]].tolist() == [0.0, 0.5] and np.isnan(value[1])


def _row_chunk(blocks, rhs):
    m = LinearModel()
    m.add_vars(8)
    m.add_rows(blocks, GEQ, rhs)
    return m._chunks[-1]


@pytest.mark.parametrize("block, cols", [
    (np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -3.0]]), [1, 5, 3]),
    ((np.array([0, 2, 2, 4]), np.array([1, 2, 0, 2]), np.array([2.0, 0.0, 1.0, -3.0])),
     [1, 5, 3]),
    (np.zeros((3, 3)), []),
], ids=["dense", "canonical-csr", "empty"])
def test_a_single_block_is_read_as_the_sorted_blocks_are(block, cols):
    # explicit zeros, an empty row, and unique ids out of order; an empty
    # second block sends the same rows through the sort of several blocks
    ids, rhs = [5, 1, 3], np.arange(3.0)
    one = _row_chunk([(ids, block)], rhs)
    several = _row_chunk([(ids, block), ([], np.zeros((3, 0)))], rhs)
    for a, b in zip(one, several, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert one[1].tolist() == cols


def small_mip():
    # min x + y, x + y >= 1.5, x integer: x = 2 or (x=1, y=.5); latter cheaper
    m = LinearModel(name="mip")
    x, y = m.add_vars(2, integer=[True, False])
    m.add_rows([([x, y], [[1.0, 1.0]])], GEQ, [1.5])
    m.set_objective({x: 1.0, y: 1.0})
    return m, x, y


def test_mip_rounds_to_integers():
    m, x, y = small_mip()
    out = backend.solve_mip(m)
    assert out.is_optimal
    assert out.objective == pytest.approx(1.5)
    assert out.x[x] == pytest.approx(round(out.x[x]), abs=1e-8)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_a_mips_objective_and_bound_are_in_the_models_sense(sense):
    # small_mip, or the max of its negated objective: HiGHS closes the gap,
    # so the dual bound meets the objective on the model's side of zero
    m, x, y = small_mip()
    if sense == "max":
        m.set_objective({x: -1.0, y: -1.0}, sense="max")
    out = backend.solve_mip(m)
    assert out.objective == pytest.approx(1.5 if sense == "min" else -1.5)
    assert out.bound == pytest.approx(out.objective) and out.mip_node_count >= 0


def unbounded_mip():
    # min -x + y, x integer, x - y >= 0.5: HiGHS ends it unbounded or
    # infeasible (Numerical); the relaxation is unbounded and the MIP feasible
    m = LinearModel()
    x, y = m.add_vars(2, integer=[True, False])
    m.add_rows([([x, y], [[1.0, -1.0]])], GEQ, [0.5])
    m.set_objective({x: -1.0, y: 1.0})
    return m, x, y


def test_an_unbounded_mip_is_unbounded_and_keeps_its_objective():
    m, x, y = unbounded_mip()
    assert backend.solve_mip(m).status == backend.UNBOUNDED
    assert (m.obj, m.sense) == ({x: -1.0, y: 1.0}, "min")


def test_an_undecided_mip_without_integer_points_is_infeasible(monkeypatch):
    # 2 a - 2 b = 1 over free integers, min a: the relaxation is unbounded,
    # and the re-solve with a zero objective finds no integer point; the
    # first milp call is made to end Numerical the way an unbounded MIP does
    m = LinearModel()
    a, b = m.add_vars(2, lb=-np.inf, ub=np.inf, integer=True)
    m.add_rows([([a, b], [[2.0, -2.0]])], EQ, [1.0])
    m.set_objective({a: 1.0})
    assert backend.solve_mip(m).status == backend.INFEASIBLE
    objectives, milp = [], backend.milp

    def undecided(mip, **kw):
        objectives.append(mip.c.tolist())
        return milp(mip, **kw) if len(objectives) > 1 else SolveOutcome(NUMERICAL)

    monkeypatch.setattr(backend, "milp", undecided)
    assert backend.solve_mip(m).status == backend.INFEASIBLE
    assert objectives == [[1.0, 0.0], [0.0, 0.0]]
    assert m.obj == {a: 1.0}


def test_mip_without_integers_falls_back_to_lp(monkeypatch):
    called = []
    for name in ("linprog", "milp"):
        def call(*args, _real=getattr(backend, name), _name=name, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(backend, name, call)
    out = backend.solve_mip(small_min_lp()[0])
    assert out.is_optimal and out.objective == pytest.approx(2.0)
    assert called == ["linprog"]


def test_fix_var_and_copy_isolation():
    m, x, y = small_min_lp()
    m2 = copy.deepcopy(m)
    m2.set_bounds(x, 0.0, 0.0)
    assert backend.solve_lp(m2).objective == pytest.approx(3.0)
    assert backend.solve_lp(m).objective == pytest.approx(2.0)


def test_complementarity_linearization_enforces_disjunction():
    # min a + b with a + b >= 1 and a*b = 0 via indicator rows
    m = LinearModel()
    a, b = m.add_vars(2, ub=5.0)
    m.add_rows([([a, b], [[1.0, 1.0]])], GEQ, [1.0])
    delta, = backend.linearize_complementarity(m, [a], [0.0], [([b], [[1.0]])], [0.0],
                                               M_a=10.0, M_b=6.0)
    # a <= M_a delta, then b <= M_b (1 - delta)
    assert [(c.coeffs, c.sense, c.rhs) for c in m.constrs[1:]] == [
        ({a: 1.0, delta: -10.0}, LEQ, 0.0), ({b: 1.0, delta: 6.0}, LEQ, 6.0)]
    m.set_objective({a: 1.0, b: 2.0})
    out = backend.solve_mip(m)
    assert out.is_optimal
    assert min(out.x[a], out.x[b]) <= 1e-6 * 10.0
    assert out.objective == pytest.approx(1.0)


def test_complementarity_rejects_nonpositive_m():
    m = LinearModel()
    a = m.add_vars(1)[0]
    for M_a, M_b in ((0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(BackendError, match="positive"):
            backend.linearize_complementarity(m, [a], [0.0], [([a], [[1.0]])], [0.0],
                                              M_a, M_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_lps_match_a_milp_reference(seed):
    # the reference is milp without integrality on the same data, its rows
    # passed as lo <= A x <= hi rather than split into <= and = blocks
    rng = np.random.default_rng(seed)
    n, mr = rng.integers(1, 5), rng.integers(1, 4)
    m = LinearModel()
    ids = m.add_vars(int(n), ub=10.0)
    A = rng.uniform(-2, 2, size=(mr, n))
    b = rng.uniform(-1, 1, size=mr)
    senses = rng.choice([GEQ, LEQ, EQ], size=mr)
    m.add_rows([(ids, A)], senses, b)
    sense = rng.choice(["min", "max"])
    c = rng.uniform(-5, 5, size=n)
    m.set_objective({ids[j]: v for j, v in enumerate(c)}, sense=sense)
    out = backend.solve_lp(m)

    s = 1.0 if sense == "min" else -1.0
    lo = np.where(senses == LEQ, -np.inf, b)
    hi = np.where(senses == GEQ, np.inf, b)
    ref = milp(s * c, constraints=LinearConstraint(A, lo, hi), bounds=Bounds(0.0, 10.0))
    assert out.status == {0: backend.OPTIMAL, 2: backend.INFEASIBLE}[ref.status]
    if out.is_optimal:
        assert out.objective == pytest.approx(s * ref.fun, rel=1e-6, abs=1e-6)
        assert np.all((out.x >= -1e-9) & (out.x <= 10.0 + 1e-9))
        Ax = A @ out.x
        assert np.all(Ax[senses != LEQ] >= b[senses != LEQ] - 1e-7)
        assert np.all(Ax[senses != GEQ] <= b[senses != GEQ] + 1e-7)


# -- the wall clock -----------------------------------------------------------

def _record_highs(monkeypatch) -> list[dict]:
    """Wrap linprog and milp; every call appends the options it is given."""
    seen: list[dict] = []

    def recorded(real):
        def call(*args, options=None, **kwargs):
            seen.append(dict(options or {}))
            return real(*args, options=options, **kwargs)
        return call

    for name in ("linprog", "milp"):
        monkeypatch.setattr(backend, name, recorded(getattr(backend, name)))
    return seen


def _solve_both() -> None:
    backend.solve_lp(small_min_lp()[0])
    backend.solve_mip(small_mip()[0])


def test_without_a_deadline_highs_gets_no_time_limit(monkeypatch):
    seen = _record_highs(monkeypatch)
    _solve_both()
    with backend.deadline(100.0):
        pass
    _solve_both()
    assert len(seen) == 4
    assert not any("time_limit" in options for options in seen)


def test_a_deadline_hands_highs_the_time_left(monkeypatch):
    seen = _record_highs(monkeypatch)
    with backend.deadline(100.0):
        _solve_both()
    assert [0.0 < o["time_limit"] <= 100.0 for o in seen] == [True, True]


def test_a_nested_deadline_keeps_the_earlier_one(monkeypatch):
    seen = _record_highs(monkeypatch)
    with backend.deadline(10.0):
        with backend.deadline(1000.0):
            backend.solve_lp(small_min_lp()[0])
        with backend.deadline(1.0):
            backend.solve_lp(small_min_lp()[0])
        backend.solve_lp(small_min_lp()[0])
    limits = [o["time_limit"] for o in seen]
    assert limits[0] <= 10.0 and limits[1] <= 1.0 and 1.0 < limits[2] <= 10.0


def test_the_innermost_big_m_block_wins_and_the_outer_m_comes_back():
    assert backend.current_big_m() == backend.DEFAULT_BIG_M
    with backend.big_m(10.0):
        assert backend.current_big_m() == 10.0
        with backend.big_m(1e6):
            assert backend.current_big_m() == 1e6
        assert backend.current_big_m() == 10.0
        with pytest.raises(RuntimeError, match="inside"), backend.big_m(5.0):
            raise RuntimeError("inside")
        assert backend.current_big_m() == 10.0
    assert backend.current_big_m() == backend.DEFAULT_BIG_M


@pytest.mark.parametrize("M", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_big_m_refuses_an_m_that_is_not_finite_and_positive(M):
    with pytest.raises(ValueError, match="big-M must be finite and positive"):
        with backend.big_m(M):
            pass
    assert backend.current_big_m() == backend.DEFAULT_BIG_M


def test_a_passed_deadline_raises_before_highs_is_called(monkeypatch):
    seen = _record_highs(monkeypatch)
    with backend.deadline(0.0):
        with pytest.raises(SolveTimeLimit, match="min_lp"):
            backend.solve_lp(small_min_lp()[0])
        with pytest.raises(SolveTimeLimit, match="mip"):
            backend.solve_mip(small_mip()[0])
    assert seen == []


# -- HiGHS's model status, read by one table -----------------------------------

def _highs_reports(monkeypatch, status) -> None:
    """The next HiGHS model made reports status once run, whatever it found;
    the ones after it report their own."""
    made = []

    class Reporting(backend._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)

        def getModelStatus(self):
            return status if self is made[0] else super().getModelStatus()

    monkeypatch.setattr(backend, "_Highs", Reporting)


_MS = backend._MS


@pytest.mark.parametrize("mip", [False, True], ids=["lp", "mip"])
@pytest.mark.parametrize("reported, status", [
    (_MS.kOptimal, OPTIMAL), (_MS.kInfeasible, INFEASIBLE), (_MS.kUnbounded, UNBOUNDED),
    (_MS.kTimeLimit, TIME_LIMIT), (_MS.kIterationLimit, TIME_LIMIT),
    (_MS.kSolutionLimit, NUMERICAL), (_MS.kInterrupt, NUMERICAL),
    (_MS.kUnboundedOrInfeasible, NUMERICAL), (_MS.kSolveError, NUMERICAL)],
    ids=lambda v: getattr(v, "name", v))
def test_highs_model_status_is_read_by_one_table(monkeypatch, reported, status, mip):
    # small_mip solves Optimal, and HiGHS reports `reported` instead; x, the
    # objective, the row activity and a MIP's bound and node count come only
    # with Optimal
    _highs_reports(monkeypatch, reported)
    out = backend._highs(backend.highs_arrays(small_mip()[0], mip), {"output_flag": False})
    assert out.status == status
    with_x = status == OPTIMAL
    assert (out.x is not None, out.objective is not None,
            out.row_activity is not None) == (with_x,) * 3
    assert (out.bound is not None, out.mip_node_count is not None) == (with_x and mip,) * 2


@pytest.mark.parametrize("reported", [_MS.kTimeLimit, _MS.kIterationLimit],
                         ids=["time", "iterations"])
@pytest.mark.parametrize("solve", [backend.solve_lp, backend.solve_mip], ids=["lp", "mip"])
def test_a_highs_limit_raises_from_both_solves(monkeypatch, reported, solve):
    # the MIP has its incumbent, the optimum, when HiGHS reports the limit
    _highs_reports(monkeypatch, reported)
    with pytest.raises(SolveTimeLimit, match="mip: HiGHS stopped on its time limit"):
        solve(small_mip()[0])


@pytest.mark.parametrize("reported", [
    _MS.kSolutionLimit, _MS.kInterrupt, _MS.kUnboundedOrInfeasible],
    ids=lambda v: v.name)
@pytest.mark.parametrize("model, status", [(unbounded_mip, UNBOUNDED), (small_mip, NUMERICAL)],
                         ids=["unbounded", "bounded"])
def test_a_numerical_mip_is_settled_by_its_relaxation(monkeypatch, reported, model, status):
    # _unbounded_or_infeasible settles a MIP whose first solve reads
    # Numerical: an unbounded relaxation and a feasible MIP are Unbounded,
    # an Optimal relaxation leaves it Numerical; an LP is not settled
    _highs_reports(monkeypatch, reported)
    assert backend.solve_mip(model()[0]).status == status
    _highs_reports(monkeypatch, reported)
    assert backend.solve_lp(small_min_lp()[0]).status == NUMERICAL


def test_an_optimum_of_a_run_that_errs_is_numerical(monkeypatch):
    class Erring(backend._Highs):
        def run(self):
            super().run()
            return backend._ERROR

    monkeypatch.setattr(backend, "_Highs", Erring)
    assert backend.solve_lp(small_min_lp()[0]).status == NUMERICAL


# -- HiGHS options of every MIP -------------------------------------------------

def test_every_mip_gets_the_fixed_heuristic_options(monkeypatch):
    seen = _record_highs(monkeypatch)
    backend.solve_mip(small_mip()[0])
    with backend.deadline(100.0):
        backend.solve_mip(small_mip()[0], mip_rel_gap=1e-6)
    for options in seen:
        assert options["mip_heuristic_run_rins"] is False
        assert options["mip_heuristic_run_feasibility_jump"] is False
        assert not [k for k in options if "rens" in k or "effort" in k]
    assert "mip_rel_gap" not in seen[0] and "time_limit" not in seen[0]
    assert seen[1]["mip_rel_gap"] == 1e-6 and 0.0 < seen[1]["time_limit"] <= 100.0


def test_a_misspelt_highs_option_still_warns(monkeypatch):
    # HiGHS rejects the key, and backend.milp says so
    monkeypatch.setattr(backend, "_MIP_OPTIONS", {"mip_heuristic_run_rinz": False})
    with pytest.warns(OptimizeWarning, match="mip_heuristic_run_rinz"):
        backend.solve_mip(small_mip()[0])


def test_highs_output_during_a_mip_goes_to_stderr(monkeypatch, capfd):
    real = backend.milp

    def noisy(*args, **kwargs):
        os.write(1, b"from HiGHS\n")
        return real(*args, **kwargs)
    monkeypatch.setattr(backend, "milp", noisy)
    print("before")
    assert backend.solve_mip(small_mip()[0]).is_optimal
    print("after")
    out, err = capfd.readouterr()
    assert (out, err) == ("before\nafter\n", "from HiGHS\n")


# -- HiGHS without scipy's wrappers ---------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_highs_arrays_hold_the_models_rows_in_order(seed):
    # mixed, all-=, one-kind and no rows; columns no row reads; zero costs,
    # which a max negates to -0.0; repeated ids, exact zeros and -0.0 in
    # dense and sparse blocks
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])
    m = LinearModel()
    n = int(rng.integers(1, 7))
    ids = m.add_vars(n, rng.choice([0.0, -1.0, -np.inf], size=n),
                     rng.choice([1.0, 4.0, np.inf], size=n), rng.random(n) < 0.5)
    kinds = [[LEQ, GEQ, EQ], [EQ], [LEQ], [GEQ], [LEQ, GEQ]][rng.integers(5)]
    for _ in range(rng.integers(0, 4)):
        rows = int(rng.integers(1, 4))
        cols = rng.choice(ids, size=rng.integers(1, n + 1)).tolist()
        B = rng.choice(values, size=(rows, len(cols))) * (rng.random((rows, len(cols))) < 0.7)
        m.add_rows([(cols, _csr(B) if rng.integers(2) else B)],
                   rng.choice(kinds, size=rows), rng.choice(values, size=rows))
    m.set_objective(dict(zip(ids, rng.choice(values, size=n))),
                    sense=str(rng.choice(["min", "max"])))
    A, senses, rhs = sparse(m)
    c = m.objective_vector()
    lb, ub, integer = m.columns()
    leq, geq = senses == LEQ, senses == GEQ
    for mip in (False, True):
        a = backend.highs_arrays(m, mip)
        # HiGHS's row i is the model's row i, A as rows() reads it
        for got, want in ((a.indptr, A.indptr), (a.indices, A.indices)):
            assert got.dtype == np.int32 and got.tobytes() == want.astype(np.int32).tobytes()
        assert a.data.tobytes() == A.data.tobytes()
        # lhs -inf on the <= rows, rhs +inf on the >= rows, else the rhs
        assert np.isneginf(a.lhs[leq]).all() and a.lhs[~leq].tobytes() == rhs[~leq].tobytes()
        assert np.isposinf(a.rhs[geq]).all() and a.rhs[~geq].tobytes() == rhs[~geq].tobytes()
        assert a.c.tobytes() == (-c if m.sense == "max" else c).tobytes()
        assert a.lb.tobytes() == lb.tobytes() and a.ub.tobytes() == ub.tobytes()
        assert a.integrality.dtype == np.int32
        assert a.integrality.tolist() == (integer & mip).astype(int).tolist()


def _csr(A) -> tuple:
    """A dense A as the CSR arrays (indptr, indices, data) of scipy's csr_array."""
    A = csr_array(np.asarray(A, dtype=float))
    return A.indptr, A.indices, A.data


def _copies_through_add_rows(name, A, senses, rhs, lb, ub, cost) -> LinearModel:
    """Reference of copies_lp: I_K (x) A in canonical CSR through add_rows."""
    (K, m), n = np.shape(rhs), np.shape(cost)[-1]
    lb, ub, cost = (np.broadcast_to(a, (K, n)).ravel() for a in (lb, ub, cost))
    lp = LinearModel(name=name)
    ids = lp.add_vars(K * n, lb, ub)
    A = csr_array((A[2], A[1], A[0]) if isinstance(A, tuple) else A, shape=(m, n), copy=True)
    A.sum_duplicates()
    shift = np.arange(K)[:, None]
    rows = (np.r_[0, (A.indptr[1:] + A.nnz * shift).ravel()], (A.indices + n * shift).ravel(),
            np.tile(A.data, K))
    lp.add_rows([(ids, rows)], senses if np.ndim(senses) == 0 else np.tile(senses, K),
                np.ravel(rhs))
    nz = np.flatnonzero(cost)
    lp.set_objective(dict(zip(nz.tolist(), cost[nz].tolist())))
    return lp


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_copies_lp_holds_the_chunk_add_rows_would(seed):
    # a dense A with exact zeros and -0.0, or A's CSR arrays as rows()
    # gives them: canonical, the zeros left after repeats cancel dropped
    rng = np.random.default_rng(seed)
    K, m, n = (int(v) for v in rng.integers(1, 5, size=3))
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0])
    if rng.integers(2):
        A = rng.choice(values, size=(m, n))
    else:
        nnz = int(rng.integers(0, 2 * m * n))
        A = coo_array((rng.choice(values, size=nnz), (rng.integers(m, size=nnz),
                                                      rng.integers(n, size=nnz))), shape=(m, n))
        A = A.tocsr()
        A.eliminate_zeros()
        assert A.has_canonical_format
        A = A.indptr, A.indices, A.data
    senses = rng.choice([LEQ, GEQ, EQ], size=m) if rng.integers(2) else GEQ
    args = ("copies", A, senses, rng.choice(values, size=(K, m)), 0.0,
            rng.choice([1.0, np.inf], size=(K, n)), rng.choice(values, size=n))
    got, want = backend.copies_lp(*args), _copies_through_add_rows(*args)
    for a, b in zip(got._chunks[-1], want._chunks[-1], strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(got._chunks) == len(want._chunks) and got.n_constrs == want.n_constrs
    for a, b in zip(got.columns(), want.columns()):
        assert a.tobytes() == b.tobytes()
    assert got.obj == want.obj
    for mip in (False, True):
        for a, b in zip(backend.highs_arrays(got, mip), backend.highs_arrays(want, mip)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_model(rng) -> LinearModel:
    """1-5 columns, each in [0, 10], [-5, 5], free or fixed at 2, about half
    of them integer; 0-4 rows of mixed senses; min or max."""
    n, m = int(rng.integers(1, 6)), int(rng.integers(0, 5))
    kind = rng.integers(4, size=n)
    lb = np.choose(kind, [0.0, -5.0, -np.inf, 2.0])
    ub = np.choose(kind, [10.0, 5.0, np.inf, 2.0])
    model = LinearModel(name="draw")
    ids = model.add_vars(n, lb, ub, integer=rng.random(n) < 0.5)
    A = rng.uniform(-3, 3, size=(m, n)) * (rng.random((m, n)) < 0.8)
    model.add_rows([(ids, A)], rng.choice([LEQ, GEQ, EQ], size=m), rng.uniform(-5, 5, size=m))
    model.set_objective(dict(zip(ids, rng.uniform(-5, 5, size=n))),
                        sense=str(rng.choice(["min", "max"])))
    return model


def _scipy_arguments(a: backend.HighsArrays) -> dict:
    """The arguments of scipy.optimize.milp that hand HiGHS a's arrays;
    an LP's integrality is all 0."""
    A = csr_array((a.data, a.indices, a.indptr), shape=(a.rhs.size, a.c.size))
    return dict(c=a.c, integrality=a.integrality, bounds=Bounds(a.lb, a.ub),
                constraints=LinearConstraint(A, a.lhs, a.rhs) if a.rhs.size else ())


def test_linprog_and_milp_match_scipys_on_random_models(monkeypatch):
    # solve_lp and solve_mip of each draw; every backend.linprog and
    # backend.milp call is repeated in scipy's milp with the same arrays and
    # options (an LP has no integer column), scipy's result codes read as
    # backend's statuses
    calls = []
    for name in ("linprog", "milp"):
        def call(*args, _real=getattr(backend, name), _name=name, **kwargs):
            calls.append((_name, args, kwargs, _real(*args, **kwargs)))
            return calls[-1][3]
        monkeypatch.setattr(backend, name, call)
    rng = np.random.default_rng(2024)
    for _ in range(150):
        model = _random_model(rng)
        backend.solve_lp(model)
        backend.solve_mip(model)
    statuses, scipys = set(), {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED,
                               4: NUMERICAL}
    for name, (a,), kwargs, ours in calls:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            ref = scipy.optimize.milp(**_scipy_arguments(a), **kwargs)
        statuses.add((name, ours.status))
        assert ours.status == scipys[ref.status]
        assert (ours.x is None) == (ref.x is None)
        if ref.x is not None:
            assert np.array_equal(ours.x, ref.x)
            assert ours.objective == ref.fun
            if name == "milp":
                assert (ours.mip_node_count, ours.bound) == (ref.mip_node_count,
                                                             ref.mip_dual_bound)
    # Optimal, Infeasible and Unbounded draws; HiGHS's MIP solver reports an
    # unbounded MIP as unbounded or infeasible, which reads Numerical
    assert {("linprog", OPTIMAL), ("linprog", INFEASIBLE), ("linprog", UNBOUNDED),
            ("milp", OPTIMAL), ("milp", INFEASIBLE), ("milp", NUMERICAL)} <= statuses


def _dense_arrays(c, A, lhs, rhs, lb, ub, integrality) -> backend.HighsArrays:
    """HighsArrays of a dense A, through scipy's CSR."""
    A = csr_array(np.asarray(A, dtype=float))
    n = len(c)
    return backend.HighsArrays(
        np.asarray(c, dtype=float), A.indptr.astype(np.int32), A.indices.astype(np.int32),
        A.data, *(np.array(np.broadcast_to(v, shape), dtype=float) for v, shape in
                  ((lhs, A.shape[0]), (rhs, A.shape[0]), (lb, n), (ub, n))),
        np.broadcast_to(integrality, n).astype(np.int32))


@pytest.mark.parametrize("where, value", [
    ("c", np.inf), ("A_ub", np.inf), ("b_eq", np.nan), ("b_ge", np.nan), ("free-row", -np.inf),
    ("lhs_eq", np.inf)], ids=["c", "A_ub", "b_eq", "b_ge", "free-row", "lhs_eq"])
def test_linprog_refuses_non_finite_data(where, value):
    # a <= row, an = row, then a >= row: A_ub is the first entry, b_eq the
    # = row's rhs, b_ge the >= row's lhs; a -inf there leaves the row free,
    # which linprog's b_ub refused, and an = row with lhs +inf reads as >=
    lp = _dense_arrays(np.ones(2), np.ones((3, 2)), [-np.inf, 1.0, 0.5], [1.0, 1.0, np.inf],
                       0.0, 1.0, 0)
    assert backend.linprog(lp).is_optimal
    field, k = {"c": ("c", 0), "A_ub": ("data", 0), "b_eq": ("rhs", 1), "b_ge": ("lhs", 2),
                "free-row": ("lhs", 2), "lhs_eq": ("lhs", 1)}[where]
    bad = getattr(lp, field).copy()
    bad[k] = value
    with pytest.raises(ValueError, match="finite"):
        backend.linprog(lp._replace(**{field: bad}))


def test_milp_refuses_a_non_finite_cost():
    with pytest.raises(ValueError, match="finite"):
        backend.milp(_dense_arrays([1.0, np.nan], np.zeros((0, 2)), [], [], 0, 1, 1))


def _rows_at(a: backend.HighsArrays, x: np.ndarray) -> np.ndarray:
    """The row activities A x of HighsArrays a."""
    return csr_array((a.data, a.indices, a.indptr), shape=(a.rhs.size, a.c.size)) @ x


@pytest.mark.parametrize("sense, miss, status", [
    (LEQ, 1e-3, backend.NUMERICAL), (LEQ, 1e-5, backend.OPTIMAL),
    (GEQ, -1e-3, backend.NUMERICAL), (EQ, 1e-3, backend.NUMERICAL),
    (EQ, -1e-5, backend.OPTIMAL)])
def test_an_optimal_x_that_misses_a_row_is_numerical(monkeypatch, sense, miss, status):
    # linprog's check of HiGHS's answer: rows hold to 10 sqrt(1e-9) ~ 3.2e-4
    m = LinearModel(name="row")
    x, y = m.add_vars(2, ub=10.0)
    m.add_rows([([x, y], [[1.0, 1.0]])], sense, [4.0])
    m.set_objective({x: 1.0, y: 1.0})

    def answer(a, options):
        sol = np.array([2.0, 2.0 + miss])
        return SolveOutcome(OPTIMAL, float(a.c @ sol), sol, row_activity=_rows_at(a, sol))

    monkeypatch.setattr(backend, "_highs", answer)
    assert backend.solve_lp(m).status == status


@pytest.mark.parametrize("miss, status", [(1e-3, backend.NUMERICAL), (1e-5, backend.OPTIMAL)])
def test_an_optimal_x_that_misses_a_bound_is_numerical(monkeypatch, miss, status):
    # y = -miss below its bound 0, the row x + y >= 1 held exactly
    m, x, y = small_min_lp()
    sol = np.array([1.0 + miss, -miss])
    monkeypatch.setattr(backend, "_highs", lambda a, options: SolveOutcome(
        OPTIMAL, float(a.c @ sol), sol, row_activity=_rows_at(a, sol)))
    assert backend.solve_lp(m).status == status


def test_a_mips_node_count_reaches_the_result():
    rng = np.random.default_rng(3)
    A = rng.integers(1, 30, size=(6, 14)).astype(float)
    args = (-rng.integers(1, 50, size=14).astype(float),)
    kwargs = dict(constraints=LinearConstraint(A, -np.inf, 0.3 * A.sum(axis=1)),
                  integrality=np.ones(14), bounds=Bounds(0, 1))
    ours = backend.milp(_dense_arrays(*args, A, -np.inf, 0.3 * A.sum(axis=1), 0, 1, 1))
    ref = milp(*args, **kwargs)
    assert ours.is_optimal and ours.mip_node_count == ref.mip_node_count >= 1
    assert ours.objective == ref.fun and ours.bound == ref.mip_dual_bound


@pytest.mark.parametrize("integer", [False, True], ids=["lp", "mip"])
def test_a_model_highs_refuses_is_numerical(integer):
    # min x0 + x1 s.t. x0 + 1e15 x1 >= 1, 0 <= x <= 10 is feasible, but
    # HiGHS refuses a coefficient of 1e15 (its large_matrix_value); that
    # once read Infeasible
    m = LinearModel(name="refused")
    x = m.add_vars(2, 0.0, 10.0, integer=integer)
    m.add_rows([(x, [[1.0, 1e15]])], GEQ, [1.0])
    m.set_objective({x[0]: 1.0, x[1]: 1.0})
    solve = backend.solve_mip if integer else backend.solve_lp
    assert solve(m).status == backend.NUMERICAL


def test_a_rejected_highs_option_warns_and_is_skipped():
    m, x, y = small_min_lp()
    lp = backend.highs_arrays(m)
    for options in ({"simplex_strategi": 1}, {"time_limit": -1.0}):
        with pytest.warns(OptimizeWarning, match=next(iter(options))):
            res = backend.linprog(lp, options=options)
        assert res.is_optimal and np.array_equal(res.x, [1.0, 0.0])


def test_another_highs_binding_is_refused_at_import():
    assert backend._binding(backend._core) is backend._Highs
    stub = SimpleNamespace(_Highs=type("_Highs", (), {"passModel": None, "getInfo": None}))
    for core in (stub, None):
        with pytest.raises(ImportError, match=r"setOptionValue.*scipy 1\.17 \(HiGHS 1\.12\)"):
            backend._binding(core)
