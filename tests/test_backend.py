import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import Bounds, LinearConstraint, milp

from ddu_ro import backend
from ddu_ro.backend import GEQ, LEQ, EQ, BackendError, LinearModel, SolveTimeLimit


def small_min_lp():
    # min 2x + 3y  s.t. x + y >= 1
    m = LinearModel(name="min_lp")
    x = m.add_var(name="x")
    y = m.add_var(name="y")
    m.add_constr({x: 1.0, y: 1.0}, GEQ, 1.0)
    m.set_objective({x: 2.0, y: 3.0}, sense="min")
    return m, x, y


def test_ids_are_append_only():
    m = LinearModel()
    ids = [m.add_var() for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    rows = [m.add_constr({0: 1.0}, GEQ, 0.0) for _ in range(3)]
    assert rows == [0, 1, 2]
    assert m.n_vars == 5 and m.n_constrs == 3


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
    rows = m.add_block(var_ids, A, LEQ, np.arange(6.0))
    for i, r in enumerate(rows):
        ref = {var_ids[j]: float(A[i, j]) for j in range(5) if A[i, j] != 0.0}
        assert list(m.constrs[r].coeffs.items()) == list(ref.items())
    rows = m.add_rows([(var_ids, A), (b_ids, B)], GEQ, np.ones(6), name="two")
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
    x = m.add_var()
    y = m.add_var()
    m.add_constr({x: 1.0, y: 1.0}, LEQ, 1.0)
    m.set_objective({x: 2.0, y: 3.0}, sense="max")
    out = backend.solve_lp(m)
    assert out.is_optimal and out.objective == pytest.approx(3.0)
    assert out.x[[x, y]] == pytest.approx([0.0, 1.0])


def test_equality_row_and_objective_constant():
    m = LinearModel()
    x = m.add_var()
    m.add_constr({x: 2.0}, EQ, 3.0)
    m.set_objective({x: 1.0}, constant=10.0)
    out = backend.solve_lp(m)
    assert out.objective == pytest.approx(11.5)


def test_infeasible_and_unbounded_status():
    m = LinearModel()
    x = m.add_var(ub=1.0)
    m.add_constr({x: 1.0}, GEQ, 2.0)
    m.set_objective({x: 1.0})
    assert backend.solve_lp(m).status == backend.INFEASIBLE

    m2 = LinearModel()
    x2 = m2.add_var()
    m2.set_objective({x2: 1.0}, sense="max")
    assert backend.solve_lp(m2).status == backend.UNBOUNDED


def small_mip():
    # min x + y, x + y >= 1.5, x integer: x = 2 or (x=1, y=.5); latter cheaper
    m = LinearModel(name="mip")
    x = m.add_var(integer=True)
    y = m.add_var()
    m.add_constr({x: 1.0, y: 1.0}, GEQ, 1.5)
    m.set_objective({x: 1.0, y: 1.0})
    return m, x, y


def test_mip_rounds_to_integers():
    m, x, y = small_mip()
    out = backend.solve_mip(m)
    assert out.is_optimal
    assert out.objective == pytest.approx(1.5)
    assert out.x[x] == pytest.approx(round(out.x[x]), abs=1e-8)


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
    m2.fix_var(x, 0.0)
    assert backend.solve_lp(m2).objective == pytest.approx(3.0)
    assert backend.solve_lp(m).objective == pytest.approx(2.0)


def test_complementarity_linearization_enforces_disjunction():
    # min a + b with a + b >= 1 and a*b = 0 via indicator rows
    m = LinearModel()
    a = m.add_var(ub=5.0)
    b = m.add_var(ub=5.0)
    m.add_constr({a: 1.0, b: 1.0}, GEQ, 1.0)
    backend.linearize_complementarity(m, [a], [0.0], [([b], [[1.0]])], [0.0], M=10.0)
    m.set_objective({a: 1.0, b: 2.0})
    out = backend.solve_mip(m)
    assert out.is_optimal
    assert min(out.x[a], out.x[b]) <= 1e-6 * 10.0
    assert out.objective == pytest.approx(1.0)


def test_complementarity_rejects_nonpositive_m():
    m = LinearModel()
    a = m.add_var()
    with pytest.raises(BackendError):
        backend.linearize_complementarity(m, [a], [0.0], [([a], [[1.0]])], [0.0], M=0.0)


def test_unbounded_ray_certificate():
    # max x - y with x - y <= free growth along (1, 0)
    m = LinearModel()
    x = m.add_var()
    y = m.add_var()
    m.add_constr({x: 1.0, y: -2.0}, LEQ, 1.0)
    m.set_objective({x: 1.0, y: 1.0}, sense="max")
    out = backend.solve_lp(m)
    assert out.status == backend.UNBOUNDED
    r = backend.extract_ray(m)
    assert np.max(np.abs(r)) == pytest.approx(1.0)
    assert np.all(r >= -1e-9)
    # objective improves along the ray and rows stay satisfied
    c = m.objective_vector()
    assert c @ r > 1e-8
    A, senses, rhs = m.sparse()
    A = A.toarray()
    assert np.all((A @ r)[np.array(senses) == LEQ] <= 1e-8)


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
    for i in range(mr):
        m.add_constr({ids[j]: A[i, j] for j in range(int(n))}, senses[i], b[i])
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
    """Wrap linprog and milp; every call appends the options HiGHS gets."""
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


def test_a_passed_deadline_raises_before_highs_is_called(monkeypatch):
    seen = _record_highs(monkeypatch)
    with backend.deadline(0.0):
        with pytest.raises(SolveTimeLimit, match="min_lp"):
            backend.solve_lp(small_min_lp()[0])
        with pytest.raises(SolveTimeLimit, match="mip"):
            backend.solve_mip(small_mip()[0])
    assert seen == []


@pytest.mark.parametrize("solver, model", [("linprog", small_min_lp),
                                           ("milp", small_mip)])
def test_a_highs_time_limit_status_raises(monkeypatch, solver, model):
    # status 1: HiGHS stopped on its time limit, a MIP maybe with an incumbent
    monkeypatch.setattr(backend, solver, lambda *args, **kwargs: SimpleNamespace(
        status=1, x=np.array([1.0, 0.5]), mip_dual_bound=1.5))
    with backend.deadline(100.0), pytest.raises(SolveTimeLimit, match="time limit"):
        backend.solve(model()[0])
