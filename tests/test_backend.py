import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddu_ro import backend
from ddu_ro.backend import GEQ, LEQ, EQ, BackendError, LinearModel


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


def strong_duality_gap(model: LinearModel, out: backend.SolveOutcome) -> float:
    """|objective - duals.rhs - reduced_costs.x| for an optimal LP outcome."""
    rhs = np.array([c.rhs for c in model.constrs])
    val = float(out.duals @ rhs + out.reduced_costs @ out.x) + model.obj_const
    return abs(out.objective - val)


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


def test_min_lp_solution_and_duals():
    m, x, y = small_min_lp()
    out = backend.solve_lp(m)
    assert out.is_optimal
    assert out.objective == pytest.approx(2.0)
    assert out.x[x] == pytest.approx(1.0)
    # the covering row is worth its shadow price, the idle var its margin
    assert out.duals[0] == pytest.approx(2.0)
    assert out.reduced_costs[y] == pytest.approx(1.0)
    assert strong_duality_gap(m, out) < 1e-7


def test_max_lp_dual_signs():
    # max 2x + 3y  s.t. x + y <= 1: dual 3 on the row, rc -1 on x
    m = LinearModel()
    x = m.add_var()
    y = m.add_var()
    m.add_constr({x: 1.0, y: 1.0}, LEQ, 1.0)
    m.set_objective({x: 2.0, y: 3.0}, sense="max")
    out = backend.solve_lp(m)
    assert out.is_optimal and out.objective == pytest.approx(3.0)
    assert out.duals[0] == pytest.approx(3.0)
    assert out.reduced_costs[x] == pytest.approx(-1.0)
    assert strong_duality_gap(m, out) < 1e-7


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


def test_mip_rounds_to_integers():
    # min x + y, x + y >= 1.5, x integer: x = 2 or (x=1, y=.5); latter cheaper
    m = LinearModel()
    x = m.add_var(integer=True)
    y = m.add_var()
    m.add_constr({x: 1.0, y: 1.0}, GEQ, 1.5)
    m.set_objective({x: 1.0, y: 1.0})
    out = backend.solve_mip(m)
    assert out.is_optimal
    assert out.objective == pytest.approx(1.5)
    assert out.x[x] == pytest.approx(round(out.x[x]), abs=1e-8)


def test_mip_without_integers_falls_back_to_lp():
    m, x, y = small_min_lp()
    out = backend.solve_mip(m)
    assert out.is_optimal and out.duals is not None


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
def test_strong_duality_audit_on_random_lps(seed):
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
    m.set_objective({ids[j]: v for j, v in enumerate(rng.uniform(-5, 5, size=n))},
                    sense=sense)
    out = backend.solve_lp(m)
    if out.is_optimal:
        assert strong_duality_gap(m, out) <= 1e-6 * (1.0 + abs(out.objective))
        # row duals keep the signs of the module docstring on every row kind
        s = 1.0 if sense == "min" else -1.0
        assert np.all(s * out.duals[senses == GEQ] >= -1e-9)
        assert np.all(s * out.duals[senses == LEQ] <= 1e-9)
