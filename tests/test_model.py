import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddu_ro import (
    AffineMatrixMap,
    BasisId,
    FirstStageSet,
    Instance,
    RecourseSet,
    UncertaintySet,
    instance_from_dict,
    instance_to_dict,
    relative_gap,
    t1,
    validate,
)
from ddu_ro.model import IterationRecord, RunResult
from toys import t1_infeasible


def test_affine_map_constant_when_no_terms():
    F = AffineMatrixMap(base=[[1.0, 2.0], [0.0, 1.0]])
    assert F.is_constant
    assert np.allclose(F.evaluate(np.array([3.0])), F.base)
    # an all-zero term is dropped, so it makes no x_k a dependence
    F = AffineMatrixMap(base=[[1.0, 2.0]], terms=((0, [[0.0, 0.0]]), (1, [[0.0, 1.0]])))
    assert [k for k, _ in F.terms] == [1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9999))
def test_affine_map_is_affine_in_x(seed):
    rng = np.random.default_rng(seed)
    mu, n, nx = 3, 2, 4
    base = rng.normal(size=(mu, n))
    terms = tuple((k, rng.normal(size=(mu, n))) for k in range(0, nx, 2))
    F = AffineMatrixMap(base=base, terms=terms)
    x1, x2 = rng.normal(size=nx), rng.normal(size=nx)
    lhs = F.evaluate(x1 + x2) - F.evaluate(np.zeros(nx))
    rhs = (F.evaluate(x1) - base) + (F.evaluate(x2) - base)
    assert np.allclose(lhs, rhs, atol=1e-10)
    assert np.allclose(F.evaluate(np.zeros(nx)), base)


def test_basis_id_is_order_free_and_hashable():
    a = BasisId((3, 1, 2))
    b = BasisId((2, 3, 1))
    assert a == b and hash(a) == hash(b) and len(a) == 3
    assert len({a, b}) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
def test_basis_id_permutation_invariance(idx):
    rng = np.random.default_rng(sum(idx))
    perm = list(idx)
    rng.shuffle(perm)
    assert BasisId(tuple(idx)) == BasisId(tuple(perm))


def test_validate_t1():
    rep = validate(t1())
    assert rep.ok and not rep.errors
    assert rep.dependence == "rhs"
    assert rep.a3_status == "Optimal"
    assert rep.a3_value == pytest.approx(0.0)
    assert rep.a3_exact


def test_validate_flags_infeasible_relaxation():
    rep = validate(t1_infeasible())
    assert rep.a3_status == "Infeasible"
    assert not rep.ok


def test_validate_catches_dimension_mismatch():
    inst = t1()
    bad = Instance(name="bad", c1=[1.0, 2.0], X=inst.X, U=inst.U, Y=inst.Y)
    rep = validate(bad)
    assert not rep.ok
    assert any("c1" in e for e in rep.errors)


def test_validate_reports_unbounded_uncertainty():
    # u has a free direction: no row caps u[0]
    U = UncertaintySet(F=AffineMatrixMap(base=np.zeros((1, 1))),
                       G=np.zeros((1, 1)), h=np.ones(1))
    inst = t1()
    bad = Instance(name="unbounded_u", c1=inst.c1, X=inst.X, U=U, Y=inst.Y)
    rep = validate(bad)
    assert not rep.ok
    assert 0 in rep.a2_unbounded_dims


def test_dependence_classification_lhs():
    term = (0, np.array([[0.0], [1.0]]))
    U = UncertaintySet(F=AffineMatrixMap(base=[[1.0], [0.0]], terms=(term,)),
                       G=np.zeros((2, 1)), h=[1.0, 2.0])
    inst = t1()
    lhs = Instance(name="lhs", c1=inst.c1, X=inst.X, U=U, Y=inst.Y)
    assert validate(lhs).dependence == "lhs"


def test_json_round_trip_preserves_everything():
    inst = t1()
    d = instance_to_dict(inst)
    back = instance_from_dict(d)
    assert json.dumps(instance_to_dict(back), sort_keys=True) == \
        json.dumps(d, sort_keys=True)
    assert back.name == inst.name
    assert back.X.n_int == inst.X.n_int
    assert np.allclose(back.Y.E, inst.Y.E)


def test_json_handles_infinite_bounds():
    X = FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=0,
                      lb=[0.0, 1.0], ub=[np.inf, 5.0])
    inst = t1()
    i2 = Instance(name="bounds", c1=[1.0, 1.0], X=X, U=inst.U,
                  Y=RecourseSet(B1=np.zeros((1, 2)), B2=[[1.0]], E=[[-1.0]],
                                d=[0.0], c2=[1.0]))
    back = instance_from_dict(instance_to_dict(i2))
    assert back.X.ub[0] == np.inf and back.X.ub[1] == 5.0
    assert back.X.lb[1] == 1.0


def test_relative_gap_conventions():
    assert relative_gap(1.0, 1.0) == pytest.approx(0.0)
    assert relative_gap(99.0, 100.0) == pytest.approx(0.01, rel=1e-6)
    assert relative_gap(-np.inf, 100.0) == np.inf
    assert relative_gap(0.0, 0.0) == pytest.approx(0.0)


def test_run_result_counts_iterations():
    recs = [IterationRecord(t=t, lb=float(t), ub=10.0, gap=1.0, elapsed_s=0.1,
                            cut_kind="optimality")
            for t in range(1, 4)]
    res = RunResult(status="Optimal", objective=10.0, x=np.zeros(1), lb=10.0,
                    ub=10.0, iterations=recs, elapsed_s=0.3, variant="benders")
    assert res.n_iterations == 3
