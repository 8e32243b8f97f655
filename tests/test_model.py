import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddu_ro
from ddu_ro import (
    AffineMatrixMap,
    BasisId,
    FirstStageSet,
    Instance,
    RecourseSet,
    instance_from_dict,
    instance_to_dict,
    relative_gap,
    t1,
)
from ddu_ro import backend
from ddu_ro.backend import GEQ, LEQ, BackendError, LinearModel
from ddu_ro.ccg import AlgorithmConfig, run
from ddu_ro.instances import FLParams, gen_robust_fl
from ddu_ro.model import (IterationRecord, RunResult, _binary_products, dimension_errors,
                          envelope_rows, max_lp, range_probe)
from toys import record_linprog


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


def test_dimension_errors_name_each_mismatch():
    inst = t1()
    assert dimension_errors(inst) == []
    bad = Instance(name="bad", c1=[1.0, 2.0], X=inst.X, U=inst.U, Y=inst.Y)
    assert any("c1" in e for e in dimension_errors(bad))


def test_every_public_name_resolves():
    assert [name for name in ddu_ro.__all__ if not hasattr(ddu_ro, name)] == []


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
    i2 = Instance(name="bounds", c1=[1.0, 1.0], X=X, U=replace(inst.U, G=np.zeros((1, 2))),
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


# -- range_probe: one LP over the probed coordinates ----------------------------

def _lp_names(monkeypatch):
    names, solve_lp = [], backend.solve_lp
    monkeypatch.setattr(backend, "solve_lp", lambda m: names.append(m.name) or solve_lp(m))
    return names


@pytest.mark.parametrize("sense", ["max", "min"])
def test_range_probe_is_one_lp_with_the_value_of_each_coordinates_lp(monkeypatch, sense):
    # z0 + z1 <= 4, z0 - z1 <= 1, z1 >= 1, z2 <= 2 z0: bounded, and no
    # coordinate has the same range as another
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, -1.0, 0.0], [-2.0, 0.0, 1.0]])
    b = np.array([4.0, 1.0, -1.0, 0.0])
    sign = 1.0 if sense == "max" else -1.0
    cols = np.array([2, 0, 1])
    ref = [sign * backend.solve_lp(max_lp(A, b, sign * np.eye(3)[j], "ref")).objective
           for j in cols]
    names = _lp_names(monkeypatch)
    got = range_probe(A, b, cols, sense)
    assert names == ["range_probe"]
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)
    assert got == pytest.approx([5.0, 2.5, 4.0] if sense == "max" else [0.0, 0.0, 1.0])


def test_range_probe_reads_inf_only_where_a_coordinate_is_unbounded():
    # z0 <= 1 and z0 - z2 <= 0.5: z1 and z2 are unbounded above
    A, b = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, -1.0]]), np.array([1.0, 0.5])
    assert range_probe(A, b, np.arange(3)).tolist() == pytest.approx([1.0, np.inf, np.inf])
    assert range_probe(A, b, np.arange(3), "min").tolist() == pytest.approx([0.0, 0.0, 0.0])


def test_range_probe_of_an_empty_set_raises():
    with pytest.raises(BackendError, match="range probe ended Infeasible"):
        range_probe(np.array([[1.0, 0.0]]), np.array([-1.0]), np.arange(2))


def test_a_range_probe_of_an_empty_set_is_one_lp(monkeypatch):
    # every copy shares the empty set, so the first LP's Infeasible holds for
    # all eight rather than being narrowed down to each copy
    names = _lp_names(monkeypatch)
    with pytest.raises(BackendError, match="range probe ended Infeasible"):
        range_probe(np.ones((1, 8)), np.array([-1.0]), np.arange(8))
    assert names == ["range_probe"]


def test_the_first_range_probe_lp_of_fl_rhs5_is_pinned(monkeypatch):
    # sp1's network caps: one copy of the outer set per coordinate that
    # sp1's objective reads; the digest moves only when HiGHS would receive
    # a different problem
    calls = record_linprog(monkeypatch)
    run(gen_robust_fl(FLParams(n_sites=5, seed=0), "rhs"),
        AlgorithmConfig(variant="parametric", max_iterations=1))
    first = next(c for c in calls if c[0] == "range_probe")
    assert first[1:] == [75, "5b2ea414ba6452ab"]    # 5 copies of 15 columns


# -- the binary-product envelope against its pair-by-pair reference ------------

def _envelope_rows(pairs, M, lo, first_w):
    """The rows of the envelope as they were once built, pair by pair, one
    row dict per call: w <= M x, [w >= lo x, w <= v - lo (1 - x)] or w <= v,
    and w >= v - M (1 - x); exact zeros dropped. The reference."""
    rows = []
    for w, (x, v), cap, low in zip(range(first_w, first_w + len(pairs)), pairs,
                                   M.tolist(), lo.tolist()):
        rows.append(({w: 1.0, x: -cap}, LEQ, 0.0))
        if low:
            rows.append(({w: 1.0, x: -low}, GEQ, 0.0))
            rows.append(({w: 1.0, v: -1.0, x: -low}, LEQ, -low))
        else:
            rows.append(({w: 1.0, v: -1.0}, LEQ, 0.0))
        rows.append(({w: 1.0, v: -1.0, x: -cap}, GEQ, -cap))
    return [({j: float(c) for j, c in d.items() if c != 0.0}, s, float(r))
            for d, s, r in rows]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_binary_products_match_the_pair_by_pair_envelope(seed):
    # mixed lo in {0, -M}, M per pair (0 included), x and v ids repeated
    # across pairs, n = 0, and scalar M or lo
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 7))
    m = LinearModel()
    x_ids, v_ids = m.add_vars(3, ub=1.0, integer=True), m.add_vars(4, lb=-np.inf)
    m.add_rows([(x_ids, np.ones((1, 3)))], LEQ, [2.0])
    pairs = list(zip(rng.choice(x_ids, n).tolist(), rng.choice(v_ids, n).tolist()))
    M = rng.choice([0.0, 1.0, 2.5, 1e4], size=n)
    lo = np.where(rng.integers(2, size=n) == 1, -M, 0.0)
    if rng.integers(3) == 0:
        M, lo = np.full(n, 7.0), np.zeros(n)
        args = (7.0, 0.0)
    elif rng.integers(2):
        lo = np.full(n, 0.0)
        args = (M.tolist(), 0.0)
    else:
        args = (M.tolist(), lo.tolist())
    ws = _binary_products(m, pairs, *args)
    assert ws == list(range(7, 7 + n))
    ref = _envelope_rows(pairs, M, lo, 7)
    A, senses, rhs = m.sparse()
    assert A.shape == (1 + len(ref), 7 + n) and m.n_constrs == 1 + len(ref)
    ends = A.indptr[1:].tolist()
    got = [(dict(zip(A.indices[a:b].tolist(), A.data[a:b].tolist())), s, r)
           for a, b, s, r in zip(ends, ends[1:], senses[1:].tolist(), rhs[1:].tolist())]
    assert got == ref
    # in-row entry order, and rhs to the bit (a -0.0 is not a 0.0)
    assert [list(d) for d, _, _ in got] == [list(d) for d, _, _ in ref]
    assert rhs[1:].tobytes() == np.array([r for _, _, r in ref]).tobytes()
    assert A.data.tobytes() == np.array(
        [1.0, 1.0, 1.0] + [c for d, _, _ in ref for c in d.values()]).tobytes()
    lb, ub, integer = m.columns()
    assert lb[7:].tobytes() == lo.astype(float).tobytes()
    assert ub[7:].tobytes() == M.astype(float).tobytes()
    assert not integer[7:].any()


def _envelope_range(form: str, M: float, lo: float, square: bool, x: float, v: float):
    """LP min and max of w over the envelope of w = x v, with x and v fixed,
    through _binary_products (form "model") or envelope_rows over the
    columns (w, x, v) (form "rows"); with square, v reads x's column."""
    m = LinearModel()
    if form == "model":
        x_id, v_id = m.add_vars(1, ub=1.0, integer=True) + m.add_vars(1, lb=-np.inf)
        w_id, = _binary_products(m, [(x_id, x_id if square else v_id)], M, lo)
    else:
        # an instance column is nonnegative; where lo is -M its row holds w
        w_id, x_id, v_id = m.add_vars(3, lb=[0.0 if lo == 0.0 else -np.inf, 0.0, -np.inf])
        z = np.eye(3)
        A, b = envelope_rows(z[[0]], z[[1]], z[[1 if square else 2]], M, lo)
        m.add_rows([([w_id, x_id, v_id], A)], GEQ, b)
    m.set_bounds(np.array([x_id, v_id]), [x, v], [x, v])
    ends = []
    for sense in ("min", "max"):
        m.set_objective({w_id: 1.0}, sense)
        out = backend.solve_lp(m)
        assert out.is_optimal
        ends.append(out.objective)
    return ends


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e4]), st.booleans(), st.booleans())
def test_the_envelope_is_exact_at_binary_x_through_both_forms(M, two_sided, square):
    # w = x v is pinned at every binary x and every v in [lo, M]: the bounds
    # lo and M and a point between; where v reads x's own column (M >= 1 so
    # that v = x fits) w is pinned at x, as for the square of a pair (j, j)
    M = max(M, 1.0) if square else M
    lo = -M if two_sided else 0.0
    for form in ("model", "rows"):
        for x in (0.0, 1.0):
            for v in ([x] if square else [lo, M, lo + 0.3 * (M - lo)]):
                assert _envelope_range(form, M, lo, square, x, v) == pytest.approx(
                    [x * v, x * v], abs=1e-9)
