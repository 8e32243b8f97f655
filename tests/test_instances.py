import itertools
import json
import math
import os

import numpy as np
import pytest

from ddu_ro import instances
from ddu_ro import (
    FLParams,
    PMedianParams,
    gen_mip_recourse_fl,
    gen_reliable_pmedian,
    gen_robust_fl,
    instance_to_dict,
    io_read,
    io_write,
    oracle_exact,
    t1,
    validate,
)
from ddu_ro.instances import (
    OracleError,
    OracleLimits,
    SchemaError,
    check_schema,
    enumerate_vertices,
    recourse_value,
    t1_infeasible,
    worst_case_value,
)
from ddu_ro.model import (AffineMatrixMap, FirstStageSet, Instance, RecourseSet,
                          UncertaintySet, uncertainty_set_from_dict)


# expected values below were produced by this module's own enumeration oracle
# and frozen after cross-checking the tiny cases by hand

def test_t1_oracle_and_per_x_values():
    res = oracle_exact(t1())
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(0.0)
    by_x = {round(x[0]): v for x, v in res.evaluations}
    assert by_x[0] == pytest.approx(1.0, abs=1e-9)
    assert by_x[1] == pytest.approx(3.0, abs=1e-9)


def test_t1_vertices_depend_on_x():
    U = t1().U
    v0 = sorted(enumerate_vertices(U, np.array([0.0])).ravel().tolist())
    v1 = sorted(enumerate_vertices(U, np.array([1.0])).ravel().tolist())
    assert v0 == pytest.approx([0.0, 1.0])
    assert v1 == pytest.approx([0.0, 2.0])


def test_recourse_value_infeasible_is_inf():
    inst = t1_infeasible()
    val, y = recourse_value(inst, np.array([0.0]), np.array([0.0]))
    assert val == np.inf and y is None


def test_worst_case_picks_the_cap():
    inst = t1()
    wc, u = worst_case_value(inst, np.array([1.0]))
    assert wc == pytest.approx(2.0)
    assert u[0] == pytest.approx(2.0)


PM4 = dict(n_sites=4, seed=3, p=2, k=1, rho=0.3, theta=0.0)
PM4_VALUE = 9557.670493655241


def test_pmedian_disruption_set_reduction_is_exact():
    # with a dominating penalty and theta <= 0, restricting disruptions to
    # built sites does not change the optimum
    r_diu = oracle_exact(gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0"))
    r_ddu = oracle_exact(gen_reliable_pmedian(PMedianParams(**PM4), "ddu_uk"))
    assert r_diu.value == pytest.approx(PM4_VALUE, abs=1e-6)
    assert r_ddu.value == pytest.approx(PM4_VALUE, abs=1e-6)
    assert abs(r_diu.value - r_ddu.value) <= 1e-6


def test_pmedian_relaxation_chain_orders_values():
    vals = {}
    for kind in ("ddu_uk", "ddu_ukq", "diu_u0"):
        vals[kind] = oracle_exact(
            gen_reliable_pmedian(PMedianParams(**PM4), kind)).value
    assert vals["ddu_uk"] <= vals["ddu_ukq"] + 1e-7
    assert vals["ddu_ukq"] <= vals["diu_u0"] + 1e-7


def test_pmedian_warns_when_penalty_too_small():
    params = PMedianParams(**{**PM4, "penalty": 1.0})
    with pytest.warns(UserWarning):
        gen_reliable_pmedian(params, "ddu_uk")


FL2 = dict(n_sites=2, seed=1, capacity_lower_frac=1.5, capacity_upper_frac=1.5)


def test_fl_generators_validate_and_match_frozen_values():
    fp = FLParams(**FL2)
    expect = {"rhs": -37922.762986387716, "lhs": -37922.762986387716}
    for dep, val in expect.items():
        inst = gen_robust_fl(fp, dep)
        rep = validate(inst)
        assert rep.ok, rep.errors
        assert rep.dependence == dep
        assert oracle_exact(inst).value == pytest.approx(val, rel=1e-9)


def test_fl_zero_profit_exposes_dependence_and_feasibility_cuts():
    fp = FLParams(n_sites=2, seed=5, capacity_lower_frac=1.5,
                  capacity_upper_frac=1.5, profits=np.zeros(2))
    r_rhs = oracle_exact(gen_robust_fl(fp, "rhs"))
    r_lhs = oracle_exact(gen_robust_fl(fp, "lhs"))
    assert r_rhs.value == pytest.approx(4096.546155822063, rel=1e-9)
    assert r_lhs.value == pytest.approx(4105.673310050928, rel=1e-9)
    # under-built first stages cannot serve the worst demand at all
    assert sum(1 for _, v in r_rhs.evaluations if np.isinf(v)) == 3


def test_fl_mip_recourse_validates_and_matches_frozen_value():
    inst = gen_mip_recourse_fl(FLParams(**FL2))
    assert inst.Y.n_int_y == 2
    rep = validate(inst)
    assert rep.ok, rep.errors
    assert oracle_exact(inst).value == pytest.approx(-52261.99993668124, rel=1e-7)


def test_generators_are_deterministic():
    a = gen_reliable_pmedian(PMedianParams(n_sites=3, seed=7, p=1, k=1), "ddu_ur")
    b = gen_reliable_pmedian(PMedianParams(n_sites=3, seed=7, p=1, k=1), "ddu_ur")
    assert json.dumps(instance_to_dict(a), sort_keys=True) == \
        json.dumps(instance_to_dict(b), sort_keys=True)


def test_pairing_mode_carries_both_sets():
    inst = gen_reliable_pmedian(PMedianParams(n_sites=3, seed=7, p=1, k=1),
                                "ddu_us_pair")
    assert validate(inst).ok
    assert inst.U.n_int_u == 3
    sets = [uncertainty_set_from_dict(d) for d in inst.metadata["ddu_sets"]]
    assert len(sets) == 2
    assert all(s.dim == 3 and s.n_int_u == 0 for s in sets)
    # each approximation set keys disruptions to its own marker column
    xr = inst.metadata["blocks"]["x_r"]
    xs = inst.metadata["blocks"]["x_s"]
    assert np.any(sets[0].G[:, xr])
    assert not np.any(sets[0].G[:, xs])
    assert np.any(sets[1].G[:, xs])


def test_io_round_trip(tmp_path):
    inst = gen_robust_fl(FLParams(**FL2), "lhs")
    path = str(tmp_path / "inst.json")
    io_write(path, inst)
    back = io_read(path)
    assert json.dumps(instance_to_dict(back), sort_keys=True) == \
        json.dumps(instance_to_dict(inst), sort_keys=True)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".part")]


def test_schema_rejects_unknown_keys_with_location():
    d = instance_to_dict(t1())
    d["U"]["Foo"] = 1
    with pytest.raises(SchemaError, match=r"\$\.U"):
        check_schema(d)


def test_schema_rejects_out_of_range_triplets():
    d = instance_to_dict(t1())
    d["Y"]["B2"]["triplets"].append([7, 0, 1.0])
    with pytest.raises(SchemaError, match=r"\$\.Y\.B2"):
        check_schema(d)


def test_oracle_refuses_oversized_enumerations():
    fp = FLParams(n_sites=3, seed=5, capacity_lower_frac=1.5,
                  capacity_upper_frac=1.5)
    with pytest.raises(OracleError, match="basis systems"):
        oracle_exact(gen_robust_fl(fp, "rhs"))


def test_oracle_refuses_too_many_free_coupled_dims():
    from ddu_ro.model import (AffineMatrixMap, FirstStageSet, Instance,
                              RecourseSet, UncertaintySet)
    # three continuous first-stage dims, each free in [0, 1], all pushing the
    # demand cap: more than the two-dim grid allows
    nx = 3
    U = UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=np.ones((1, nx)),
                       h=[1.0])
    inst = Instance(
        name="wide", c1=np.ones(nx),
        X=FirstStageSet(A=np.zeros((0, nx)), b=np.zeros(0), n_int=0,
                        ub=np.ones(nx)),
        U=U,
        Y=RecourseSet(B1=np.zeros((1, nx)), B2=[[1.0]], E=[[-1.0]], d=[0.0],
                      c2=[1.0]))
    with pytest.raises(OracleError, match="grid limit"):
        oracle_exact(inst)


def test_oracle_refuses_mixed_integer_uncertainty():
    from ddu_ro.model import AffineMatrixMap, Instance, UncertaintySet
    base = t1()
    U = UncertaintySet(F=AffineMatrixMap(base=np.eye(2)), G=np.zeros((2, 1)),
                       h=np.ones(2), n_int_u=1)
    inst = Instance(name="mixed", c1=base.c1, X=base.X, U=U,
                    Y=type(base.Y)(B1=[[0.0]], B2=[[1.0]], E=[[-1.0, 0.0]],
                                   d=[0.0], c2=[1.0]))
    with pytest.raises(OracleError, match="mixed-integer"):
        enumerate_vertices(U, np.array([0.0]))


# -- vertex enumeration against the determinant sweep per call ------------------

def _vertices_by_every_basis(U, x, limits=None):
    """Reference for enumerate_vertices on continuous u: takes the determinant
    of every basis of [F(x) | I] at every call and de-duplicates basis by
    basis, in the order of itertools.combinations."""
    limits = limits or OracleLimits()
    x = np.asarray(x, dtype=float)
    Fx = U.F.evaluate(x)
    rhs = U.h + U.G @ x
    mu, n = Fx.shape
    n_cols = n + mu
    assert math.comb(n_cols, mu) <= limits.max_bases

    A = np.hstack([Fx, np.eye(mu)])
    # row equilibration keeps basis determinants O(1); structural u parts of
    # the basic solutions are unchanged, slack values rescale harmlessly
    row_scale = np.maximum(np.abs(A).max(axis=1), 1e-30)
    A = A / row_scale[:, None]
    rhs_s = rhs / row_scale
    combos = np.array(list(itertools.combinations(range(n_cols), mu)), dtype=int)
    verts: list[np.ndarray] = []
    seen: set[tuple] = set()
    chunk = max(1, int(2e7 // (mu * mu)))
    for lo in range(0, len(combos), chunk):
        sub = combos[lo:lo + chunk]
        mats = A[:, sub].transpose(1, 0, 2)          # (batch, mu, mu)
        dets = np.abs(np.linalg.det(mats))
        ok = dets > 1e-12
        if not np.any(ok):
            continue
        b_batch = np.broadcast_to(rhs_s[:, None], (int(ok.sum()), mu, 1)).copy()
        sols = np.linalg.solve(mats[ok], b_batch)[:, :, 0]
        feas = np.all(sols >= -limits.dedup_tol * np.maximum(1.0, np.abs(rhs_s).max()),
                      axis=1)
        # guard against ill-conditioned near-singular systems
        resid = np.einsum("bij,bj->bi", mats[ok], sols) - rhs_s
        feas &= np.max(np.abs(resid), axis=1) <= 1e-7 * max(1.0, np.abs(rhs_s).max())
        for cols, z in zip(sub[ok][feas], sols[feas]):
            u = np.zeros(n)
            struct = cols < n
            u[cols[struct]] = np.maximum(z[struct], 0.0)
            key = tuple(np.round(u / limits.dedup_tol).astype(np.int64))
            if key not in seen:
                seen.add(key)
                verts.append(u)
                if len(verts) > limits.max_vertices:
                    raise OracleError(f"more than {limits.max_vertices} vertices")
    if not verts:
        raise OracleError("U(x) is empty at the probed x (nonemptiness violated)")
    return np.array(verts)


def _pm_uk8_stages():
    inst = gen_reliable_pmedian(PMedianParams(n_sites=8), "ddu_uk")
    mixed = np.zeros(inst.dim_x)
    mixed[[0, 2, 3, 6]] = 1.0
    ones = np.zeros(inst.dim_x)
    ones[:8] = 1.0
    return inst.U, [np.zeros(inst.dim_x), ones, mixed]


def _fl_stages(dependence):
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0), dependence)
    return inst.U, [np.array([1.0, 0.0, 150.0, 0.0]),
                    np.array([1.0, 1.0, 90.0, 120.0])]


def _t1_stages():
    return t1().U, [np.array([0.0]), np.array([1.0])]


@pytest.mark.parametrize("stages", [_pm_uk8_stages, lambda: _fl_stages("rhs"),
                                    lambda: _fl_stages("lhs"), _t1_stages],
                         ids=["ddu_uk8", "fl-rhs2", "fl-lhs2", "t1"])
def test_vertices_match_the_sweep_over_every_basis(stages):
    U, xs = stages()
    bases: dict = {}
    for x in xs:
        ref = _vertices_by_every_basis(U, x)
        assert np.array_equal(enumerate_vertices(U, x), ref)
        assert np.array_equal(enumerate_vertices(U, x, bases=bases), ref)


def test_basis_memo_follows_an_x_dependent_matrix():
    U, (x1, x2) = _fl_stages("lhs")
    assert not np.array_equal(U.F.evaluate(x1), U.F.evaluate(x2))
    bases: dict = {}
    got = [enumerate_vertices(U, x, bases=bases) for x in (x1, x2, x1)]
    assert not np.array_equal(got[0], got[1])
    for x, v in zip((x1, x2, x1), got):
        assert np.array_equal(v, _vertices_by_every_basis(U, x))


def _u2_cap(F, h):
    """max u2 over U = {u >= 0 : F u <= h}, with one binary x that U ignores."""
    return Instance(
        name="u2-cap", c1=[0.0],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        lb=[0.0], ub=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=F), G=np.zeros((2, 1)), h=h),
        Y=RecourseSet(B1=[[0.0]], B2=[[1.0]], E=[[0.0, -1.0]], d=[0.0], c2=[1.0]))


def test_basis_memo_is_keyed_on_the_matrix_entries():
    # equal shapes, different nonsingular bases: {u1, u2} and the slack basis
    # serve the box, while the vertex (0, 1) of the second set needs {u2, s2}
    box = _u2_cap(np.eye(2), [1.0, 2.0])
    wedge = _u2_cap([[1.0, 1.0], [1.0, -1.0]], [1.0, 2.0])
    assert oracle_exact(box).value == pytest.approx(2.0)
    assert oracle_exact(wedge).value == pytest.approx(1.0)
    bases: dict = {}
    for inst in (box, wedge, box):
        assert np.array_equal(enumerate_vertices(inst.U, [0.0], bases=bases),
                              _vertices_by_every_basis(inst.U, [0.0]))


def test_vertex_enumeration_limits_and_empty_sets():
    with pytest.raises(OracleError, match="more than"):
        enumerate_vertices(t1().U, [0.0], OracleLimits(max_vertices=1))
    empty = UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[0.0]], h=[-1.0])
    with pytest.raises(OracleError, match="nonemptiness violated"):
        enumerate_vertices(empty, [0.0])
    # after row scaling every basis determinant is at most 1e-13
    singular = UncertaintySet(F=AffineMatrixMap(base=np.full((2, 2), 1e13)),
                              G=np.zeros((2, 1)), h=[1.0, 1.0])
    with pytest.raises(OracleError, match="nonemptiness violated"):
        enumerate_vertices(singular, [0.0])


# -- worst_case_value against the per-vertex loop ------------------------------

def _worst_case_by_loop(inst, x, bases=None):
    """Reference for worst_case_value: the recourse LP at every vertex of U(x)
    in enumeration order, keeping the first strict maximum and stopping at the
    first vertex without recourse."""
    verts = enumerate_vertices(inst.U, x, bases=bases)
    best, best_u = -np.inf, verts[0]
    for u in verts:
        val, _ = recourse_value(inst, x, u)
        if val > best:
            best, best_u = val, u
            if np.isinf(best):
                break
    return best, best_u


@pytest.mark.parametrize("make", [
    lambda: gen_reliable_pmedian(PMedianParams(n_sites=5), "ddu_uk"),
    lambda: gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs"),
    lambda: gen_mip_recourse_fl(FLParams(**FL2)),
    t1,
    t1_infeasible,
], ids=["ddu_uk5", "fl-rhs2", "fl-mip2", "t1", "t1-infeasible"])
def test_worst_case_value_matches_the_per_vertex_loop(make, monkeypatch):
    inst = make()
    seen = []
    original = instances.worst_case_value

    def recorded(inst, x, *args, **kwargs):
        seen.append((x, original(inst, x, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(instances, "worst_case_value", recorded)
    res = oracle_exact(inst)
    assert len(seen) == len(res.evaluations)
    ref_bases: dict = {}
    for x, (val, u) in seen:
        ref_val, ref_u = _worst_case_by_loop(inst, x, ref_bases)
        assert val == pytest.approx(ref_val, rel=1e-9)
        assert np.array_equal(u, ref_u)


def _interval_toy(B2, E, d, c2, n_int_y=0):
    """U = {0 <= u <= 2}, whose vertices enumerate as u = 2, then u = 0, with
    a one-dimensional recourse y >= 0 and one binary x that nothing uses."""
    return Instance(
        name="interval", c1=[0.0],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        lb=[0.0], ub=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[0.0]], h=[2.0]),
        Y=RecourseSet(B1=np.zeros((len(d), 1)), B2=B2, E=E, d=d, c2=c2,
                      n_int_y=n_int_y))


def _count_recourse_calls(monkeypatch):
    calls = []
    original = instances.recourse_value

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(instances, "recourse_value", counted)
    return calls


def test_worst_case_falls_back_to_the_loop_when_a_later_vertex_has_no_recourse(
        monkeypatch):
    # 0 <= y <= u - 1: the first vertex u = 2 has recourse, u = 0 has none
    inst = _interval_toy(B2=[[1.0], [-1.0]], E=[[0.0], [1.0]], d=[0.0, 1.0],
                         c2=[1.0])
    x = np.array([0.0])
    assert np.array_equal(enumerate_vertices(inst.U, x), [[2.0], [0.0]])
    calls = _count_recourse_calls(monkeypatch)
    val, u = worst_case_value(inst, x)
    assert val == np.inf and np.array_equal(u, [0.0])
    # the first vertex alone, then the loop over both
    assert [c[0] for c in calls] == [2.0, 2.0, 0.0]
    ref_val, ref_u = _worst_case_by_loop(inst, x)
    assert val == ref_val and np.array_equal(u, ref_u)


def test_worst_case_stops_at_a_first_vertex_without_recourse(monkeypatch):
    # y <= 1 - u: the first vertex u = 2 has no recourse
    inst = _interval_toy(B2=[[1.0], [-1.0]], E=[[0.0], [-1.0]], d=[0.0, -1.0],
                         c2=[1.0])
    calls = _count_recourse_calls(monkeypatch)
    val, u = worst_case_value(inst, np.array([0.0]))
    assert val == np.inf and np.array_equal(u, [2.0])
    assert [c[0] for c in calls] == [2.0]


def test_worst_case_with_finite_recourse_solves_one_block_lp(monkeypatch):
    # y >= u at cost 1: one LP for the first vertex, one for both blocks
    inst = _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0])
    calls = _count_recourse_calls(monkeypatch)
    val, u = worst_case_value(inst, np.array([0.0]))
    assert val == pytest.approx(2.0) and np.array_equal(u, [2.0])
    assert len(calls) == 1


def test_worst_case_of_an_unbounded_recourse_is_minus_inf():
    # min -y over y >= u is unbounded at every vertex
    inst = _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[-1.0])
    x = np.array([0.0])
    val, u = worst_case_value(inst, x)
    assert val == -np.inf and np.array_equal(u, [2.0])
    ref_val, ref_u = _worst_case_by_loop(inst, x)
    assert val == ref_val and np.array_equal(u, ref_u)


def test_worst_case_with_integer_recourse_takes_the_loop():
    # 4 y >= u with y integer: y = 1 at u = 2, where the LP relaxation has 1/2
    inst = _interval_toy(B2=[[4.0]], E=[[-1.0]], d=[0.0], c2=[1.0], n_int_y=1)
    val, u = worst_case_value(inst, np.array([0.0]))
    assert val == pytest.approx(1.0) and np.array_equal(u, [2.0])
