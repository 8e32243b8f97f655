from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddu_ro import backend, maxmin, t1
from ddu_ro.backend import GEQ, LEQ, BackendError, LinearModel, SolveTimeLimit
from ddu_ro.instances import (FLParams, PMedianParams, enumerate_vertices,
                              gen_mip_recourse_fl, gen_reliable_pmedian,
                              gen_robust_fl)
from ddu_ro.maxmin import (
    MaxMinProblem,
    build_optimality_block,
    check_inner_feasibility,
    ensure_unique_optimum,
    has_integral_vertices,
    has_interval_rows,
    has_network_columns,
    lp_parametric,
    maxmin_from_instance,
    perturb_for_uniqueness,
    solve_maxmin_dual,
    solve_maxmin_kkt,
)
from ddu_ro.model import (AffineMatrixMap, BasisId, Instance, UncertaintySet,
                          add_first_stage, uncertainty_set_from_dict)
from ddu_ro.subproblems import sp1, sp2


def test_lp_parametric_on_t1_box():
    # at x=1 the set is 0 <= u <= 2 and beta=1 maximizes u itself
    r = lp_parametric(t1(), np.array([1.0]), np.array([1.0]))
    assert r.value == pytest.approx(2.0)
    assert r.u[0] == pytest.approx(2.0)
    assert r.basis == BasisId((0,))
    assert r.reduced_costs[1] == pytest.approx(-1.0)  # slack prices at -lambda


def test_lp_parametric_degenerate_box():
    # U(x) = {0 <= u <= 0}: only the origin, any beta
    U = UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[0.0]], h=[0.0])
    base = t1()
    inst = Instance(name="point", c1=base.c1, X=base.X, U=U, Y=base.Y)
    r = lp_parametric(inst, np.array([0.0]), np.array([5.0]))
    assert r.value == pytest.approx(0.0)
    assert r.u[0] == pytest.approx(0.0)


def test_lp_parametric_two_row_vertex():
    # rows 2u1+u2 <= 3, u1+2u2 <= 5: pushing both coordinates lands on the
    # vertex where both rows bind, the basic solution (1/3, 7/3)
    U = UncertaintySet(F=AffineMatrixMap(base=[[2.0, 1.0], [1.0, 2.0]]),
                       G=np.zeros((2, 1)), h=[3.0, 5.0])
    base = t1()
    Y = type(base.Y)(B1=np.zeros((2, 1)), B2=np.eye(2), E=-np.eye(2),
                     d=np.zeros(2), c2=np.ones(2))
    inst = Instance(name="vertex", c1=base.c1, X=base.X, U=U, Y=Y)
    r = lp_parametric(inst, np.array([0.0]), np.array([1.0, 1.0]))
    assert r.u == pytest.approx([1.0 / 3.0, 7.0 / 3.0])
    assert r.basis == BasisId((0, 1))
    assert r.value == pytest.approx(8.0 / 3.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 9999))
def test_lp_parametric_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, mu = 2, rng.integers(2, 5)
    F = rng.uniform(0.1, 2.0, size=(mu, n))
    h = rng.uniform(0.5, 3.0, size=mu)
    U = UncertaintySet(F=AffineMatrixMap(base=F), G=np.zeros((mu, 1)), h=h)
    base = t1()
    Y = type(base.Y)(B1=np.zeros((n, 1)), B2=np.eye(n), E=-np.eye(n),
                     d=np.zeros(n), c2=np.ones(n))
    inst = Instance(name="rand", c1=base.c1, X=base.X, U=U, Y=Y)
    beta = rng.uniform(-1.0, 1.0, size=n)
    r = lp_parametric(inst, np.array([0.0]), beta)
    verts = enumerate_vertices(U, np.array([0.0]))
    best = max(float(-(inst.Y.E @ v) @ beta) for v in verts)
    assert r.value == pytest.approx(best, abs=1e-8)


def test_check_inner_feasibility_complete_recourse():
    # shortfall variable keeps the inner LP feasible everywhere
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.array([1.0, 10.0]), B_y=np.array([[1.0, 1.0]]),
                      B_x=np.array([[-1.0]]), d=np.array([0.0]))
    v_f, _ = check_inner_feasibility(p)
    assert v_f == pytest.approx(0.0, abs=1e-9)


def test_check_inner_feasibility_finds_witness():
    # inner {y : y >= u, y <= 0} fails exactly when u > 0; worst u = 1
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.array([1.0]), B_y=np.array([[1.0], [-1.0]]),
                      B_x=np.array([[-1.0], [0.0]]), d=np.array([0.0, 0.0]))
    v_f, witness = check_inner_feasibility(p)
    assert v_f == pytest.approx(1.0, abs=1e-7)
    assert witness[0] == pytest.approx(1.0, abs=1e-7)


def test_kkt_and_dual_routes_agree_on_t1():
    for xv in (0.0, 1.0):
        p = maxmin_from_instance(t1(), np.array([xv]))
        k = solve_maxmin_kkt(p)
        d = solve_maxmin_dual(p)
        assert k.value == pytest.approx(1.0 + xv)
        assert d.value == pytest.approx(k.value, rel=1e-6)


def test_dual_route_returns_ray_on_inner_infeasibility():
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.array([1.0]), B_y=np.array([[1.0], [-1.0]]),
                      B_x=np.array([[-1.0], [0.0]]), d=np.array([0.0, 0.0]))
    res = solve_maxmin_dual(p)
    assert res.value == np.inf
    assert res.outer == pytest.approx([1.0], abs=1e-7)
    # the inner LP has no point at the witness
    inner = LinearModel()
    y = inner.add_vars(p.B_y.shape[1])
    inner.add_rows([(y, p.B_y)], GEQ, p.d - p.B_x @ res.outer)
    assert backend.solve_lp(inner).status == backend.INFEASIBLE


def test_zero_inner_cost_gives_zero_value():
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.zeros(1), B_y=np.array([[1.0]]),
                      B_x=np.array([[-1.0]]), d=np.array([0.0]))
    res = solve_maxmin_dual(p)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_singleton_outer_set_reduces_to_inner_lp():
    # outer u pinned to 0.7 by a pair of rows
    p = MaxMinProblem(A_out=np.array([[1.0], [-1.0]]),
                      b_out=np.array([0.7, -0.7]),
                      c_y=np.array([2.0]), B_y=np.array([[1.0]]),
                      B_x=np.array([[-1.0]]), d=np.array([0.0]))
    res = solve_maxmin_kkt(p)
    assert res.value == pytest.approx(1.4)


def block_membership_gap(inst: Instance, x: np.ndarray, u: np.ndarray) -> float:
    """Largest violation of F(x) u <= h + G x: zero means u in U(x)."""
    x = np.asarray(x, dtype=float)
    resid = inst.U.F.evaluate(x) @ np.asarray(u, dtype=float) \
        - (inst.U.h + inst.U.G @ x)
    return float(np.max(resid)) if resid.size else 0.0


def _fixed_first_stage(inst: Instance, x) -> tuple[LinearModel, list[int]]:
    # a model holding the first stage of inst with every column fixed at x
    m = LinearModel()
    x_ids = add_first_stage(m, inst)
    m.set_bounds(x_ids, x, x)
    return m, x_ids


@pytest.mark.parametrize("representation", ["kkt", "primal-dual"])
def test_block_projection_stays_in_the_set(representation):
    inst = t1()
    for M in (10.0, 100.0, 10000.0):
        m, x_ids = _fixed_first_stage(inst, [1.0])
        blk = build_optimality_block(m, inst, beta=np.array([1.0]),
                                     representation=representation, M=M,
                                     x_ids=x_ids)
        for sense in ("min", "max"):
            m.set_objective({blk.u_ids[0]: 1.0}, sense=sense)
            out = backend.solve_mip(m)
            assert out.is_optimal
            u = np.array([out.x[blk.u_ids[0]]])
            assert block_membership_gap(inst, np.array([1.0]), u) <= 1e-6


def test_block_with_zero_beta_admits_every_point():
    inst = t1()
    m, x_ids = _fixed_first_stage(inst, [1.0])
    blk = build_optimality_block(m, inst, beta=np.array([0.0]),
                                 representation="kkt", M=100.0, x_ids=x_ids)
    m.set_objective({blk.u_ids[0]: 1.0}, sense="max")
    hi = backend.solve_mip(m).objective
    m.set_objective({blk.u_ids[0]: 1.0}, sense="min")
    lo = backend.solve_mip(m).objective
    assert lo == pytest.approx(0.0, abs=1e-7)
    assert hi == pytest.approx(2.0, abs=1e-7)


def test_block_diu_matches_enumerated_argmax():
    # decision-independent set: block must reproduce the enumerated argmax
    F = np.vstack([np.ones((1, 2)), np.eye(2)])
    U = UncertaintySet(F=AffineMatrixMap(base=F), G=np.zeros((3, 1)),
                       h=np.array([1.0, 1.0, 1.0]))
    base = t1()
    Y = type(base.Y)(B1=np.zeros((2, 1)), B2=np.eye(2), E=-np.eye(2),
                     d=np.zeros(2), c2=np.ones(2))
    inst = Instance(name="diu", c1=base.c1, X=base.X, U=U, Y=Y)
    beta = np.array([1.0, 0.25])
    verts = enumerate_vertices(U, np.array([0.0]))
    best_u = max(verts, key=lambda v: float(-(Y.E @ v) @ beta))
    m, x_ids = _fixed_first_stage(inst, [0.0])
    blk = build_optimality_block(m, inst, beta=beta, representation="kkt",
                                 M=100.0, x_ids=x_ids)
    m.set_objective({})
    out = backend.solve_mip(m)
    u = np.array([out.x[j] for j in blk.u_ids])
    assert u == pytest.approx(best_u, abs=1e-7)


def test_block_rejects_continuous_matrix_dependence_in_master():
    base = t1()
    # F depends on a continuous first-stage component
    X = type(base.X)(A=np.zeros((0, 1)), b=np.zeros(0), n_int=0,
                     lb=[0.0], ub=[1.0])
    U = UncertaintySet(F=AffineMatrixMap(base=[[1.0]], terms=((0, np.array([[1.0]])),)),
                       G=[[0.0]], h=[1.0])
    inst = Instance(name="lhs_cont", c1=base.c1, X=X, U=U, Y=base.Y)
    m = LinearModel()
    x_ids = m.add_vars(1, 0.0, 1.0)
    with pytest.raises(ValueError, match="binary"):
        build_optimality_block(m, inst, beta=np.array([1.0]), M=10.0,
                               x_ids=x_ids)


def test_perturbation_rules():
    c = np.array([3.0, 2.0, 0.0])
    rc = np.array([0.0, -1.0, 0.0])
    c_hat = perturb_for_uniqueness(c, BasisId((0,)), rc, epsilon=0.01)
    # basic stays, negative-rc nonbasic stays, zero-rc nonbasic drops by eps
    assert c_hat == pytest.approx([3.0, 2.0, -0.01])


def test_perturbation_noop_when_already_unique():
    c = np.array([3.0, 2.0])
    rc = np.array([0.0, -0.5])
    c_hat = perturb_for_uniqueness(c, BasisId((0,)), rc, epsilon=0.01)
    assert c_hat == pytest.approx(c)


def test_a_failed_uniqueness_check_raises_after_one_perturbation(monkeypatch):
    checks = []

    def unclean(inst, x, base, c_hat):
        checks.append(c_hat)
        return False

    monkeypatch.setattr(maxmin, "_perturbation_is_clean", unclean)
    with pytest.raises(BackendError, match="failed to isolate"):
        ensure_unique_optimum(t1(), np.array([1.0]), np.array([0.0]))
    assert len(checks) == 1


def test_ensure_unique_optimum_isolates_a_vertex():
    inst = t1()
    base, c_hat = ensure_unique_optimum(inst, np.array([1.0]), np.array([0.0]))
    # beta = 0 leaves every u in [0,2] optimal; the perturbed block collapses
    # to exactly the solver's vertex
    m, x_ids = _fixed_first_stage(inst, [1.0])
    blk = build_optimality_block(m, inst, beta=np.array([0.0]),
                                 representation="unique", M=100.0,
                                 unique_data=c_hat, x_ids=x_ids)
    us = []
    for sense in ("min", "max"):
        m.set_objective({blk.u_ids[0]: 1.0}, sense=sense)
        us.append(backend.solve_mip(m).x[blk.u_ids[0]])
    assert us[0] == pytest.approx(us[1], abs=1e-7)
    assert us[0] == pytest.approx(base.u[0], abs=1e-7)


def _pair_surrogate(k: int) -> Instance:
    inst = gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair")
    return replace(inst, U=uncertainty_set_from_dict(inst.metadata["ddu_sets"][k]))


@pytest.mark.parametrize("make, requested, expected", [
    (lambda: _pm_uk(8), None, "primal-dual"),
    (lambda: _pair_surrogate(0), None, "primal-dual"),
    (lambda: _pair_surrogate(1), None, "primal-dual"),
    (lambda: gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs"), None, "kkt"),
    (lambda: gen_mip_recourse_fl(FLParams(n_sites=2, seed=1)), None, "kkt"),
    (lambda: _pm_uk(8), "unique", "unique"),
], ids=["ddu_uk", "ddu_us_pair-0", "ddu_us_pair-1", "fl-rhs", "fl-mip", "unique"])
def test_block_representation_follows_the_coupling(make, requested, expected):
    # binary coupling gets the strong-duality row, which adds no binary;
    # complementarity blocks add one per row and per column of U
    inst = make()
    m = LinearModel()
    x_ids = add_first_stage(m, inst)
    blk = build_optimality_block(m, inst, beta=np.ones(inst.Y.n_rows),
                                 representation=requested, M=100.0,
                                 unique_data=np.zeros(inst.U.dim + inst.U.n_rows),
                                 x_ids=x_ids)
    assert blk.representation == expected
    added = sum(v.integer for v in m.vars) - inst.X.n_int
    assert added == (0 if expected == "primal-dual" else inst.U.n_rows + inst.U.dim)


@pytest.mark.parametrize("make, norm_c", [
    (lambda: _pm_uk(8), 1.5e4),
    (lambda: gen_robust_fl(FLParams(n_sites=5, seed=0), "rhs"), 100.0),
], ids=["pm_uk8", "fl-rhs"])
def test_the_dual_side_bound_scales_with_the_cost_row_and_f(make, norm_c):
    # M_d = max(big_M, 2 ||c||_1 kappa), kappa the largest |F| entry: 1 on
    # ddu_uk's interval F, where M_d is 2 ||c||_1 once that exceeds big_M;
    # the largest demand on fl-rhs, where M_d exceeds big_M though
    # 2 ||c||_1 does not
    inst, M = make(), 1e4
    assert not inst.U.F.terms
    kappa = float(np.abs(inst.U.F.base).max())
    E1 = np.abs(inst.Y.E.T @ np.ones(inst.Y.n_rows)).sum()
    beta = np.full(inst.Y.n_rows, norm_c / E1)
    two_c = 2.0 * float(np.abs(inst.Y.E.T @ beta).sum())
    M_d = max(M, two_c * kappa)
    if kappa == 1.0:
        assert M_d == two_c > M
    else:
        assert two_c < M < M_d
    m = LinearModel()
    blk = build_optimality_block(m, inst, beta, add_first_stage(m, inst), M=M)
    _, ub, integer = m.columns()
    if blk.representation == "kkt":
        # each switch column holds its pair's two bounds: lam_i <= M_d delta
        # against slack_i <= M (1 - delta), then u_j <= M delta against its
        # reduced cost <= M_d (1 - delta)
        A = m.sparse()[0].tocsc()
        switches = np.flatnonzero(integer)[inst.X.n_int:]
        pairs = [tuple(A[:, [j]].data.tolist()) for j in switches]
        mu = inst.U.n_rows
        assert pairs == [(-M_d, M)] * mu + [(-M, M_d)] * (len(switches) - mu)
    else:
        # the products x_k lam_i of the strong-duality row are capped at M_d
        assert blk.representation == "primal-dual" and M_d in ub


def test_unique_representation_requires_cost_row():
    m, x_ids = _fixed_first_stage(t1(), [0.0])
    with pytest.raises(ValueError, match="cost row"):
        build_optimality_block(m, t1(), beta=np.array([1.0]),
                               representation="unique", x_ids=x_ids)


# -- the product route on sets with integral vertices ---------------------------

def _pm_uk(n_sites: int, p: int = 3, seed: int = 0) -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=n_sites, p=p, seed=seed),
                                "ddu_uk")


def _open_sites(inst: Instance, sites) -> np.ndarray:
    x = np.zeros(inst.dim_x)
    x[list(sites)] = 1.0
    return x


def test_integral_vertex_check_accepts_ddu_uk_at_binary_x():
    inst = _pm_uk(6)
    for sites in ((0, 1, 2), (3, 4, 5), (1, 3, 5)):
        problem = maxmin_from_instance(inst, _open_sites(inst, sites))
        assert has_interval_rows(problem.A_out)
        assert has_integral_vertices(problem.A_out, problem.b_out)


def test_integral_vertex_check_rejects_other_sets():
    fl = gen_robust_fl(FLParams(n_sites=3, seed=0), "rhs")
    x = np.zeros(fl.dim_x)
    x[:fl.X.n_int] = 1.0
    problem = maxmin_from_instance(fl, x)
    assert not has_integral_vertices(problem.A_out, problem.b_out)
    assert not has_interval_rows([[1.0, 0.0, 1.0]])
    assert not has_interval_rows([[1.0, -1.0, 0.0]])
    assert not has_interval_rows([[2.0, 2.0, 0.0]])
    assert has_interval_rows([[0.0, -1.0, -1.0], [0.0, 0.0, 0.0]])
    assert not has_integral_vertices(np.eye(2), [1.0, 0.5])
    assert has_integral_vertices(np.eye(2), [1.0, 0.0])


@pytest.fixture
def mip_names(monkeypatch):
    """The names of the MIPs solved while the test runs, in order."""
    names = []
    solve_mip = backend.solve_mip

    def recording(model, **kw):
        names.append(model.name)
        return solve_mip(model, **kw)

    monkeypatch.setattr(backend, "solve_mip", recording)
    return names


def test_product_and_kkt_routes_agree_on_pmedian(monkeypatch, mip_names):
    cases = [(_pm_uk(5, p=2), (0, 3)), (_pm_uk(6), (0, 2, 4)), (_pm_uk(6), (1, 2, 5))]
    product = []
    for inst, sites in cases:
        x = _open_sites(inst, sites)
        mip_names.clear()
        product.append(sp2(inst, x))
        assert [n for n in mip_names if n.endswith("_bilin")], mip_names
    monkeypatch.setattr(maxmin, "has_integral_vertices", lambda A, b: False)
    for (inst, sites), r in zip(cases, product):
        mip_names.clear()
        k = sp2(inst, _open_sites(inst, sites))
        assert mip_names and all(n.endswith("_kkt") for n in mip_names)
        assert r.value == pytest.approx(k.value, rel=1e-6)
        x = _open_sites(inst, sites)
        d_eff = float((inst.Y.d - inst.Y.B1 @ x) @ r.pi)
        assert abs(r.value - (d_eff + r.basis_result.value)) <= 1e-6 * abs(r.value)


def test_product_route_seed_is_a_vertex_dual_below_the_cap():
    inst = _pm_uk(6)
    x = _open_sites(inst, (0, 2, 4))
    raw = solve_maxmin_dual(maxmin_from_instance(inst, x), M=1e4,
                            check_feasibility=False)
    r = sp2(inst, x, M=1e4)
    # the product MIP may leave duals of zero-weight rows at their cap; the
    # seed handed on is the simplex vertex of the recourse dual instead
    assert r.pi.max() < 1e3
    assert np.all(r.pi >= 0.0)
    assert np.all(inst.Y.B2.T @ r.pi <= inst.Y.c2 + 1e-7)
    assert r.value == pytest.approx(raw.value, rel=1e-9)


def test_sp2_audit_catches_a_binding_dual_cap(mip_names):
    # at M = 10 the product MIP caps pi below the recourse dual's 35.5, so
    # its value falls short of the vertex dual LP at its scenario
    inst = _pm_uk(6)
    with pytest.raises(BackendError, match="SP2_vertex_dual: the max-min value"):
        sp2(inst, _open_sites(inst, (0, 2, 4)), M=10.0)
    assert mip_names == [inst.name + "_wc_bilin"]


# -- network route of the feasibility check ------------------------------------

def test_network_column_check():
    fl = gen_robust_fl(FLParams(n_sites=3, seed=0), "rhs")
    assert has_network_columns(fl.Y.B2)
    assert has_network_columns([[1.0], [-1.0]])
    assert not has_network_columns(_pm_uk(8).Y.B2)
    assert not has_network_columns([[1.0], [1.0], [0.0]])
    assert not has_network_columns([[2.0], [-1.0]])


def _fl_first_stages(inst: Instance):
    # all sites closed, all open at full capacity, and one site open at its
    # lowest capacity
    nJ = inst.X.n_int
    cap_lo, cap_hi = -inst.X.A[0, 0], inst.X.A[nJ, 0]
    one = np.zeros(inst.dim_x)
    one[0], one[nJ] = 1.0, cap_lo
    return [np.zeros(inst.dim_x),
            np.concatenate([np.ones(nJ), np.full(nJ, cap_hi)]), one]


def test_network_and_kkt_feasibility_routes_agree_on_fl(monkeypatch, mip_names):
    problems = [maxmin_from_instance(inst, x)
                for inst in (gen_robust_fl(FLParams(n_sites=2, seed=1), "rhs"),
                             gen_robust_fl(FLParams(n_sites=3, seed=0), "rhs"))
                for x in _fl_first_stages(inst)]
    network = []
    for p in problems:
        mip_names.clear()
        network.append(check_inner_feasibility(p))
        assert mip_names == [p.name + "_feas_net"]
    monkeypatch.setattr(maxmin, "has_network_columns", lambda B: False)
    values = []
    for p, (v_net, z_net) in zip(problems, network):
        mip_names.clear()
        v_kkt, _ = check_inner_feasibility(p)
        assert mip_names == [p.name + "_feas_kkt"]
        assert v_net == pytest.approx(v_kkt, rel=1e-9, abs=1e-9)
        assert np.all(p.A_out @ z_net <= p.b_out + 1e-9 * np.maximum(1.0, np.abs(p.b_out)))
        values.append(v_net)
    # both signs of the check are covered: servable and unservable first stages
    assert min(values) == 0.0 and max(values) > 1.0


def test_network_route_falls_back_on_an_unbounded_coordinate(mip_names):
    # inner {y : y >= z} with z free above: feasible everywhere, but no cap
    # for the product pi z exists, so the KKT route answers
    p = MaxMinProblem(A_out=np.zeros((0, 1)), b_out=np.zeros(0),
                      c_y=np.array([1.0]), B_y=np.array([[1.0]]),
                      B_x=np.array([[-1.0]]), d=np.array([0.0]), name="free")
    assert has_network_columns(p.B_y)
    v_f, _ = check_inner_feasibility(p)
    assert v_f == pytest.approx(0.0, abs=1e-9)
    assert mip_names == ["free_feas_kkt"]


def _cap_problem() -> MaxMinProblem:
    # inner {y : y >= z, y <= 0} over 0 <= z <= 1: unservable mass z, v_f = 1
    return MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                         c_y=np.array([1.0]), B_y=np.array([[1.0], [-1.0]]),
                         B_x=np.array([[-1.0], [0.0]]), d=np.array([0.0, 0.0]),
                         name="cap")


@pytest.mark.parametrize("timed_out", ["range_probe", "cap_feas_net",
                                       "cap_feas_polish"])
def test_network_route_maps_time_limits(monkeypatch, timed_out):
    # a timeout in any solve of the route reaches the caller as itself
    real = {"solve_lp": backend.solve_lp, "solve_mip": backend.solve_mip}

    def limited(which):
        def solve(model, **kw):
            if model.name == timed_out:
                raise SolveTimeLimit(model.name)
            return real[which](model, **kw)
        return solve

    for which in real:
        monkeypatch.setattr(backend, which, limited(which))
    p = _cap_problem()
    with pytest.raises(SolveTimeLimit, match=timed_out):
        check_inner_feasibility(p)
    with pytest.raises(SolveTimeLimit, match=timed_out):
        solve_maxmin_dual(p)


def test_network_route_audits_its_value_against_the_polish_lp(monkeypatch):
    # the polish LP at the witness reports one unit more than the MIP
    solve_lp = backend.solve_lp

    def shifted(model):
        out = solve_lp(model)
        if model.name == "cap_feas_polish":
            out.objective += 1.0
        return out

    monkeypatch.setattr(backend, "solve_lp", shifted)
    with pytest.raises(BackendError, match="cap_feas_polish: the max-min value"):
        check_inner_feasibility(_cap_problem())


# -- sp1 through the route chooser ------------------------------------------------

def test_sp1_on_pmedian_solves_only_the_product_mip(monkeypatch):
    # U(x) of ddu_uk has 0/1 vertices, and the extended feasibility problem
    # bounds pi by one, so the product MIP is exact with one binary per u_j
    solved = []
    solve_mip = backend.solve_mip

    def recording(model, **kw):
        solved.append((model.name, sum(v.integer for v in model.vars)))
        return solve_mip(model, **kw)

    monkeypatch.setattr(backend, "solve_mip", recording)
    inst = _pm_uk(5, p=2)
    for sites in ((0, 3), (1, 2), (4,)):
        solved.clear()
        r = sp1(inst, _open_sites(inst, sites))
        assert solved == [(inst.name + "_wc_feas_bilin", inst.U.dim)]
        assert r.value == 0.0 and r.u.shape == (inst.U.dim,)


def test_sp1_off_both_structures_takes_the_audited_kkt_route(monkeypatch, mip_names):
    # fl_mip3's B2 is not a network matrix and its U(x) is not 0/1: the KKT
    # MIP answers, and the feasibility LP at its witness audits it
    inst = gen_mip_recourse_fl(FLParams(n_sites=3, seed=0, capacity_lower_frac=1.5,
                                        capacity_upper_frac=1.5))
    x = np.zeros(inst.dim_x)
    problem = maxmin_from_instance(inst, x)
    assert not has_network_columns(problem.B_y)
    assert not has_integral_vertices(problem.A_out, problem.b_out)
    assert sp1(inst, x).value == 0.0
    assert mip_names == [inst.name + "_wc_feas_kkt"]
    solve_lp = backend.solve_lp
    polish = inst.name + "_wc_feas_polish"

    def shifted(model):
        out = solve_lp(model)
        if model.name == polish:
            out.objective += 1.0
        return out

    monkeypatch.setattr(backend, "solve_lp", shifted)
    with pytest.raises(BackendError, match=f"{polish}: the max-min value"):
        sp1(inst, x)
