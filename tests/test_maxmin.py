import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddu_ro import backend, enumeration, maxmin, t1
from ddu_ro.backend import GEQ, BackendError, LinearModel, SolveOutcome, SolveTimeLimit
from ddu_ro.instances import (FLParams, PMedianParams, enumerate_vertices,
                              gen_mip_recourse_fl, gen_reliable_pmedian,
                              gen_robust_fl, lattice_first_stages, recourse_value)
from ddu_ro.maxmin import (
    MaxMinProblem,
    build_optimality_block,
    check_inner_feasibility,
    ensure_unique_optimum,
    has_network_columns,
    lp_parametric,
    maxmin_from_instance,
    perturb_for_uniqueness,
    solve_maxmin_dual,
    solve_maxmin_kkt,
)
from ddu_ro.enumeration import has_integral_vertices, has_interval_rows
from ddu_ro.model import (AffineMatrixMap, BasisId, Instance, UncertaintySet,
                          add_first_stage, build_deterministic_mip, uncertainty_set_from_dict)
from ddu_ro.subproblems import sp1, sp2
from toys import record_linprog, short_supply, sparse


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
    # shortfall variable keeps the inner LP feasible everywhere; the outer
    # set [0, 1] is enumerated, so the worst case, at z = 1, comes with it
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.array([1.0, 10.0]), B_y=np.array([[1.0, 1.0]]),
                      B_x=np.array([[-1.0]]), d=np.array([0.0]))
    v_f, witness, worst = check_inner_feasibility(p)
    assert v_f == pytest.approx(0.0, abs=1e-9)
    assert worst.value == pytest.approx(1.0) and np.array_equal(witness, worst.outer)


def test_check_inner_feasibility_finds_witness():
    # inner {y : y >= u, y <= 0} fails exactly when u > 0; worst u = 1
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.array([1.0]), B_y=np.array([[1.0], [-1.0]]),
                      B_x=np.array([[-1.0], [0.0]]), d=np.array([0.0, 0.0]))
    v_f, witness, worst = check_inner_feasibility(p)
    assert v_f == pytest.approx(1.0, abs=1e-7)
    assert witness[0] == pytest.approx(1.0, abs=1e-7)
    assert worst is None


def test_kkt_and_dual_routes_agree_on_t1():
    for xv in (0.0, 1.0):
        p = maxmin_from_instance(t1(), np.array([xv]))
        k = solve_maxmin_kkt(p)
        d = solve_maxmin_dual(p)
        assert k.value == pytest.approx(1.0 + xv)
        assert d.value == pytest.approx(k.value, rel=1e-6)


def test_dual_route_returns_ray_on_inner_infeasibility():
    # the screen finds the witness; solve_maxmin_dual, which takes the
    # screen's word for feasibility, names its failed copies LP
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]),
                      c_y=np.array([1.0]), B_y=np.array([[1.0], [-1.0]]),
                      B_x=np.array([[-1.0], [0.0]]), d=np.array([0.0, 0.0]))
    v_f, witness, worst = check_inner_feasibility(p)
    assert v_f > 0.0 and worst is None
    assert witness == pytest.approx([1.0], abs=1e-7)
    # the inner LP has no point at the witness
    inner = LinearModel()
    y = inner.add_vars(p.B_y.shape[1])
    inner.add_rows([(y, p.B_y)], GEQ, p.d - p.B_x @ witness)
    assert backend.solve_lp(inner).status == backend.INFEASIBLE
    with pytest.raises(BackendError, match=r"^maxmin_enum ended Infeasible$"):
        solve_maxmin_dual(p)


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


def _fixed_first_stage(inst: Instance, x, representation: str | None = None
                       ) -> tuple[LinearModel, list[int]]:
    # a model whose first-stage columns are fixed at x, integer unless
    # representation is "kkt", whose block the continuous columns get
    m = LinearModel()
    x_ids = m.add_vars(inst.dim_x, x, x, integer=representation != "kkt")
    return m, x_ids


def _seed_row(inst: Instance, beta) -> np.ndarray:
    # the cost row (-E' beta, 0) that a dual seed's block pins
    return np.concatenate([-(inst.Y.E.T @ np.asarray(beta, dtype=float)),
                           np.zeros(inst.U.n_rows)])


@pytest.mark.parametrize("representation", ["kkt", "primal-dual"])
def test_block_projection_stays_in_the_set(representation):
    inst = t1()
    for M in (10.0, 100.0, 10000.0):
        m, x_ids = _fixed_first_stage(inst, [1.0], representation)
        with backend.big_m(M):
            blk = build_optimality_block(m, inst.U, _seed_row(inst, [1.0]), x_ids)
        assert blk.representation == representation
        for sense in ("min", "max"):
            m.set_objective({blk.u_ids[0]: 1.0}, sense=sense)
            out = backend.solve_mip(m)
            assert out.is_optimal
            u = np.array([out.x[blk.u_ids[0]]])
            assert block_membership_gap(inst, np.array([1.0]), u) <= 1e-6


def test_block_with_zero_beta_admits_every_point():
    inst = t1()
    m, x_ids = _fixed_first_stage(inst, [1.0], "kkt")
    with backend.big_m(100.0):
        blk = build_optimality_block(m, inst.U, _seed_row(inst, [0.0]), x_ids)
    assert blk.representation == "kkt"
    m.set_objective({blk.u_ids[0]: 1.0}, sense="max")
    hi = backend.solve_mip(m).objective
    m.set_objective({blk.u_ids[0]: 1.0}, sense="min")
    lo = backend.solve_mip(m).objective
    assert lo == pytest.approx(0.0, abs=1e-7)
    assert hi == pytest.approx(2.0, abs=1e-7)


def test_block_diu_matches_enumerated_argmax():
    # decision-independent set at x = 0: the KKT block must reproduce the
    # enumerated argmax; row 0 couples the continuous x, fixed at 0, so that
    # the block takes "kkt"
    F = np.vstack([np.ones((1, 2)), np.eye(2)])
    U = UncertaintySet(F=AffineMatrixMap(base=F), G=[[1.0], [0.0], [0.0]],
                       h=np.array([1.0, 1.0, 1.0]))
    base = t1()
    Y = type(base.Y)(B1=np.zeros((2, 1)), B2=np.eye(2), E=-np.eye(2),
                     d=np.zeros(2), c2=np.ones(2))
    inst = Instance(name="diu", c1=base.c1, X=base.X, U=U, Y=Y)
    beta = np.array([1.0, 0.25])
    verts = enumerate_vertices(U, np.array([0.0]))
    best_u = max(verts, key=lambda v: float(-(Y.E @ v) @ beta))
    m, x_ids = _fixed_first_stage(inst, [0.0], "kkt")
    with backend.big_m(100.0):
        blk = build_optimality_block(m, U, _seed_row(inst, beta), x_ids)
    assert blk.representation == "kkt"
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
    with backend.big_m(10.0), pytest.raises(ValueError, match="binary"):
        build_optimality_block(m, inst.U, _seed_row(inst, [1.0]), x_ids)


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

    def unclean(base, c_hat):
        checks.append(c_hat)
        return False

    monkeypatch.setattr(maxmin, "_perturbation_is_clean", unclean)
    with pytest.raises(BackendError, match="failed to isolate"):
        ensure_unique_optimum(lp_parametric(t1(), np.array([1.0]), np.array([0.0])))
    assert len(checks) == 1


def test_ensure_unique_optimum_isolates_a_vertex():
    inst = t1()
    base = lp_parametric(inst, np.array([1.0]), np.array([0.0]))
    c_hat = ensure_unique_optimum(base)
    # beta = 0 leaves every u in [0,2] optimal; a block of the perturbed
    # cost row, of either form, collapses to exactly the solver's vertex
    for representation in (None, "kkt"):
        m, x_ids = _fixed_first_stage(inst, [1.0], representation)
        with backend.big_m(100.0):
            blk = build_optimality_block(m, inst.U, c_hat, x_ids)
        assert blk.representation == (representation or "primal-dual")
        us = []
        for sense in ("min", "max"):
            m.set_objective({blk.u_ids[0]: 1.0}, sense=sense)
            us.append(backend.solve_mip(m).x[blk.u_ids[0]])
        assert us[0] == pytest.approx(us[1], abs=1e-7)
        assert us[0] == pytest.approx(base.u[0], abs=1e-7)


def _capped_at_one_and_a_half() -> Instance:
    # U(x) = {u >= 0 : u <= 1 + x, u <= 1.5}, x binary coupling row 0
    U = UncertaintySet(F=AffineMatrixMap(base=[[1.0], [1.0]]), G=[[1.0], [0.0]],
                       h=[1.0, 1.5])
    return replace(t1(), U=U)


@pytest.mark.parametrize("representation", [None, "kkt"])
def test_a_perturbed_slack_cost_pins_the_vertex_at_each_first_stage(representation):
    # cost row (0 | -1e-4, 0) prefers row 0 tight: u = 1 at x = 0, where
    # that row binds first, and u = 1.5 at x = 1, where row 1 does and
    # lambda_0 sits at its lower bound -1e-4
    inst = _capped_at_one_and_a_half()
    for x, u_star in ((0.0, 1.0), (1.0, 1.5)):
        m, x_ids = _fixed_first_stage(inst, [x], representation)
        with backend.big_m(100.0):
            blk = build_optimality_block(m, inst.U, np.array([0.0, -1e-4, 0.0]), x_ids)
        assert blk.representation == (representation or "primal-dual")
        us = []
        for sense in ("min", "max"):
            m.set_objective({blk.u_ids[0]: 1.0}, sense=sense)
            out = backend.solve_mip(m)
            assert out.is_optimal
            us.append(out.objective)
        assert us == pytest.approx([u_star, u_star], abs=1e-7)


def _pair_surrogate(k: int) -> Instance:
    inst = gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair")
    return replace(inst, U=uncertainty_set_from_dict(inst.metadata["ddu_sets"][k]))


@pytest.mark.parametrize("make, perturbed, expected", [
    (lambda: _pm_uk(8), False, "primal-dual"),
    (lambda: _pair_surrogate(0), False, "primal-dual"),
    (lambda: _pair_surrogate(1), False, "primal-dual"),
    (lambda: gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs"), False, "kkt"),
    (lambda: gen_mip_recourse_fl(FLParams(n_sites=2, seed=1)), False, "kkt"),
    (lambda: _pm_uk(8), True, "primal-dual"),
], ids=["ddu_uk", "ddu_us_pair-0", "ddu_us_pair-1", "fl-rhs", "fl-mip", "ddu_uk-cost_row"])
def test_block_representation_follows_the_coupling(make, perturbed, expected):
    # binary coupling gets the strong-duality row, which adds no binary,
    # whatever cost row the block pins; complementarity blocks add one per
    # row and per column of U
    inst = make()
    beta = np.ones(inst.Y.n_rows)
    if perturbed:
        x = _open_sites(inst, (0, 3, 5))
        cost_row = ensure_unique_optimum(lp_parametric(inst, x, beta))
    else:
        cost_row = _seed_row(inst, beta)
    m = LinearModel()
    with backend.big_m(100.0):
        blk = build_optimality_block(m, inst.U, cost_row, add_first_stage(m, inst))
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
    with backend.big_m(M):
        blk = build_optimality_block(m, inst.U, _seed_row(inst, beta), add_first_stage(m, inst))
    _, ub, integer = m.columns()
    if blk.representation == "kkt":
        # each switch column holds its pair's two bounds: lam_i <= M_d delta
        # against slack_i <= M (1 - delta), then u_j <= M delta against its
        # reduced cost <= M_d (1 - delta)
        A = sparse(m)[0].tocsc()
        switches = np.flatnonzero(integer)[inst.X.n_int:]
        pairs = [tuple(A[:, [j]].data.tolist()) for j in switches]
        mu = inst.U.n_rows
        assert pairs == [(-M_d, M)] * mu + [(-M, M_d)] * (len(switches) - mu)
    else:
        # the products x_k lam_i of the strong-duality row are capped at M_d
        assert blk.representation == "primal-dual" and M_d in ub


def _fl_mip3_relaxed_sp2() -> MaxMinProblem:
    # sp2 of fl_mip3 s0, its recourse relaxed, at the first stage of the
    # deterministic relaxation
    inst = gen_mip_recourse_fl(FLParams(n_sites=3, seed=0, capacity_lower_frac=1.5,
                                        capacity_upper_frac=1.5))
    det, ids = build_deterministic_mip(inst)
    return maxmin_from_instance(inst, backend.solve_mip(det).x[ids["x"]])


def test_the_kkt_max_min_bounds_its_dual_side_like_a_block(monkeypatch):
    # the KKT MIP is its inner LP's optimality block, so its switch columns
    # hold (-M_d, M) for the (pi, slack) pairs and (-M, M_d) for the (y,
    # reduced cost) pairs, M_d = 2 ||c2||_1 max|B2| ~ 7.5e5 at big_M 1e5
    problem, M = _fl_mip3_relaxed_sp2(), 1e5
    M_d = 2.0 * np.abs(problem.c_y).sum() * np.abs(problem.B_y).max()
    assert M_d == pytest.approx(7.5e5, rel=1e-3)
    models = []
    real = backend.solve_mip
    monkeypatch.setattr(backend, "solve_mip", lambda m, **kw: models.append(m) or real(m, **kw))
    with backend.big_m(M):
        solve_maxmin_kkt(problem)
    (m,) = models
    integer = m.columns()[2]
    A = sparse(m)[0].tocsc()
    pairs = [A[:, [j]].data for j in np.flatnonzero(integer)[problem.n_int_out:]]
    m_rows, ny = problem.B_y.shape
    assert np.array(pairs) == pytest.approx(
        np.array([[-M_d, M]] * m_rows + [[-M, M_d]] * ny), rel=1e-12)


def test_a_kkt_max_min_cut_off_by_its_dual_bound_says_m_too_small(monkeypatch):
    # with the dual side capped at 1 no dual point of fl_mip3's recourse
    # fits, so the KKT MIP is infeasible over an outer set that is not
    monkeypatch.setattr(maxmin, "dual_bound", lambda U, cost_row: 1.0)
    with pytest.raises(BackendError, match="M too small"):
        solve_maxmin_kkt(_fl_mip3_relaxed_sp2())


# -- the enumeration route on sets with 0/1 vertices -----------------------------

def _pm_uk(n_sites: int, p: int = 3, seed: int = 0) -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=n_sites, p=p, seed=seed),
                                "ddu_uk")


def _open_sites(inst: Instance, sites) -> np.ndarray:
    x = np.zeros(inst.dim_x)
    x[list(sites)] = 1.0
    return x


def test_basis_completion_takes_slacks_before_structural_columns():
    # [F | I] with support {0}: a lowest-index completion would take u_1,
    # column 1; the slack completion takes the first slack independent of
    # the support instead, and keeps a support of full rank whole
    A = np.hstack([[[1.0, 1.0], [1.0, 0.0]], np.eye(2)])
    assert maxmin._complete_basis(A, [0]) == [0, 2]
    assert maxmin._complete_basis(A, [1, 0]) == [0, 1]
    # column 0 is the first slack's column, so the second completes it
    A = np.hstack([[[1.0, 1.0], [0.0, 1.0]], np.eye(2)])
    assert maxmin._complete_basis(A, [0]) == [0, 3]


def test_pivoting_refuses_a_vertex_that_is_not_optimal():
    # max z_1 from the basis {0} at z = (1, 0): over z_0 - z_1 = 1 column 1
    # improves along a ray, over z_0 + z_1 = 1 by a positive step; either
    # way the vertex was never optimal. With no rows the basis is empty
    c, z = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    with pytest.raises(BackendError, match="improving ray"):
        maxmin._pivot_to_dual_feasible(np.array([[1.0, -1.0]]), c, z, [0])
    with pytest.raises(BackendError, match="improving step"):
        maxmin._pivot_to_dual_feasible(np.array([[1.0, 1.0]]), c, z, [0])
    assert maxmin._pivot_to_dual_feasible(np.zeros((0, 2)), c, z, []) == []


def test_pm_uk8_bases_hold_at_every_first_stage():
    # the basis at a worst case of pm_uk8 has B^-1 (h + G x) >= 0 at all 56
    # binary first stages with three sites open; the lowest-index completion
    # held at 6 of them
    inst = _pm_uk(8)
    basis = list(sp2(inst, _open_sites(inst, (0, 3, 5))).basis_result.basis.indices)
    held = 0
    for sites in itertools.combinations(range(8), 3):
        x = _open_sites(inst, sites)
        A = np.hstack([inst.U.F.evaluate(x), np.eye(inst.U.n_rows)])
        held += np.linalg.solve(A[:, basis], inst.U.h + inst.U.G @ x).min() >= -1e-9
    assert held == 56


def _outer_is_binary_by_loop(problem: MaxMinProblem) -> bool:
    # the per-coordinate, per-row loop _outer_is_binary replaced
    for j in range(problem.n_out):
        capped = False
        for i in range(problem.A_out.shape[0]):
            row = problem.A_out[i]
            if row[j] > 0 and problem.b_out[i] / row[j] <= 1.0 + 1e-9 and \
                    np.all(row >= 0):
                capped = True
                break
        if not capped:
            return False
    return True


@pytest.mark.parametrize("A, b", [
    ([[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0]),
    ([[1.0, -1.0], [0.0, 1.0]], [1.0, 1.0]),      # row 0 has a negative entry
    ([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0]),       # z_0 capped at 1 by 2 z_0 <= 2
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]),       # z_1 capped at 2
    (np.zeros((0, 2)), np.zeros(0)),               # no rows
    (np.zeros((2, 0)), [1.0, 1.0]),                # no columns
    (None, None),                                  # pm_uk8's U(x)
], ids=["unit", "negative-entry", "scaled-cap", "cap-of-two", "no-rows", "no-columns",
        "pm_uk8"])
def test_outer_is_binary_matches_the_loop(A, b):
    if A is None:
        inst = _pm_uk(8)
        problem = maxmin_from_instance(inst, _open_sites(inst, (0, 3, 5)))
    else:
        problem = MaxMinProblem(A_out=A, b_out=b, c_y=[1.0], B_y=[[1.0]],
                                B_x=np.zeros((1, np.shape(A)[1])), d=[0.0])
    assert (enumeration._outer_is_binary(problem.A_out, problem.b_out)
            == _outer_is_binary_by_loop(problem))


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


# p-median sets whose U(x) has 0/1 vertices, and pm_pair5's integer u
ENUMERATED = {
    "ddu_uk5": lambda: _pm_uk(5, p=2),
    "ddu_uk6": lambda: _pm_uk(6),
    "ddu_ukq6": lambda: gen_reliable_pmedian(PMedianParams(n_sites=6, p=3), "ddu_ukq"),
    "ddu_ur6": lambda: gen_reliable_pmedian(PMedianParams(n_sites=6, p=3), "ddu_ur"),
    "pm_pair5": lambda: gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair"),
}


@pytest.mark.parametrize("make", ENUMERATED.values(), ids=ENUMERATED)
def test_enumeration_and_kkt_routes_agree_on_pmedian(monkeypatch, mip_names, make):
    # sp1 and sp2 enumerate U(x)'s 0/1 points and solve no MIP; the recourse
    # LP at the returned u gives sp2's value, and so does the KKT route,
    # taken where the outer set is not seen to be 0/1 (integrality alone
    # takes pm_pair5's integer u to the enumeration)
    inst = make()
    xs = lattice_first_stages(inst)
    xs = [xs[0], xs[len(xs) // 2], xs[-1]]
    assert len({x.tobytes() for x in xs}) == 3
    enumerated = []
    for x in xs:
        mip_names.clear()
        assert sp1(inst, x).value == 0.0
        enumerated.append(sp2(inst, x))
        assert mip_names == []
    for x, r in zip(xs, enumerated):
        assert recourse_value(inst, x, r.u)[0] == pytest.approx(r.value, rel=1e-9)
    monkeypatch.setattr(enumeration, "_outer_is_binary", lambda A, b: False)
    for x, r in zip(xs, enumerated):
        mip_names.clear()
        assert sp2(inst, x).value == pytest.approx(r.value, rel=1e-6)
        assert mip_names == [inst.name + "_wc_kkt"]


def test_beyond_the_lattice_cap_the_kkt_route_answers(monkeypatch, mip_names):
    # with fewer prefixes allowed than U(x) has 0/1 points, lattice_points
    # raises OracleError and the KKT MIP answers with the same value
    inst = _pm_uk(6)
    x = _open_sites(inst, (0, 2, 4))
    enumerated = sp2(inst, x)
    assert mip_names == []
    monkeypatch.setattr(enumeration, "_MAX_LATTICE", 1)
    assert sp2(inst, x).value == pytest.approx(enumerated.value, rel=1e-6)
    assert mip_names == [inst.name + "_wc_kkt"]


def test_an_outer_set_without_a_0_1_point_names_nonemptiness():
    # 0.3 <= z <= 0.7 with z integer: the LP set is not empty, its 0/1
    # points are
    p = MaxMinProblem(A_out=np.array([[1.0], [-1.0]]), b_out=np.array([0.7, -0.3]),
                      c_y=np.array([1.0]), B_y=np.array([[1.0]]), B_x=np.array([[-1.0]]),
                      d=np.array([0.0]), n_int_out=1, name="hole")
    for solve in (check_inner_feasibility, solve_maxmin_dual):
        with pytest.raises(BackendError, match=r"^hole: the outer set has no 0/1 point "
                                               r"\(nonemptiness violated\)$"):
            solve(p)


def test_product_route_seed_is_a_vertex_dual_below_the_cap():
    inst = _pm_uk(6)
    x = _open_sites(inst, (0, 2, 4))
    raw = solve_maxmin_dual(maxmin_from_instance(inst, x))
    r = sp2(inst, x)
    # the seed handed on is the simplex vertex of the recourse dual at the
    # route's worst case, far below the big-M
    assert r.pi.max() < 1e3
    assert np.all(r.pi >= 0.0)
    assert np.all(inst.Y.B2.T @ r.pi <= inst.Y.c2 + 1e-7)
    assert r.value == pytest.approx(raw.value, rel=1e-9)


def test_one_copies_lp_decides_feasibility_on_a_0_1_set(monkeypatch, mip_names):
    # the screen's c_y copies LP is solve_maxmin_dual's; only where a copy
    # is not Optimal does the extended problem run, its witness the point
    # of most artificial mass
    calls = record_linprog(monkeypatch)
    inst = short_supply()
    served = maxmin_from_instance(inst, np.ones(1))
    v_f, witness, worst = check_inner_feasibility(served)
    screened = list(calls)
    assert [c[0] for c in screened] == ["short_supply_wc_enum"]
    calls.clear()
    plain = solve_maxmin_dual(served)
    assert calls == screened
    assert v_f == 0.0 and worst.value == plain.value == pytest.approx(3.0)
    assert np.array_equal(witness, plain.outer) and np.array_equal(worst.outer, plain.outer)
    calls.clear()
    v_f, witness, worst = check_inner_feasibility(maxmin_from_instance(inst, np.zeros(1)))
    assert [c[0] for c in calls] == ["short_supply_wc_enum", "short_supply_wc_feas_enum",
                                     "short_supply_wc_feas_polish"]
    assert v_f == pytest.approx(2.5) and worst is None
    assert np.array_equal(witness, [1.0, 1.0])
    assert mip_names == []


def test_a_numerical_enumeration_lp_is_solved_once(monkeypatch):
    # "<name>_enum" ends Numerical: solve_maxmin_dual raises it with no
    # halves, and the screen takes the extended problem in its place
    calls = record_linprog(monkeypatch)
    solve_lp = backend.solve_lp

    def numerical(model):
        out = solve_lp(model)
        return SolveOutcome(status=backend.NUMERICAL) if model.name.endswith("_wc_enum") else out

    monkeypatch.setattr(backend, "solve_lp", numerical)
    problem = maxmin_from_instance(short_supply(), np.ones(1))
    with pytest.raises(BackendError, match=r"^short_supply_wc_enum ended Numerical$"):
        solve_maxmin_dual(problem)
    assert [c[0] for c in calls] == ["short_supply_wc_enum"]
    calls.clear()
    v_f, witness, worst = check_inner_feasibility(problem)
    assert [c[0] for c in calls] == ["short_supply_wc_enum", "short_supply_wc_feas_enum",
                                     "short_supply_wc_feas_polish"]
    assert v_f == 0.0 and worst is None and witness.shape == (2,)


def test_a_time_limit_in_the_enumeration_escapes_the_screen(monkeypatch):
    # the screen drops a failed "<name>_enum" LP, but not a timeout in it
    solve_lp = backend.solve_lp

    def limited(model):
        if model.name == "short_supply_wc_enum":
            raise SolveTimeLimit(model.name)
        return solve_lp(model)

    monkeypatch.setattr(backend, "solve_lp", limited)
    problem = maxmin_from_instance(short_supply(), np.ones(1))
    for solve in (check_inner_feasibility, solve_maxmin_dual):
        with pytest.raises(SolveTimeLimit, match="short_supply_wc_enum"):
            solve(problem)


def test_an_inner_lp_without_columns_takes_the_kkt_route(mip_names):
    # sp4's inner LP under an all-integer recourse has no y: the value is
    # 0 wherever it is feasible, and a model without columns cannot reach
    # HiGHS as an LP, so the screen takes the network MIP and the worst
    # case the KKT MIP
    p = MaxMinProblem(A_out=np.array([[1.0]]), b_out=np.array([1.0]), c_y=np.zeros(0),
                      B_y=np.zeros((1, 0)), B_x=np.array([[1.0]]), d=np.array([0.0]),
                      name="no_y")
    v_f, _, worst = check_inner_feasibility(p)
    assert v_f == 0.0 and worst is None
    res = solve_maxmin_dual(p)
    assert res.value == 0.0 and res.outer.shape == (1,)
    assert mip_names == ["no_y_feas_net", "no_y_kkt"]


def test_sp2_audit_catches_an_understated_enumerated_value(monkeypatch):
    # the enumeration reports one unit less than the recourse at its u, so
    # the vertex dual LP at that u disagrees
    enumerate_outer = maxmin.enumerate_outer

    def understated(problem):
        res = enumerate_outer(problem)
        return replace(res, value=res.value - 1.0)

    monkeypatch.setattr(maxmin, "enumerate_outer", understated)
    inst = _pm_uk(6)
    with pytest.raises(BackendError, match="SP2_vertex_dual: the max-min value"):
        sp2(inst, _open_sites(inst, (0, 2, 4)))


def _sample(inst: Instance) -> np.ndarray:
    # about six first stages spread over the lattice
    xs = lattice_first_stages(inst)
    return xs[::max(1, len(xs) // 6)]


@pytest.mark.parametrize("n_sites", [6, 8])
def test_sp2_seeds_with_the_enumeration_lps_duals(monkeypatch, n_sites):
    # sp2's one LP is the enumeration's, and the worst copy's row duals are
    # the vertex dual LP's optimum at the worst point, to the bit
    inst = _pm_uk(n_sites)
    lps = record_linprog(monkeypatch)
    for x in _sample(inst):
        lps.clear()
        r = sp2(inst, x)
        assert [c[0] for c in lps] == [f"{inst.name}_wc_enum"]
        problem = maxmin_from_instance(inst, x)
        ref = maxmin.audited_dual_lp(problem.B_y, problem.c_y,
                                     problem.d - problem.B_x @ r.u, r.value, "ref").x
        assert np.array_equal(r.pi, ref)
        assert r.basis_result.value == pytest.approx(
            float(-(inst.Y.E.T @ r.pi) @ r.basis_result.u), rel=1e-12)


@pytest.mark.parametrize("n_sites", [6, 8])
def test_the_enumerated_dual_is_a_vertex_of_pi(n_sites):
    # the rows of B2' pi <= c2 and of pi >= 0 that pi holds at equality
    # have rank m
    inst = _pm_uk(n_sites)
    B2t, c2, m = inst.Y.B2.T, inst.Y.c2, inst.Y.n_rows
    for x in _sample(inst):
        pi = sp2(inst, x).pi
        tol = 1e-9 * max(1.0, float(np.abs(c2).max()), float(np.abs(pi).max()))
        active = np.vstack([B2t[np.abs(B2t @ pi - c2) <= tol], np.eye(m)[np.abs(pi) <= tol]])
        assert np.linalg.matrix_rank(active) == m


@pytest.mark.parametrize("move", ["a negative entry", "past B2' pi <= c2"])
def test_sp2_refuses_enumerated_duals_off_pi(monkeypatch, move):
    # no clipping: a dual off its polyhedron is an error, whatever its sign
    enumerate_outer = maxmin.enumerate_outer

    def moved(problem):
        res = enumerate_outer(problem)
        pi = res.pi.copy()
        if move == "a negative entry":
            pi[np.flatnonzero(pi == 0.0)[0]] = -1e-3
        else:
            pi *= 1.01
        return replace(res, pi=pi)

    monkeypatch.setattr(maxmin, "enumerate_outer", moved)
    inst = _pm_uk(6)
    with pytest.raises(BackendError, match="returned dual violates its polyhedron"):
        sp2(inst, _open_sites(inst, (0, 2, 4)))


def test_sp2_without_enumerated_duals_solves_the_vertex_dual_lp(monkeypatch):
    # where the enumeration brings no duals, sp2 takes the LP route's seed
    # and still reads the parametric optimum off the listed vertices
    inst = _pm_uk(6)
    x = _open_sites(inst, (0, 2, 4))
    ref = sp2(inst, x)
    enumerate_outer = maxmin.enumerate_outer
    monkeypatch.setattr(maxmin, "enumerate_outer",
                        lambda problem: replace(enumerate_outer(problem), pi=None))
    lps = record_linprog(monkeypatch)
    got = sp2(inst, x)
    assert [c[0] for c in lps] == [f"{inst.name}_wc_enum", "SP2_vertex_dual"]
    assert np.array_equal(got.pi, ref.pi) and got.value == ref.value
    assert np.array_equal(got.basis_result.u, ref.basis_result.u)


def _eager_basis(inst: Instance, x: np.ndarray, u: np.ndarray, cost_row: np.ndarray):
    # the basis and reduced costs as lp_parametric built them on every call
    Fx, rhs = inst.U.at(x)
    mu, n = Fx.shape
    A = np.hstack([Fx, np.eye(mu)])
    z = np.concatenate([u, rhs - Fx @ u])
    scale = max(1.0, float(np.abs(z).max()))
    support = [j for j in range(n + mu) if z[j] > 1e-9 * scale]
    cols = maxmin._pivot_to_dual_feasible(A, cost_row, z, maxmin._complete_basis(A, support))
    return BasisId(tuple(cols)), maxmin._basis_prices(A, cost_row, cols)[1]


@pytest.mark.parametrize("n_sites", [6, 8])
def test_the_lazy_basis_is_the_eager_one(n_sites):
    # from sp2's vertices or from the LP, the basis and reduced costs read
    # on demand are the ones built at once, and are built once
    inst = _pm_uk(n_sites)
    for x in _sample(inst):
        r = sp2(inst, x)
        lp = lp_parametric(inst, x, r.pi)
        for got in (r.basis_result, lp):
            assert "basis" not in vars(got)
            basis, rc = _eager_basis(inst, x, got.u, got.cost_row)
            assert got.basis == basis and np.array_equal(got.reduced_costs, rc)
            assert got.basis is got.basis
        assert np.array_equal(r.basis_result.u, lp.u)
        assert r.basis_result.basis == lp.basis


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
    for p, (v_net, z_net, _) in zip(problems, network):
        mip_names.clear()
        v_kkt, _, _ = check_inner_feasibility(p)
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
    v_f, _, _ = check_inner_feasibility(p)
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
    # (sp4's screen: test_sp4_maps_time_limits_in_its_screen)
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
