import numpy as np
import pytest

from ddu_ro import backend, t1
from ddu_ro.backend import BackendError
from ddu_ro.instances import (
    FLParams,
    PMedianParams,
    enumerate_vertices,
    gen_mip_recourse_fl,
    gen_reliable_pmedian,
    gen_robust_fl,
    oracle_exact,
    recourse_value,
)
from ddu_ro.model import (
    AffineMatrixMap,
    BasisId,
    FirstStageSet,
    Instance,
    RecourseSet,
    UncertaintySet,
)
from ddu_ro.subproblems import (
    SubproblemReport,
    recourse_mip_at,
    sp1,
    sp2,
    sp2_mip_relax,
    sp2_pareto_lp,
    sp3,
    sp4,
)

# zero-profit facility location with capacity pinned at 1.2x the average
# demand share: tight enough that the adversary forces cross-shipping
FLT = dict(n_sites=2, seed=5, capacity_lower_frac=1.2, capacity_upper_frac=1.2)
FLT_VALUE = 4737.267202466099
FLT_ETA = 969.2805979439595
FLT_X = np.array([1.0, 1.0, 86.23797499, 86.23797499])
FLT_SP1_AT_ZERO = 143.72995831671687

FL2 = dict(n_sites=2, seed=1, capacity_lower_frac=1.5, capacity_upper_frac=1.5)
FL2_MIP_RELAX_ETA = -57175.81430857719

PM4 = dict(n_sites=4, seed=3, p=2, k=1, rho=0.3, theta=0.0)
PM4_DIU_ETA = 6049.524746407822


def _flt():
    return gen_robust_fl(FLParams(profits=np.zeros(2), **FLT), "rhs")


def _twin_rows():
    # the same covering row twice, each shifted by its own x component, so
    # the worst-case duals at x = 0 form a whole optimal face
    return Instance(
        name="twin_rows",
        c1=[0.1, 0.1],
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), ub=np.ones(2)),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=np.zeros((1, 2)),
                         h=[1.0]),
        Y=RecourseSet(B1=[[1.0, 0.0], [0.0, 1.0]], B2=[[1.0], [1.0]],
                      E=[[-1.0], [-1.0]], d=[0.0, 0.0], c2=[1.0]),
    )


def _setup_toy():
    # recourse pays a setup of 5 to unlock 2 units of capacity, then 1 per
    # unit served; the LP relaxation buys fractional setups
    return Instance(
        name="setup_toy",
        c1=[1.0],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.ones(1)),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[1.0]], h=[1.0]),
        Y=RecourseSet(B1=np.zeros((3, 1)),
                      B2=[[0.0, 1.0], [2.0, -1.0], [-1.0, 0.0]],
                      E=[[-1.0], [0.0], [0.0]], d=[0.0, 0.0, -1.0],
                      c2=[5.0, 1.0], n_int_y=1),
    )


def test_sp1_zero_on_complete_recourse():
    inst = t1()
    for xv in (0.0, 1.0):
        r = sp1(inst, np.array([xv]))
        assert r.kind == "SP1"
        assert r.value == 0.0
        assert r.u is not None


def test_sp1_reports_unserved_mass_with_witness():
    inst = _flt()
    r = sp1(inst, np.zeros(4))
    assert r.value == pytest.approx(FLT_SP1_AT_ZERO, rel=1e-9)
    # witness scenario: the base demands, none of it servable with no sites
    assert r.u[:2].sum() == pytest.approx(FLT_SP1_AT_ZERO, rel=1e-9)


def test_sp2_on_t1():
    inst = t1()
    r0 = sp2(inst, np.array([0.0]))
    assert r0.value == pytest.approx(1.0)
    assert r0.u[0] == pytest.approx(1.0)
    assert r0.pi[0] == pytest.approx(1.0)
    assert r0.audit_gap <= 1e-6
    assert r0.basis_result.basis == BasisId((0,))
    r1 = sp2(inst, np.array([1.0]))
    assert r1.value == pytest.approx(2.0)

    # split identity holds with the reported pieces
    from ddu_ro.maxmin import lp_parametric
    lp = lp_parametric(inst, np.array([0.0]), r0.pi)
    d_eff = float((inst.Y.d - inst.Y.B1 @ np.array([0.0])) @ r0.pi)
    assert r0.value == pytest.approx(d_eff + lp.value, abs=1e-9)


def test_sp2_matches_oracle_on_tight_fl():
    inst = _flt()
    res = oracle_exact(inst)
    assert res.value == pytest.approx(FLT_VALUE, rel=1e-9)
    r = sp2(inst, res.x)
    assert r.value == pytest.approx(FLT_ETA, rel=1e-9)
    assert r.value == pytest.approx(res.value - float(inst.c1 @ res.x), abs=1e-6)
    assert r.audit_gap <= 1e-6
    # the dual sits inside its polyhedron
    slack = inst.Y.B2.T @ r.pi - inst.Y.c2
    assert float(np.max(slack)) <= 1e-8
    assert float(np.min(r.pi)) >= -1e-8


def test_sp2_on_binary_uncertainty_skips_parametric_audit():
    inst = gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0")
    res = oracle_exact(inst)
    r = sp2(inst, res.x)
    assert r.value == pytest.approx(PM4_DIU_ETA, rel=1e-7)
    assert r.value == pytest.approx(res.value - float(inst.c1 @ res.x), abs=1e-6)
    # the parametric LP relaxes integral scenarios, so no audit and no basis
    assert r.audit_gap is None
    assert r.basis_result is None
    assert sp1(inst, res.x).value == 0.0


def test_sp3_certifies_infeasibility():
    inst = _flt()
    x_bad = np.zeros(4)
    w = sp1(inst, x_bad)
    assert w.value > 1e-7
    r = sp3(inst, x_bad, w.u)
    gamma = r.ray
    assert np.max(np.abs(gamma)) == pytest.approx(1.0)
    rhs_eff = inst.Y.d - inst.Y.B1 @ x_bad - inst.Y.E @ w.u
    assert float(rhs_eff @ gamma) > 1e-8
    assert float(np.max(inst.Y.B2.T @ gamma)) <= 1e-8
    assert float(np.min(gamma)) >= -1e-12


@pytest.mark.parametrize("timed_out", ["sp3", "sp3_ray"])
def test_sp3_reports_a_time_limit(monkeypatch, timed_out):
    inst = _flt()
    x_bad = np.zeros(4)
    w = sp1(inst, x_bad)
    solve_lp = backend.solve_lp
    monkeypatch.setattr(backend, "solve_lp", lambda model, **kw: (
        backend.SolveOutcome(status=backend.TIME_LIMIT)
        if model.name == timed_out else solve_lp(model, **kw)))
    r = sp3(inst, x_bad, w.u, time_limit=1.0)
    assert r.status == backend.TIME_LIMIT
    assert r.ray is None


def test_sp3_rejects_feasible_scenario():
    inst = t1()
    with pytest.raises(BackendError, match="feasible"):
        sp3(inst, np.array([0.0]), np.array([0.5]))


def test_sp2_mip_relax_reduces_to_sp2_without_integers():
    inst = t1()
    a = sp2(inst, np.array([1.0]))
    b = sp2_mip_relax(inst, np.array([1.0]))
    assert b.kind == "SP2relax"
    assert b.value == pytest.approx(a.value)
    assert b.u[0] == pytest.approx(a.u[0])


def test_mip_recourse_sandwich_on_fl():
    inst = gen_mip_recourse_fl(FLParams(**FL2))
    res = oracle_exact(inst)
    relax = sp2_mip_relax(inst, res.x)
    assert relax.value == pytest.approx(FL2_MIP_RELAX_ETA, rel=1e-9)

    exact = max(recourse_value(inst, res.x, u)[0]
                for u in enumerate_vertices(inst.U, res.x))
    _, y = recourse_mip_at(inst, res.x, relax.u)
    y_d = np.round(y[:inst.Y.n_int_y])
    upper = sp4(inst, res.x, y_d)
    assert relax.value <= exact + 1e-7
    assert exact <= upper.value + 1e-7


def test_sandwich_is_strict_on_fractional_setup():
    toy = _setup_toy()
    x = np.zeros(1)
    relax = sp2_mip_relax(toy, x)
    assert relax.value == pytest.approx(3.5)
    exact = max(recourse_value(toy, x, u)[0]
                for u in enumerate_vertices(toy.U, x))
    assert exact == pytest.approx(6.0)
    up = sp4(toy, x, np.array([1.0]))
    assert up.value == pytest.approx(6.0)
    assert relax.value < exact - 1e-6


def test_sp4_goes_infinite_when_the_freeze_cannot_serve():
    toy = _setup_toy()
    r = sp4(toy, np.zeros(1), np.array([0.0]))
    assert r.value == np.inf
    assert r.status == backend.UNBOUNDED


def test_sp4_validates_the_frozen_block():
    toy = _setup_toy()
    with pytest.raises(ValueError, match="shape"):
        sp4(toy, np.zeros(1), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="integral"):
        sp4(toy, np.zeros(1), np.array([0.5]))


def test_pareto_lp_picks_the_stronger_twin():
    inst = _twin_rows()
    x_star = np.zeros(2)
    r = sp2(inst, x_star)
    assert r.value == pytest.approx(1.0)
    # at the core point x0 = e1 the first row slackens, so the improved dual
    # must lean on the second
    x0 = np.array([1.0, 0.0])
    rp = sp2_pareto_lp(inst, x0, r.u, x_star, r.u, r.value)
    assert not rp.used_fallback
    assert rp.pi == pytest.approx(np.array([0.0, 1.0]), abs=1e-9)
    core = inst.Y.d - inst.Y.B1 @ x0 - inst.Y.E @ r.u
    assert float(core @ rp.pi) >= float(core @ r.pi) - 1e-8
    anchor = inst.Y.d - inst.Y.B1 @ x_star - inst.Y.E @ r.u
    assert float(anchor @ rp.pi) >= r.value - 1e-8


def test_pareto_lp_invariants_on_fl():
    inst = _flt()
    r = sp2(inst, FLT_X)
    x0 = np.array([0.0, 1.0, 0.0, 86.23797499])
    rp = sp2_pareto_lp(inst, x0, r.u, FLT_X, r.u, r.value)
    assert not rp.used_fallback
    Y = inst.Y
    assert float(np.max(Y.B2.T @ rp.pi - Y.c2)) <= 1e-8
    assert float(np.min(rp.pi)) >= -1e-8
    anchor = Y.d - Y.B1 @ FLT_X - Y.E @ r.u
    assert float(anchor @ rp.pi) >= r.value - 1e-8
    core = Y.d - Y.B1 @ x0 - Y.E @ r.u
    assert float(core @ rp.pi) >= float(core @ r.pi) - 1e-8


def test_pareto_lp_falls_back_when_the_anchor_is_unreachable():
    inst = _flt()
    r = sp2(inst, FLT_X)
    rp = sp2_pareto_lp(inst, FLT_X, r.u, FLT_X, r.u, r.value + 1e7)
    assert rp.used_fallback
    assert rp.pi is None
    assert rp.status == backend.INFEASIBLE


def test_reports_carry_their_kind():
    inst = t1()
    assert sp1(inst, np.zeros(1)).kind == "SP1"
    assert sp2(inst, np.zeros(1)).kind == "SP2"
    assert sp2_mip_relax(inst, np.zeros(1)).kind == "SP2relax"
    r = SubproblemReport(kind="SP4")
    assert r.status == backend.OPTIMAL and r.value is None
