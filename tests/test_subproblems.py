import numpy as np
import pytest

from ddu_ro import backend, ccg, t1
from ddu_ro.backend import BackendError, SolveTimeLimit
from ddu_ro.ccg import AlgorithmConfig, run
from ddu_ro.instances import (
    FLParams,
    PMedianParams,
    enumerate_vertices,
    gen_mip_recourse_fl,
    gen_reliable_pmedian,
    gen_robust_fl,
    lattice_first_stages,
    oracle_exact,
    recourse_value,
)
from ddu_ro.maxmin import check_inner_feasibility, maxmin_from_instance
from ddu_ro.model import (
    AffineMatrixMap,
    BasisId,
    FirstStageSet,
    Instance,
    RecourseSet,
    UncertaintySet,
)
from ddu_ro.subproblems import (
    recourse_mip_at,
    sp1,
    sp2,
    sp2_mip_relax,
    sp2_pareto_lp,
    sp3,
    sp4,
)
from toys import record_linprog, screen_apart, short_supply

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


def split_gap(inst: Instance, x: np.ndarray, r) -> float:
    """How far sp2's value is from (d - B1 x)' pi plus the parametric-LP
    value at pi, the split identity sp2 audits."""
    d_eff = float((inst.Y.d - inst.Y.B1 @ np.asarray(x, dtype=float)) @ r.pi)
    return abs(r.value - (d_eff + r.basis_result.value))


def test_sp1_zero_on_complete_recourse():
    inst = t1()
    for xv in (0.0, 1.0):
        r = sp1(inst, np.array([xv]))
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
    assert split_gap(inst, np.array([0.0]), r0) <= 1e-6
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
    assert split_gap(inst, res.x, r) <= 1e-6
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


@pytest.mark.parametrize("timed_out", ["sp3"])
def test_sp3_reports_a_time_limit(monkeypatch, timed_out):
    inst = _flt()
    x_bad = np.zeros(4)
    w = sp1(inst, x_bad)
    solve_lp = backend.solve_lp

    def limited(model):
        if model.name == timed_out:
            raise SolveTimeLimit(model.name)
        return solve_lp(model)

    # the Farkas LP passes a timeout on
    monkeypatch.setattr(backend, "solve_lp", limited)
    with pytest.raises(SolveTimeLimit, match=timed_out):
        sp3(inst, x_bad, w.u)


@pytest.fixture
def solved(monkeypatch):
    """The names of the LPs and MIPs solved while the test runs, in order."""
    names = []
    for which in ("solve_lp", "solve_mip"):
        def recording(model, _real=getattr(backend, which)):
            names.append(model.name)
            return _real(model)
        monkeypatch.setattr(backend, which, recording)
    return names


def test_sp3_solves_one_lp(solved):
    inst = _flt()
    w = sp1(inst, np.zeros(4))
    solved.clear()
    sp3(inst, np.zeros(4), w.u)
    assert solved == ["sp3"]


def test_sp3_rejects_feasible_scenario():
    inst = t1()
    with pytest.raises(BackendError, match="feasible"):
        sp3(inst, np.array([0.0]), np.array([0.5]))


def test_sp2_mip_relax_reduces_to_sp2_without_integers():
    inst = t1()
    a = sp2(inst, np.array([1.0]))
    b = sp2_mip_relax(inst, np.array([1.0]))
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


def test_sp4_goes_infinite_when_the_freeze_cannot_serve(solved):
    toy = _setup_toy()
    r = sp4(toy, np.zeros(1), np.array([0.0]))
    assert r.value == np.inf
    assert r.u is not None and r.ray is None and r.pi is None
    # nothing is solved after the feasibility check's polish LP
    assert solved[-2:] == ["setup_toy_sp4_feas_net", "setup_toy_sp4_feas_polish"]


@pytest.mark.parametrize("timed_out", ["range_probe", "setup_toy_sp4_feas_net",
                                       "setup_toy_sp4_feas_polish"])
def test_sp4_maps_time_limits_in_its_screen(monkeypatch, timed_out):
    # the freeze cannot serve, so the screen's copies LP ends Infeasible and
    # the network route answers; a timeout in any of its solves reaches the
    # caller as itself
    real = {"solve_lp": backend.solve_lp, "solve_mip": backend.solve_mip}

    def limited(which):
        def solve(model, **kw):
            if model.name == timed_out:
                raise SolveTimeLimit(model.name)
            return real[which](model, **kw)
        return solve

    for which in real:
        monkeypatch.setattr(backend, which, limited(which))
    with pytest.raises(SolveTimeLimit, match=timed_out):
        sp4(_setup_toy(), np.zeros(1), np.array([0.0]))


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
    assert rp.pi is not None
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
    assert rp.pi is None


# -- sp1 and sp2 share one enumeration on 0/1 uncertainty sets ---------------

def _pm_uk8_lattice(seed: int) -> list:
    inst = gen_reliable_pmedian(PMedianParams(n_sites=8, seed=seed), "ddu_uk")
    return [(inst, x) for x in lattice_first_stages(inst)]


def _pm_pair5_diu_visits(monkeypatch) -> list:
    # (instance, x) of every sp1 call of pm_pair5's diu loop
    seen, real = [], ccg.sp1
    monkeypatch.setattr(ccg, "sp1", lambda inst, x: seen.append((inst, x)) or real(inst, x))
    res = run(gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair"),
              AlgorithmConfig(diu_approx="metadata"))
    assert res.status == "Optimal" and len(seen) == 3
    monkeypatch.undo()
    return seen


def _apart(monkeypatch, inst: Instance, x: np.ndarray):
    """sp1 and sp2 solved apart, as before they shared an enumeration: the
    feasibility check on its own extended problem (its "_feas_enum" copies
    LP and "_feas_polish" audit), then sp2 by its own enumeration."""
    with screen_apart(monkeypatch):
        screened = check_inner_feasibility(maxmin_from_instance(inst, x))
    return screened, sp2(inst, x)


@pytest.mark.parametrize("case", ["pm_uk8-s0", "pm_uk8-s1", "pm_pair5-diu"])
def test_sp1_hands_sp2_its_enumeration_unchanged(monkeypatch, case):
    # at every first stage sp1 reads feasibility off the c2 copies LP and
    # sp2 takes its worst case: the same value, u, pi and basis as the two
    # calls apart, and the same LPs, byte for byte, but the feasibility
    # check's two
    pairs = (_pm_pair5_diu_visits(monkeypatch) if case == "pm_pair5-diu"
             else _pm_uk8_lattice(int(case[-1])))
    calls = record_linprog(monkeypatch)
    for inst, x in pairs:
        tol = ccg._FEAS_TOL * max(1.0, float(np.abs(inst.Y.d).max()))
        calls.clear()
        (v_f, _, worst), before = _apart(monkeypatch, inst, x)
        assert worst is None
        apart = [call for call in calls
                 if not call[0].endswith(("_wc_feas_enum", "_wc_feas_polish"))]
        assert len(calls) == len(apart) + 2
        calls.clear()
        r1 = sp1(inst, x)
        after = sp2(inst, x, worst=r1.worst)
        assert calls == apart
        assert v_f <= tol and r1.value == 0.0
        assert after.value == before.value
        for a, b in ((after.u, before.u), (after.pi, before.pi)):
            assert np.array_equal(a, b)
        if before.basis_result is None:
            assert after.basis_result is None
        else:
            assert after.basis_result.basis == before.basis_result.basis


def test_a_point_without_recourse_keeps_the_feasibility_checks_witness(monkeypatch, solved):
    # the c2 copies LP over U(0) ends Infeasible: it is solved once, not in
    # halves, and dropped, and the feasibility check answers as it did
    # apart with the point of most artificial mass, (1, 1), not the first
    # point without recourse, (0, 1)
    inst, x = short_supply(), np.zeros(1)
    with screen_apart(monkeypatch):
        v_f, witness, _ = check_inner_feasibility(maxmin_from_instance(inst, x))
    apart = list(solved)
    assert apart == ["short_supply_wc_feas_enum", "short_supply_wc_feas_polish"]
    solved.clear()
    r = sp1(inst, x)
    assert solved == ["short_supply_wc_enum", *apart]
    assert r.value == v_f == pytest.approx(2.5, rel=1e-9)
    assert np.array_equal(r.u, witness) and np.array_equal(witness, [1.0, 1.0])
    assert r.worst is None


def test_sp4_on_a_0_1_set_solves_one_copies_lp(solved):
    # every point of U(0) = [0, 1] is served under the freeze: the copies LP
    # settles feasibility and the worst case, with no feasibility check
    r = sp4(_setup_toy(), np.zeros(1), np.array([1.0]))
    assert r.value == pytest.approx(6.0)
    assert solved == ["setup_toy_sp4_enum"]
