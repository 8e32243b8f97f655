"""Solver-loop behavior: exactness against the oracle, bound discipline,
master dominance, termination reasons, and the two approximation loops."""

import copy
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from ddu_ro import backend, ccg, enumeration, maxmin
from ddu_ro.backend import GEQ, LEQ, BackendError, SolveOutcome, SolveTimeLimit
from ddu_ro.ccg import (AlgorithmConfig, MasterState, records_to_csv, run,
                        run_result_to_dict)
from ddu_ro.instances import (FLParams, OracleError, PMedianParams, gen_mip_recourse_fl,
                              gen_reliable_pmedian, gen_robust_fl,
                              lattice_first_stages, oracle_exact, recourse_value, t1)
from ddu_ro.model import (AffineMatrixMap, BasisId, FirstStageSet, Instance,
                          IterationRecord, RecourseSet, UncertaintySet,
                          add_first_stage, build_deterministic_mip, max_lp,
                          uncertainty_set_from_dict, uncertainty_set_to_dict)
from ddu_ro.subproblems import sp2
from toys import (model_digest, record_linprog, screen_apart, short_supply, sparse,
                  t1_infeasible, t1_unbounded_u)

ALL_VARIANTS = ("benders", "parametric", "parametric-modified", "basis")

FLT = dict(n_sites=2, seed=5, capacity_lower_frac=1.2, capacity_upper_frac=1.2)
FLT_W = 4737.267202466099

PM4 = dict(n_sites=4, seed=3, p=2, k=1, rho=0.3, theta=0.0)
PM4_DIU_W = 9557.670493655241

PM8_W = 15344.279309770583     # oracle value of pm_uk8, the default 8 sites
PM5_S2_W = 8190.778475548333   # oracle value of 5-site ddu_uk at generator seed 2
PM5_PAIR_W = 14320.768922448526  # oracle value of pm_pair5 (5 sites, p = 2)

FL2 = dict(n_sites=2, seed=1, capacity_lower_frac=1.5, capacity_upper_frac=1.5)
FL2_MIP_W = -52261.99993668124
FL_MIP3 = dict(n_sites=3, seed=0, capacity_lower_frac=1.5, capacity_upper_frac=1.5)


def _flt() -> Instance:
    return gen_robust_fl(FLParams(profits=np.zeros(2), **FLT), "rhs")


def _lhs_toy() -> Instance:
    # (1 + x) u <= 2 with binary x; recourse pays u, so opening costs 0.5
    # but halves the worst case: w(0) = 2, w(1) = 1.5
    return Instance(
        name="lhs_toy", c1=np.array([0.5]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]]),
                                           terms=((0, np.array([[1.0]])),)),
                         G=np.zeros((1, 1)), h=np.array([2.0])),
        Y=RecourseSet(B1=np.zeros((1, 1)), B2=np.array([[1.0]]),
                      E=np.array([[-1.0]]), d=np.array([0.0]),
                      c2=np.array([1.0])))


def _diu_box() -> Instance:
    # fixed box u <= 2, binary x relieves the covering row: w* = 2.4 at x = 1
    return Instance(
        name="diu_box", c1=np.array([0.4]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.zeros((1, 1)), h=np.array([2.0])),
        Y=RecourseSet(B1=np.array([[1.0]]), B2=np.array([[1.0]]),
                      E=np.array([[-1.0]]), d=np.array([1.0]),
                      c2=np.array([1.0])))


def _cap_toy() -> Instance:
    # y <= 1 makes x = 0 infeasible against u = 2, so a feasibility cut
    # must fire before the optimality machinery sees anything
    return Instance(
        name="cap_toy", c1=np.array([0.3]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.zeros((1, 1)), h=np.array([2.0])),
        Y=RecourseSet(B1=np.array([[2.0], [0.0]]), B2=np.array([[1.0], [-1.0]]),
                      E=np.array([[-1.0], [0.0]]), d=np.array([0.0, -1.0]),
                      c2=np.array([1.0])))


def _setup_toy() -> Instance:
    # integer setup in the recourse with a strict integrality gap at the
    # worst case: relaxed value 3.5 against exact 6.0 at u = 1
    return Instance(
        name="setup_toy", c1=np.array([0.1]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.array([[1.0]]), h=np.array([1.0])),
        Y=RecourseSet(B1=np.zeros((3, 1)),
                      B2=np.array([[0.0, 1.0], [2.0, -1.0], [-1.0, 0.0]]),
                      E=np.array([[-1.0], [0.0], [0.0]]),
                      d=np.array([0.0, 0.0, -1.0]),
                      c2=np.array([5.0, 1.0]), n_int_y=1))


# -- exactness ---------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_t1_every_variant_optimal_in_two_iterations(variant):
    res = run(t1(), AlgorithmConfig(variant=variant, tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([0.0])
    assert res.n_iterations <= 2
    assert res.lb == pytest.approx(res.ub)


@pytest.mark.parametrize("pareto", [False, True])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_every_variant_returns_the_oracle_value_on_pmedian(variant, pareto):
    # parametric-modified's perturbed slack costs can be negative; a block
    # multiplier bounded below by 0 there forces its row tight at every x,
    # which cuts off the optimum here without pareto
    inst = gen_reliable_pmedian(PMedianParams(n_sites=5, seed=2), "ddu_uk")
    res = run(inst, AlgorithmConfig(variant=variant, pareto=pareto))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(PM5_S2_W, rel=1e-9)


@pytest.mark.parametrize("variant", ("benders", "parametric", "parametric-modified"))
def test_fl_rhs_matches_oracle(variant):
    res = run(_flt(), AlgorithmConfig(variant=variant, tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(FLT_W, rel=1e-9)


def test_basis_variant_rejects_continuous_coupling(monkeypatch):
    # the master refuses the instance before the loop solves anything
    calls = []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return call

    for name in ("linprog", "milp"):
        monkeypatch.setattr(backend, name, counted(getattr(backend, name)))
    with pytest.raises(ValueError, match="non-binary"):
        run(_flt(), AlgorithmConfig(variant="basis", tol=0.0))
    assert len(calls) == 0


def _t1_signed() -> Instance:
    # t1 with x in {-1, 0, 1} and costs -x + 2y: w(x) = -x + 2 (1 + x), so
    # w* = 1 at x = -1; x is integer with ub 1 but not binary
    base = t1()
    return replace(base, name="T1-signed", c1=np.array([-1.0]),
                   X=replace(base.X, lb=np.array([-1.0])),
                   Y=replace(base.Y, c2=np.array([2.0])))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_an_integer_x_with_a_negative_lower_bound_is_not_binary(variant):
    # the {0, 1} envelopes of a binary x cut x = -1 off the master
    inst = _t1_signed()
    assert oracle_exact(inst).value == pytest.approx(1.0, abs=1e-9)
    if variant == "basis":
        with pytest.raises(ValueError, match="non-binary"):
            run(inst, AlgorithmConfig(variant=variant, tol=0.0))
        return
    res = run(inst, AlgorithmConfig(variant=variant, tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([-1.0])


def _t1_zero_term() -> Instance:
    # t1 plus a continuous x1 in [0, 1] that F names in an all-zero term:
    # U(x) does not depend on x1, and w* = w(0) = 1 as for t1
    return Instance(
        name="T1-zero-term", c1=np.array([1.0, 0.0]),
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0, 1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]]),
                                           terms=((1, np.array([[0.0]])),)),
                         G=np.array([[1.0, 0.0]]), h=np.array([1.0])),
        Y=RecourseSet(B1=np.zeros((1, 2)), B2=np.array([[1.0]]),
                      E=np.array([[-1.0]]), d=np.array([0.0]),
                      c2=np.array([1.0])))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_an_all_zero_term_couples_nothing(variant):
    inst = _t1_zero_term()
    assert oracle_exact(inst).value == pytest.approx(1.0, abs=1e-9)
    res = run(inst, AlgorithmConfig(variant=variant, tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_lhs_toy_every_variant(variant):
    res = run(_lhs_toy(), AlgorithmConfig(variant=variant, tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(1.5, abs=1e-7)
    assert res.x == pytest.approx([1.0])


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_feasibility_cuts_recover_the_optimum(variant):
    res = run(_cap_toy(), AlgorithmConfig(variant=variant, tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(0.3, abs=1e-8)
    assert res.x == pytest.approx([1.0])


def test_pareto_selection_reaches_the_same_optimum():
    for variant in ("benders", "parametric"):
        res = run(_flt(), AlgorithmConfig(variant=variant, tol=0.0, pareto=True))
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(FLT_W, rel=1e-9)


# "cut_kind seed_id" per iteration of runs that all end Optimal: which cut
# each variant adds, and when, with and without stabilization.  The basis
# variant rejects the flt instance up front.
_REPEAT, _GAP = "none repeat-first-stage", "none gap"
_TRAJECTORIES = {
    ("t1", "benders", False): ["optimality p0", _REPEAT],
    ("t1", "benders", True): ["optimality p0", _REPEAT],
    ("t1", "parametric", False): ["unified p0", _REPEAT],
    ("t1", "parametric", True): ["unified p0", _REPEAT],
    ("t1", "parametric-modified", False): ["unified p0", _REPEAT],
    ("t1", "parametric-modified", True): ["unified p0", _REPEAT],
    ("t1", "basis", False): ["basis b0", _REPEAT],
    ("t1", "basis", True): ["basis b0", _REPEAT],
    ("flt", "benders", False): ["feasibility r0", "optimality p0", _REPEAT],
    ("flt", "benders", True): ["feasibility r0", "optimality p0", _REPEAT],
    ("flt", "parametric", False): ["unified r0", _GAP],
    ("flt", "parametric", True): ["unified r0", _GAP],
    ("flt", "parametric-modified", False): ["unified r0", _GAP],
    ("flt", "parametric-modified", True): ["unified r0", _GAP],
    ("uk5", "benders", False): [f"optimality p{k}" for k in range(4)] + [_REPEAT],
    ("uk5", "benders", True): [f"optimality p{k}" for k in range(5)] + [_REPEAT],
    ("uk5", "parametric", False): ["unified p0", _REPEAT],
    ("uk5", "parametric", True): ["unified p0", _REPEAT],
    ("uk5", "parametric-modified", False): ["unified p0", _REPEAT],
    ("uk5", "parametric-modified", True): ["unified p0", _REPEAT],
    # one basis cut: its slack-completed basis binds at every first stage
    ("uk5", "basis", False): ["basis b0", _REPEAT],
    ("uk5", "basis", True): ["basis b1", _REPEAT],
}
_TRAJECTORY_INSTANCES = {
    "t1": (t1, 1.0), "flt": (_flt, FLT_W),
    "uk5": (lambda: gen_reliable_pmedian(PMedianParams(n_sites=5, seed=0), "ddu_uk"),
            7042.011905578076),
}


# the ids keep the None that once stood for the default cut mode, so each
# case keeps its name
@pytest.mark.parametrize("name,variant,pareto", list(_TRAJECTORIES),
                         ids=[f"{n}-{v}-None-{p}" for n, v, p in _TRAJECTORIES])
def test_loop_trajectory_is_pinned(name, variant, pareto):
    make, value = _TRAJECTORY_INSTANCES[name]
    res = run(make(), AlgorithmConfig(variant=variant, pareto=pareto, tol=0.0))
    expected = [tuple(step.split()) for step in _TRAJECTORIES[name, variant, pareto]]
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(value, rel=1e-9)
    assert [(r.cut_kind, r.seed_id) for r in res.iterations] == expected
    assert "cut_mode" not in res.meta


# iteration counts of pm_uk8 s0 at the default tol; its masters are valued
# over X's lattice, so HiGHS's options reach only its subproblems. t1, flt
# and uk5 take the pinned trajectories above
_PM8_ITERATIONS = {"benders": 14, "parametric": 6, "parametric-modified": 6, "basis": 6}


@pytest.mark.parametrize("name,variant", [
    *[(name, variant) for name, variant, pareto in _TRAJECTORIES if not pareto],
    *[("pm_uk8", variant) for variant in _PM8_ITERATIONS]])
def test_highs_heuristics_change_no_outcome(name, variant, monkeypatch):
    # every MIP solved with HiGHS's default options instead of backend's
    # (RINS and feasibility jump off) ends on the pinned outcome
    monkeypatch.setattr(backend, "_MIP_OPTIONS", {})
    if name == "pm_uk8":
        make, value = lambda: gen_reliable_pmedian(PMedianParams(n_sites=8), "ddu_uk"), PM8_W
        config, iterations = AlgorithmConfig(variant=variant), _PM8_ITERATIONS[variant]
    else:
        make, value = _TRAJECTORY_INSTANCES[name]
        config = AlgorithmConfig(variant=variant, tol=0.0)
        iterations = len(_TRAJECTORIES[name, variant, False])
    res = run(make(), config)
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(value, rel=1e-9)
    assert res.n_iterations == iterations


def _pm8() -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=8), "ddu_uk")


def _pm5_pair() -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair")


# -- the master over X's lattice ---------------------------------------------

@pytest.mark.parametrize("make, config, route", [
    (_TRAJECTORY_INSTANCES["uk5"][0], dict(variant="benders"), "lattice"),
    (_TRAJECTORY_INSTANCES["uk5"][0], dict(variant="parametric"), "lattice"),
    (_TRAJECTORY_INSTANCES["uk5"][0], dict(variant="basis"), "lattice"),
    (_TRAJECTORY_INSTANCES["uk5"][0], dict(variant="parametric-modified"), "lattice"),
    (lambda: gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs"), {}, "mip"),
    (lambda: gen_mip_recourse_fl(FLParams(**FL_MIP3)),
     dict(mip_recourse_mode=True, big_M=1e5), "mip"),
    (_pm5_pair, dict(diu_approx="metadata"), "lattice"),
], ids=["uk5-benders", "uk5-parametric", "uk5-basis", "uk5-parametric-modified",
        "fl_rhs2-coupled-capacity", "fl_mip3-integer-recourse", "pm_pair5-diu"])
def test_the_master_route_follows_the_structure(make, config, route):
    # uk5 has binary sites only and primal-dual blocks, whatever cost row
    # they pin; fl-rhs couples its continuous capacities, mip mode replicates
    # integer recourse; pm_pair5's 15 binaries span a 32768-point box, but
    # the pruned search visits only the prefixes its rows admit, 10 points
    res = run(make(), AlgorithmConfig(**config))
    meta = run_result_to_dict(res)["meta"]
    assert res.status == "Optimal"
    assert meta["masters_lattice"] + meta["masters_mip"] == res.n_iterations
    assert meta["masters_mip" if route == "lattice" else "masters_lattice"] == 0


def test_a_lattice_over_the_point_limit_keeps_the_mip_masters(monkeypatch):
    # uk5 has ten first stages (3 of 5 sites), ten prefixes alive at the
    # last level of enumeration.lattice_points; an enumeration cap one below
    # refuses the lattice (OracleError) and keeps every master a MIP, with
    # the same outcome. A cap of one refuses U(x)'s 0/1 points as well, so
    # sp1 and sp2 take the KKT MIPs
    outcomes, real = [], backend.solve_mip
    for limit, route in ((10, "masters_lattice"), (9, "masters_mip"), (1, "masters_mip")):
        monkeypatch.setattr(enumeration, "_MAX_LATTICE", limit)
        inst, names = _TRAJECTORY_INSTANCES["uk5"][0](), []
        monkeypatch.setattr(backend, "solve_mip",
                            lambda model, **kw: names.append(model.name) or real(model, **kw))
        res = run(inst, AlgorithmConfig(variant="parametric"))
        assert res.meta[route] == res.n_iterations
        subproblems = [name.removeprefix(inst.name) for name in names if "_wc" in name]
        assert subproblems == (["_wc_feas_kkt", "_wc_kkt"] * (res.n_iterations - 1)
                               if limit == 1 else [])
        outcomes.append((res.status, res.objective))
    assert {status for status, _ in outcomes} == {"Optimal"}
    assert [obj for _, obj in outcomes] == pytest.approx([outcomes[0][1]] * 3)


_VARIANT_CONFIGS = [dict(variant="benders"), dict(variant="basis"),
                    dict(variant="parametric-modified"),
                    *[dict(variant="parametric", pareto=pareto) for pareto in (False, True)]]


@pytest.mark.parametrize("make, configs", [
    (_TRAJECTORY_INSTANCES["uk5"][0], _VARIANT_CONFIGS),
    (_pm8, _VARIANT_CONFIGS),
    # one block per surrogate set and seed
    (_pm5_pair, [dict(diu_approx="metadata")]),
], ids=["uk5", "pm_uk8", "pm_pair5-diu"])
def test_the_lattice_master_agrees_with_the_mip(make, configs, monkeypatch):
    # at every master the lattice value lies between the dual bound and the
    # objective of backend.solve_mip on the same model, and where that MIP
    # closed its gap it takes the same first stage
    lattice_solve, compared = MasterState.solve, []

    def checked(state, **kw):
        out = lattice_solve(state, **kw)
        mip = backend.solve_mip(state.model)
        assert out.is_optimal and mip.is_optimal
        scale = 1e-9 * max(1.0, abs(mip.objective))
        assert mip.bound - scale <= out.objective <= mip.objective + scale
        if mip.objective - mip.bound <= scale:
            assert out.x[state.x_ids] == pytest.approx(mip.x[state.x_ids], abs=1e-6)
        compared.append(out.objective)
        return out

    monkeypatch.setattr(MasterState, "solve", checked)
    masters = 0
    for config in configs:
        res = run(make(), AlgorithmConfig(**config))
        assert res.status == "Optimal" and res.meta["masters_mip"] == 0
        masters += res.meta["masters_lattice"]
    assert len(compared) == masters


def _ray_toy_with_a_spare_site() -> Instance:
    # _ray_toy plus a binary x1 that only c1 reads: four lattice points,
    # (0, 0), (0, 1), (1, 0) and (1, 1), with the same best first stage
    inst = _ray_toy()
    return replace(
        inst, name="ray_toy_spare", c1=np.array([0.1, 0.05]),
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=2,
                        ub=np.array([1.0, 1.0])),
        U=replace(inst.U, G=np.hstack([inst.U.G, [[0.0]]])),
        Y=replace(inst.Y, B1=np.hstack([inst.Y.B1, [[0.0], [0.0]]])))


def test_an_infeasible_copy_narrows_the_lattice_lp(monkeypatch):
    # parametric cuts: the replicate of the point cut found at
    # x0 = 0 has no recourse against its u at x0 = 1. The second master
    # values that part at all four points, none valued before, in one LP,
    # which is Infeasible; its first half, x0 = 0, is Optimal, and its
    # second, x0 = 1, Infeasible at once, as x1 reads nothing and both
    # copies share one feasible set
    real, solved = backend.solve_lp, []

    def recorded(model):
        out = real(model)
        if model.name.endswith("-master"):
            solved.append((model.n_vars, out.status))
        return out

    monkeypatch.setattr(backend, "solve_lp", recorded)
    res = run(_ray_toy_with_a_spare_site(),
              AlgorithmConfig(variant="parametric", tol=0.0))
    assert res.status == "Optimal" and res.objective == pytest.approx(1.0)
    assert res.x == pytest.approx([0.0, 0.0])
    assert (res.meta["masters_lattice"], res.meta["masters_mip"]) == (2, 0)
    n = solved[0][0] // 4
    assert solved == [(4 * n, "Infeasible"), (2 * n, "Optimal"), (2 * n, "Infeasible")]
    assert res.meta["lattice_copies"] == 4


def test_a_numerical_lattice_lp_sends_the_master_to_the_mip(monkeypatch):
    # as above, but a master LP that would end Infeasible ends Numerical: the
    # second master's copy at x = 1 cannot be valued, so that master goes
    # to backend.solve_mip and ends where the lattice did
    config = AlgorithmConfig(variant="parametric", tol=0.0)
    reference = run(_ray_toy(), config)
    real = backend.solve_lp

    def flaky(model):
        out = real(model)
        if model.name.endswith("-master") and out.status == backend.INFEASIBLE:
            return SolveOutcome(status=backend.NUMERICAL)
        return out

    monkeypatch.setattr(backend, "solve_lp", flaky)
    res = run(_ray_toy(), config)
    assert (res.meta["masters_lattice"], res.meta["masters_mip"]) == (1, 1)
    assert res.n_iterations == reference.n_iterations == 2
    assert res.status == reference.status == "Optimal"
    assert res.objective == pytest.approx(reference.objective)
    assert res.x == pytest.approx(reference.x)


def _separable_ray_toy() -> Instance:
    # _ray_toy plus a continuous x1 <= x0 that neither U(x) nor the
    # recourse reads; its best first stage is still x = 0
    inst = _ray_toy()
    return replace(
        inst, name="separable_ray_toy", c1=np.array([0.1, -0.05]),
        X=FirstStageSet(A=np.array([[1.0, -1.0]]), b=np.zeros(1), n_int=1,
                        ub=np.array([1.0, 1.0])),
        U=replace(inst.U, G=np.hstack([inst.U.G, [[0.0]]])),
        Y=replace(inst.Y, B1=np.hstack([inst.Y.B1, [[0.0], [0.0]]])))


def test_a_numerical_completion_sends_the_master_to_the_mip(monkeypatch):
    # the LPs that complete x0 = 0 end Numerical; a lattice without that
    # point would hold only x0 = 1, which the ray cuts off, and end "master
    # infeasible", so the masters go to the MIP and the oracle raises
    inst, real = _separable_ray_toy(), backend.solve_lp
    reference = run(_separable_ray_toy(), AlgorithmConfig(variant="benders", tol=0.0))
    assert reference.meta["masters_mip"] == 0

    def flaky(model):
        if model.name == "xfill" and np.any(model.columns()[1][::2] == 0.0):
            return SolveOutcome(status=backend.NUMERICAL)
        return real(model)

    monkeypatch.setattr(backend, "solve_lp", flaky)
    with pytest.raises(OracleError, match="Numerical"):
        oracle_exact(inst)
    res = run(inst, AlgorithmConfig(variant="benders", tol=0.0))
    assert res.meta["masters_lattice"] == 0 and res.meta["masters_mip"] == res.n_iterations
    assert res.status == reference.status == "Optimal"
    assert res.objective == pytest.approx(reference.objective)


def _uncoverable_toy() -> Instance:
    # y covers u only up to 1/2 while U(x) = [0, 1 + x] reaches 1 at every
    # x; the deterministic relaxation, at u = 0, is feasible
    return Instance(
        name="uncoverable", c1=np.array([1.0]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.array([[1.0]]), h=np.array([1.0])),
        Y=RecourseSet(B1=np.zeros((2, 1)), B2=np.array([[1.0], [-1.0]]),
                      E=np.array([[-1.0], [0.0]]), d=np.array([0.0, -0.5]),
                      c2=np.array([1.0])))


@pytest.mark.parametrize("config", [dict(variant="benders"), dict(variant="parametric")],
                         ids=["benders", "parametric"])
def test_a_lattice_with_every_point_cut_off_ends_master_infeasible(config):
    res = run(_uncoverable_toy(), AlgorithmConfig(**config))
    assert res.status == "Infeasible" and res.meta["reason"] == "master infeasible"
    assert (res.meta["masters_lattice"], res.meta["masters_mip"]) == (2, 0)


def _eager_reference(monkeypatch) -> list[str]:
    """Check every lattice master against the eager valuation, which values
    the rows written since the previous master at every lattice point in
    one LP (state.model writes the cuts of a benders state, which the lazy
    route values by seed), and return the list of the statuses checked.
    The lazy route must give the same status and first-argmin x, and the
    same value within rel 1e-9."""
    lazy, seen, checked = MasterState._lattice_solve, {}, []

    def compared(state):
        out = lazy(state)
        m, points = state.model, state.lattice()
        n_int = state.inst.X.n_int
        # the columns and rows valued so far and each point's largest least
        # eta; holding the state keeps its id from being reused
        (n0, m0), theta, _ = seen.setdefault(id(state), (
            (state.eta_id + 1, state.inst.X.A.shape[0]), np.full(len(points), -np.inf), state))
        if (n0, m0) != (m.n_vars, m.n_constrs):
            A, senses, rhs = sparse(m, m0)
            lb, ub, _ = m.columns()
            own = [*range(n0, m.n_vars), state.eta_id]
            A_own = A[:, own]
            A_own.sort_indices()
            status, _, v = backend.solve_copies(
                "eager", (A_own.indptr, A_own.indices, A_own.data), senses,
                rhs - points[:, :n_int] @ A[:, state.x_ids[:n_int]].T,
                lb[own], ub[own], np.r_[np.zeros(len(own) - 1), 1.0])
            assert np.isin(status, (backend.OPTIMAL, backend.INFEASIBLE)).all()
            theta = np.maximum(theta, np.where(status == backend.OPTIMAL, v[:, -1], np.inf))
            seen[id(state)] = ((m.n_vars, m.n_constrs), theta, state)
        values = points @ state.inst.c1 + np.maximum(m.columns()[0][state.eta_id], theta)
        if not np.isfinite(values).any():
            assert out.status == backend.INFEASIBLE
        else:
            k = int(np.argmin(values))
            assert out.status == backend.OPTIMAL
            assert np.array_equal(out.x[state.x_ids], points[k])
            assert out.objective == pytest.approx(values[k], rel=1e-9)
        checked.append(out.status)
        return out

    monkeypatch.setattr(MasterState, "_lattice_solve", compared)
    return checked


@pytest.mark.parametrize("make, configs", [
    (_TRAJECTORY_INSTANCES["uk5"][0], _VARIANT_CONFIGS),
    (_pm8, _VARIANT_CONFIGS),
    (_pm5_pair, [dict(diu_approx="metadata")]),
    (lambda: _ray_toy(), [dict(variant="benders", tol=0.0)]),
    (_uncoverable_toy, [dict(variant="benders"), dict(variant="parametric")]),
    # F has a term, so benders values its seeds in one LP per F(x)
    (_lhs_toy, [dict(variant="benders", tol=0.0)]),
], ids=["uk5", "pm_uk8", "pm_pair5-diu", "ray_toy", "uncoverable", "lhs_toy"])
def test_the_lazy_lattice_master_equals_the_eager_one(make, configs, monkeypatch):
    checked, masters = _eager_reference(monkeypatch), 0
    for config in configs:
        res = run(make(), AlgorithmConfig(**config))
        assert res.meta["masters_mip"] == 0
        masters += res.meta["masters_lattice"]
    assert len(checked) == masters > 0


def test_a_tie_goes_to_the_first_lattice_point_though_the_later_is_valued_first(monkeypatch):
    # U(x) = [0, 1 + x] at x in {0, 1}, c1 = -1, and parametric replicates
    # y >= 1 + u at cost y. The seed 0 pins no u, so its cut, eta >= 1, is
    # worth 1 at both points; the seed 1 pins u = 1 + x, and its cut, eta
    # >= 2 + x, makes both worth 2. Before that cut is valued, x = 1 has the
    # lower bound, 0 against 1, so it is valued first; x = 0 then ties it
    # and is returned
    box = _diu_box()
    inst = replace(box, c1=np.array([-1.0]),
                   U=replace(box.U, G=np.array([[1.0]]), h=np.array([1.0])),
                   Y=replace(box.Y, B1=np.array([[0.0]])))
    state = MasterState(inst, AlgorithmConfig(variant="parametric"))
    state.add_seed(np.array([0.0]))
    assert state.solve().x[state.x_ids] == [1.0]
    state.add_seed(np.array([1.0]))
    real, order = ccg._block_values, []

    def recorded(model, first, own, x_ids, points, cost):
        order.append(points[:, 0].tolist())
        return real(model, first, own, x_ids, points, cost)

    monkeypatch.setattr(ccg, "_block_values", recorded)
    out = state.solve()
    assert order == [[1.0], [0.0]]
    assert out.status == backend.OPTIMAL and out.objective == 2.0
    assert out.x[state.x_ids] == [0.0]
    assert state.masters_lattice == 2 and state.lattice_copies == 4


def test_a_benders_master_off_the_lattice_writes_its_cuts_in_order(monkeypatch):
    # every seed LP of the lattice route ends Numerical, so the second
    # master, the first with a cut to value, and every later one go to
    # backend.solve_mip; the cuts held as seeds until then are written
    # first, in cut order, and the model is the one written cut by cut
    config = AlgorithmConfig(variant="benders", tol=0.0)
    reference = run(_ray_toy(), config)
    assert reference.meta["masters_mip"] == 0
    real_lp, real_solve, states = backend.solve_lp, MasterState.solve, []

    def flaky(model):
        if model.name.endswith("-master"):
            return SolveOutcome(status=backend.NUMERICAL)
        return real_lp(model)

    def recorded(state, **kw):
        states.append(state)
        return real_solve(state, **kw)

    monkeypatch.setattr(backend, "solve_lp", flaky)
    monkeypatch.setattr(MasterState, "solve", recorded)
    res = run(_ray_toy(), config)
    assert (res.meta["masters_lattice"], res.meta["masters_mip"]) == (1, res.n_iterations - 1)
    assert (res.status, res.n_iterations) == (reference.status, reference.n_iterations)
    assert res.objective == pytest.approx(reference.objective)
    assert res.x == pytest.approx(reference.x)
    assert res.meta["point_seeds"] == reference.meta["point_seeds"]
    assert res.meta["ray_seeds"] == reference.meta["ray_seeds"]
    assert [c.tag for c in states[-1].cuts] == ["p0", "r0"]
    eager = _replay(MasterState(_ray_toy(), config),
                    reference.meta["point_seeds"], reference.meta["ray_seeds"])
    assert model_digest(states[-1].model) == model_digest(eager)


def _check_cut_rows(state: MasterState) -> int:
    """Assert that each cut's rows read only the integer x, eta and the
    cut's own columns, none of them integer, and bound eta from below only,
    which makes the LP of the rows from any cut on exact at a lattice point
    (ccg._block_values); return the number of cuts checked."""
    m = state.model
    integer = m.columns()[2]
    ends = [*state._starts[1:], (m.n_vars, m.n_constrs)]
    for (n0, m0), (n1, m1) in zip(state._starts, ends):
        (indptr, cols, _), senses, _ = m.rows(m0)
        assert np.isin(cols[:indptr[m1 - m0]],
                       [*state.x_ids[:state.inst.X.n_int], state.eta_id, *range(n0, n1)]).all()
        assert not integer[n0:n1].any()
        (indptr, _, eta), _, _ = m.rows(m0, [state.eta_id])
        senses = senses[:m1 - m0][np.diff(indptr[:m1 - m0 + 1]) > 0]
        eta = eta[:indptr[m1 - m0]]
        assert np.all(np.where(senses == GEQ, eta > 0, (senses == LEQ) & (eta < 0)))
    return len(state.cuts)


@pytest.mark.parametrize("make, configs", [
    (_TRAJECTORY_INSTANCES["uk5"][0], _VARIANT_CONFIGS),
    (_pm8, [dict(variant=variant) for variant in ALL_VARIANTS]),
    (_pm5_pair, [dict(diu_approx="metadata")]),
    (_lhs_toy, [dict(variant=variant, tol=0.0) for variant in ALL_VARIANTS]),
    (_diu_box, [dict(variant=variant, tol=0.0) for variant in ALL_VARIANTS]),
], ids=["uk5", "pm_uk8", "pm_pair5-diu", "lhs_toy", "diu_box"])
def test_every_writer_keeps_a_cut_to_the_lattice_x_eta_and_its_own_columns(
        make, configs, monkeypatch):
    # the lattice route values the cuts from any one on by the LP of their
    # rows with x fixed, which is exact only for rows of this shape
    real, states = MasterState.solve, {}

    def recorded(state, **kw):
        states[id(state)] = state
        return real(state, **kw)

    monkeypatch.setattr(MasterState, "solve", recorded)
    for config in configs:
        states.clear()
        res = run(make(), AlgorithmConfig(**config))
        assert res.meta["masters_mip"] == 0
        (state,) = states.values()
        assert _check_cut_rows(state) > 0


@pytest.mark.parametrize("make", [_pm8, _diu_box], ids=["pm_uk8", "diu_box"])
def test_the_lattice_relaxation_is_the_deterministic_mips_optimum(make, monkeypatch):
    # one copy per lattice point of the rows after X's; past
    # _RELAXATION_ENTRIES entries over points times every nonzero of those
    # rows, x's included, the MIP takes it
    inst = make()
    state = MasterState(inst, AlgorithmConfig(variant="parametric"))
    model, ids = build_deterministic_mip(inst)
    x0, value = ccg._lattice_relaxation(state, model, ids["x"])
    mip = backend.solve_mip(build_deterministic_mip(inst)[0])
    assert mip.status == backend.OPTIMAL and value == pytest.approx(mip.objective, rel=1e-9)
    # x0 is a lattice point, the first of least value
    assert (state.lattice() == x0).all(axis=1).any()
    entries = len(state.lattice()) * model.rows(inst.X.A.shape[0])[0][2].size
    monkeypatch.setattr(ccg, "_RELAXATION_ENTRIES", entries)
    assert ccg._lattice_relaxation(state, model, ids["x"])[1] == value
    monkeypatch.setattr(ccg, "_RELAXATION_ENTRIES", entries - 1)
    assert ccg._lattice_relaxation(state, model, ids["x"]) is None


def test_a_relaxation_whose_copies_fail_is_the_mips(monkeypatch):
    # the _det copies end Numerical, so _lattice_relaxation leaves the
    # lattice and _relaxation solves the deterministic MIP, which an
    # unforced run does not: the run ends as that one does, with the same
    # relaxation value but for the last bits of HiGHS's arithmetic
    det, real_lp, real_mip, mips = f"{_pm8().name}_det", backend.solve_lp, backend.solve_mip, []

    def recorded(model, **kw):
        mips.append(model.name)
        return real_mip(model, **kw)

    def numerical(model):
        if model.name == det:
            return SolveOutcome(status=backend.NUMERICAL)
        return real_lp(model)

    monkeypatch.setattr(backend, "solve_mip", recorded)
    reference = run(_pm8(), AlgorithmConfig(variant="parametric"))
    assert det not in mips
    monkeypatch.setattr(backend, "solve_lp", numerical)
    res = run(_pm8(), AlgorithmConfig(variant="parametric"))
    assert mips.count(det) == 1
    assert res.meta["relaxation_value"] == pytest.approx(reference.meta["relaxation_value"],
                                                         rel=1e-12)
    assert (res.status, res.objective) == (reference.status, reference.objective)


def test_pm_uk8_values_fewer_copies_than_every_point_per_master():
    res = run(_pm8(), AlgorithmConfig(variant="parametric"))
    meta = run_result_to_dict(res)["meta"]
    assert meta["masters_mip"] == 0
    assert 0 < meta["lattice_copies"] < meta["masters_lattice"] * 56


def test_the_benders_lattice_master_reads_no_dual_bound(monkeypatch):
    # the lattice values each benders seed by an LP over U(x) and writes no
    # optimality block, so it reads no lambda and no M_d: with the block
    # writer and the dual bound raising, the run is unchanged. Valued by
    # those blocks, their dual side capped at 1, it ended Numerical at
    # iteration 5, its lower bound 17020.51 above its upper bound 16290.32
    reference = run(_pm8(), AlgorithmConfig(variant="benders"))

    def unwritten(*args):
        raise AssertionError("a benders lattice master wrote an optimality block")

    monkeypatch.setattr(ccg, "build_optimality_block", unwritten)
    monkeypatch.setattr(maxmin, "dual_bound", unwritten)
    res = run(_pm8(), AlgorithmConfig(variant="benders"))
    assert res.status == "Optimal" and res.objective == PM8_W
    assert res.n_iterations == 14 and res.meta["masters_mip"] == 0
    assert res.meta["blocks_primal_dual"] == res.meta["blocks_kkt"] == 0
    assert res.meta["point_seeds"] == reference.meta["point_seeds"]


# -- what runs derive from the instance alone ---------------------------------

def _derivations(calls: list, inst: Instance) -> set[str]:
    """The LPs of the lattice (xfill) and of the relaxation step (the
    deterministic relaxation _det and eta's floor first_stage_max) among
    the calls of toys.record_linprog."""
    return {c[0].removeprefix(inst.name) for c in calls} & {"xfill", "_det", "first_stage_max"}


def _outcome(res):
    return (res.status, res.objective, res.x.tolist(), res.n_iterations,
            [(r.lb, r.ub) for r in res.iterations], res.meta["point_seeds"],
            res.meta["ray_seeds"], res.meta["n_basis_seeds"])


def test_runs_on_one_instance_derive_its_lattice_and_relaxation_once(monkeypatch):
    # the bench's pmedian order: the first run derives X's lattice and the
    # relaxation step, the later two take both from the instance and end as
    # runs on an instance of their own do
    inst, lps = _pm8(), record_linprog(monkeypatch)
    for first, variant in zip((True, False, False), ("parametric", "benders", "basis")):
        lps.clear()
        res = run(inst, AlgorithmConfig(variant=variant))
        assert _derivations(lps, inst) == ({"xfill", "_det", "first_stage_max"}
                                           if first else set())
        assert res.meta["facts"] == ("computed" if first else "reused")
        fresh = run(_pm8(), AlgorithmConfig(variant=variant))
        assert fresh.meta["facts"] == "computed"
        assert _outcome(res) == _outcome(fresh)
        assert res.meta["relaxation_value"] == fresh.meta["relaxation_value"]


def test_parametric_modified_solves_no_parametric_lp_on_the_enumeration_route(monkeypatch):
    # MasterState.cut perturbs the cost row of sp2's parametric LP at its
    # seed rather than solving that LP again, and sp2 takes that LP's
    # optimum from the vertices its enumeration listed, so no sp2 call
    # solves it either
    lps, real, sp2_calls = record_linprog(monkeypatch), ccg.sp2, []
    monkeypatch.setattr(ccg, "sp2", lambda *a, **kw: sp2_calls.append(a) or real(*a, **kw))
    res = run(_pm8(), AlgorithmConfig(variant="parametric-modified"))
    assert (res.status, res.n_iterations) == ("Optimal", 6)
    assert res.objective == pytest.approx(PM8_W, rel=1e-9)
    assert len(sp2_calls) == 6
    assert sum(c[0] == "lp_parametric" for c in lps) == 0


@pytest.mark.parametrize("variant", ["parametric", "benders", "basis"])
def test_a_worst_case_on_pm_uk8_costs_one_enumeration_lp(monkeypatch, variant):
    # sp1's enumeration LP is the iteration's one worst-case LP: sp2 takes
    # its duals and vertices, so no vertex dual LP and no parametric LP runs
    inst, sp1_calls, real = _pm8(), [], ccg.sp1
    lps = record_linprog(monkeypatch)
    monkeypatch.setattr(ccg, "sp1", lambda *a: sp1_calls.append(a) or real(*a))
    res = run(inst, AlgorithmConfig(variant=variant))
    assert res.status == "Optimal" and res.objective == pytest.approx(PM8_W, rel=1e-9)
    names = [c[0].removeprefix(inst.name) for c in lps]
    assert not {"SP2_vertex_dual", "lp_parametric"} & set(names)
    assert names.count("_wc_enum") == len(sp1_calls) >= res.n_iterations - 1


def test_only_basis_cuts_rebuild_a_parametric_basis(monkeypatch):
    # benders and parametric read sp2's parametric LP for its value alone
    calls, real = [], maxmin._complete_basis
    monkeypatch.setattr(maxmin, "_complete_basis",
                        lambda *a: calls.append(1) or real(*a))
    for variant, rebuilt in (("benders", False), ("parametric", False), ("basis", True)):
        calls.clear()
        assert run(_pm8(), AlgorithmConfig(variant=variant)).status == "Optimal"
        assert bool(calls) == rebuilt


def test_a_run_at_another_big_m_derives_the_relaxation_again(monkeypatch):
    # build_deterministic_mip reads the run's big-M; the lattice does not
    inst = _pm8()
    run(inst, AlgorithmConfig(variant="parametric"))
    lps = record_linprog(monkeypatch)
    for facts, derived in (("computed", {"_det", "first_stage_max"}), ("reused", set())):
        lps.clear()
        res = run(inst, AlgorithmConfig(variant="parametric", big_M=1e5))
        assert _derivations(lps, inst) == derived and res.meta["facts"] == facts
        assert res.status == "Optimal" and res.objective == pytest.approx(PM8_W, rel=1e-9)


def test_the_oracle_reads_the_lattice_of_a_run_on_the_instance(monkeypatch):
    inst = _pm8()
    run(inst, AlgorithmConfig(variant="parametric"))
    lps = record_linprog(monkeypatch)
    res = oracle_exact(inst)
    assert "xfill" not in _derivations(lps, inst)
    assert res.value == oracle_exact(_pm8()).value == PM8_W
    # the caller's own copies: writing them leaves the instance's lattice
    lattice = lattice_first_stages(inst).copy()
    res.x[:] = -1.0
    for x, _ in res.evaluations:
        x[:] = -1.0
    assert np.array_equal(lattice_first_stages(inst), lattice)


def test_a_refused_lattice_is_derived_again_by_the_next_run(monkeypatch):
    # the completion LPs of x0 = 0 end Numerical: the run leaves the lattice
    # (OracleError) and keeps nothing of it, so the next run derives it
    # again, while the relaxation it took by the MIP stays
    inst, real = _separable_ray_toy(), backend.solve_lp
    config = AlgorithmConfig(variant="benders", tol=0.0)

    def flaky(model):
        if model.name == "xfill" and np.any(model.columns()[1][::2] == 0.0):
            return SolveOutcome(status=backend.NUMERICAL)
        return real(model)

    with monkeypatch.context() as m:
        m.setattr(backend, "solve_lp", flaky)
        refused = run(inst, config)
    assert refused.meta["masters_lattice"] == 0
    lps = record_linprog(monkeypatch)
    res = run(inst, config)
    assert _derivations(lps, inst) == {"xfill"} and res.meta["facts"] == "computed"
    assert res.meta["masters_lattice"] == res.n_iterations
    assert res.status == refused.status == "Optimal"
    assert res.objective == pytest.approx(refused.objective)


@pytest.mark.parametrize("model, derived", [
    ("xfill", {"xfill", "_det", "first_stage_max"}),
    ("_det", {"_det", "first_stage_max"}),
    ("first_stage_max", {"_det", "first_stage_max"}),
])
def test_a_relaxation_step_cut_by_the_clock_is_derived_again(monkeypatch, model, derived):
    # a derivation that raises keeps nothing; what it finished before, the
    # lattice where the clock stopped the relaxation, stays
    inst, real = _separable_ray_toy(), backend.solve_lp
    config = AlgorithmConfig(variant="benders", tol=0.0)

    def times_out(m):
        if m.name.removeprefix(inst.name) == model:
            raise SolveTimeLimit(m.name)
        return real(m)

    with monkeypatch.context() as m:
        m.setattr(backend, "solve_lp", times_out)
        cut = run(inst, config)
    assert cut.status == "TimeLimit" and cut.meta["facts"] == "computed"
    lps = record_linprog(monkeypatch)
    res = run(inst, config)
    assert _derivations(lps, inst) == derived and res.meta["facts"] == "computed"
    assert _outcome(res) == _outcome(run(_separable_ray_toy(), config))


# -- bound discipline --------------------------------------------------------

def test_bounds_monotone_and_bracket_the_oracle():
    cases = [(t1(), 1.0, ALL_VARIANTS),
             (_flt(), FLT_W, ("benders", "parametric", "parametric-modified")),
             (_lhs_toy(), 1.5, ALL_VARIANTS),
             (_diu_box(), 2.4, ALL_VARIANTS)]
    for inst, wstar, variants in cases:
        scale = max(1.0, abs(wstar))
        for variant in variants:
            res = run(inst, AlgorithmConfig(variant=variant, tol=0.0))
            recs = res.iterations
            for a, b in zip(recs, recs[1:]):
                assert a.lb <= b.lb + 1e-9 * scale
                assert a.ub >= b.ub - 1e-9 * scale
            for r in recs:
                assert r.lb <= wstar + 1e-6 * scale
                assert r.ub >= wstar - 1e-6 * scale


def test_lb_never_exceeds_a_proven_master_bound(monkeypatch):
    # HiGHS stops a master at its relative MIP gap; on fl_rhs5 at generator
    # seed 1 the last master's incumbent -108618.013 lies above its dual
    # bound -108625.568, so an lb taken from the incumbent claims too much
    bounds = []
    original = backend.solve_mip

    def recorded(model, *args, **kwargs):
        out = original(model, *args, **kwargs)
        if model.name.endswith(("-master", "_det")) and out.is_optimal:
            bounds.append(out.objective if out.bound is None else out.bound)
        return out

    def checked(**fields):
        assert fields["lb"] <= max(bounds) + 1e-9 * abs(max(bounds))
        return IterationRecord(**fields)

    monkeypatch.setattr(backend, "solve_mip", recorded)
    monkeypatch.setattr(ccg, "IterationRecord", checked)
    res = run(gen_robust_fl(FLParams(n_sites=5, seed=1), "rhs"),
              AlgorithmConfig(variant="parametric"))
    assert res.status == "GapReached" and len(res.iterations) == 2
    assert res.lb <= max(bounds) + 1e-9 * abs(max(bounds))


def test_the_relaxation_floors_lb_at_its_dual_bound(monkeypatch):
    # a relaxation MIP stopped at HiGHS's gap reports an incumbent above its
    # dual bound; here far above the robust value, where an lb taken from it
    # would cross ub. fl-rhs couples its continuous capacities, so the
    # relaxation is a MIP, not an LP over the lattice
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs")
    reference = run(replace(inst), AlgorithmConfig())
    original, bounds = backend.solve_mip, []

    def loose(model, *args, **kwargs):
        out = original(model, *args, **kwargs)
        if model.name.endswith("_det") and out.is_optimal:
            bounds.append(out.bound)
            return replace(out, objective=out.bound + 2 * abs(reference.objective) + 1)
        return out

    monkeypatch.setattr(backend, "solve_mip", loose)
    res = run(inst, AlgorithmConfig())
    assert len(bounds) == 1 and res.meta["relaxation_value"] == bounds[0]
    assert res.iterations[0].lb <= reference.objective
    assert res.status == reference.status == "Optimal"
    assert res.objective == pytest.approx(reference.objective, rel=1e-9)


def test_tol_zero_proves_the_fl_rhs5_value():
    # masters stopped at HiGHS's default gap of 1e-4 left lb at their dual
    # bound, 2.6e-5 below the value, and the run ended Stalled
    res = run(gen_robust_fl(FLParams(n_sites=5, seed=0), "rhs"),
              AlgorithmConfig(variant="parametric", tol=0.0))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(-116370.336, abs=1e-3)


# oracle_exact value of 2-site fl-rhs at generator seed 1 with c1 and c2 x 1e3
FL_RHS2_X1E3_W = -37922762.98638772


def _fl_rhs2_x1e3() -> Instance:
    inst = gen_robust_fl(FLParams(n_sites=2, seed=1), "rhs")
    return replace(inst, c1=inst.c1 * 1e3, Y=replace(inst.Y, c2=inst.Y.c2 * 1e3))


def test_the_large_cost_reference_is_the_oracle_value():
    assert oracle_exact(_fl_rhs2_x1e3()).value == pytest.approx(FL_RHS2_X1E3_W, rel=1e-12)


@pytest.mark.parametrize("variant", ("benders", "parametric", "parametric-modified"))
def test_large_costs_are_not_clipped_by_the_eta_bound(variant):
    # with eta >= -1e7 all three ended Optimal at -27653790.878 with lb
    # -5544568.0 above ub; the relaxation floors eta below -1e7 here
    res = run(_fl_rhs2_x1e3(), AlgorithmConfig(variant=variant, big_M=1e7))
    if res.status in ("Optimal", "GapReached"):
        assert res.objective == pytest.approx(FL_RHS2_X1E3_W, rel=1e-6)
    else:
        assert res.status in ("Stalled", "Numerical", "TimeLimit")
    assert all(r.lb <= r.ub + 1e-6 * abs(r.ub) for r in res.iterations)


def test_bounds_that_cross_end_the_run_numerical(monkeypatch):
    # the old fixed eta bound on the large-cost instance: the first master's
    # lb lies above sp2's ub, which no proof can close
    monkeypatch.setattr(ccg, "_eta_floor", lambda inst, relaxation: ccg._ETA_LB)
    res = run(_fl_rhs2_x1e3(), AlgorithmConfig(variant="parametric", big_M=1e7))
    assert res.status == "Numerical"
    assert "exceeds upper bound" in res.meta["reason"]
    assert res.lb > res.ub


def _deep_toy() -> Instance:
    # Q(x) = max{-2e7 u : 1 <= u <= 1 + x1} = -2e7 lies below eta's -1e7,
    # and x2 >= 0 has no upper bound, so max c1'x over X does not exist
    return Instance(
        name="deep_toy", c1=np.array([1.0, 1.0]),
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0, np.inf])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0], [-1.0]])),
                         G=np.array([[1.0, 0.0], [0.0, 0.0]]), h=np.array([1.0, -1.0])),
        Y=RecourseSet(B1=np.zeros((1, 2)), B2=np.array([[-1.0]]),
                      E=np.array([[1.0]]), d=np.array([0.0]), c2=np.array([-2e7])))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_an_unbounded_first_stage_cost_floors_eta_at_the_recourse_minimum(variant):
    # max c1'x over X does not exist, so eta takes min{c2'y} = -4e7 over the
    # relaxation's (x, u, y) as its floor; at eta >= -1e7 every variant
    # ended Stalled with lb at the relaxation, -39999999
    inst = _deep_toy()
    with backend.big_m(1e8):
        assert ccg._eta_floor(inst, -4e7) == pytest.approx(-4e7, rel=1e-12)
    res = run(inst, AlgorithmConfig(variant=variant, tol=0.0, big_M=1e8))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(-2e7, rel=1e-9)
    assert res.lb == pytest.approx(res.ub, rel=1e-9)


def _unfloored_toy() -> Instance:
    # _deep_toy with u <= 1 + x1 + x2: u, and so min c2'y over the
    # relaxation, is unbounded too, while 3e7 x2 keeps the relaxation finite
    inst = _deep_toy()
    return replace(inst, name="unfloored_toy", c1=np.array([1.0, 3e7]),
                   U=replace(inst.U, G=np.array([[1.0, 1.0], [0.0, 0.0]])))


def test_a_master_at_an_unfloored_eta_bound_gives_no_lower_bound():
    # with no floor every master holds eta at -1e7, above Q = -2e7; their
    # values, -1e7 and up, would cross ub = -2e7, so lb stays at the
    # relaxation and the run proves nothing
    inst = _unfloored_toy()
    with backend.big_m(1e8):
        assert ccg._eta_floor(inst, -4e7) == -np.inf
    res = run(inst, AlgorithmConfig(variant="parametric", tol=0.0, big_M=1e8))
    assert res.status == "Stalled"
    assert res.ub == pytest.approx(-2e7, rel=1e-9)
    assert res.lb == res.meta["relaxation_value"] < res.ub


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_recourse_dual_above_the_big_m_needs_no_cap(variant):
    # Q's recourse dual is 2e7, far above the default big-M; sp2 enumerates
    # U(x)'s 0/1 points and caps no dual, so every variant proves the
    # oracle's value
    res = run(_deep_toy(), AlgorithmConfig(variant=variant))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(oracle_exact(_deep_toy()).value, rel=1e-9)
    assert res.objective == pytest.approx(-2e7, rel=1e-9)


def test_the_eta_floor_keeps_the_fixed_bound_on_the_bench_sets():
    # their masters, and so HiGHS's inputs, are those of a fixed -1e7
    for inst in (gen_reliable_pmedian(PMedianParams(n_sites=8), "ddu_uk"),
                 gen_robust_fl(FLParams(n_sites=5), "rhs")):
        det, _ = build_deterministic_mip(inst)
        assert ccg._eta_floor(inst, backend.solve_mip(det).objective) == ccg._ETA_LB
    assert -np.inf < ccg._eta_floor(_fl_rhs2_x1e3(), FL_RHS2_X1E3_W) < ccg._ETA_LB


def test_an_eta_floor_whose_first_stage_max_fails_raises(monkeypatch):
    real = backend.solve_lp
    monkeypatch.setattr(backend, "solve_lp", lambda model: (
        SolveOutcome(status=backend.NUMERICAL) if model.name == "first_stage_max"
        else real(model)))
    with pytest.raises(BackendError, match="first_stage_max ended Numerical"):
        ccg._eta_floor(t1(), 0.0)


def test_an_infeasible_deterministic_mip_ends_every_run_infeasible():
    # capacities at half the demand cover no scenario, not even u = 0; FL's
    # masters leave the lattice, so the relaxation is the deterministic MIP,
    # and the second run takes its Infeasible from the instance
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0, capacity_upper_frac=0.5), "rhs")
    for variant, facts in (("benders", "computed"), ("parametric", "reused")):
        res = run(inst, AlgorithmConfig(variant=variant))
        assert res.status == "Infeasible" and res.n_iterations == 0
        assert res.meta["reason"] == "deterministic relaxation infeasible"
        assert res.meta["facts"] == facts
    assert oracle_exact(inst).value == np.inf


def _replay(state: MasterState, points, rays=()):
    # recorded seeds, points first, into the master through its one entry point
    for beta in points:
        state.add_seed(np.asarray(beta))
    for gamma in rays:
        state.add_seed(np.asarray(gamma), is_ray=True)
    return state.model


def test_scalar_master_underestimates_replicate_master():
    # the same recorded seeds feed both builders; the scalar master fixes
    # each cut's scenario while the replicate reprices it, so it can only
    # be weaker; benders' run on flt finds a ray and a point
    source = run(_flt(), AlgorithmConfig(variant="benders", tol=0.0))
    seeds = (source.meta["point_seeds"], source.meta["ray_seeds"])
    assert seeds[0] and seeds[1]
    inst = _flt()
    m1 = _replay(MasterState(inst, AlgorithmConfig(variant="benders")), *seeds)
    m2 = _replay(MasterState(inst, AlgorithmConfig(variant="parametric")), *seeds)
    v1 = backend.solve_mip(m1)
    v2 = backend.solve_mip(m2)
    assert v1.status == backend.OPTIMAL and v2.status == backend.OPTIMAL
    assert v1.objective <= v2.objective + 1e-7
    assert v2.objective <= FLT_W + 1e-6 * abs(FLT_W)


def test_replicate_master_bound_insensitive_to_linearization_M():
    # the blocks keep u inside U(x) whatever M does to the multiplier side,
    # so any replayed master stays below the robust optimum; the instances
    # here have unit-scale duals so even M = 10 leaves the blocks feasible
    cases = [(_cap_toy, 0.3), (_lhs_toy, 1.5), (_diu_box, 2.4)]
    for make, wstar in cases:
        source = run(make(), AlgorithmConfig(variant="parametric", tol=0.0))
        seeds = (source.meta["point_seeds"], source.meta["ray_seeds"])
        assert seeds[0] or seeds[1]
        for M in (10.0, 100.0, 10000.0):
            with backend.big_m(M):
                state = MasterState(make(), AlgorithmConfig(variant="parametric"))
                out = backend.solve_mip(_replay(state, *seeds))
            assert out.status == backend.OPTIMAL
            assert out.objective <= wstar + 1e-6 * max(1.0, abs(wstar))


def _pm5_uk() -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=5, p=2, seed=0), "ddu_uk")


def _seed_pricing_site_4(inst: Instance, best_x: np.ndarray) -> np.ndarray:
    # the vertex dual of the recourse where sites 1 and 4 are built and
    # site 4 is disrupted
    x_seed = best_x.copy()
    x_seed[:5] = [0.0, 1.0, 0.0, 0.0, 1.0]
    Y = inst.Y
    seed_lp = backend.solve_lp(max_lp(
        Y.B2.T, Y.c2, Y.d - Y.B1 @ x_seed - Y.E @ np.eye(5)[4], "dual_lp"))
    assert seed_lp.status == backend.OPTIMAL
    return seed_lp.x


@pytest.mark.parametrize("variant", ["benders", "parametric"])
def test_master_stays_valid_for_a_vertex_seed_beyond_big_M(variant):
    # a legitimate extreme point of Pi, taken where site 4 is built and
    # disrupted, prices that disruption above big_M. At the optimum site 4
    # is closed, so the block pins u_4 <= 0 with a multiplier of at least
    # ||E' beta||_1: a single global M cuts the optimum off, the block bound
    # derived from the seed's own cost row keeps it
    inst = _pm5_uk()
    best = oracle_exact(inst)
    assert list(np.flatnonzero(best.x[:5])) == [0, 2]
    beta = _seed_pricing_site_4(inst, best.x)
    cfg = AlgorithmConfig(variant=variant)
    assert np.abs(inst.Y.E.T @ beta).sum() > cfg.big_M
    state = MasterState(inst, cfg)
    model = _replay(state, [beta])
    model.set_bounds(state.x_ids, best.x, best.x)
    out = backend.solve_mip(model)
    assert out.status == backend.OPTIMAL
    assert out.objective <= best.value + 1e-6 * abs(best.value)


@pytest.mark.parametrize("variant", ["benders", "parametric"])
def test_primal_dual_and_kkt_blocks_give_the_same_master_value(variant):
    # U(x) of ddu_uk couples only the binary site decisions, so the seeds
    # enter by the strong-duality row and the master keeps the integers of
    # X alone; with the site columns declared continuous the blocks take
    # the KKT form instead. Both forms pin the same worst cases, so with the
    # sites fixed the master values agree, the seed priced beyond big_M
    # included
    inst = _pm5_uk()
    best = oracle_exact(inst)
    source = run(inst, AlgorithmConfig(variant=variant))
    assert source.status == "Optimal"
    seeds = source.meta["point_seeds"] + [_seed_pricing_site_4(inst, best.x)]
    sites = [best.x[:5], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0], [0, 0, 0, 1, 1]]

    def master_values(representation: str) -> list[float]:
        n_int = inst.X.n_int if representation == "primal-dual" else 0
        state = MasterState(replace(inst, X=replace(inst.X, n_int=n_int)),
                            AlgorithmConfig(variant=variant))
        model = _replay(state, seeds)
        assert len(state.blocks) == len(state.point_seeds)
        assert {blk.representation for blk in state.blocks.values()} == {representation}
        # the strong-duality row adds no integer column, the KKT block its
        # switches
        added = sum(v.integer for v in model.vars) - n_int
        assert (added > 0) == (representation == "kkt")
        values = []
        for open_sites in sites:
            fixed = copy.deepcopy(model)
            site_ids = state.x_ids[:len(open_sites)]
            fixed.set_bounds(site_ids, open_sites, open_sites)
            out = backend.solve_mip(fixed)
            assert out.status == backend.OPTIMAL
            values.append(out.objective)
        return values

    by_default = master_values("primal-dual")
    by_kkt = master_values("kkt")
    assert by_default == pytest.approx(by_kkt, rel=1e-6)
    assert by_default[0] <= best.value + 1e-6 * abs(best.value)


def _rows_permuted(inst: Instance, seed: int) -> Instance:
    # the same sets with their rows reordered; the permutations are drawn for
    # U, X, Y and then each surrogate set of the metadata, in that order
    rng = np.random.default_rng(seed)

    def permute_set(U: UncertaintySet) -> UncertaintySet:
        p = rng.permutation(U.n_rows)
        F = AffineMatrixMap(base=U.F.base[p],
                            terms=tuple((k, Mk[p]) for k, Mk in U.F.terms))
        return UncertaintySet(F=F, G=U.G[p], h=U.h[p], n_int_u=U.n_int_u)

    X, Y = inst.X, inst.Y
    U2 = permute_set(inst.U)
    px = rng.permutation(X.A.shape[0])
    py = rng.permutation(Y.n_rows)
    X2 = FirstStageSet(A=X.A[px], b=X.b[px], n_int=X.n_int, lb=X.lb, ub=X.ub)
    Y2 = RecourseSet(B1=Y.B1[py], B2=Y.B2[py], E=Y.E[py], d=Y.d[py], c2=Y.c2,
                     n_int_y=Y.n_int_y)
    meta = dict(inst.metadata)
    if "ddu_sets" in meta:
        meta["ddu_sets"] = [uncertainty_set_to_dict(permute_set(
            uncertainty_set_from_dict(d))) for d in meta["ddu_sets"]]
    return Instance(name=inst.name, c1=inst.c1, X=X2, U=U2, Y=Y2, metadata=meta)


@pytest.mark.parametrize("make, config, perm_seed, value", [
    # with capped duals as seeds this copy closed Optimal at 16290.32
    (_pm8, dict(variant="parametric"), 2, PM8_W),
    # and this one was reported Infeasible
    (_pm5_pair, dict(diu_approx="metadata"), 3, PM5_PAIR_W),
    # the pmedian bench's runs on the copies 0 and 1
    (_pm8, dict(variant="parametric"), 0, PM8_W),
    (_pm8, dict(variant="parametric"), 1, PM8_W),
    (_pm8, dict(variant="benders"), 0, PM8_W),
    (_pm8, dict(variant="benders"), 1, PM8_W),
    (_pm8, dict(variant="basis"), 0, PM8_W),
    (_pm8, dict(variant="basis"), 1, PM8_W),
    (_pm5_pair, dict(diu_approx="metadata"), 0, PM5_PAIR_W),
    (_pm5_pair, dict(diu_approx="metadata"), 1, PM5_PAIR_W),
], ids=["pm_uk8-parametric", "pm_pair5-diu", "pm_uk8-parametric-0", "pm_uk8-parametric-1",
        "pm_uk8-benders-0", "pm_uk8-benders-1", "pm_uk8-basis-0", "pm_uk8-basis-1",
        "pm_pair5-diu-0", "pm_pair5-diu-1"])
def test_row_order_leaves_the_pmedian_optimum_unchanged(make, config, perm_seed,
                                                         value):
    res = run(_rows_permuted(make(), perm_seed), AlgorithmConfig(**config))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("perm_seed", [0, 1])
@pytest.mark.parametrize("variant", ["parametric", "parametric-modified", "benders"])
def test_row_order_leaves_the_fl_rhs3_optimum_unchanged(variant, perm_seed):
    # the iteration counts move with the row order; the objective does not
    inst = gen_robust_fl(FLParams(n_sites=3, seed=0), "rhs")
    res = run(_rows_permuted(inst, perm_seed), AlgorithmConfig(variant=variant))
    assert res.status in ("Optimal", "GapReached")
    assert res.objective == pytest.approx(FL_RHS_W[3, 0], rel=1e-6)


# oracle_exact values of fl-rhs with 2 sites, at generator seeds 0 and 2
FL_RHS2_W = {0: -51406.065233899, 2: -42566.93112062868}


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("config", [
    dict(variant="benders"),
    dict(variant="parametric"),
    dict(variant="benders", big_M=1e5),
], ids=["benders", "parametric", "benders-1e5"])
def test_two_site_fl_rhs_returns_the_oracle_value(seed, config):
    # at big_M 1e4 benders ended "master infeasible"
    # while the master's dual side shared the primal side's M
    res = run(gen_robust_fl(FLParams(n_sites=2, seed=seed), "rhs"),
              AlgorithmConfig(**config))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(FL_RHS2_W[seed], rel=1e-6)


# fl-rhs references at (sites, generator seed): 3 sites as parametric and
# parametric-modified prove it at big_M 1e4 and parametric and benders at
# 1e5 and tol 1e-7 (oracle_exact leaves it: 3 free coupled continuous x);
# 5 sites from perfbench/references.json
FL_RHS_W = {(3, 0): -68905.90943240363, (5, 0): -116370.33629796721,
            (5, 1): -108560.42796259784}


@pytest.mark.parametrize("sites, seed, config", [
    (3, 0, dict(variant="benders")),                          # was Infeasible
    (5, 1, dict(variant="benders")),                          # was Optimal -78681.064
], ids=["fl_rhs3-s0-benders", "fl_rhs5-s1-benders"])
def test_fl_rhs_split_cuts_return_the_reference(sites, seed, config):
    # the dual side's bound M_d scales with the block's cost row and F
    res = run(gen_robust_fl(FLParams(n_sites=sites, seed=seed), "rhs"),
              AlgorithmConfig(**config))
    assert res.status in ("Optimal", "GapReached")
    assert res.objective == pytest.approx(FL_RHS_W[sites, seed], rel=1e-6)
    assert res.lb <= FL_RHS_W[sites, seed] + 1e-6 * abs(res.lb)


@pytest.mark.parametrize("seed", [0, 2])
def test_two_site_fl_rhs_references_are_the_oracle_values(seed):
    inst = gen_robust_fl(FLParams(n_sites=2, seed=seed), "rhs")
    assert oracle_exact(inst).value == pytest.approx(FL_RHS2_W[seed], rel=1e-12)


def test_seed_counts_stay_within_the_dual_description():
    # T1: B2 = [1], c2 = 1, so the dual interval [0, 1] has two extreme
    # points and no rays; cap_toy adds the ray direction (1, 1)
    for inst, bound in ((t1(), 2), (_cap_toy(), 4)):
        for variant in ("benders", "parametric"):
            res = run(inst, AlgorithmConfig(variant=variant, tol=0.0))
            n = len(res.meta["point_seeds"]) + len(res.meta["ray_seeds"])
            assert n <= bound


def test_basis_seed_counts_stay_within_the_basis_count():
    # standard form [F | I] with n = mu = 1 has two bases
    for inst in (t1(), _diu_box(), _lhs_toy()):
        res = run(inst, AlgorithmConfig(variant="basis", tol=0.0))
        assert res.status == "Optimal"
        assert res.meta["n_basis_seeds"] <= 2
        modified = run(inst, AlgorithmConfig(variant="parametric-modified", tol=0.0))
        assert modified.status == "Optimal"


# -- termination -------------------------------------------------------------

def test_infeasible_instance_reported_without_looping():
    res = run(t1_infeasible(), AlgorithmConfig(variant="parametric"))
    assert res.status == "Infeasible"
    assert res.n_iterations == 0
    assert res.objective is None and res.x is None


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_an_unbounded_uncertainty_set_ends_numerical(variant):
    res = run(t1_unbounded_u(), AlgorithmConfig(variant=variant))
    assert res.status == "Numerical"
    assert res.meta["reason"] == "U(x) is unbounded: boundedness assumption violated"


def test_repeat_detection_closes_the_gap():
    res = run(_flt(), AlgorithmConfig(variant="benders", tol=0.0))
    assert res.iterations[-1].seed_id.startswith("repeat")
    assert res.lb == pytest.approx(res.ub)


def test_iteration_cap_reports_stalled_with_valid_bounds():
    res = run(_diu_box(), AlgorithmConfig(variant="parametric", tol=0.0,
                                          max_iterations=1))
    assert res.status == "Stalled"
    assert res.meta["reason"] == "iteration cap"
    assert res.lb <= 2.4 + 1e-9 <= res.ub + 1e-9


def test_time_limit_returns_incumbent():
    res = run(_flt(), AlgorithmConfig(variant="parametric", time_limit_s=1e-9))
    assert res.status == "TimeLimit"


def test_sp2_time_limit_keeps_bounds_and_incumbent(monkeypatch):
    real_sp2 = ccg.sp2
    calls = []

    def second_call_times_out(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 2:
            raise SolveTimeLimit("SP2")
        return real_sp2(*args, **kwargs)

    monkeypatch.setattr(ccg, "sp2", second_call_times_out)
    res = run(_diu_box(), AlgorithmConfig(variant="parametric", tol=0.0))
    assert len(calls) == 2
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "worst-case subproblem hit the wall clock"
    assert res.x is not None and np.isfinite(res.ub)
    assert res.lb <= 2.4 + 1e-9 <= res.ub + 1e-9


def test_feasibility_time_limit_keeps_bounds_and_incumbent(monkeypatch):
    # B2 = [[1]] has network columns, so sp1 solves the "_feas_net" MIP
    real_mip = backend.solve_mip
    calls = []

    def second_feasibility_call_times_out(model, **kw):
        if model.name.endswith("_feas_net"):
            calls.append(1)
            if len(calls) >= 2:
                raise SolveTimeLimit(model.name)
        return real_mip(model, **kw)

    monkeypatch.setattr(backend, "solve_mip", second_feasibility_call_times_out)
    res = run(_diu_box(), AlgorithmConfig(variant="parametric", tol=0.0))
    assert len(calls) == 2
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "feasibility subproblem hit the wall clock"
    assert res.x is not None and np.isfinite(res.ub)
    assert res.lb <= 2.4 + 1e-9 <= res.ub + 1e-9


def _diu_unit() -> Instance:
    # _diu_box with u in [0, 1] and twice its weight: the same w* = 2.4 at
    # x = 1, but U(x) has 0/1 vertices, so sp1 reads feasibility off the
    # copies LP that sp2's worst case comes from
    inst = _diu_box()
    return Instance(name="diu_unit", c1=inst.c1, X=inst.X,
                    U=replace(inst.U, h=np.array([1.0])),
                    Y=replace(inst.Y, E=np.array([[-2.0]])))


def test_a_time_limit_in_the_shared_enumeration_keeps_bounds_and_incumbent(monkeypatch):
    real_lp = backend.solve_lp
    calls = []

    def second_enumeration_times_out(model):
        if model.name == "diu_unit_wc_enum":
            calls.append(1)
            if len(calls) >= 2:
                raise SolveTimeLimit(model.name)
        return real_lp(model)

    monkeypatch.setattr(backend, "solve_lp", second_enumeration_times_out)
    res = run(_diu_unit(), AlgorithmConfig(variant="parametric", tol=0.0))
    assert len(calls) == 2
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "feasibility subproblem hit the wall clock"
    assert res.x is not None and np.isfinite(res.ub)
    assert res.lb <= 2.4 + 1e-9 <= res.ub + 1e-9


@pytest.mark.parametrize("variant", ["benders", "parametric", "parametric-modified", "basis"])
def test_a_failed_shared_enumeration_leaves_the_run_unchanged(monkeypatch, variant):
    # at x = 0 some 0/1 point of U has no recourse, so sp1's copies LP is
    # dropped and the feasibility check cuts as it did when sp1 and sp2
    # were solved apart (no shared enumeration at all)
    def records(res):
        return [(r.t, r.lb, r.ub, r.cut_kind, r.seed_id) for r in res.iterations]

    config = AlgorithmConfig(variant=variant, tol=0.0)
    shared = run(short_supply(), config)
    real_sp1 = ccg.sp1

    def sp1_apart(inst, x):
        with screen_apart(monkeypatch):
            return real_sp1(inst, x)

    monkeypatch.setattr(ccg, "sp1", sp1_apart)
    apart = run(short_supply(), config)
    assert shared.status == apart.status == "Optimal"
    assert shared.objective == apart.objective == pytest.approx(3.5)
    assert records(shared) == records(apart)


def _ray_toy() -> Instance:
    # U(x) = [0, 1 + x]; x = 1 covers the first row but caps u + y2 at 1.5,
    # which u = 2 breaks; benders sees that only through a feasibility cut,
    # after x = 0 has set the incumbent at w* = 1
    return Instance(
        name="ray_toy", c1=np.array([0.1]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.array([[1.0]]), h=np.array([1.0])),
        Y=RecourseSet(B1=np.array([[3.0], [-10.0]]),
                      B2=np.array([[1.0, 0.0], [0.0, -1.0]]),
                      E=np.array([[-1.0], [-1.0]]), d=np.array([0.0, -11.5]),
                      c2=np.array([1.0, 0.0])))


def test_ray_time_limit_keeps_bounds_and_incumbent(monkeypatch):
    full = run(_ray_toy(), AlgorithmConfig(variant="benders", tol=0.0))
    assert full.status == "Optimal" and full.objective == pytest.approx(1.0)
    assert [r.cut_kind for r in full.iterations][:2] == ["optimality", "feasibility"]

    def times_out(*args):
        raise SolveTimeLimit("SP3")

    monkeypatch.setattr(ccg, "sp3", times_out)
    res = run(_ray_toy(), AlgorithmConfig(variant="benders", tol=0.0))
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "feasibility ray subproblem hit the wall clock"
    assert res.x == pytest.approx([0.0])
    assert res.ub == pytest.approx(1.0)
    assert res.lb <= 1.0 + 1e-9


def test_uniqueness_time_limit_keeps_bounds_and_incumbent(monkeypatch):
    real_lp = backend.solve_lp

    def check_lp_times_out(model):
        if model.name == "perturb_check":
            raise SolveTimeLimit(model.name)
        return real_lp(model)

    monkeypatch.setattr(backend, "solve_lp", check_lp_times_out)
    res = run(t1(), AlgorithmConfig(variant="parametric-modified", tol=0.0))
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "uniqueness perturbation hit the wall clock"
    assert res.x == pytest.approx([0.0])
    assert res.lb <= 1.0 + 1e-9 <= res.ub + 1e-9


def test_basis_probe_time_limit_keeps_bounds_and_incumbent(monkeypatch):
    # the first basis comes with sp2; MasterState.cut solves the loop's own
    # parametric LP at the seed where the Pareto step moved it, as it does
    # at the first cut on 5-site ddu_uk
    inst = gen_reliable_pmedian(PMedianParams(n_sites=5, seed=0), "ddu_uk")
    config = AlgorithmConfig(variant="basis", pareto=True, tol=0.0)
    ref = run(inst, config)

    def times_out(inst, x, beta):
        raise SolveTimeLimit("lp_parametric")

    monkeypatch.setattr(ccg, "lp_parametric", times_out)
    res = run(inst, config)
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "basis probe hit the wall clock"
    assert np.array_equal(res.x, ref.x)
    assert res.lb <= ref.objective + 1e-9 <= res.ub + 1e-9


@pytest.mark.parametrize("pareto, cuts", [(False, 1), (True, 1)])
def test_a_basis_cut_solves_one_parametric_lp(monkeypatch, pareto, cuts):
    # sp2 brings the basis at x; the cut adds the one at the seed, the same
    # basis unless the Pareto step moved the seed, and solves its LP only
    # where the seed moved: without Pareto the seed is sp2's pi
    calls = []
    real = ccg.lp_parametric

    def counted(inst, x, beta):
        calls.append(1)
        return real(inst, x, beta)

    monkeypatch.setattr(ccg, "lp_parametric", counted)
    res = run(gen_reliable_pmedian(PMedianParams(n_sites=5, seed=0), "ddu_uk"),
              AlgorithmConfig(variant="basis", pareto=pareto, tol=0.0))
    assert res.status == "Optimal"
    assert sum(r.cut_kind == "basis" for r in res.iterations) == cuts
    assert len(calls) == (cuts if pareto else 0)


def test_core_scenario_time_limit_keeps_bounds_and_incumbent(monkeypatch):
    def times_out(A, b, j, sense="max"):
        raise SolveTimeLimit("range_probe")

    monkeypatch.setattr(ccg, "range_probe", times_out)
    res = run(t1(), AlgorithmConfig(variant="parametric", pareto=True, tol=0.0))
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "core scenario probe hit the wall clock"
    assert res.x == pytest.approx([0.0])
    assert res.lb <= 1.0 + 1e-9 <= res.ub + 1e-9


# the first master of t1 appends nothing to value over the lattice, so the
# second master's block LP is the first solve named after the master
@pytest.mark.parametrize("name, calls, step", [
    ("T1-parametric-master", 1, "master"),
    ("sp2_pol", 1, "Pareto seed subproblem"),
])
def test_a_timeout_names_the_step_that_ran(monkeypatch, name, calls, step):
    real = {"solve_lp": backend.solve_lp, "solve_mip": backend.solve_mip}
    seen = []

    def limited(which):
        def solve(model, **kw):
            if model.name == name:
                seen.append(1)
                if len(seen) == calls:
                    raise SolveTimeLimit(model.name)
            return real[which](model, **kw)
        return solve

    for which in real:
        monkeypatch.setattr(backend, which, limited(which))
    res = run(t1(), AlgorithmConfig(variant="parametric", pareto=True, tol=0.0))
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == f"{step} hit the wall clock"
    assert res.x == pytest.approx([0.0])
    assert res.lb <= 1.0 + 1e-9 <= res.ub + 1e-9


@pytest.mark.parametrize("error, status, reason", [
    (backend.BackendError("audit failed"), "Numerical", "audit failed"),
    (SolveTimeLimit("a probe"), "TimeLimit", "worst-case subproblem hit the wall clock"),
], ids=["backend-error", "time-limit"])
def test_an_error_in_a_subproblem_keeps_bounds_and_incumbent(monkeypatch, error,
                                                              status, reason):
    real_sp2 = ccg.sp2
    calls = []

    def second_call_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 2:
            raise error
        return real_sp2(*args, **kwargs)

    monkeypatch.setattr(ccg, "sp2", second_call_raises)
    res = run(_diu_box(), AlgorithmConfig(variant="parametric", tol=0.0))
    assert len(calls) == 2
    assert res.status == status and res.meta["reason"] == reason
    assert res.x is not None and np.isfinite(res.ub)
    assert res.lb <= 2.4 + 1e-9 <= res.ub + 1e-9


def test_a_value_error_in_a_subproblem_leaves_run(monkeypatch):
    def malformed(*args, **kwargs):
        raise ValueError("malformed")

    monkeypatch.setattr(ccg, "sp2", malformed)
    with pytest.raises(ValueError, match="malformed"):
        run(_diu_box(), AlgorithmConfig(variant="parametric"))


def test_m_too_small_ends_numerical(monkeypatch):
    # fl_mip3 with the KKT MIPs' dual side capped at 1: sp4's optimality
    # system is infeasible in the first iteration, which used to raise out
    # of run
    monkeypatch.setattr(maxmin, "dual_bound", lambda U, cost_row: 1.0)
    res = run(gen_mip_recourse_fl(FLParams(**FL_MIP3)),
              AlgorithmConfig(mip_recourse_mode=True, big_M=1e4))
    assert res.status == "Numerical" and "M too small" in res.meta["reason"]
    assert res.lb == res.meta["relaxation_value"] and res.ub == np.inf
    assert res.x is None


@pytest.mark.parametrize("seed, value", [(0, -82822.169), (1, -71083.896)],
                         ids=["s0", "s1"])
def test_fl_mip3_is_optimal_at_the_default_big_m(seed, value):
    # sp4's KKT MIP bounds its dual side by dual_bound, as the masters'
    # blocks do; with the dual side at big_M 1e4 it ended Numerical "M too
    # small" before the first iteration
    inst = gen_mip_recourse_fl(FLParams(**{**FL_MIP3, "seed": seed}))
    res = run(inst, AlgorithmConfig(mip_recourse_mode=True, big_M=1e4))
    assert res.status == "Optimal" and res.objective == pytest.approx(value, rel=1e-6)
    # and the oracle's value (the two agree to the last bit at both seeds)
    oracle = oracle_exact(inst).value
    assert oracle == pytest.approx(value, rel=1e-6)
    assert res.objective == pytest.approx(oracle, rel=1e-9)


def test_every_solve_gets_no_more_than_the_time_the_run_has_left(monkeypatch):
    # sp2's relaxation returns 0.3 s late, so a budget taken before it would
    # hand the solves after it 0.3 s more than the run has left
    limit = 600.0
    real_relax = ccg.sp2_mip_relax

    def slow_relax(*args, **kwargs):
        out = real_relax(*args, **kwargs)
        time.sleep(0.3)
        return out

    monkeypatch.setattr(ccg, "sp2_mip_relax", slow_relax)
    seen = []

    def recorded(real):
        def call(*args, options=None, **kwargs):
            seen.append(((options or {}).get("time_limit"),
                         limit - (time.monotonic() - t0)))
            return real(*args, options=options, **kwargs)
        return call

    for name in ("linprog", "milp"):
        monkeypatch.setattr(backend, name, recorded(getattr(backend, name)))
    inst = gen_mip_recourse_fl(FLParams(**FL_MIP3))
    t0 = time.monotonic()
    res = run(inst, AlgorithmConfig(mip_recourse_mode=True, big_M=1e5,
                                    time_limit_s=limit))
    assert res.status == "Optimal" and len(res.iterations) >= 2
    assert all(given is not None for given, _ in seen)
    assert max(given - left for given, left in seen) <= 0.05


def test_a_timeout_in_the_exact_recourse_ends_time_limit(monkeypatch):
    real_mip = backend.solve_mip

    def recourse_times_out(model, **kw):
        if model.name == "recourse":
            raise SolveTimeLimit(model.name)
        return real_mip(model, **kw)

    monkeypatch.setattr(backend, "solve_mip", recourse_times_out)
    res = run(gen_mip_recourse_fl(FLParams(**FL_MIP3)),
              AlgorithmConfig(mip_recourse_mode=True, big_M=1e5))
    assert res.status == "TimeLimit"
    assert res.meta["reason"] == "exact recourse hit the wall clock"
    assert res.lb >= res.meta["relaxation_value"] and res.ub == np.inf


def test_a_numerical_exact_recourse_ends_the_run_numerical(monkeypatch):
    real_mip = backend.solve_mip

    def numerical(model, **kw):
        if model.name == "recourse":
            return SolveOutcome(status=backend.NUMERICAL)
        return real_mip(model, **kw)

    monkeypatch.setattr(backend, "solve_mip", numerical)
    res = run(gen_mip_recourse_fl(FLParams(**FL_MIP3)),
              AlgorithmConfig(mip_recourse_mode=True, big_M=1e5))
    assert res.status == "Numerical"
    assert res.meta["reason"] == "recourse solve ended Numerical"


def _odd_demand_toy() -> Instance:
    # 2 y = u with y integer over 0 <= u <= 1: the relaxation serves the
    # worst case u = 1 at y = 0.5, the integer recourse has no point there
    return Instance(
        name="odd_demand", c1=np.array([1.0]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.zeros((1, 1)), h=np.array([1.0])),
        Y=RecourseSet(B1=np.zeros((2, 1)), B2=np.array([[2.0], [-2.0]]),
                      E=np.array([[-1.0], [1.0]]), d=np.zeros(2),
                      c2=np.array([1.0]), n_int_y=1))


def test_a_scenario_without_integer_recourse_leaves_ub_unchanged(monkeypatch):
    inst = _odd_demand_toy()
    assert recourse_value(inst, np.zeros(1), np.ones(1)) == (np.inf, None)
    names = []
    real_mip = backend.solve_mip

    def recorded(model, **kw):
        names.append(model.name)
        return real_mip(model, **kw)

    monkeypatch.setattr(backend, "solve_mip", recorded)
    res = run(inst, AlgorithmConfig(mip_recourse_mode=True))
    assert res.iterations[0].ub == np.inf and res.ub == np.inf
    assert "recourse" in names
    assert not [n for n in names if "_sp4" in n]
    # the master's integer replicate cannot serve u = 1 either
    assert res.status == "Infeasible" and res.meta["reason"] == "master infeasible"


@pytest.mark.parametrize("config", [
    dict(mip_recourse_mode=True),
    dict(diu_approx="metadata"),
], ids=["mip", "diu"])
def test_pareto_outside_the_exact_loop_is_rejected(config):
    inst = (gen_mip_recourse_fl(FLParams(**FL_MIP3)) if "mip_recourse_mode" in config
            else gen_reliable_pmedian(PMedianParams(n_sites=5, p=2, seed=0),
                                      "ddu_us_pair"))
    with pytest.raises(ValueError, match="exact loop"):
        run(inst, AlgorithmConfig(pareto=True, **config))


def test_a_deadline_of_the_caller_that_ends_first_holds():
    with backend.deadline(0.0):
        res = run(t1(), AlgorithmConfig(variant="parametric"))
    assert res.status == "TimeLimit" and res.meta["reason"] == "wall clock"


@pytest.mark.parametrize("config, message", [
    (dict(variant="benders", mip_recourse_mode=True), "parametric master"),
    (dict(variant="basis", diu_approx="metadata"), "parametric master"),
    (dict(diu_approx=[]), "at least one surrogate"),
    (dict(diu_approx="everything"), "descriptor"),
    (dict(mip_recourse_mode=True, diu_approx="metadata"), "set one of them"),
], ids=["mip-benders", "diu-basis", "diu-empty", "diu-unknown", "mip-and-diu"])
def test_approximation_loops_reject_bad_configs(config, message):
    inst = gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0")
    inst.metadata["ddu_sets"] = [uncertainty_set_to_dict(
        gen_reliable_pmedian(PMedianParams(**PM4), "ddu_uk").U)]
    with pytest.raises(ValueError, match=message):
        run(inst, AlgorithmConfig(**config))


def test_approximation_loops_reject_mismatched_instances():
    diu = gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0")
    wide = UncertaintySet(F=AffineMatrixMap(base=np.eye(diu.U.dim + 1)),
                          G=np.zeros((diu.U.dim + 1, diu.dim_x)),
                          h=np.ones(diu.U.dim + 1))
    with pytest.raises(ValueError, match="uncertainty dimension"):
        run(diu, AlgorithmConfig(diu_approx=[wide]))
    off = UncertaintySet(F=diu.U.F, G=np.zeros((diu.U.n_rows, diu.dim_x + 1)),
                         h=diu.U.h)
    with pytest.raises(ValueError, match="first-stage space"):
        run(diu, AlgorithmConfig(diu_approx=[off]))
    with pytest.raises(ValueError, match="diu_approx"):
        run(diu, AlgorithmConfig(mip_recourse_mode=True))
    # one set where metadata must hold a list of them
    one = replace(diu, metadata={"ddu_sets": uncertainty_set_to_dict(diu.U)})
    with pytest.raises(ValueError, match="no list of ddu_sets"):
        run(one, AlgorithmConfig(diu_approx="metadata"))


@pytest.mark.parametrize("entry, message", [
    ({"F": {}}, r"missing key 'G' at metadata\.ddu_sets\[1\]"),
    (3, r"expected an object at metadata\.ddu_sets\[1\]"),
], ids=["no-G", "a-number"])
def test_malformed_metadata_surrogate_is_a_value_error(entry, message):
    # an in-memory instance skips io_read's schema check
    inst = gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair")
    inst.metadata["ddu_sets"][1] = entry
    with pytest.raises(ValueError, match=message):
        run(inst, AlgorithmConfig(diu_approx="metadata"))


def test_config_rejects_bad_combinations():
    with pytest.raises(ValueError, match="variant"):
        AlgorithmConfig(variant="newton")
    # replicate masters always write the unified cut and benders its scalar
    # cuts, so there is no cut mode to pick
    with pytest.raises(TypeError, match="cut_mode"):
        AlgorithmConfig(cut_mode="split")
    with pytest.raises(ValueError, match="tol"):
        AlgorithmConfig(tol=-1.0)
    # a nan tol stopped pm_uk8 at a 32 % gap as GapReached, and an infinite
    # or nan big_M ended fl_rhs2 "master infeasible"; a nan time limit ran
    # without one
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        AlgorithmConfig(tol=np.nan)
    for M in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="big_M must be finite and positive"):
            AlgorithmConfig(big_M=M)
    for limit in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="time_limit_s must be positive"):
            AlgorithmConfig(time_limit_s=limit)
    assert run(_diu_box(), AlgorithmConfig(time_limit_s=np.inf)).status == "Optimal"
    # a cap below one iteration used to run one and report "iteration cap"
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            AlgorithmConfig(max_iterations=cap)
    with pytest.raises(ValueError, match="diu_approx"):
        run(gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0"),
            AlgorithmConfig(variant="parametric"))
    with pytest.raises(ValueError, match="mip_recourse_mode"):
        run(gen_mip_recourse_fl(FLParams(**FL2)),
            AlgorithmConfig(variant="parametric"))


# -- the run's big-M -----------------------------------------------------------

def test_a_run_holds_its_big_m_and_leaves_the_callers(monkeypatch):
    seen = []
    real_sp1 = ccg.sp1
    monkeypatch.setattr(ccg, "sp1", lambda *args: seen.append(backend.current_big_m())
                        or real_sp1(*args))
    with backend.big_m(50.0):
        assert run(_cap_toy(), AlgorithmConfig(big_M=1e5)).status == "Optimal"
        assert backend.current_big_m() == 50.0
    assert seen and set(seen) == {1e5}
    assert backend.current_big_m() == backend.DEFAULT_BIG_M


@pytest.mark.parametrize("inst, config", [
    (gen_mip_recourse_fl(FLParams(**FL_MIP3)), dict(mip_recourse_mode=True)),
    (gen_reliable_pmedian(PMedianParams(n_sites=8, seed=0), "ddu_uk"), dict(variant="basis")),
    (_lhs_toy(), dict(variant="basis")),
], ids=["fl_mip3-mip", "pm_uk8-basis", "lhs_toy-basis"])
def test_no_builder_falls_back_to_the_default_big_m(inst, config, monkeypatch):
    # at big_M 1e5 every M-bounded row and column reads 1e5 or a bound
    # derived from it, so no coefficient or column bound HiGHS gets is the
    # default 1e4; the toy's F(x) brings the u x products of the
    # deterministic relaxation and of the basis cutting sets in
    seen = []
    real = backend._highs

    def recorded(a, options):
        seen.append(np.concatenate([a.data, a.lb, a.ub]))
        return real(a, options)

    monkeypatch.setattr(backend, "_highs", recorded)
    res = run(inst, AlgorithmConfig(big_M=1e5, **config))
    assert res.status == "Optimal"
    values = np.concatenate(seen)
    assert 1e5 in values and backend.DEFAULT_BIG_M not in values


# -- approximation loops -------------------------------------------------------

def test_mip_recourse_closes_on_fl():
    inst = gen_mip_recourse_fl(FLParams(**FL2))
    res = run(inst, AlgorithmConfig(tol=1e-6, mip_recourse_mode=True, big_M=1e5))
    assert res.status in ("Optimal", "GapReached")
    assert res.objective == pytest.approx(FL2_MIP_W, rel=1e-8)


def test_mip_recourse_brackets_the_setup_toy():
    inst = _setup_toy()

    def exact_wc(x):
        return max(recourse_value(inst, np.array([x]), np.array([u]))[0]
                   for u in (0.0, 1.0 + x))

    wstar = min(0.1 * x + exact_wc(x) for x in (0.0, 1.0))
    assert wstar == pytest.approx(6.0)
    res = run(inst, AlgorithmConfig(tol=1e-6, mip_recourse_mode=True))
    assert res.lb <= wstar + 1e-7
    assert res.ub >= wstar - 1e-7
    assert res.objective == pytest.approx(wstar, rel=1e-7)


def test_mip_mode_without_integer_recourse_is_the_exact_loop():
    plain = run(t1(), AlgorithmConfig(variant="parametric", tol=0.0))
    via_flag = run(t1(), AlgorithmConfig(variant="parametric", tol=0.0,
                                         mip_recourse_mode=True))
    assert via_flag.objective == pytest.approx(plain.objective)
    assert via_flag.status == "Optimal"


def test_diu_approx_exact_when_the_surrogate_is_exact():
    diu = gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0")
    ddu = gen_reliable_pmedian(PMedianParams(**PM4), "ddu_uk")
    res = run(diu, AlgorithmConfig(tol=1e-6, diu_approx=[ddu.U]))
    assert res.status in ("Optimal", "GapReached")
    assert res.objective == pytest.approx(PM4_DIU_W, rel=1e-9)


def test_diu_approx_stalls_honestly_on_a_weak_surrogate():
    diu = gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0")
    nu, nx = diu.U.dim, diu.dim_x
    pinned = UncertaintySet(F=AffineMatrixMap(base=np.eye(nu)),
                            G=np.zeros((nu, nx)), h=np.zeros(nu))
    res = run(diu, AlgorithmConfig(tol=1e-6, diu_approx=[pinned],
                                   max_iterations=12))
    assert res.status == "Stalled"
    assert res.lb <= PM4_DIU_W + 1e-6
    assert res.ub >= PM4_DIU_W - 1e-6
    assert res.lb < res.ub - 1.0


def test_diu_approx_from_metadata_descriptor():
    diu = gen_reliable_pmedian(PMedianParams(**PM4), "diu_u0")
    ddu = gen_reliable_pmedian(PMedianParams(**PM4), "ddu_uk")
    diu.metadata["ddu_sets"] = [uncertainty_set_to_dict(ddu.U)]
    res = run(diu, AlgorithmConfig(tol=1e-6, diu_approx="metadata"))
    assert res.objective == pytest.approx(PM4_DIU_W, rel=1e-9)


# -- basis machinery -----------------------------------------------------------

def test_infeasible_basis_block_leaves_eta_unconstrained():
    # both rows forced to equality under F = [[1, 1], [1, 1]] demand
    # u1 + u2 to equal 3 and 5 at once; the alternative multipliers must
    # then let eta fall to its floor
    inst = Instance(
        name="alt_toy", c1=np.array([0.0]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.array([1.0])),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0, 1.0],
                                                          [1.0, 1.0]])),
                         G=np.zeros((2, 1)), h=np.array([3.0, 5.0])),
        Y=RecourseSet(B1=np.zeros((1, 1)), B2=np.array([[1.0]]),
                      E=np.array([[-1.0, -1.0]]), d=np.array([0.0]),
                      c2=np.array([1.0])))
    cfg = AlgorithmConfig(variant="basis")
    state = MasterState(inst, cfg)
    state.add_seed(BasisId((0, 1)))
    state.model.set_bounds(state.x_ids[0], 0.0, 0.0)
    out = backend.solve_mip(state.model)
    assert out.status == backend.OPTIMAL
    assert out.x[state.eta_id] <= ccg._ETA_LB + 1e-3

    # the same block under F = [[2, 1], [1, 2]] prices the basic point
    feas = Instance(
        name="alt_toy_feas", c1=inst.c1, X=inst.X,
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[2.0, 1.0],
                                                          [1.0, 2.0]])),
                         G=np.zeros((2, 1)), h=np.array([3.0, 5.0])),
        Y=inst.Y)
    state = MasterState(feas, cfg)
    state.add_seed(BasisId((0, 1)))
    state.model.set_bounds(state.x_ids[0], 0.0, 0.0)
    out = backend.solve_mip(state.model)
    assert out.status == backend.OPTIMAL
    assert out.x[state.eta_id] == pytest.approx(1.0 / 3.0 + 7.0 / 3.0, abs=1e-6)


def test_basis_and_optimality_blocks_share_the_dual_bound():
    # at a seed with 2 ||c||_1 = 3e4 above big_M, the optimality block caps
    # its x lam products at M_d; the basis block of the same cost row boxes
    # its lam, caps their products and prices its deviations at that M_d
    inst, M = gen_reliable_pmedian(PMedianParams(n_sites=8, seed=0), "ddu_uk"), 1e4
    beta = np.full(inst.Y.n_rows, 1.5e4 / np.abs(inst.Y.E.T @ np.ones(inst.Y.n_rows)).sum())
    x = np.zeros(inst.dim_x)
    x[[0, 3, 5]] = 1.0
    lp = maxmin.lp_parametric(inst, x, beta)

    m = backend.LinearModel()
    with backend.big_m(M):
        maxmin.build_optimality_block(m, inst.U, lp.cost_row, add_first_stage(m, inst))
    ub = m.columns()[1][inst.dim_x:]
    (M_d,) = set(ub[np.isfinite(ub)])
    assert M_d == pytest.approx(3e4, rel=1e-9)

    with backend.big_m(M):
        state = MasterState(inst, AlgorithmConfig(variant="basis"))
        state.add_seed(lp.basis, cost_row=lp.cost_row)
    lb, ub, _ = (v[state.eta_id + 1:] for v in state.model.columns())
    assert set(ub[np.isfinite(ub)]) == {M_d}
    assert set(lb[np.isfinite(lb)]) == {-M_d, 0.0}
    A = sparse(state.model)[0].tocsc()
    (eta_row,) = A[:, state.eta_id].nonzero()[0]
    assert -M_d in A[eta_row].toarray()


# parametric's value of 10-site ddu_ukq at generator seed 1
PM10Q_S1_W = 21900.16169725937


def test_the_ten_site_ukq_basis_run_returns_the_parametric_value():
    # with the lowest-index basis completion and big_M on the dual side it
    # ended Stalled at ub 22076.431 on a repeated first stage
    res = run(gen_reliable_pmedian(PMedianParams(n_sites=10, seed=1), "ddu_ukq"),
              AlgorithmConfig(variant="basis"))
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(PM10Q_S1_W, rel=1e-9)


def test_a_basis_cut_on_held_bases_adds_nothing():
    inst, x = t1(), np.zeros(1)
    state = MasterState(inst, AlgorithmConfig(variant="basis"))
    r = sp2(inst, x)
    assert state.cut(x, r.pi, False, r.basis_result) == ("basis", "b0")
    size = (state.model.n_vars, state.model.n_constrs)
    assert state.cut(x, r.pi, False, r.basis_result) == ("basis", "")
    assert (state.model.n_vars, state.model.n_constrs) == size
    assert len(state.basis_seeds) == 1


# -- max-min failures ----------------------------------------------------------

@pytest.mark.parametrize("route, solve", [("_enum", "solve_lp"), ("_kkt", "solve_mip")],
                         ids=["_enum", "_kkt"])
def test_a_failed_maxmin_mip_raises_naming_it(monkeypatch, route, solve):
    # at x = 0 the outer set of t1 is [0, 1], whose 0/1 points the
    # enumeration LP takes; with integral vertices denied, the KKT MIP
    # answers instead
    if route == "_kkt":
        monkeypatch.setattr(enumeration, "has_integral_vertices", lambda A, b: False)
    real = getattr(backend, solve)
    name = f"T1_wc{route}"

    def numerical(model, **kw):
        if model.name == name:
            return SolveOutcome(status=backend.NUMERICAL)
        return real(model, **kw)

    monkeypatch.setattr(backend, solve, numerical)
    with pytest.raises(BackendError, match=f"^{name} ended Numerical$"):
        sp2(t1(), np.zeros(1))
    res = run(t1(), AlgorithmConfig(variant="parametric"))
    assert res.status == "Numerical"
    assert res.meta["reason"] == f"{name} ended Numerical"
    assert res.lb == res.meta["relaxation_value"] and res.ub == np.inf


# -- artifacts -----------------------------------------------------------------

def test_records_csv_and_result_dict_round_trip():
    res = run(_diu_box(), AlgorithmConfig(variant="parametric", tol=0.0))
    text = records_to_csv(res.iterations)
    lines = text.strip().splitlines()
    assert lines[0] == "t,lb,ub,gap,elapsed_s,cut_kind,seed_id"
    assert len(lines) == res.n_iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) <= float(first[2])
    payload = json.loads(json.dumps(run_result_to_dict(res)))
    assert payload["status"] == "Optimal"
    assert payload["objective"] == pytest.approx(2.4)
    assert payload["n_iterations"] == res.n_iterations
    assert payload["meta"]["mode"] == "exact"


@pytest.mark.parametrize("make, config, route, other", [
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=5, p=2), "ddu_us_pair"),
     dict(diu_approx="metadata"), "blocks_primal_dual", "blocks_kkt"),
    (lambda: gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs"),
     dict(variant="parametric"), "blocks_kkt", "blocks_primal_dual"),
], ids=["pm_pair5-diu", "fl_rhs2-parametric"])
def test_result_reports_the_block_route(make, config, route, other):
    # pm_pair5's surrogate sets couple binary x only, fl-rhs a continuous x
    inst = make()
    res = run(inst, AlgorithmConfig(**config))
    assert res.status in ("Optimal", "GapReached")
    n_sets = len(inst.metadata["ddu_sets"]) if "diu_approx" in config else 1
    n_seeds = len(res.meta["point_seeds"]) + len(res.meta["ray_seeds"])
    meta = json.loads(json.dumps(run_result_to_dict(res)))["meta"]
    assert meta[route] == n_sets * n_seeds > 0
    assert meta[other] == 0
