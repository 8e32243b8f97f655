import dataclasses
import hashlib
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddu_ro import backend, enumeration, instances
from ddu_ro.backend import GEQ, LinearModel, SolveOutcome
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
)
from ddu_ro.instances import (
    PMEDIAN_KINDS,
    OracleError,
    enumerate_vertices,
    lattice_first_stages,
    recourse_value,
    worst_case_values,
)
from ddu_ro.ccg import AlgorithmConfig, MasterState, run
from ddu_ro.model import (AffineMatrixMap, BasisId, FirstStageSet, Instance, RecourseSet,
                          SchemaError, UncertaintySet, add_first_stage, build_deterministic_mip,
                          instance_from_dict, max_lp, uncertainty_set_from_dict)
from toys import model_digest, record_linprog, sparse, t1_infeasible, t1_unbounded_u


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


@pytest.mark.parametrize("F", [
    AffineMatrixMap(base=np.zeros((1, 1))),
    AffineMatrixMap(base=[[1.0]], terms=((0, [[-1.0]]),)),
], ids=["constant", "at-x-1"])
def test_oracle_refuses_an_unbounded_uncertainty_set(F, monkeypatch):
    # where F(x) = 0, u = 0 is the one vertex of U(x) and u grows without
    # bound along the cone's ray (u, t) = (1, 0)
    inst = t1_unbounded_u(F)
    with pytest.raises(OracleError, match=r"U\(x\) is unbounded \(boundedness violated\)"):
        enumerate_vertices(inst.U, np.array([1.0]))
    names = []
    real = backend.solve_lp
    monkeypatch.setattr(backend, "solve_lp", lambda m: names.append(m.name) or real(m))
    with pytest.raises(OracleError, match="boundedness violated"):
        oracle_exact(inst)
    # the enumeration finds the ray before any vertex is valued, and no
    # recession LP runs
    assert names == []


def test_recourse_value_infeasible_is_inf():
    inst = t1_infeasible()
    val, y = recourse_value(inst, np.array([0.0]), np.array([0.0]))
    assert val == np.inf and y is None


def test_an_unbounded_integer_recourse_is_minus_inf():
    # min -y1 s.t. y1 - y2 >= 0, y1 integer: HiGHS leaves the MIP undecided
    inst = t1()
    inst = dataclasses.replace(inst, Y=RecourseSet(
        B1=np.zeros((1, 1)), B2=[[1.0, -1.0]], E=np.zeros((1, 1)), d=[0.0],
        c2=[-1.0, 0.0], n_int_y=1))
    assert recourse_value(inst, np.zeros(1), np.zeros(1)) == (-np.inf, None)


def test_worst_case_picks_the_cap():
    inst = t1()
    wc, u = worst_case_values(inst, [np.array([1.0])])[0]
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


def _relaxation_value(inst: Instance) -> float:
    """The optimum of the deterministic relaxation, which must exist."""
    out = backend.solve_mip(build_deterministic_mip(inst)[0])
    assert out.is_optimal, out.status
    return out.objective


def test_fl_generators_validate_and_match_frozen_values():
    fp = FLParams(**FL2)
    expect = {"rhs": -37922.762986387716, "lhs": -37922.762986387716}
    for dep, val in expect.items():
        inst = gen_robust_fl(fp, dep)
        assert inst.U.F.is_constant == (dep == "rhs")
        assert oracle_exact(inst).value == pytest.approx(val, rel=1e-9)
    # the relaxation (rhs only: lhs depends on continuous x) bounds it below
    assert _relaxation_value(gen_robust_fl(fp, "rhs")) <= expect["rhs"] + 1e-6


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
    assert oracle_exact(inst).value == pytest.approx(-52261.99993668124, rel=1e-7)
    assert _relaxation_value(inst) <= -52261.99993668124 + 1e-6


def test_generators_are_deterministic():
    a = gen_reliable_pmedian(PMedianParams(n_sites=3, seed=7, p=1, k=1), "ddu_ur")
    b = gen_reliable_pmedian(PMedianParams(n_sites=3, seed=7, p=1, k=1), "ddu_ur")
    assert json.dumps(instance_to_dict(a), sort_keys=True) == \
        json.dumps(instance_to_dict(b), sort_keys=True)


@pytest.mark.parametrize("make, field", [
    (lambda: gen_robust_fl(FLParams(n_sites=0), "rhs"), "n_sites"),
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=3, n_facilities=5)), "n_facilities"),
    (lambda: gen_mip_recourse_fl(FLParams(n_sites=3, n_facilities=0)), "n_facilities"),
    (lambda: gen_robust_fl(FLParams(n_sites=3, costs=np.ones((2, 2))), "lhs"), "costs"),
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=3, demands=np.ones(4))), "demands"),
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=4, p=0)), "p"),
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=4, k=-1), "ddu_ur"), "k"),
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=4, p=2, q=-1), "ddu_ukq"), "q"),
])
def test_generators_reject_parameters_no_instance_has(make, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        make()


def test_more_medians_than_facilities_is_a_well_formed_infeasible_instance():
    inst = gen_reliable_pmedian(PMedianParams(n_sites=3, p=4))
    assert run(inst, AlgorithmConfig()).status == "Infeasible"


def _pinned_cases():
    """(name, instance) for every family and p-median kind: 3 sites at seeds
    0 and 1, 3 facilities among 4 sites, and explicit costs and demands (the
    import path); fl-rhs also with explicit data and 3 facilities among 4
    sites; and the bench's five instances at instance seeds 0 and 1."""
    rng = np.random.default_rng(11)
    data = dict(costs=rng.uniform(1.0, 50.0, size=(4, 4)),
                demands=rng.uniform(10.0, 20.0, size=4))
    builders = {"fl-rhs": lambda **kw: gen_robust_fl(FLParams(**kw), "rhs"),
                "fl-lhs": lambda **kw: gen_robust_fl(FLParams(**kw), "lhs"),
                "fl-mip": lambda **kw: gen_mip_recourse_fl(FLParams(**kw))}
    for kind in PMEDIAN_KINDS:
        builders[f"pm-{kind}"] = lambda kind=kind, **kw: gen_reliable_pmedian(
            PMedianParams(p=2, **kw), kind)
    for name, build in builders.items():
        yield f"{name}-seed0", build(n_sites=3, seed=0)
        yield f"{name}-seed1", build(n_sites=3, seed=1)
        yield f"{name}-3of4", build(n_sites=4, n_facilities=3, seed=0)
        yield f"{name}-data", build(n_sites=4, seed=1, **data)
    yield "fl-rhs-3of4-data", builders["fl-rhs"](n_sites=4, n_facilities=3, seed=0,
                                                 **data)
    bench = {"pm_uk8": lambda s: gen_reliable_pmedian(PMedianParams(n_sites=8, seed=s),
                                                      "ddu_uk"),
             "pm_pair5": lambda s: gen_reliable_pmedian(PMedianParams(n_sites=5, p=2, seed=s),
                                                        "ddu_us_pair"),
             "fl_rhs5": lambda s: gen_robust_fl(FLParams(n_sites=5, seed=s), "rhs"),
             "fl_mip3": lambda s: gen_mip_recourse_fl(FLParams(
                 n_sites=3, seed=s, capacity_lower_frac=1.5, capacity_upper_frac=1.5)),
             "fl_rhs2": lambda s: gen_robust_fl(FLParams(n_sites=2, seed=s), "rhs")}
    for name, build in bench.items():
        for s in (0, 1):
            yield f"{name}-seed{s}", build(s)


# first 16 hex digits of the SHA-256 of json.dumps(instance_to_dict(inst));
# a deliberate change to a generator updates them and says why
PINNED_DIGESTS = {
    "fl-rhs-seed0": "92444fd4531f97c6",
    "fl-rhs-seed1": "e255f07b75fa05cc",
    "fl-rhs-3of4": "55e765bbfb779565",
    "fl-rhs-data": "97d7ba9499afac51",
    "fl-rhs-3of4-data": "edaeb47d8d895fe6",   # neighbourhoods from the costs
    "fl-lhs-seed0": "61e16724d92b226f",
    "fl-lhs-seed1": "c9ebd14c501da926",
    "fl-lhs-3of4": "cac36e5792953daf",
    "fl-lhs-data": "eb2c3f411ccb5fd1",
    "fl-mip-seed0": "6d1533029b3dfb54",
    "fl-mip-seed1": "8471057b4e5f56a0",
    "fl-mip-3of4": "91e14fb47a8ad8c5",
    "fl-mip-data": "702c1cb39f0b609b",
    "pm-diu_u0-seed0": "02441c9c97a9cb7a",
    "pm-diu_u0-seed1": "60094e1b3028d5b2",
    "pm-diu_u0-3of4": "92e912070e977759",
    "pm-diu_u0-data": "b20251ea1410272f",
    "pm-ddu_uk-seed0": "dc017b937cdd2d89",
    "pm-ddu_uk-seed1": "4f481d479d76e6c9",
    "pm-ddu_uk-3of4": "88302d06f9957ca2",
    "pm-ddu_uk-data": "2dfa3499c1ecaf79",
    "pm-ddu_ukq-seed0": "8314cf2345c3ab7f",
    "pm-ddu_ukq-seed1": "fb8e8fa6fbdb4d4f",
    "pm-ddu_ukq-3of4": "fa50ef7db5e28137",
    "pm-ddu_ukq-data": "e80d5805218d1190",
    "pm-ddu_ur-seed0": "2558eb81d597a32a",
    "pm-ddu_ur-seed1": "e60ba01c1c4c2398",
    "pm-ddu_ur-3of4": "244567dc8255a4ac",
    "pm-ddu_ur-data": "e33f15fe00eec685",
    # the pairing rows sum the entries of x and v where a pair (j, j) reads
    # x_d_j twice, so w_jj >= 2 x_d_j - 1 holds w_jj at x_d_j
    "pm-ddu_us_pair-seed0": "299a1fd179d86252",
    "pm-ddu_us_pair-seed1": "e9aa90414226121d",
    "pm-ddu_us_pair-3of4": "52b789fa47b40d16",
    "pm-ddu_us_pair-data": "9bbeef79aae37a17",
    "pm_uk8-seed0": "6c3614f51a8694db",
    "pm_uk8-seed1": "a2adee1b90a487bf",
    # the (j, j) pairing rows as above
    "pm_pair5-seed0": "e9135d8c6e588635",
    "pm_pair5-seed1": "6611e441eafa4ea4",
    "fl_rhs5-seed0": "a24d45ba5c8133eb",
    "fl_rhs5-seed1": "23a18319ea441e59",
    "fl_mip3-seed0": "a55cb89cb8f86c8d",
    "fl_mip3-seed1": "ce73bef3c86c2917",
    "fl_rhs2-seed0": "f39b212a33deb7be",
    "fl_rhs2-seed1": "98c5918e4efccbf0",
}


def test_generator_output_is_pinned():
    got = {name: hashlib.sha256(json.dumps(instance_to_dict(inst)).encode())
           .hexdigest()[:16] for name, inst in _pinned_cases()}
    assert got == PINNED_DIGESTS


def _pinned_models():
    # models built without a solve: the deterministic relaxation, and masters
    # grown through MasterState.add_seed from seeds drawn at a fixed seed
    cases = {"pm_uk8": (gen_reliable_pmedian(PMedianParams(n_sites=8, seed=0), "ddu_uk"),
                        "primal-dual"),
             "fl_rhs5": (gen_robust_fl(FLParams(n_sites=5, seed=0), "rhs"), "kkt")}
    for name, (inst, kind) in cases.items():
        yield f"{name}-det", build_deterministic_mip(inst)[0]
        rng = np.random.default_rng(0)
        m_rows = inst.Y.n_rows
        for variant in ("benders", "parametric"):
            state = MasterState(inst, AlgorithmConfig(variant=variant))
            for _ in range(2):
                state.add_seed(rng.uniform(0.0, 50.0, m_rows))
            state.add_seed(rng.uniform(0.0, 1.0, m_rows), is_ray=True)
            model = state.model
            assert {b.representation for b in state.blocks.values()} == {kind}
            yield f"{name}-{kind}-{variant}", model
        if kind == "primal-dual":
            state = MasterState(inst, AlgorithmConfig(variant="basis"))
            n, mu = inst.U.dim, inst.U.n_rows
            for _ in range(2):
                state.add_seed(BasisId(tuple(rng.choice(n + mu, mu, replace=False))))
            yield f"{name}-basis", state.model


# model_digest of each _pinned_models model; a change to how the models are
# built moves them only when HiGHS would receive different problems, and the
# change that moves one says why
PINNED_MODEL_DIGESTS = {
    "pm_uk8-det": "3f64bf1ef1d87897",
    "pm_uk8-primal-dual-benders": "74af7fe460dbf8d3",
    "pm_uk8-primal-dual-parametric": "15167eab71f360e7",
    "pm_uk8-basis": "98ffcf05e349f677",
    "fl_rhs5-det": "b6a8bb8079416a2c",
    # the dual side's own bound M_d = max(big_M, 2 ||c||_1 kappa), in place
    # of big_M on both sides of every complementarity
    "fl_rhs5-kkt-benders": "dab8e499ad7255bd",
    "fl_rhs5-kkt-parametric": "e84de4d3c179f562",
}


def test_built_models_are_pinned():
    got = {name: model_digest(m) for name, m in _pinned_models()}
    assert got == PINNED_MODEL_DIGESTS


# record_linprog digest of the first LP of each name on pm_uk8 s0: the
# first lattice block LP of the parametric and the basis master, the
# 56-copy completion LP of X's lattice and the first recourse block LP of
# oracle_exact; a change to how block LPs are built moves them only when
# HiGHS would receive different problems. They were pinned anew when
# linprog came to take HiGHS's arrays (backend.highs_arrays) instead of
# scipy's blocks, since record_linprog hashes what linprog takes;
# tools/highs_digest.py printed the same lines before and after. They were
# pinned anew again when every LP came to reach HiGHS in one layout, A in
# CSR and the rows in model order with the model's sign: each of these LPs
# has >= or = rows, which had been negated or moved last, so HiGHS gets the
# same rows in another order and sign (tools/highs_digest.py kept every
# status, objective and solve count). They were pinned anew once more when
# record_linprog came to hash what backend._highs receives, the arrays and
# the whole option set, instead of linprog's arguments: the same toys.py
# gives these values on the tree before that change and after it. The two
# masters and recourse_block were pinned anew when an LP over copies came
# to hold at most backend._COPIES_NONZEROS (1e4) nonzeros: their first LPs,
# of 20384, 19040 and 11200, now hold the copies of their first run only;
# the completion LP, of 8512, is whole (tools/highs_digest.py kept every
# status, objective and iteration count, and the oracle's values).
PINNED_LP_DIGESTS = {
    "pm_uk8-parametric-master": "160e2a9db1fa29fa",
    "pm_uk8-basis-master": "ef9bc01502ce6909",
    "xfill": "0326049417514e40",
    "recourse_block": "7510c20207df7360",
}


def test_block_lps_reach_highs_unchanged(monkeypatch):
    inst = dataclasses.replace(gen_reliable_pmedian(PMedianParams(n_sites=8, seed=0),
                                                    "ddu_uk"), name="pm_uk8")
    calls = record_linprog(monkeypatch)
    for variant in ("parametric", "basis"):
        run(inst, AlgorithmConfig(variant=variant, max_iterations=2))
    oracle_exact(inst)
    first = {}
    for name, n_vars, digest in calls:
        first.setdefault(name, (n_vars, digest))
    assert first["xfill"][0] == 56 * inst.dim_x
    assert {name: first[name][1] for name in PINNED_LP_DIGESTS} == PINNED_LP_DIGESTS


def test_fl_neighbourhoods_follow_explicit_costs():
    # the neighbourhoods come from the given costs, not from coordinates
    # drawn from the seed, also when only some sites host facilities
    rng = np.random.default_rng(3)
    data = dict(costs=rng.uniform(1.0, 50.0, size=(4, 4)),
                demands=rng.uniform(10.0, 20.0, size=4))
    G0, G1 = (gen_robust_fl(FLParams(n_sites=4, n_facilities=3, seed=s, **data),
                            "rhs").U.G for s in (0, 1))
    assert np.array_equal(G0, G1)


def test_pairing_mode_carries_both_sets():
    inst = gen_reliable_pmedian(PMedianParams(n_sites=3, seed=7, p=1, k=1),
                                "ddu_us_pair")
    _relaxation_value(inst)
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


def test_the_rows_of_x_pin_each_square_pair_at_x_d():
    # costs with a nonzero diagonal give each pair (j, j) a share of x_s's
    # score; with x_d fixed, every w_jj = x_d_j x_d_j must equal x_d_j over
    # X's rows, min and max, in one block LP of 2 nJ copies
    costs = np.random.default_rng(5).uniform(1.0, 50.0, size=(4, 4))
    inst = gen_reliable_pmedian(PMedianParams(n_sites=4, p=2, seed=0, costs=costs),
                                "ddu_us_pair")
    X, nJ = inst.X, 4
    x_d = np.array([1.0, 0.0, 1.0, 0.0])
    lb, ub = X.lb.copy(), X.ub.copy()
    lb[:nJ] = ub[:nJ] = x_d
    w_jj = X.dim - 2 * nJ * nJ + (nJ + 1) * np.arange(nJ)    # x = (... | w | z)
    cost = np.eye(X.dim)[w_jj]
    status, _, z = backend.solve_copies("square_pairs", X.A, GEQ, np.tile(X.b, (2 * nJ, 1)),
                                        lb, ub, np.vstack([cost, -cost]))
    assert (status == backend.OPTIMAL).all()
    ends = z[np.arange(2 * nJ), np.tile(w_jj, 2)].reshape(2, nJ)
    assert ends == pytest.approx(np.tile(x_d, (2, 1)), abs=1e-9)


def test_io_round_trip(tmp_path):
    inst = gen_robust_fl(FLParams(**FL2), "lhs")
    path = str(tmp_path / "inst.json")
    io_write(path, inst)
    back = io_read(path)
    assert json.dumps(instance_to_dict(back), sort_keys=True) == \
        json.dumps(instance_to_dict(inst), sort_keys=True)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".part")]


def _instance_arrays(inst) -> dict:
    X, U, Y = inst.X, inst.U, inst.Y
    return {"c1": inst.c1, "X.A": X.A, "X.b": X.b, "X.lb": X.lb, "X.ub": X.ub,
            "F.base": U.F.base, **{f"F.terms[{k}]": M for k, M in U.F.terms},
            "G": U.G, "h": U.h, "B1": Y.B1, "B2": Y.B2, "E": Y.E, "d": Y.d, "c2": Y.c2}


@pytest.mark.parametrize("make, n_terms", [
    (lambda: gen_reliable_pmedian(PMedianParams(n_sites=8), "ddu_uk"), 0),
    (lambda: gen_robust_fl(FLParams(**FL2), "lhs"), 2),
    (lambda: instance_from_dict(instance_to_dict(gen_robust_fl(FLParams(**FL2), "lhs"))), 2),
], ids=["pm_uk8", "fl_lhs2", "fl_lhs2-read"])
def test_every_array_of_an_instance_is_read_only(make, n_terms):
    # what a run derives from an instance alone (Instance.fact) stays valid
    # only while the instance cannot change
    arrays = _instance_arrays(make())
    assert len(arrays) == 13 + n_terms
    for a in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 1.0


def test_an_instance_holds_copies_of_the_arrays_it_was_given():
    c1, base, B1 = np.ones(1), np.ones((1, 1)), np.zeros((1, 1))
    inst = Instance(name="copies", c1=c1,
                    X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1, ub=[1.0]),
                    U=UncertaintySet(F=AffineMatrixMap(base=base, terms=((0, base),)),
                                     G=[[1.0]], h=[1.0]),
                    Y=RecourseSet(B1=B1, B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0]))
    c1[0] = base[0, 0] = B1[0, 0] = 5.0
    assert inst.c1[0] == inst.U.F.base[0, 0] == inst.U.F.terms[0][1][0, 0] == 1.0
    assert inst.Y.B1[0, 0] == 0.0


def test_schema_rejects_unknown_keys_with_location():
    d = instance_to_dict(t1())
    d["U"]["Foo"] = 1
    with pytest.raises(SchemaError, match=r"\$\.U"):
        instance_from_dict(d)


def test_schema_rejects_out_of_range_triplets():
    d = instance_to_dict(t1())
    d["Y"]["B2"]["triplets"].append([7, 0, 1.0])
    with pytest.raises(SchemaError, match=r"\$\.Y\.B2"):
        instance_from_dict(d)


def test_a_file_with_two_triplets_at_one_entry_is_refused(tmp_path):
    # reading kept the last of the two, so F read back as [[1.]]
    d = instance_to_dict(t1())
    d["U"]["F"]["base"]["triplets"] = [[0, 0, 5.0], [0, 0, 1.0]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(d))
    with pytest.raises(SchemaError, match=r"two triplets at \(0,0\) at \$\.U\.F\.base"):
        io_read(str(path))


def test_oracle_refuses_oversized_enumerations(monkeypatch):
    # the cube [0, 1]^3 cut by u1 + u2 + u3 <= 1/2 has 4 vertices, but the
    # cube's 8 are alive before the cut: the cap counts the rays alive
    U = UncertaintySet(F=AffineMatrixMap(base=np.vstack([np.eye(3), np.ones(3)])),
                       G=np.zeros((4, 1)), h=[1.0, 1.0, 1.0, 0.5])
    inst = Instance(name="cut-cube", c1=[0.0], X=t1().X, U=U,
                    Y=RecourseSet(B1=[[0.0]], B2=[[1.0]], E=[[-1.0, 0.0, 0.0]], d=[0.0],
                                  c2=[1.0]))
    assert len(enumerate_vertices(U, [0.0])) == 4
    monkeypatch.setattr(enumeration, "_MAX_VERTICES", 7)
    with pytest.raises(OracleError, match="more than 7 vertices"):
        oracle_exact(inst)
    monkeypatch.setattr(enumeration, "_MAX_VERTICES", 8)
    assert oracle_exact(inst).value == pytest.approx(0.5)


@pytest.mark.parametrize("seed, value", [(5, -39813.06646457269), (0, -68905.90943240363)],
                         ids=["s5", "s0"])
def test_the_oracle_answers_three_site_fl_rhs(seed, value):
    # the sweep over every basis refused it (6906900 basis systems); every
    # variant returns the oracle's value
    inst = gen_robust_fl(FLParams(n_sites=3, seed=seed, capacity_lower_frac=1.5,
                                  capacity_upper_frac=1.5), "rhs")
    res = oracle_exact(inst)
    assert res.value == pytest.approx(value, rel=1e-12)
    for variant in ("benders", "parametric", "parametric-modified"):
        out = run(inst, AlgorithmConfig(variant=variant, tol=1e-6))
        assert out.status == "Optimal"
        assert out.objective == pytest.approx(res.value, rel=1e-6)


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


# -- the integer points of a box against itertools.product --------------------

def _box_points_by_product(lo, hi, G, g):
    """Reference for enumeration.lattice_points: every point of the box, in
    itertools.product order, then the filter by the rows."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    pts = list(itertools.product(*ranges))
    pts = np.array(pts, dtype=float).reshape(len(pts), len(ranges))
    return pts[np.all(pts @ G.T >= g - 1e-9, axis=1)]


def _assert_box_points_match(lo, hi, G, g):
    G, g = np.asarray(G, dtype=float).reshape(len(g), len(lo)), np.asarray(g, dtype=float)
    got = enumeration.lattice_points(lo, hi, G, g, "x")
    ref = _box_points_by_product(lo, hi, G, g)
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("lo, hi, G, g", [
    ([], [], np.zeros((1, 0)), [0.0]),
    ([], [], np.zeros((1, 0)), [1.0]),
    ([0, 0, 0], [1, 1, 1], [], []),
    ([-2, -1, 0], [1, 2, 0], [[1, 1, -1]], [-1]),
    ([0, 0, 0], [3, 2, 4], [[1, 2, 1], [-1, -1, -1]], [3, -5]),
    ([0, 0], [1, 1], [[1, 1], [0, 0]], [0, 1]),
    ([0, 0, 0, 0], [1, 1, 1, 1], [[1, 1, 1, 1], [-1, -1, -1, -1]], [2, -2]),
], ids=["n0-met", "n0-unmet", "no-rows", "negative-lo", "wide-ranges", "infeasible-row",
        "equality-pair"])
def test_box_points_match_the_product_on_edge_cases(lo, hi, G, g):
    _assert_box_points_match(lo, hi, G, g)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_box_points_match_the_product_on_random_boxes(seed):
    # up to five coordinates from negative lower bounds, empty and wide
    # ranges, integer and fractional rows, ± pairs for equalities and rows
    # no point meets
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(0, 6)), int(rng.integers(0, 5))
    lo = rng.integers(-3, 2, size=n)
    hi = lo + rng.integers(-1, 4, size=n)
    G = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) if rng.random() < 0.3 else 1.0)
    g = rng.integers(-4, 5, size=m).astype(float)
    if m >= 2 and rng.random() < 0.3:
        G[1], g[1] = -G[0], -g[0]
    if m and rng.random() < 0.1:
        g[0] = np.abs(G[0]) @ np.maximum(np.abs(lo), np.abs(hi)) + 1.0
    _assert_box_points_match(lo.tolist(), hi.tolist(), G, g)


def _binary_first_stage(n: int, sum_to: int | None) -> Instance:
    """n binary x, with sum x = sum_to as a ± pair of rows unless None."""
    A, b = ((np.zeros((0, n)), np.zeros(0)) if sum_to is None else
            (np.vstack([np.ones(n), -np.ones(n)]), np.array([sum_to, -sum_to], dtype=float)))
    return Instance(
        name="binary", c1=np.zeros(n),
        X=FirstStageSet(A=A, b=b, n_int=n, ub=np.ones(n)),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=np.zeros((1, n)), h=[1.0]),
        Y=RecourseSet(B1=np.zeros((1, n)), B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0]))


def test_a_lattice_over_the_cap_is_refused():
    # 15 free binaries admit 32768 points
    with pytest.raises(OracleError, match=f"integer x lattice exceeds {enumeration._MAX_LATTICE}"):
        lattice_first_stages(_binary_first_stage(15, None))


def test_a_wide_box_with_few_points_enumerates():
    # a 2^20 box whose rows admit the C(20, 3) = 1140 choices of three,
    # in itertools.product order
    points = np.array(lattice_first_stages(_binary_first_stage(20, 3)))
    ref = np.zeros((math.comb(20, 3), 20))
    for row, sites in zip(ref, itertools.combinations(range(20), 3)):
        row[list(sites)] = 1.0
    assert np.array_equal(points, ref[np.lexsort(ref.T[::-1])])


# -- vertex enumeration against the determinant sweep per call ------------------

_REF_MAX_BASES = 2_000_000      # the sweep's cap on the basis systems of one U(x)


# the nonsingular mask over every basis of a row-scaled [F(x) | I], by its
# bytes: F(x) is the same at every x of fl-rhs, and the determinants took
# most of the sweep's time
_NONSINGULAR: dict[bytes, np.ndarray] = {}


def _vertices_by_every_basis(U, x):
    """Reference for enumerate_vertices on continuous u: takes the determinant
    of every basis of [F(x) | I], once per distinct row-scaled matrix
    (_NONSINGULAR), and de-duplicates basis by basis, in the order of
    itertools.combinations. It drops the bases of |det| <= 1e-12 after row
    scaling, so it misses vertices where that drops real bases
    (test_vertex_enumeration_limits_and_empty_sets)."""
    x = np.asarray(x, dtype=float)
    Fx = U.F.evaluate(x)
    rhs = U.h + U.G @ x
    mu, n = Fx.shape
    n_cols = n + mu
    assert math.comb(n_cols, mu) <= _REF_MAX_BASES

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
    key = repr(A.shape).encode() + A.tobytes()
    if key not in _NONSINGULAR:
        _NONSINGULAR[key] = np.concatenate(
            [np.abs(np.linalg.det(A[:, combos[lo:lo + chunk]].transpose(1, 0, 2))) > 1e-12
             for lo in range(0, len(combos), chunk)])
    for lo in range(0, len(combos), chunk):
        sub = combos[lo:lo + chunk]
        ok = _NONSINGULAR[key][lo:lo + chunk]
        if not np.any(ok):
            continue
        mats = A[:, sub[ok]].transpose(1, 0, 2)      # (nonsingular bases, mu, mu)
        b_batch = np.broadcast_to(rhs_s[:, None], (int(ok.sum()), mu, 1)).copy()
        sols = np.linalg.solve(mats, b_batch)[:, :, 0]
        feas = np.all(sols >= -enumeration._DEDUP_TOL * np.maximum(1.0, np.abs(rhs_s).max()),
                      axis=1)
        # guard against ill-conditioned near-singular systems
        resid = np.einsum("bij,bj->bi", mats, sols) - rhs_s
        feas &= np.max(np.abs(resid), axis=1) <= 1e-7 * max(1.0, np.abs(rhs_s).max())
        for cols, z in zip(sub[ok][feas], sols[feas]):
            u = np.zeros(n)
            struct = cols < n
            u[cols[struct]] = np.maximum(z[struct], 0.0)
            key = tuple(np.round(u / enumeration._DEDUP_TOL).astype(np.int64))
            if key not in seen:
                seen.add(key)
                verts.append(u)
                if len(verts) > enumeration._MAX_VERTICES:
                    raise OracleError(f"more than {enumeration._MAX_VERTICES} vertices")
    if not verts:
        raise OracleError("U(x) is empty at the probed x (nonemptiness violated)")
    return np.array(verts)


def _same_vertices(got, ref):
    """got and ref hold the same rows, in any order, within 1e-7 relative."""
    if got.shape != ref.shape:
        return False
    scale = max(1.0, np.abs(ref).max(initial=0.0))
    close = np.abs(got[:, None] - ref[None]).max(axis=2, initial=0.0) <= 1e-7 * scale
    return close.any(axis=1).all() and close.any(axis=0).all()


def _cone_rays_joining_every_row(Fx, rhs):
    """Reference for _cone_rays: the double description as it was before
    rows without a pair to join took a shorter path and equalities counted
    once in the |Z| screen. Every row goes through enumeration._adjacent_pairs
    with the screen at dim u - 1, and through vstack."""
    n = Fx.shape[1]
    rows = np.hstack([-Fx, rhs[:, None]])
    top = np.abs(rows).max(axis=1)
    rows /= np.where(top > 0.0, top, 1.0)[:, None]
    rays, tight = np.eye(n + 1), ~np.eye(n + 1, dtype=bool)
    for a in rows:
        v = rays @ a
        on = np.abs(v) <= enumeration._DEDUP_TOL * (rays @ np.abs(a))
        out = (v < 0.0) & ~on
        p, q = enumeration._adjacent_pairs(tight, np.flatnonzero((v > 0.0) & ~on),
                                           np.flatnonzero(out), n - 1)
        joined = v[p, None] * rays[q] - v[q, None] * rays[p]
        rays = np.vstack([rays[~out], joined / joined.max(axis=1, keepdims=True)])
        tight = np.vstack([np.column_stack([tight[~out], on[~out]]),
                           np.column_stack([tight[p] & tight[q], np.ones(len(p), dtype=bool)])])
        if len(rays) > enumeration._MAX_VERTICES:
            raise OracleError(f"more than {enumeration._MAX_VERTICES} vertices")
    return rays


def _assert_vertices(U, x):
    """_cone_rays returns the reference's rays to the bit, and
    enumerate_vertices(U, x) holds the sweep's vertices, in descending
    lexicographic order of their de-duplication keys, the entries in units
    of _DEDUP_TOL times the largest."""
    assert np.array_equal(enumeration._cone_rays(*U.at(x)), _cone_rays_joining_every_row(*U.at(x)))
    got = enumerate_vertices(U, x)
    assert _same_vertices(got, _vertices_by_every_basis(U, x))
    keys = np.round(got / (enumeration._DEDUP_TOL * (np.abs(got).max() or 1.0)))
    for later, earlier in zip(keys[1:], keys):
        first = np.flatnonzero(later != earlier)[0]
        assert later[first] < earlier[first]


def _lattice_stages(inst):
    return inst.U, lattice_first_stages(inst)


def _u2_cap(F, h):
    """max u2 over U = {u >= 0 : F u <= h}, with one binary x that U ignores."""
    return Instance(
        name="u2-cap", c1=[0.0],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        lb=[0.0], ub=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=F), G=np.zeros((2, 1)), h=h),
        Y=RecourseSet(B1=[[0.0]], B2=[[1.0]], E=[[0.0, -1.0]], d=[0.0], c2=[1.0]))


@pytest.mark.parametrize("stages", [
    lambda: _lattice_stages(gen_reliable_pmedian(PMedianParams(n_sites=8), "ddu_uk")),
    lambda: _lattice_stages(gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs")),
    lambda: _lattice_stages(gen_robust_fl(FLParams(n_sites=2, seed=0), "lhs")),
    lambda: (t1().U, [np.array([0.0]), np.array([1.0])]),
    lambda: (_u2_cap(np.eye(2), [1.0, 2.0]).U, [np.zeros(1)]),
    lambda: (_u2_cap([[1.0, 1.0], [1.0, -1.0]], [1.0, 2.0]).U, [np.zeros(1)]),
], ids=["ddu_uk8", "fl-rhs2", "fl-lhs2", "t1", "box", "wedge"])
def test_vertices_match_the_sweep_over_every_basis(stages):
    # every lattice first stage of pm_uk8 (56), fl_rhs2 and 2-site fl-lhs
    # (64 each, F(x) moving with x for fl-lhs); a box and a wedge of one
    # shape, whose vertices need different bases
    U, xs = stages()
    for x in xs:
        _assert_vertices(U, x)


def _scaled_set(seed):
    """A small continuous U with rows scaled by 1e-3 to 1e3, some zero
    entries, a positive first row that bounds it, u = 0 inside, and, for
    most seeds, a second row that differs from the first by 1e-12 to 1e-10
    in one entry, which makes bases with |det| near 1e-12; and four first
    stages that move only the rhs."""
    rng = np.random.default_rng(seed)
    mu, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    F = rng.integers(-2, 4, size=(mu, n)) * (rng.random((mu, n)) < 0.7)
    F = F.astype(float)
    F[0] = rng.integers(1, 4, size=n)
    if rng.random() < 0.8:
        F[1] = F[0]
        F[1, rng.integers(n)] += 10.0 ** rng.uniform(-12, -10)
    scale = 10.0 ** rng.uniform(-3, 3, size=mu)
    G = rng.integers(0, 3, size=(mu, 3)) * scale[:, None]
    U = UncertaintySet(F=AffineMatrixMap(base=F * scale[:, None]), G=G,
                       h=rng.uniform(0.5, 5.0, size=mu) * scale)
    return U, [np.array(x, dtype=float) for x in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_screened_vertices_match_the_sweep_over_every_basis(seed):
    # rows of mixed scales, and most draws with two rows 1e-12 to 1e-10
    # apart, over four first stages that move the rhs
    U, xs = _scaled_set(seed)
    for x in xs:
        _assert_vertices(U, x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_first_rows_match_numpy_unique_over_rows(seed):
    # rows drawn from a small pool, so that they repeat, with all-zero rows,
    # negative entries and entries across the int64 range, in C and Fortran
    # order; the reference sorts rows, _first_rows sorts their bytes
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    pool = rng.integers(-3, 4, size=(int(rng.integers(1, 8)), k))
    pool[rng.random(pool.shape) < 0.2] = rng.integers(-2 ** 63, 2 ** 63 - 1, dtype=np.int64)
    pool[0] = 0
    keys = pool[rng.integers(len(pool), size=int(rng.integers(0, 50)))]
    for a in (keys, np.asfortranarray(keys)):
        ref = np.sort(np.unique(a, axis=0, return_index=True)[1])
        assert np.array_equal(enumeration._first_rows(a), ref)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
def test_first_rows_of_empty_keys_match_numpy_unique(shape):
    keys = np.zeros(shape, dtype=np.int64)
    ref = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    assert np.array_equal(enumeration._first_rows(keys), ref)


def test_vertex_enumeration_limits_and_empty_sets(monkeypatch):
    empty = UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[0.0]], h=[-1.0])
    with pytest.raises(OracleError, match="nonemptiness violated"):
        enumerate_vertices(empty, [0.0])
    # {u >= 0 : 1e13 (u1 + u2) <= 1} holds u = 0; the sweep called it empty,
    # as every basis of its row-scaled [F | I] has |det| <= 1e-13
    tiny = UncertaintySet(F=AffineMatrixMap(base=np.full((1, 2), 1e13)),
                          G=np.zeros((1, 1)), h=[1.0])
    assert np.array_equal(enumerate_vertices(tiny, [0.0]),
                          [[1e-13, 0.0], [0.0, 1e-13], [0.0, 0.0]])
    monkeypatch.setattr(enumeration, "_MAX_VERTICES", 1)
    with pytest.raises(OracleError, match="more than"):
        enumerate_vertices(t1().U, [0.0])


def test_every_vertex_of_three_site_fl_rhs_is_found():
    # U(x) of 3-site fl-rhs at x_d = 1, x_c = 1e3: 81 vertices, each in
    # U(x) with 9 independent tight rows, and no LP over U(x) beats the
    # best of them in a direction; the sweep found 13, and 300 random
    # directions all beat its best vertex
    inst = gen_robust_fl(FLParams(n_sites=3, seed=0), "rhs")
    x = np.r_[np.ones(3), np.full(3, 1e3)]
    verts = enumerate_vertices(inst.U, x)
    Fx, rhs = inst.U.at(x)
    A, b = np.vstack([Fx, -np.eye(inst.dim_u)]), np.r_[rhs, np.zeros(inst.dim_u)]
    gaps = b - verts @ A.T
    assert len(verts) == 81 and gaps.min() >= -1e-9 * np.abs(b).max()
    for gap in gaps:
        assert np.linalg.matrix_rank(A[gap <= 1e-9 * np.maximum(1.0, np.abs(b))]) == 9
    for c in np.random.default_rng(0).normal(size=(5, inst.dim_u)):
        out = backend.solve_lp(max_lp(Fx, rhs, c, "direction"))
        assert out.objective <= (verts @ c).max() + 1e-7 * max(1.0, abs(out.objective))


@pytest.mark.parametrize("sites, count", [(6, 3645), (7, None)])
def test_six_site_fl_rhs_enumerates_and_seven_sites_refuse_at_the_ray_cap(sites, count):
    # U(x) at x_d = 1, x_c = 1e3; each site adds two +- pairs of rows that
    # form equalities, which the |Z| screen counts once; the reference took
    # about a second on six sites and fifteen to refuse seven
    inst = gen_robust_fl(FLParams(n_sites=sites, seed=0), "rhs")
    x = np.r_[np.ones(sites), np.full(sites, 1e3)]
    if count is None:
        with pytest.raises(OracleError, match=f"more than {enumeration._MAX_VERTICES}"):
            enumerate_vertices(inst.U, x)
    else:
        assert len(enumerate_vertices(inst.U, x)) == count


# -- worst_case_values against the per-vertex loop -----------------------------

def _worst_case_by_loop(inst, x):
    """Reference for worst_case_values: the recourse LP at every vertex of U(x)
    in enumeration order, keeping the first strict maximum and stopping at the
    first vertex without recourse."""
    verts = enumerate_vertices(inst.U, x)
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
    original = instances.worst_case_values

    def recorded(inst, xs, *args, **kwargs):
        out = original(inst, xs, *args, **kwargs)
        seen.extend(zip(xs, out))
        return out

    monkeypatch.setattr(instances, "worst_case_values", recorded)
    res = oracle_exact(inst)
    assert len(seen) == len(res.evaluations)
    for x, (val, u) in seen:
        ref_val, ref_u = _worst_case_by_loop(inst, x)
        assert val == pytest.approx(ref_val, rel=1e-9)
        assert np.array_equal(u, ref_u)


def _worst_case_values_enumerating_every_x(inst, xs):
    """Reference for worst_case_values: the same runs and LPs, with
    enumerate_vertices called at every x."""
    nnz = np.count_nonzero(inst.Y.B2)
    pairs = ((x, enumerate_vertices(inst.U, x)) for x in xs)
    out = []
    for run in backend._runs(pairs, backend._COPIES_NONZEROS,
                             size=lambda item: max(len(item[1]) * nnz, nnz + inst.Y.n_rows)):
        missing = [m[0] for m in instances._no_recourse(inst, [(x, v[:1]) for x, v in run])]
        rest = [item for item, miss in zip(run, missing) if not miss]
        valued = iter(instances._worst_vertices(inst, rest) if rest else [])
        out += [(np.inf, v[0]) if miss else next(valued) for (_, v), miss in zip(run, missing)]
    return out


def _count_enumerations(monkeypatch):
    calls = []
    original = instances.enumerate_vertices

    def counted(U, x):
        calls.append(x)
        return original(U, x)

    monkeypatch.setattr(instances, "enumerate_vertices", counted)
    return calls


def _u_of_x_key(U, x):
    return tuple(a.tobytes() for a in U.at(x))


@pytest.mark.parametrize("seed", [0, 1])
def test_each_distinct_u_of_x_is_enumerated_once(monkeypatch, seed):
    # fl_rhs2: 64 first stages, 25 distinct U(x) at seed 0
    inst = gen_robust_fl(FLParams(n_sites=2, seed=seed), "rhs")
    xs = lattice_first_stages(inst)
    ref = _worst_case_values_enumerating_every_x(inst, xs)
    calls = _count_enumerations(monkeypatch)
    got = worst_case_values(inst, xs)
    distinct = {_u_of_x_key(inst.U, x) for x in xs}
    assert len(calls) == len(distinct) < len(xs)
    for (val, u), (ref_val, ref_u) in zip(got, ref, strict=True):
        assert np.float64(val).tobytes() == np.float64(ref_val).tobytes()
        assert u.dtype == ref_u.dtype and u.tobytes() == ref_u.tobytes()
    # each worst u is an array of its own, also where two x share U(x)
    i, j = next((i, j) for i, j in itertools.combinations(range(len(xs)), 2)
                if _u_of_x_key(inst.U, xs[i]) == _u_of_x_key(inst.U, xs[j]))
    before = [u.copy() for _, u in got]
    got[i][1][:] = -1.0
    assert all(np.array_equal(u, b) for k, ((_, u), b) in enumerate(zip(got, before)) if k != i)
    assert np.array_equal(worst_case_values(inst, xs)[i][1], before[i])


def test_an_x_dependent_matrix_gets_its_own_vertices(monkeypatch):
    # U(x) = {u >= 0 : (1 + x) u <= 2}: h + G x is 2 at both x, F(x) is not
    inst = dataclasses.replace(t1(), U=UncertaintySet(
        F=AffineMatrixMap(base=[[1.0]], terms=((0, np.array([[1.0]])),)), G=[[0.0]], h=[2.0]))
    xs = [np.array([0.0]), np.array([1.0]), np.array([0.0])]
    calls = _count_enumerations(monkeypatch)
    got = worst_case_values(inst, xs)
    assert len(calls) == 2
    assert [(val, u.tolist()) for val, u in got] == [(2.0, [2.0]), (1.0, [1.0]), (2.0, [2.0])]


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


def _with_b1(inst, i, k, value):
    """inst with B1[i, k] = value: an instance's arrays are read-only, so a
    modified copy of B1 goes into a new instance."""
    B1 = inst.Y.B1.copy()
    B1[i, k] = value
    return dataclasses.replace(inst, Y=dataclasses.replace(inst.Y, B1=B1))


def _count_recourse_calls(monkeypatch):
    calls = []
    original = instances.recourse_value

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(instances, "recourse_value", counted)
    return calls


def test_a_later_vertex_without_recourse_is_found_by_halving_the_block_lp(monkeypatch):
    # 0 <= y <= u - 1: the first vertex u = 2 has recourse, u = 0 has none
    inst = _interval_toy(B2=[[1.0], [-1.0]], E=[[0.0], [1.0]], d=[0.0, 1.0],
                         c2=[1.0])
    x = np.array([0.0])
    assert np.array_equal(enumerate_vertices(inst.U, x), [[2.0], [0.0]])
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    val, u = worst_case_values(inst, [x])[0]
    assert val == np.inf and np.array_equal(u, [0.0])
    # the first vertex's shortfall, the failed block LP over both vertices,
    # then one block LP per vertex, whose status is the verdict
    assert lps == [("recourse_shortfall", backend.OPTIMAL),
                   ("recourse_block", backend.INFEASIBLE),
                   ("recourse_block", backend.OPTIMAL),
                   ("recourse_block", backend.INFEASIBLE)]
    assert calls == []
    ref_val, ref_u = _worst_case_by_loop(inst, x)
    assert val == ref_val and np.array_equal(u, ref_u)


def test_worst_case_stops_at_a_first_vertex_without_recourse(monkeypatch):
    # y <= 1 - u: the first vertex u = 2 has no recourse
    inst = _interval_toy(B2=[[1.0], [-1.0]], E=[[0.0], [-1.0]], d=[0.0, -1.0],
                         c2=[1.0])
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    val, u = worst_case_values(inst, [np.array([0.0])])[0]
    assert val == np.inf and np.array_equal(u, [2.0])
    assert lps == [("recourse_shortfall", backend.OPTIMAL),
                   ("recourse", backend.INFEASIBLE)]
    assert [c[0] for c in calls] == [2.0]


def test_worst_case_with_finite_recourse_solves_one_block_lp(monkeypatch):
    # y >= u at cost 1: a shortfall LP for the first vertex, one LP for both
    # blocks
    inst = _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0])
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    val, u = worst_case_values(inst, [np.array([0.0])])[0]
    assert val == pytest.approx(2.0) and np.array_equal(u, [2.0])
    assert lps == [("recourse_shortfall", backend.OPTIMAL),
                   ("recourse_block", backend.OPTIMAL)]
    assert calls == []


def test_worst_case_of_an_unbounded_recourse_is_minus_inf():
    # min -y over y >= u is unbounded at every vertex
    inst = _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[-1.0])
    x = np.array([0.0])
    val, u = worst_case_values(inst, [x])[0]
    assert val == -np.inf and np.array_equal(u, [2.0])
    ref_val, ref_u = _worst_case_by_loop(inst, x)
    assert val == ref_val and np.array_equal(u, ref_u)


def test_a_recourse_block_lp_that_ends_numerical_raises(monkeypatch):
    # U = {0 <= u <= 0} has the one vertex u = 0, so the block LP has one
    # copy, and a Numerical one is no verdict on the pair
    inst = dataclasses.replace(
        _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[0.0]], h=[0.0]))
    blocks, solve_lp = [], backend.solve_lp

    def numerical(model):
        if model.name != "recourse_block":
            return solve_lp(model)
        blocks.append(model.n_vars)
        return backend.SolveOutcome(status=backend.NUMERICAL)

    monkeypatch.setattr(backend, "solve_lp", numerical)
    with pytest.raises(backend.BackendError, match="recourse solve ended Numerical"):
        worst_case_values(inst, [np.array([0.0])])
    assert blocks == [1]


def test_worst_case_with_integer_recourse_takes_the_loop():
    # 4 y >= u with y integer: y = 1 at u = 2, where the LP relaxation has 1/2
    inst = _interval_toy(B2=[[4.0]], E=[[-1.0]], d=[0.0], c2=[1.0], n_int_y=1)
    val, u = worst_case_values(inst, [np.array([0.0])])[0]
    assert val == pytest.approx(1.0) and np.array_equal(u, [2.0])


# -- the batch path: block LPs over many first stages, narrowed on failure ------

XS2 = [np.array([0.0]), np.array([1.0])]


def _record_lps(monkeypatch):
    """(model name, status) of every LP solve, in order."""
    lps = []
    original = backend.solve_lp

    def recorded(model, *args, **kwargs):
        out = original(model, *args, **kwargs)
        lps.append((model.name, out.status))
        return out

    monkeypatch.setattr(backend, "solve_lp", recorded)
    return lps


def test_one_shortfall_lp_finds_every_first_vertex_without_recourse(monkeypatch):
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs")
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    misses = []
    original = instances._no_recourse

    def counted(inst, run):
        out = original(inst, run)
        misses.extend(m.tolist() for m in out)
        return out

    monkeypatch.setattr(instances, "_no_recourse", counted)
    assert oracle_exact(inst).value == pytest.approx(-51406.065233899, rel=1e-12)
    worst = [lp for lp in lps if lp[0] != "xfill"]
    # 58 of the 64 first vertices have no recourse, all found by one
    # shortfall LP and one of them audited; the 6 other x share one LP over
    # all of their vertices
    assert sorted(misses) == [[False]] * 6 + [[True]] * 58
    assert worst == [("recourse_shortfall", backend.OPTIMAL),
                     ("recourse", backend.INFEASIBLE),
                     ("recourse_block", backend.OPTIMAL)]
    assert len(calls) == 1


def test_the_oracle_solves_no_recourse_pair_twice_with_integer_y(monkeypatch):
    # the shortfall screen once solved each first vertex's recourse MIP, and
    # the per-vertex loop solved it again
    pairs = []
    original = instances.recourse_value

    def recorded(inst, x, u):
        pairs.append((np.asarray(x, dtype=float).tobytes(),
                      np.asarray(u, dtype=float).tobytes()))
        return original(inst, x, u)

    monkeypatch.setattr(instances, "recourse_value", recorded)
    oracle_exact(gen_mip_recourse_fl(FLParams(n_sites=2, seed=0)))
    assert pairs and len(set(pairs)) == len(pairs)


def test_a_failed_shortfall_lp_is_solved_once_and_decided_per_vertex(monkeypatch):
    # y >= u and y <= 1: the first vertex u = 2 of either x has no
    # recourse. A Numerical shortfall LP is dropped whole, not narrowed by
    # halves, and recourse_value decides each first vertex, to the same
    # worst cases
    inst = _interval_toy(B2=[[1.0], [-1.0]], E=[[-1.0], [0.0]], d=[0.0, -1.0],
                         c2=[1.0])
    reference = instances.worst_case_values(inst, XS2)
    solve_lp = backend.solve_lp

    def numerical(model):
        out = solve_lp(model)
        return SolveOutcome(status=backend.NUMERICAL) if model.name == "recourse_shortfall" else out

    monkeypatch.setattr(backend, "solve_lp", numerical)
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    got = instances.worst_case_values(inst, XS2)
    assert lps == [("recourse_shortfall", backend.NUMERICAL),
                   ("recourse", backend.INFEASIBLE), ("recourse", backend.INFEASIBLE)]
    assert [u.tolist() for u in calls] == [[2.0], [2.0]]
    assert [(value, u.tolist()) for value, u in got] == [
        (value, u.tolist()) for value, u in reference] == [(np.inf, [2.0])] * 2


def test_first_stages_of_many_matrices_share_one_shortfall_lp(monkeypatch):
    # 2-site fl-lhs at seed 0: the 64 first stages over 19 matrices F(x)
    # make two runs, as their 1264 vertices hold 10112 nonzeros of B2, past
    # backend._COPIES_NONZEROS: one shortfall LP and one block LP a run and
    # one audit, where the grouping by F(x) took 19 shortfall LPs and 15
    # audits
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0), "lhs")
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    res = oracle_exact(inst)
    assert res.value == pytest.approx(-51207.92549966348, rel=1e-12)
    assert len({inst.U.F.evaluate(x).tobytes() for x, _ in res.evaluations}) == 19
    assert [lp for lp in lps if lp[0] != "xfill"] == [
        ("recourse_shortfall", backend.OPTIMAL), ("recourse", backend.INFEASIBLE),
        ("recourse_block", backend.OPTIMAL), ("recourse_shortfall", backend.OPTIMAL),
        ("recourse_block", backend.OPTIMAL)]
    assert len(calls) == 1


def test_a_failed_vertex_batch_is_narrowed_by_halves(monkeypatch):
    # 0 <= y <= u - 1: both first vertices u = 2 have recourse, u = 0 has none
    inst = _interval_toy(B2=[[1.0], [-1.0]], E=[[0.0], [1.0]], d=[0.0, 1.0],
                         c2=[1.0])
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    got = instances.worst_case_values(inst, XS2)
    # first vertices in one shortfall LP, every pair in a block LP that fails,
    # then each x's half, which fails too, then each of its vertices
    per_x = [("recourse_block", backend.INFEASIBLE), ("recourse_block", backend.OPTIMAL),
             ("recourse_block", backend.INFEASIBLE)]
    assert lps == [("recourse_shortfall", backend.OPTIMAL),
                   ("recourse_block", backend.INFEASIBLE)] + per_x + per_x
    assert calls == []
    for x, (val, u) in zip(XS2, got):
        ref_val, ref_u = _worst_case_by_loop(inst, x)
        assert val == ref_val == np.inf and np.array_equal(u, ref_u)


def test_the_batch_path_of_an_unbounded_recourse_is_minus_inf(monkeypatch):
    # min -y over y >= u: every pair has recourse, so the shortfall LP finds
    # none, and every block LP is unbounded, down to single pairs
    inst = _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[-1.0])
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    got = instances.worst_case_values(inst, XS2)
    assert lps == [("recourse_shortfall", backend.OPTIMAL)] + [
        ("recourse_block", backend.UNBOUNDED)] * 7
    assert calls == []
    for x, (val, u) in zip(XS2, got):
        ref_val, ref_u = _worst_case_by_loop(inst, x)
        assert val == ref_val == -np.inf and np.array_equal(u, ref_u)


def test_the_batch_path_of_an_integer_recourse_takes_the_loop(monkeypatch):
    # 4 y >= u with y integer: no block LP and no shortfall screen; per x,
    # one run, the loop's MIP at each vertex once
    inst = _interval_toy(B2=[[4.0]], E=[[-1.0]], d=[0.0], c2=[1.0], n_int_y=1)
    lps = _record_lps(monkeypatch)
    calls = _count_recourse_calls(monkeypatch)
    got = instances.worst_case_values(inst, XS2)
    assert lps == []
    assert [c[0] for c in calls] == [2.0, 0.0, 2.0, 0.0]
    for val, u in got:
        assert val == pytest.approx(1.0) and np.array_equal(u, [2.0])


def test_the_loop_of_an_integer_recourse_stops_at_the_first_vertex_without_one(monkeypatch):
    # y <= 1 - u with y integer: u = 2, the first vertex, has no recourse,
    # so the loop values no later vertex of the x, which is worth +inf there
    inst = _interval_toy(B2=[[-1.0]], E=[[-1.0]], d=[-1.0], c2=[1.0], n_int_y=1)
    calls = _count_recourse_calls(monkeypatch)
    got = instances.worst_case_values(inst, XS2)
    assert [c[0] for c in calls] == [2.0, 2.0]
    for val, u in got:
        assert val == np.inf and np.array_equal(u, [2.0])


def test_the_x_with_recourse_at_every_vertex_keep_their_half_of_the_block_lp(monkeypatch):
    # 0 <= y <= u + x - 1: at x = 0 the vertex u = 0 has no recourse, at
    # x = 1 every vertex has
    inst = _with_b1(_interval_toy(B2=[[1.0], [-1.0]], E=[[0.0], [1.0]], d=[0.0, 1.0],
                                  c2=[1.0]), 1, 0, 1.0)
    lps = _record_lps(monkeypatch)
    got = instances.worst_case_values(inst, XS2)
    # the block LP over both x fails, x = 0's half fails down to its
    # vertices, x = 1's half is Optimal
    assert lps == [("recourse_shortfall", backend.OPTIMAL),
                   ("recourse_block", backend.INFEASIBLE),
                   ("recourse_block", backend.INFEASIBLE),
                   ("recourse_block", backend.OPTIMAL),
                   ("recourse_block", backend.INFEASIBLE),
                   ("recourse_block", backend.OPTIMAL)]
    assert got[0][0] == np.inf and np.array_equal(got[0][1], [0.0])
    assert got[1][0] == pytest.approx(0.0, abs=1e-9)
    for x, (val, u) in zip(XS2, got):
        ref_val, ref_u = _worst_case_by_loop(inst, x)
        assert val == pytest.approx(ref_val, abs=1e-9) and np.array_equal(u, ref_u)


# -- the shortfall verdict against recourse_value --------------------------------

def _near_miss_toy(miss, scale, k, first):
    """_interval_toy with rows k y >= k s and k y <= k (s (1 - miss) + s u / 2):
    the vertex u = 0 misses recourse by a relative miss. When first is set,
    u is replaced by 2 - u, so the first vertex u = 2 misses instead."""
    e = -scale / 2 if first else scale / 2
    return _interval_toy(B2=[[k], [-k]], E=[[0.0], [k * e]],
                         d=[k * scale, -k * scale * (2 - miss if first else 1 - miss)],
                         c2=[1.0])


@pytest.mark.parametrize("first", [False, True], ids=["later", "first"])
@pytest.mark.parametrize("scale, k", [(1.0, 1.0), (1e4, 1.0), (1e-3, 1e-4), (1.0, 1e-4)],
                         ids=["unit", "large", "tiny", "tiny-rows"])
@pytest.mark.parametrize("miss", [1e-9, 1e-6, 1e-3])
def test_a_near_miss_gets_the_verdict_of_recourse_value(miss, scale, k, first):
    # HiGHS holds the rows it has scaled to an absolute 1e-7: at "unit" a
    # miss of 1e-9 has recourse, at "large" it has none, and at "tiny" the
    # shortfall LP leaves a positive shortfall where the pair has recourse
    inst = _near_miss_toy(miss, scale, k, first)
    x = np.array([0.0])
    verts = enumerate_vertices(inst.U, x)
    ref = np.array([recourse_value(inst, x, u)[0] == np.inf for u in verts])
    [mask] = instances._no_recourse(inst, [(x, verts)])
    # the shortfall LP divides each row by its largest |entry|, so at
    # "tiny-rows" too it finds the pairs without recourse itself
    assert np.array_equal(mask, ref)
    val, u = worst_case_values(inst, [x])[0]
    ref_val, ref_u = _worst_case_by_loop(inst, x)
    assert val == pytest.approx(ref_val, rel=1e-9) and np.array_equal(u, ref_u)


@pytest.mark.parametrize("first", [False, True], ids=["later", "first"])
@pytest.mark.parametrize("miss", [1e-6, 1e-3])
def test_rows_of_tiny_entries_cost_no_more_recourse_calls_than_unit_rows(
        monkeypatch, miss, first):
    # the "tiny-rows" toy against the "unit" one: the same verdict and as
    # many recourse_value calls. At "first" that is one, the check of the
    # pair the shortfall LP finds (with a unit shortfall column the tiny rows
    # would read shortfall 0); at "later" none, as the block LP's halves decide.
    calls = _count_recourse_calls(monkeypatch)
    x = np.array([0.0])
    seen = []
    for k in (1.0, 1e-4):
        inst = _near_miss_toy(miss, 1.0, k, first)
        calls.clear()
        val, u = worst_case_values(inst, [x])[0]
        seen.append((val, u.tolist(), len(calls)))
    assert seen[0] == seen[1] == (np.inf, [2.0] if first else [0.0], int(first))


def test_a_tiny_shortfall_beside_a_miss_gets_the_verdict_of_recourse_value():
    # the "tiny" toy at a miss of 1e-9, where x = 1 also halves the cap on y:
    # in one run, u = 0 misses recourse at x = 1 and leaves a positive
    # shortfall of 1e-16 at x = 0, where it has recourse
    inst = _with_b1(_near_miss_toy(1e-9, 1e-3, 1e-4, False), 1, 0, -0.5e-7)
    xs = [np.array([1.0]), np.array([0.0])]
    verts = enumerate_vertices(inst.U, xs[0])
    ref = [[recourse_value(inst, x, u)[0] == np.inf for u in verts] for x in xs]
    assert ref == [[False, True], [False, False]]
    assert [m.tolist() for m in instances._no_recourse(inst, [(x, verts) for x in xs])] == ref
    for x, (val, u) in zip(xs, worst_case_values(inst, xs)):
        ref_val, ref_u = _worst_case_by_loop(inst, x)
        assert val == pytest.approx(ref_val, rel=1e-9) and np.array_equal(u, ref_u)


def test_a_shortfall_lp_that_fails_its_audit_leaves_every_pair_to_recourse_value(
        monkeypatch):
    # y >= u at cost 1: every pair has recourse, but a wrong shortfall LP
    # reports one at every pair
    inst = _interval_toy(B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0])
    original = instances._block_recourse_values

    def wrong(inst, run):
        return [v + 1.0 for v in original(inst, run)]

    monkeypatch.setattr(instances, "_block_recourse_values", wrong)
    calls = _count_recourse_calls(monkeypatch)
    got = worst_case_values(inst, XS2)
    # the audit at x = 0, then each first vertex
    assert [c[0] for c in calls] == [2.0, 2.0, 2.0]
    for val, u in got:
        assert val == pytest.approx(2.0) and np.array_equal(u, [2.0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_worst_case_matches_the_loop_on_random_recourse_systems(seed):
    # <= 3 y, <= 3 rows and a box U(x) = {0 <= u <= h + G x} over two binary
    # x; some B2 rows are zero or one-signed, so that many pairs have no
    # recourse, and c2 >= 0 keeps the recourse bounded
    rng = np.random.default_rng(seed)
    n_u, n_y, n_rows = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    B2 = rng.choice([-1.0, 0.0, 1.0], size=(n_rows, n_y)) * rng.uniform(0.5, 2.0, (n_rows, n_y))
    inst = Instance(
        name="random", c1=[0.0, 0.0],
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=2, ub=[1.0, 1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=np.eye(n_u)),
                         G=rng.integers(0, 2, size=(n_u, 2)).astype(float),
                         h=rng.uniform(0.5, 2.0, n_u)),
        Y=RecourseSet(B1=rng.uniform(-1.0, 1.0, (n_rows, 2)), B2=B2,
                      E=rng.uniform(-1.0, 1.0, (n_rows, n_u)),
                      d=rng.uniform(-1.0, 1.0, n_rows), c2=rng.uniform(0.0, 1.0, n_y)))
    xs = [np.array(x, dtype=float) for x in itertools.product([0, 1], repeat=2)]
    for x, (val, u) in zip(xs, worst_case_values(inst, xs)):
        ref_val, ref_u = _worst_case_by_loop(inst, x)
        assert val == pytest.approx(ref_val, rel=1e-9, abs=1e-9)
        if val == np.inf:
            assert np.array_equal(u, ref_u)
        else:
            # u attains the max; equal values may break the tie elsewhere
            assert recourse_value(inst, x, u)[0] == pytest.approx(ref_val, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("shortfall", [False, True], ids=["value", "shortfall"])
def test_a_block_lp_is_the_model_built_one_vertex_at_a_time(monkeypatch, shortfall):
    # B2 rows of different largest entries and a zero row, so that the
    # shortfall LP divides its rows by different scales
    rng = np.random.default_rng(3)
    B2 = rng.uniform(-2.0, 2.0, (3, 2)) * [[1.0], [1e-4], [0.0]]
    B2[0, 1] = 0.0
    inst = _interval_toy(B2=B2, E=rng.uniform(-1.0, 1.0, (3, 1)), d=rng.uniform(-1, 1, 3),
                         c2=[1.0, 0.0])
    run = [(x, enumerate_vertices(inst.U, x)) for x in XS2]
    models = []
    real = backend.solve_lp
    monkeypatch.setattr(backend, "solve_lp", lambda m: models.append(m) or real(m))
    if shortfall:
        instances._block_recourse_values(inst, run)
    else:
        instances._worst_vertices(inst, run)
    got = models[0]

    Y = inst.Y
    xs = np.vstack([np.tile(x, (len(v), 1)) for x, v in run])
    rhs = Y.d - xs @ Y.B1.T - np.vstack([v for _, v in run]) @ Y.E.T
    scale = np.abs(Y.B2).max(axis=1) if shortfall else np.ones(3)
    scale[scale == 0.0] = 1.0
    # the columns of each pair, y then s, before the next pair's
    ref, ys, ss = LinearModel(), [], []
    for r in rhs:
        ys.append(ref.add_vars(2))
        ss.append(ref.add_vars(3 if shortfall else 0))
        ref.add_rows([(ys[-1], Y.B2 / scale[:, None]), (ss[-1], np.eye(3, len(ss[-1])))],
                     GEQ, r / scale)
    A, senses, b = sparse(got)
    A_ref, senses_ref, b_ref = sparse(ref)
    for a, a_ref in ((A.data, A_ref.data), (A.indices, A_ref.indices),
                     (A.indptr, A_ref.indptr), (b, b_ref)):
        assert np.array_equal(a, a_ref)
    assert senses.tolist() == senses_ref.tolist() == [GEQ] * len(b)
    assert all(np.array_equal(c, c_ref) for c, c_ref in zip(got.columns(), ref.columns()))
    c_ref = np.zeros(ref.n_vars)
    if shortfall:
        c_ref[np.concatenate(ss)] = 1.0
    else:
        c_ref[np.concatenate(ys)] = np.tile(Y.c2, len(ys))
    assert np.array_equal(got.objective_vector(), c_ref)


def _no_completion_toy(B1=np.zeros((1, 3))):
    # x2 <= x0 + x1 and x2 >= 1/2, x2 separable unless B1 reads it: (0, 0)
    # has no completion
    return Instance(
        name="no-completion", c1=[0.0, 0.0, 1.0],
        X=FirstStageSet(A=[[1.0, 1.0, -1.0], [0.0, 0.0, 1.0]], b=[0.0, 0.5],
                        n_int=2, ub=[1.0, 1.0, np.inf]),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=np.zeros((1, 3)),
                         h=[1.0]),
        Y=RecourseSet(B1=B1, B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0]))


def test_an_assignment_without_completion_narrows_the_completion_batch(monkeypatch):
    inst = _no_completion_toy()
    lps = _record_lps(monkeypatch)
    res = oracle_exact(inst)
    fills = [status for name, status in lps if name == "xfill"]
    # the LP of all four, then by halves: (0, 0) and (0, 1), (0, 0) alone,
    # (0, 1) alone, then (1, 0) and (1, 1)
    assert fills[0] != backend.OPTIMAL and fills[1] != backend.OPTIMAL
    assert fills[2:] == [backend.INFEASIBLE, backend.OPTIMAL, backend.OPTIMAL]
    assert [x.tolist() for x, _ in res.evaluations] == \
        [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [1.0, 1.0, 0.5]]
    assert res.value == pytest.approx(1.5)


@pytest.mark.parametrize("budget, n_lps", [
    # ddu_uk5: 10 first stages with 4 vertices each; a recourse copy holds
    # the 80 nonzeros of B2, a shortfall copy those and 15 more, and a
    # completion copy the 65 of X.A; a run of x takes a shortfall LP over
    # its first vertices and a block LP over every vertex, 4 x 80 an x
    (650, 1 + 5 + 5),      # 10 completions, two x per run
    (639, 2 + 10 + 10),    # 9 + 1 completions, one x per run
    # no batch of two fits: every LP serves one x, and no recourse block LP
    # holds more than one of an x's 4 vertices
    (1, 10 + 10 + 10 * 4),
])
def test_block_lps_are_cut_at_the_entry_budget(monkeypatch, budget, n_lps):
    inst = gen_reliable_pmedian(PMedianParams(n_sites=5), "ddu_uk")
    ref = oracle_exact(inst)
    monkeypatch.setattr(backend, "_COPIES_NONZEROS", budget)
    lps = _record_lps(monkeypatch)
    res = oracle_exact(dataclasses.replace(inst))
    assert len(lps) == n_lps
    assert res.value == ref.value and np.array_equal(res.x, ref.x)
    assert np.array_equal(res.worst_u, ref.worst_u)
    assert [(x.tolist(), v) for x, v in res.evaluations] == \
        [(x.tolist(), v) for x, v in ref.evaluations]


# -- the completion of coupled continuous first stages --------------------------

def _complete_by_loop(inst, run, coupled, sep):
    """Reference for _complete_continuous: one assignment at a time, a range
    probe per coupled x and sense, then one LP per grid point."""
    for x_int in run:
        yield from _complete_one(inst, x_int, coupled, sep)


def _complete_one(inst, x_int, coupled, sep):
    X = inst.X
    if X.n_int == inst.dim_x:
        if np.all(X.A @ x_int >= X.b - 1e-9):
            yield x_int.copy()
        return
    m = LinearModel(name="xfill")
    ids = add_first_stage(m, inst)
    m.set_bounds(ids[:X.n_int], x_int[:X.n_int], x_int[:X.n_int])
    if coupled and not backend.solve_lp(m).is_optimal:
        return
    free = []
    for k in coupled:
        bounds = []
        for sense in ("min", "max"):
            m.set_objective({ids[k]: 1.0}, sense=sense)
            out = backend.solve_lp(m)
            if out.status == backend.UNBOUNDED:
                raise OracleError(f"coupled x[{k}] unbounded over X")
            if not out.is_optimal:
                return
            bounds.append(out.objective)
        lo, hi = bounds
        if hi - lo <= 1e-9 * max(1.0, abs(hi)):
            m.set_bounds(ids[k], 0.5 * (lo + hi), 0.5 * (lo + hi))
        else:
            free.append((k, lo, hi))
    if len(free) > 2:
        raise OracleError(f"{len(free)} free coupled continuous dims exceed the grid limit")
    m.set_objective({ids[k]: inst.c1[k] for k in sep})
    grids = [np.linspace(lo, hi, instances._GRID) for _, lo, hi in free]
    for combo in itertools.product(*grids):
        for (k, _, _), v in zip(free, combo):
            m.set_bounds(ids[k], v, v)
        out = backend.solve_lp(m)
        if out.status == backend.UNBOUNDED:
            raise OracleError("separable continuous block unbounded below")
        if out.is_optimal:
            yield out.x


def _oracle_output(res):
    """Everything oracle_exact returns, as bytes where it is an array."""
    return (res.value, res.x.tobytes(), res.worst_u.tobytes(),
            [(x.tobytes(), v) for x, v in res.evaluations])


def _by_loop(monkeypatch):
    monkeypatch.setattr(instances, "_complete_continuous", lambda inst, *args: np.array(
        list(_complete_by_loop(inst, *args))).reshape(-1, inst.dim_x))


def _completions(monkeypatch, inst):
    """The first stages oracle_exact hands to worst_case_values, as bytes;
    its output is a function of them, so the worst cases are skipped."""
    seen = []

    def skipped(inst, xs):
        seen.extend(x.tobytes() for x in xs)
        return [(0.0, np.zeros(inst.dim_u))] * len(xs)

    monkeypatch.setattr(instances, "worst_case_values", skipped)
    oracle_exact(inst)
    return seen


@pytest.mark.parametrize("dependence, seed", [
    ("rhs", 0), ("rhs", 1), ("rhs", 2), ("rhs", 3), ("lhs", 0)])
def test_completion_matches_the_per_grid_point_loop(monkeypatch, dependence, seed):
    inst = gen_robust_fl(FLParams(n_sites=2, seed=seed), dependence)
    got = _completions(monkeypatch, inst)
    _by_loop(monkeypatch)
    assert len(got) == 64 and got == _completions(monkeypatch, dataclasses.replace(inst))


def test_a_run_of_coupled_assignments_shares_six_lps(monkeypatch):
    # fl-rhs with 2 sites: 4 assignments, 2 coupled capacities, a 7 x 7 grid;
    # a min and a max LP per capacity and one grid LP, where one assignment
    # at a time took 84
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs")
    lps = _record_lps(monkeypatch)
    _completions(monkeypatch, inst)
    assert lps == [("xfill", backend.OPTIMAL)] * 5
    _by_loop(monkeypatch)
    lps.clear()
    _completions(monkeypatch, dataclasses.replace(inst))
    assert len(lps) == 84


def _grid_toy(c1, ub3=1.0):
    """One binary x0 and coupled x1, x2 in [0, 1] with x1 + x2 <= 3/2 + x0, so
    the corner of the 7 x 7 grid has no completion at x0 = 0; x3 in [0, ub3]
    is separable, and so is x4 in [0, 1]. The recourse y >= u + x1 + x2 pays
    y over U = {0 <= u <= 1}."""
    return Instance(
        name="grid-toy", c1=c1,
        X=FirstStageSet(A=[[1.0, -1.0, -1.0, 0.0, 0.0]], b=[-1.5], n_int=1,
                        ub=[1.0, 1.0, 1.0, ub3, 1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=np.zeros((1, 5)),
                         h=[1.0]),
        Y=RecourseSet(B1=[[0.0, -1.0, -1.0, 0.0, 0.0]], B2=[[1.0]], E=[[-1.0]],
                      d=[0.0], c2=[1.0]))


def test_a_grid_point_without_completion_narrows_the_grid_lp(monkeypatch):
    inst = _grid_toy([1.0, -0.5, -2.0, 1.0, -1.0])
    lps = _record_lps(monkeypatch)
    res = oracle_exact(inst)
    fills = [status for name, status in lps if name == "xfill"]
    # 4 probes, the run's grid LP of 98 points, then by halves: x0 = 0's 49
    # points (6 without completion) take 29 LPs, x0 = 1's 49 one
    assert fills[:4] == [backend.OPTIMAL] * 4
    assert len(fills) == 4 + 1 + 29 + 1
    assert fills[4] != backend.OPTIMAL and fills[5] != backend.OPTIMAL
    assert fills.count(backend.INFEASIBLE) >= 6 and fills[-1] == backend.OPTIMAL
    assert len(res.evaluations) == 43 + 49
    got = _oracle_output(res)
    _by_loop(monkeypatch)
    assert got == _oracle_output(oracle_exact(dataclasses.replace(inst)))


@pytest.mark.parametrize("make, message", [
    # x3 in B1 as well, unbounded above
    (lambda: _with_coupled_x3(_grid_toy([0.0] * 5, ub3=np.inf)),
     r"coupled x\[3\] unbounded over X"),
    # x3 in B1 as well, bounded: three free coupled x at both assignments
    (lambda: _with_coupled_x3(_grid_toy([0.0] * 5)), "3 free coupled"),
    # x3 separable and unbounded below
    (lambda: _grid_toy([0.0, 0.0, 0.0, -1.0, 0.0], ub3=np.inf),
     "separable continuous block unbounded below"),
], ids=["coupled-unbounded", "three-free", "separable-unbounded"])
def test_the_completion_raises_what_the_loop_raises(monkeypatch, make, message):
    with pytest.raises(OracleError, match=message) as got:
        oracle_exact(make())
    _by_loop(monkeypatch)
    with pytest.raises(OracleError) as ref:
        oracle_exact(make())
    assert str(got.value) == str(ref.value)


def _with_coupled_x3(inst):
    return _with_b1(inst, 0, 3, -1.0)


def test_an_assignment_with_three_free_dims_narrows_in_order(monkeypatch):
    # x3 <= x0 pins x3 at x0 = 0, so only x0 = 1 leaves three coupled x free:
    # the run raises before it yields, while the loop first completes x0 = 0
    toy = _with_coupled_x3(_grid_toy([0.0] * 5))
    inst = dataclasses.replace(toy, X=dataclasses.replace(
        toy.X, A=np.vstack([toy.X.A, [1.0, 0.0, 0.0, -1.0, 0.0]]), b=[-1.5, 0.0]))
    args = ([np.zeros(1), np.ones(1)], [1, 2, 3], [4])
    seen = {}
    for complete in (instances._complete_continuous, _complete_by_loop):
        seen[complete] = []
        with pytest.raises(OracleError, match="3 free coupled"):
            for x in complete(inst, *args):
                seen[complete].append(x.tobytes())
    assert seen[instances._complete_continuous] == []
    got = [np.frombuffer(x) for x in seen[_complete_by_loop]]
    assert len(got) == 43 and all(x[0] == 0.0 and x[3] == 0.0 for x in got)


def test_a_run_without_completions_ends_at_its_first_probe(monkeypatch):
    # x2 coupled through the recourse, one assignment per run: the min probe
    # of (0, 0) finds no completion and its run solves no further LP; each
    # other run takes a min and a max probe and the grid's _GRID copies, one
    # LP each at this budget
    inst = _no_completion_toy(B1=np.array([[0.0, 0.0, 1.0]]))
    monkeypatch.setattr(backend, "_COPIES_NONZEROS", 1)
    lps = _record_lps(monkeypatch)
    got = _oracle_output(oracle_exact(inst))
    assert [s for name, s in lps if name == "xfill"] == \
        [backend.INFEASIBLE] + [backend.OPTIMAL] * 3 * (2 + instances._GRID)
    _by_loop(monkeypatch)
    assert got == _oracle_output(oracle_exact(dataclasses.replace(inst)))


@pytest.mark.parametrize("budget, n_fills", [
    # fl-rhs with 2 sites: 4 assignments of 49 grid copies of X.A, a 4 x 4
    # matrix of 6 nonzeros
    (4 * 49 * 6, 5),           # one run
    (4 * 49 * 6 - 1, 5 + 5),   # a run of 3 and a run of 1
    # one assignment per run, and one copy per LP: 4 probes each, and the
    # 1 + 7 + 7 + 49 copies of their grids
    (1, 4 * 4 + 64),
])
def test_completion_lps_are_cut_at_the_entry_budget(monkeypatch, budget, n_fills):
    inst = gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs")
    ref = _completions(monkeypatch, inst)
    monkeypatch.setattr(backend, "_COPIES_NONZEROS", budget)
    lps = _record_lps(monkeypatch)
    assert _completions(monkeypatch, dataclasses.replace(inst)) == ref
    assert lps == [("xfill", backend.OPTIMAL)] * n_fills


def test_runs_cut_at_the_cap_and_isolate_an_oversized_item():
    runs = backend._runs([3, 1, 1, 5, 1], 4, size=lambda s: s)
    assert list(runs) == [[3, 1], [1], [5], [1]]


def _copies_nonzeros(monkeypatch):
    """The nonzeros of A that HiGHS receives in each LP of more than one
    copy, in order."""
    sizes, pending = [], []
    copies_lp, highs = backend.copies_lp, backend._highs

    def counted_copies(name, A, senses, rhs, *args):
        pending.append(len(rhs))
        return copies_lp(name, A, senses, rhs, *args)

    def counted_highs(a, options):
        # the LP of copies_lp is the next one HiGHS solves
        if pending and pending.pop() > 1:
            sizes.append(a.data.size)
        return highs(a, options)

    monkeypatch.setattr(backend, "copies_lp", counted_copies)
    monkeypatch.setattr(backend, "_highs", counted_highs)
    return sizes


@pytest.mark.parametrize("case", ["pm_uk8-parametric", "pm_uk8-oracle", "pm_uk10-lattice"])
def test_no_lp_over_copies_passes_the_nonzero_bound(monkeypatch, case):
    # with runs by dense sizes pm_uk8's first lattice master held 20384
    # nonzeros and its recourse blocks 11200; the 10-site lattice's 120
    # completion copies hold more than the bound
    inst = gen_reliable_pmedian(PMedianParams(n_sites=10 if "10" in case else 8, seed=0),
                                "ddu_uk")
    sizes = _copies_nonzeros(monkeypatch)
    if case == "pm_uk8-parametric":
        assert run(inst, AlgorithmConfig(variant="parametric")).status == "Optimal"
    elif case == "pm_uk8-oracle":
        oracle_exact(inst)
    else:
        lattice_first_stages(inst)
    assert backend._COPIES_NONZEROS / 2 < max(sizes) <= backend._COPIES_NONZEROS


def test_an_x_a_of_zero_columns_forms_one_completion_run(monkeypatch):
    # 3 binaries with x0 + x1 + x2 >= 1 and 2000 separable continuous x in
    # no row of X: the 7 points' copies hold 21 nonzeros of X.A, though
    # they hold 7 x 2003 entries
    n = 2000
    inst = Instance(
        name="zero-columns", c1=np.r_[np.zeros(3), np.ones(n)],
        X=FirstStageSet(A=np.r_[np.ones(3), np.zeros(n)][None], b=[1.0], n_int=3,
                        ub=np.ones(3 + n)),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=np.zeros((1, 3 + n)), h=[1.0]),
        Y=RecourseSet(B1=np.zeros((1, 3 + n)), B2=[[1.0]], E=[[-1.0]], d=[0.0], c2=[1.0]))
    assert 7 * inst.X.A.size > backend._COPIES_NONZEROS
    lps = _record_lps(monkeypatch)
    xs = lattice_first_stages(inst)
    assert lps == [("xfill", backend.OPTIMAL)]
    assert len(xs) == 7 and all(x[:3].sum() >= 1 and not x[3:].any() for x in xs)
