"""Known wrong answers as tests (ROADMAP item 27).

Each case asserts what a run must do, not what it does today. A case that
breaks that today is a strict xfail naming its ROADMAP item, so a fix turns
it into an unexpected pass, which fails the suite until its marker goes.
Never add a marker to a case that passes, and never narrow the grids.

- Item 22's sweep: 2-site fl-rhs at generator seeds 0 and 1, parametric and
  benders, big_M 1e4 ... 1e15. A run returns the oracle's value within the
  run's tol with Optimal or GapReached, or ends in a status that claims no
  proof (Stalled, Numerical, TimeLimit) with a reason; either way with lb
  and ub on the right sides of the oracle's value. Or AlgorithmConfig
  refuses the big-M.
- Item 1's rows: fl_rhs5 s0 benders at 1e4, 1e5 and 1e6, fl_rhs8 s0 benders
  at 1e4 and 1e6. Item 1 asks more than the sweep: each returns the
  variants' common value with Optimal or GapReached, or the big-M is
  refused, since a run that ends without a proof is the defect itself.
- Item 18's two shapes of t1: U(x) empty at x = 1 only, and a recourse
  whose dual polyhedron is empty. run, under every variant, and
  oracle_exact agree: both give one value, with a status that claims it,
  or the oracle refuses and no run claims a proof.

The fl_rhs8 row at 1e4 alone takes about 1.8 s.
"""

import dataclasses

import numpy as np
import pytest

from ddu_ro import AlgorithmConfig, FLParams, gen_robust_fl, oracle_exact, run, t1
from ddu_ro.instances import OracleError
from ddu_ro.model import AffineMatrixMap, RecourseSet, UncertaintySet

PROVEN = ("Optimal", "GapReached")
NO_PROOF = ("Stalled", "Numerical", "TimeLimit")

# the oracle's values of 2-site fl-rhs at seeds 0 and 1
FL2_ORACLE = {0: -51406.065233899, 1: -37922.762986387716}
# the common value of every variant at big_M 1e4 (ROADMAP, Baseline); past
# oracle_exact's reach at 8 sites
FL_RHS_REFERENCE = {5: -116370.33629796721, 8: -147536.11034787944}

_ITEM_22 = "ROADMAP item 22: HiGHS's feasibility tolerance times big_M"
# (seed, variant): the big-M exponents whose runs break the contract today
_SWEEP_BROKEN = {
    (0, "parametric"): {11: "GapReached on a wrong value, lb above the optimum",
                        **dict.fromkeys(range(12, 15), "master infeasible")},
    (0, "benders"): dict.fromkeys(range(9, 15), "master infeasible"),
    (1, "parametric"): dict.fromkeys(range(11, 15), "master infeasible"),
    (1, "benders"): dict.fromkeys(range(10, 15), "master infeasible"),
}


def _sweep_cases():
    for (seed, variant), broken in _SWEEP_BROKEN.items():
        for e in range(4, 16):
            marks = ([pytest.mark.xfail(strict=True, reason=f"{_ITEM_22}: {broken[e]}")]
                     if e in broken else [])
            yield pytest.param(seed, variant, e, marks=marks, id=f"s{seed}-{variant}-1e{e}")


def _config(variant: str, M: float) -> AlgorithmConfig | None:
    """The run's configuration, or None where AlgorithmConfig refuses M
    with a stated reason."""
    try:
        return AlgorithmConfig(variant=variant, big_M=M)
    except ValueError as refused:
        assert str(refused)
        return None


def _assert_bounds(res, value: float, slack: float) -> None:
    assert res.lb <= value + slack and res.ub >= value - slack, (res.status, res.lb, res.ub)


@pytest.mark.parametrize("seed, variant, e", _sweep_cases())
def test_fl_rhs2_holds_the_contract_at_every_big_m(seed, variant, e):
    config = _config(variant, 10.0 ** e)
    if config is None:
        return
    res = run(gen_robust_fl(FLParams(n_sites=2, seed=seed), "rhs"), config)
    value = FL2_ORACLE[seed]
    slack = config.tol * abs(value)
    _assert_bounds(res, value, slack)
    if res.status in PROVEN:
        assert res.objective == pytest.approx(value, abs=slack)
    else:
        assert res.status in NO_PROOF and res.meta.get("reason"), res.status


_ITEM_1 = "ROADMAP item 1: big_M times HiGHS's integrality tolerance"


@pytest.mark.parametrize("n_sites, e", [
    (5, 4), (5, 5),
    pytest.param(5, 6, marks=pytest.mark.xfail(
        strict=True, reason=f"{_ITEM_1}: Numerical, sp2's audit -81675.450 vs -81694.897")),
    (8, 4),
    pytest.param(8, 6, marks=pytest.mark.xfail(
        strict=True, reason=f"{_ITEM_1}: Stalled, no objective")),
], ids=["fl_rhs5-1e4", "fl_rhs5-1e5", "fl_rhs5-1e6", "fl_rhs8-1e4", "fl_rhs8-1e6"])
def test_fl_rhs_benders_returns_the_reference_at_large_big_m(n_sites, e):
    config = _config("benders", 10.0 ** e)
    if config is None:
        return
    res = run(gen_robust_fl(FLParams(n_sites=n_sites, seed=0), "rhs"), config)
    value = FL_RHS_REFERENCE[n_sites]
    assert res.status in PROVEN, (res.status, res.meta.get("reason"))
    assert res.objective == pytest.approx(value, rel=config.tol)
    _assert_bounds(res, value, config.tol * abs(value))


def _empty_at_one():
    """t1 with U(x) = {u >= 0 : u <= 1 - 2x, u >= 1/2}: empty at x = 1 only."""
    return dataclasses.replace(t1(), name="T1-empty-at-1", U=UncertaintySet(
        F=AffineMatrixMap(base=[[1.0], [-1.0]]), G=[[-2.0], [0.0]], h=[1.0, -0.5]))


def _no_dual():
    """t1 with the recourse min{-y1 : y1 - y2 >= u}, unbounded at every u:
    its dual polyhedron {pi >= 0 : pi <= -1, -pi <= 0} is empty."""
    return dataclasses.replace(t1(), name="T1-no-dual", Y=RecourseSet(
        B1=np.zeros((1, 1)), B2=[[1.0, -1.0]], E=[[-1.0]], d=[0.0], c2=[-1.0, 0.0]))


_ITEM_18 = "ROADMAP item 18"


@pytest.mark.parametrize("make", [
    pytest.param(_empty_at_one, marks=pytest.mark.xfail(strict=True, reason=(
        f"{_ITEM_18}: every variant ends Optimal 1.0 and drops x = 1; the oracle "
        "raises 'nonemptiness violated'")), id="empty-U-at-x1"),
    pytest.param(_no_dual, marks=pytest.mark.xfail(strict=True, reason=(
        f"{_ITEM_18}: every variant ends Numerical; the oracle returns -inf")),
        id="empty-Pi"),
])
@pytest.mark.parametrize("variant", ["benders", "parametric", "parametric-modified", "basis"])
def test_run_and_the_oracle_agree_on_a_degenerate_t1(make, variant):
    inst = make()
    try:
        value = oracle_exact(inst).value
    except OracleError:
        value = None
    res = run(inst, AlgorithmConfig(variant=variant))
    if value is None:
        assert res.status in NO_PROOF and res.meta.get("reason"), res.status
    else:
        assert res.status not in NO_PROOF and res.objective == pytest.approx(value), (
            res.status, res.objective)
