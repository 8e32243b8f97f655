"""Value preservation and shape policing for the three structural rewrites."""

import itertools
import json
import re

import numpy as np
import pytest

from ddu_ro import backend, enumeration
from ddu_ro.instances import (enumerate_vertices, oracle_exact, recourse_value,
                              worst_case_values)
from ddu_ro.model import (AffineMatrixMap, FirstStageSet, Instance,
                          RecourseSet, UncertaintySet)
from ddu_ro.reformulations import _closure_counterexample, neutralize, normalize, order_switch


def _interdiction() -> Instance:
    # two sites serve one unit of demand; x = (p1, p2, m1, m2) with the
    # definitional rows m_i = 1 - p_i, so an unprotected site can be hit
    # by one attack (u_i <= m_i, budget one), losing its capacity
    A = np.array([[1.0, 0, 1, 0], [-1.0, 0, -1, 0],
                  [0, 1.0, 0, 1], [0, -1.0, 0, -1]])
    b = np.array([1.0, -1.0, 1.0, -1.0])
    return Instance(
        name="interdiction", c1=np.array([0.6, 0.6, 0.0, 0.0]),
        X=FirstStageSet(A=A, b=b, n_int=4, ub=np.ones(4)),
        U=UncertaintySet(
            F=AffineMatrixMap(base=np.array([[1.0, 0], [0, 1.0], [1.0, 1.0]])),
            G=np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0], [0, 0, 0, 0]]),
            h=np.array([0.0, 0.0, 1.0]), n_int_u=2),
        Y=RecourseSet(
            B1=np.zeros((3, 4)),
            B2=np.array([[1.0, 1.0, 1.0], [-1.0, 0, 0], [0, -1.0, 0]]),
            E=np.array([[0.0, 0], [-1.0, 0], [0, -1.0]]),
            d=np.array([1.0, -1.0, -1.0]),
            c2=np.array([1.0, 4.0, 50.0])))


def _dne() -> Instance:
    # x = (l1, l2, h1, h2) on an integer grid, ordered intervals; wide
    # limits are rewarded up front and charged by the worst deviation cost
    return Instance(
        name="dne", c1=np.array([1.0, 1.0, -2.0, -2.0]),
        X=FirstStageSet(A=np.array([[-1.0, 0, 1.0, 0], [0, -1.0, 0, 1.0]]),
                        b=np.zeros(2), n_int=4, ub=np.full(4, 2.0)),
        U=UncertaintySet(
            F=AffineMatrixMap(base=np.array([[1.0, 0], [0, 1.0],
                                             [-1.0, 0], [0, -1.0]])),
            G=np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0],
                        [-1.0, 0, 0, 0], [0, -1.0, 0, 0]]),
            h=np.zeros(4)),
        Y=RecourseSet(
            B1=np.zeros((4, 4)),
            B2=np.array([[1.0, 0], [0, 1.0], [1.0, 0], [0, 1.0]]),
            E=np.array([[-1.0, 0], [0, -1.0], [1.0, 0], [0, 1.0]]),
            d=np.array([-1.0, -1.0, 1.0, 1.0]),
            c2=np.array([3.0, 3.0])))


def _objective_toy() -> Instance:
    # opening x widens the first box coordinate to [0, 2]; the random
    # factor only tilts the recourse costs
    return Instance(
        name="tilt", c1=np.array([-0.4]),
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        ub=np.ones(1)),
        U=UncertaintySet(F=AffineMatrixMap(base=np.eye(2)),
                         G=np.array([[1.0], [0.0]]), h=np.array([1.0, 1.0])),
        Y=RecourseSet(B1=np.zeros((2, 1)), B2=np.eye(2), E=np.zeros((2, 2)),
                      d=np.array([1.0, 1.0]), c2=np.array([1.0, 1.0])))


E_HAT = np.array([[0.5, 0.0], [0.0, 0.8]])


# -- neutralization ------------------------------------------------------------

def test_neutralize_preserves_the_interdiction_optimum():
    inst = _interdiction()
    out = neutralize(inst)
    assert out.kind == "neutralized-diu"
    orig = oracle_exact(inst)
    ref = oracle_exact(out.instance)
    assert orig.value == pytest.approx(1.6)
    assert ref.value == pytest.approx(orig.value, rel=1e-9)
    assert not np.any(out.instance.U.G)
    assert ref.x == pytest.approx(orig.x)


def test_neutralize_all_masks_off_is_the_nominal_recourse():
    inst = _interdiction()
    out = neutralize(inst)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    nominal, _ = recourse_value(inst, x, np.zeros(2))
    wc, _ = worst_case_values(out.instance, [x])[0]
    assert wc == pytest.approx(nominal)


def test_neutralize_all_masks_on_matches_the_original():
    inst = _interdiction()
    out = neutralize(inst)
    x = np.array([0.0, 0.0, 1.0, 1.0])
    wc_orig, _ = worst_case_values(inst, [x])[0]
    wc_ref, _ = worst_case_values(out.instance, [x])[0]
    assert wc_ref == pytest.approx(wc_orig)
    assert wc_orig == pytest.approx(4.0)


def test_neutralize_envelope_is_exact_at_integral_points():
    inst = _interdiction()
    out = neutralize(inst)
    for m1, m2, u1, u2 in np.ndindex(2, 2, 2, 2):
        if u1 + u2 > 1:
            continue
        x = np.array([1.0 - m1, 1.0 - m2, m1, m2])
        u = np.array([u1, u2], dtype=float)
        masked, _ = recourse_value(inst, x, u * x[2:])
        via_v, _ = recourse_value(out.instance, x, u)
        assert via_v == pytest.approx(masked, abs=1e-9)


def _link_blocks(out, n: int) -> tuple[np.ndarray, ...]:
    """The last n recourse rows of a rewrite, the link rows, as (V, B1, E, d):
    V on the copy v, which takes the columns after y."""
    Y, v = out.instance.Y, out.mapping["v_columns"]
    return Y.B2[-n:, v], Y.B1[-n:], Y.E[-n:], Y.d[-n:]


def _neutralize_links(inst: Instance, mask: list[int], caps: list[float]):
    """The link rows of neutralize as they were once written, coordinate by
    coordinate: v <= cap x', v <= u, v >= u - cap (1 - x'). The reference."""
    nu = inst.dim_u
    V, B1, E, d = (np.zeros((3 * nu, nu)), np.zeros((3 * nu, inst.dim_x)),
                   np.zeros((3 * nu, nu)), np.zeros(3 * nu))
    for i, (k, cap) in enumerate(zip(mask, caps)):
        ra, rb, rc = 3 * i, 3 * i + 1, 3 * i + 2
        V[ra, i] = -1.0
        B1[ra, k] = cap
        V[rb, i] = -1.0
        E[rb, i] = 1.0
        V[rc, i] = 1.0
        B1[rc, k] = -cap
        E[rc, i] = -1.0
        d[rc] = -cap
    return V, B1, E, d


def _normalize_links(inst: Instance, lo_cols, hi_cols, bounds):
    """The link rows of normalize as they were once written, coordinate by
    coordinate: v <= x_h + B (1 - u), v >= x_h - B (1 - u), v <= x_l + B u
    and v >= x_l - B u. The reference."""
    nu = inst.dim_u
    V, B1, E, d = (np.zeros((4 * nu, nu)), np.zeros((4 * nu, inst.dim_x)),
                   np.zeros((4 * nu, nu)), np.zeros(4 * nu))
    for i, (lo, hi, B) in enumerate(zip(lo_cols, hi_cols, bounds)):
        r = 4 * i
        V[r, i], B1[r, hi], E[r, i], d[r] = -1.0, 1.0, -B, -B
        V[r + 1, i], B1[r + 1, hi], E[r + 1, i], d[r + 1] = 1.0, -1.0, -B, -B
        V[r + 2, i], B1[r + 2, lo], E[r + 2, i] = -1.0, 1.0, B
        V[r + 3, i], B1[r + 3, lo], E[r + 3, i] = 1.0, -1.0, B
    return V, B1, E, d


def test_neutralize_links_are_the_hand_written_rows_to_the_byte():
    inst = _interdiction()
    out = neutralize(inst)
    ref = _neutralize_links(inst, [2, 3], [1.0, 1.0])
    got = _link_blocks(out, 6)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


def test_normalize_links_are_the_hand_written_rows_in_envelope_order():
    # the same rows, in the order w <= M x, w >= lo x, w <= v - lo (1 - x),
    # w >= v - M (1 - x) of w = v - x_l = u (x_h - x_l)
    inst = _dne()
    out = normalize(inst, [0, 1], [2, 3])
    ref = np.column_stack(_normalize_links(inst, [0, 1], [2, 3], [2.0, 2.0]))
    got = np.column_stack(_link_blocks(out, 8))
    assert got.tobytes() == ref[[2, 3, 0, 1, 6, 7, 4, 5]].tobytes()


def test_neutralize_handles_continuous_capped_coordinates():
    # u1 in [0, 2 x'], downward closed trivially; check full value equality
    inst = Instance(
        name="mixed", c1=np.array([0.0, -0.5]),
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=2,
                        ub=np.ones(2)),
        U=UncertaintySet(F=AffineMatrixMap(base=np.array([[1.0]])),
                         G=np.array([[0.0, 2.0]]), h=np.array([0.0])),
        Y=RecourseSet(B1=np.zeros((1, 2)), B2=np.array([[1.0]]),
                      E=np.array([[-1.0]]), d=np.array([0.0]),
                      c2=np.array([1.0])))
    out = neutralize(inst)
    assert out.instance.U.h == pytest.approx([2.0])
    assert oracle_exact(out.instance).value == pytest.approx(
        oracle_exact(inst).value)


def test_neutralize_rejects_non_downward_closed_rows():
    inst = _interdiction()
    U_bad = UncertaintySet(
        F=AffineMatrixMap(base=np.array([[1.0, 0], [0, 1.0], [1.0, -1.0]])),
        G=inst.U.G, h=np.array([0.0, 0.0, 0.0]), n_int_u=2)
    bad = Instance(name="bad", c1=inst.c1, X=inst.X, U=U_bad, Y=inst.Y)
    with pytest.raises(ValueError, match="downward") as err:
        neutralize(bad)
    assert "[1.0, 1.0]" in str(err.value)


def _thin_closure(h2: float) -> Instance:
    # links u_i <= x_i, plain rows u1 + u2 <= 1 and -u1 + u2 <= h2, x fixed
    # at (0, 1), recourse y >= u2: at x, u1 = 0 and u2 <= min(1, h2); zeroing
    # u1 in the point (1 - h2, 1 + h2) / 2 of the plain rows breaks the second
    # one for h2 < 1, by (1 - h2) / 2
    return Instance(
        name="thin", c1=np.zeros(2),
        X=FirstStageSet(A=np.zeros((0, 2)), b=np.zeros(0), n_int=2,
                        lb=[0.0, 1.0], ub=[0.0, 1.0]),
        U=UncertaintySet(
            F=AffineMatrixMap(base=np.array([[1.0, 0], [0, 1.0], [1.0, 1.0],
                                             [-1.0, 1.0]])),
            G=np.array([[1.0, 0], [0, 1.0], [0, 0], [0, 0]]),
            h=np.array([0.0, 0.0, 1.0, h2])),
        Y=RecourseSet(B1=np.zeros((1, 2)), B2=np.array([[1.0]]),
                      E=np.array([[0.0, -1.0]]), d=np.array([0.0]),
                      c2=np.array([1.0])))


def test_neutralize_rejects_a_thin_violation_of_closure():
    inst = _thin_closure(0.99)
    assert oracle_exact(inst).value == pytest.approx(0.99)
    with pytest.raises(ValueError, match="downward") as err:
        neutralize(inst)
    # the LP's maximizer of u2 and its copy with u1 zeroed
    u, masked = map(json.loads, re.findall(r"\[[^]]*\]", str(err.value)))
    assert u == pytest.approx([0.005, 0.995]) and masked == pytest.approx([0.0, 0.995])
    # a closed set of the same shape is rewritten at the same value
    inst = _thin_closure(1.0)
    assert oracle_exact(inst).value == pytest.approx(1.0)
    assert oracle_exact(neutralize(inst).instance).value == pytest.approx(1.0)


def _closure_counterexample_by_loop(F, h, caps):
    # the loop over every bit vector that lattice_points replaced, for an
    # all-binary set: the first feasible u = bits * caps, in
    # itertools.product order, whose copy with one coordinate zeroed leaves
    slack = 1e-9 * max(1.0, float(np.abs(h).max()))
    for bits in itertools.product((0.0, 1.0), repeat=F.shape[1]):
        u = np.array(bits) * caps
        if np.all(F @ u <= h + slack):
            for j in np.flatnonzero(u > 0.0):
                masked = u.copy()
                masked[j] = 0.0
                if not np.all(F @ masked <= h + slack):
                    return u, masked
    return None


def test_closure_check_matches_the_exhaustive_loop(monkeypatch):
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        F = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), dim)).astype(float)
        h = rng.integers(-1, 4, size=len(F)).astype(float)
        caps = rng.choice([0.5, 1.0, 1.0, 2.0], size=dim)
        got = _closure_counterexample(F, h, caps, dim)
        ref = _closure_counterexample_by_loop(F, h, caps)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        outcomes.add(ref is None)
    assert outcomes == {True, False}
    # u2 <= u1 and u1 + u2 <= 1: closed over its 0/1 points, (0, 0) and
    # (1, 0); past the lattice cap the LP branch relaxes them and refuses
    # it at (1/2, 1/2)
    F, h = np.array([[1.0, 1.0], [-1.0, 1.0]]), np.array([1.0, 0.0])
    assert _closure_counterexample(F, h, np.ones(2), 2) is None
    monkeypatch.setattr(enumeration, "_MAX_LATTICE", 1)
    u, masked = _closure_counterexample(F, h, np.ones(2), 2)
    assert u == pytest.approx([0.5, 0.5]) and masked == pytest.approx([0.0, 0.5])


def test_neutralize_rejects_malformed_shapes():
    inst = _interdiction()
    no_link = Instance(
        name="nl", c1=inst.c1, X=inst.X,
        U=UncertaintySet(F=inst.U.F,
                         G=np.zeros_like(inst.U.G), h=np.array([1.0, 1.0, 1.0]),
                         n_int_u=2),
        Y=inst.Y)
    with pytest.raises(ValueError, match="no mask link"):
        neutralize(no_link)
    cont_mask = Instance(
        name="cm", c1=inst.c1,
        X=FirstStageSet(A=inst.X.A, b=inst.X.b, n_int=2, ub=np.ones(4)),
        U=inst.U, Y=inst.Y)
    with pytest.raises(ValueError, match="not binary"):
        neutralize(cont_mask)


# -- normalization -------------------------------------------------------------

def test_normalize_preserves_the_dne_optimum():
    inst = _dne()
    out = normalize(inst, [0, 1], [2, 3])
    assert out.kind == "normalized-diu"
    assert out.instance.U.h == pytest.approx(np.ones(2))
    orig = oracle_exact(inst)
    ref = oracle_exact(out.instance)
    assert orig.value == pytest.approx(-2.0)
    assert ref.value == pytest.approx(orig.value, rel=1e-9)


def test_normalize_pinned_interval_is_deterministic():
    inst = _dne()
    out = normalize(inst, [0, 1], [2, 3])
    x = np.array([1.0, 2.0, 1.0, 2.0])
    at_point, _ = recourse_value(inst, x, np.array([1.0, 2.0]))
    wc_orig, _ = worst_case_values(inst, [x])[0]
    wc_ref, _ = worst_case_values(out.instance, [x])[0]
    assert wc_orig == pytest.approx(at_point)
    assert wc_ref == pytest.approx(at_point)


def test_normalize_fixed_unit_interval_changes_nothing():
    inst = _dne()
    X = FirstStageSet(A=inst.X.A, b=inst.X.b, n_int=4,
                      lb=np.array([0.0, 0.0, 1.0, 1.0]),
                      ub=np.array([0.0, 0.0, 1.0, 1.0]))
    pinned = Instance(name="unit", c1=inst.c1, X=X, U=inst.U, Y=inst.Y)
    out = normalize(pinned, [0, 1], [2, 3])
    assert oracle_exact(out.instance).value == pytest.approx(
        oracle_exact(pinned).value)


def test_normalize_binary_vertex_restriction_keeps_the_value():
    inst = _dne()
    out = normalize(inst, [0, 1], [2, 3], binary_vertices=True)
    assert out.instance.U.n_int_u == 2
    assert oracle_exact(out.instance).value == pytest.approx(-2.0)


def test_normalize_rejects_crossable_intervals():
    inst = _dne()
    loose = Instance(
        name="loose", c1=inst.c1,
        X=FirstStageSet(A=np.zeros((0, 4)), b=np.zeros(0), n_int=4,
                        ub=np.full(4, 2.0)),
        U=inst.U, Y=inst.Y)
    with pytest.raises(ValueError, match="x_l > x_h"):
        normalize(loose, [0, 1], [2, 3])


def test_normalize_rejects_non_box_rows():
    inst = _objective_toy()
    with pytest.raises(ValueError, match="box"):
        normalize(inst, [0, 0], [0, 0])


# -- order switching -----------------------------------------------------------

def _tilted_recourse_value(inst: Instance, E_hat: np.ndarray,
                           x: np.ndarray, u: np.ndarray) -> float:
    mdl = backend.LinearModel(name="tilted")
    y = mdl.add_vars(inst.Y.dim)
    mdl.add_rows([(y, inst.Y.B2)], backend.GEQ, inst.Y.d - inst.Y.B1 @ x)
    cost = inst.Y.c2 + E_hat @ u
    mdl.set_objective({y[j]: float(cost[j]) for j in range(inst.Y.dim)},
                      sense="min")
    out = backend.solve_mip(mdl)
    assert out.is_optimal
    return float(out.objective)


def test_order_switch_matches_the_enumerated_max_min():
    inst = _objective_toy()
    best = np.inf
    for xv in (0.0, 1.0):
        x = np.array([xv])
        worst = max(_tilted_recourse_value(inst, E_HAT, x, u)
                    for u in enumerate_vertices(inst.U, x))
        best = min(best, float(inst.c1 @ x) + worst)
    out = order_switch(inst, E_HAT)
    assert out.kind == "order-switched-flat"
    sol = backend.solve_mip(out.model)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(best, abs=1e-7)
    assert best == pytest.approx(3.3)


def test_order_switch_caps_the_coupled_lam_at_the_runs_big_m():
    # row 0 couples x, so lam_0 and its product with x take the cap
    with backend.big_m(7.0):
        out = order_switch(_objective_toy(), E_HAT)
    ub = out.model.columns()[1]
    assert ub[out.mapping["lam"]].tolist() == [7.0, np.inf]
    assert ub[out.model.n_vars - 1] == 7.0
    assert backend.solve_mip(out.model).objective == pytest.approx(3.3)


def test_order_switch_zero_tilt_is_the_deterministic_problem():
    inst = _objective_toy()
    out = order_switch(inst, np.zeros((2, 2)))
    sol = backend.solve_mip(out.model)
    # min -0.4 x + y1 + y2 with y >= (1, 1): open and pay the base costs
    assert sol.objective == pytest.approx(1.6)
    assert sol.x[out.mapping["x"][0]] == pytest.approx(1.0)


def test_order_switch_singleton_set_prices_one_scenario():
    u0 = np.array([2.0, 1.0])
    inst = _objective_toy()
    single = Instance(
        name="single", c1=np.array([0.0]), X=inst.X,
        U=UncertaintySet(
            F=AffineMatrixMap(base=np.vstack([np.eye(2), -np.eye(2)])),
            G=np.zeros((4, 1)), h=np.concatenate([u0, -u0])),
        Y=inst.Y)
    out = order_switch(single, E_HAT)
    sol = backend.solve_mip(out.model)
    assert sol.objective == pytest.approx(
        float((single.Y.c2 + E_HAT @ u0) @ np.ones(2)))


def test_order_switch_rejects_row_coupled_uncertainty():
    inst = _objective_toy()
    coupled = Instance(name="c", c1=inst.c1, X=inst.X, U=inst.U,
                       Y=RecourseSet(B1=inst.Y.B1, B2=inst.Y.B2,
                                     E=np.eye(2), d=inst.Y.d, c2=inst.Y.c2))
    with pytest.raises(ValueError, match="objective uncertainty only"):
        order_switch(coupled, E_HAT)


def test_order_switch_integer_recourse_needs_the_explicit_flag():
    inst = _objective_toy()
    int_y = Instance(name="iy", c1=inst.c1, X=inst.X, U=inst.U,
                     Y=RecourseSet(B1=inst.Y.B1, B2=inst.Y.B2, E=inst.Y.E,
                                   d=inst.Y.d, c2=inst.Y.c2, n_int_y=1))
    with pytest.raises(ValueError, match="upper bound"):
        order_switch(int_y, E_HAT)
    forced = order_switch(int_y, E_HAT, force_upper_bound=True)
    assert forced.mapping["upper_bound_only"]
    sol = backend.solve_mip(forced.model)
    assert sol.is_optimal
    # max-min inequality: the flat value can only sit above the true one
    best = np.inf
    for xv in (0.0, 1.0):
        x = np.array([xv])
        worst = max(_tilted_recourse_value(int_y, E_HAT, x, u)
                    for u in enumerate_vertices(int_y.U, x))
        best = min(best, float(int_y.c1 @ x) + worst)
    assert sol.objective >= best - 1e-9