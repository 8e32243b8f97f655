"""Column-and-constraint generation for two-stage robust problems whose
uncertainty set depends on the first stage.

Four master flavors share one outer loop: scalar dual cuts ("benders"),
parametric cuts with recourse replicates ("parametric"), the same with
perturbed-unique scenario vertices ("parametric-modified"), and basis-indexed
cutting sets ("basis").  Two approximation loops reuse the parametric master:
one for mixed-integer recourse, one that brackets a decision-independent
problem between decision-dependent surrogates.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from . import backend
from .backend import EQ, GEQ, LEQ, BackendError, LinearModel, SolveTimeLimit
from .maxmin import (OptimalityBlock, _binary_product, _coupled_columns,
                     _couples_only_binary, _is_binary, build_optimality_block,
                     ensure_unique_optimum, lp_parametric)
from .model import (BasisId, DualPoint, DualRay, Instance, IterationRecord,
                    RunResult, UncertaintySet, add_first_stage,
                    add_recourse_rows, add_recourse_vars,
                    add_uncertainty_vars, build_deterministic_mip,
                    range_probe, relative_gap)
from .subproblems import (recourse_mip_at, sp1, sp2, sp2_mip_relax,
                          sp2_pareto_lp, sp3, sp4)

VARIANTS = ("benders", "parametric", "parametric-modified", "basis")

# gaps at or below this are reported Optimal rather than GapReached; it is
# also the floor under user tolerances, since the backend itself does not
# resolve bounds more finely
_OPT_GAP = 1e-7

_SEED_TOL = 1e-9     # vector-equality tolerance of the seed registry
_X_REPEAT_TOL = 1e-7
_FEAS_TOL = 1e-7     # on sp1's violation mass, relative to |d|
_EXTRA_BASES = 3     # perturbed re-solves per iteration in the basis variant


@dataclass
class AlgorithmConfig:
    """Knobs of one solver run.

    cut_mode None picks the variant default: split for benders (its cuts are
    scalar rows with nothing to unify), unified for the replicate masters.
    eta_lb only matters while the master carries no optimality cut; the first
    bound it produces is floored at the deterministic relaxation value anyway.
    """

    variant: str = "parametric"
    tol: float = 1e-3
    time_limit_s: float = 3600.0
    big_M: float = 1e4
    cut_mode: str | None = None
    pareto: bool = False
    mip_recourse_mode: bool = False
    diu_approx: list[UncertaintySet] | str | None = None
    eta_lb: float = -1e7
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.cut_mode not in (None, "split", "unified"):
            raise ValueError(f"unknown cut_mode {self.cut_mode!r}")
        if self.variant == "benders" and self.cut_mode == "unified":
            raise ValueError("scalar dual cuts have no recourse replicate to unify")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.big_M <= 0 or self.time_limit_s <= 0:
            raise ValueError("big_M and time_limit_s must be positive")

    @property
    def unified(self) -> bool:
        if self.cut_mode is not None:
            return self.cut_mode == "unified"
        return self.variant != "benders"


class MasterState:
    """The growing master model plus the registry of seeds already cut in.

    Variable and row ids are append-only, so blocks added in iteration t can
    keep referencing the first-stage columns of iteration zero.  ou_sets, when
    given, replaces the instance's own uncertainty set in every optimality
    block: each point seed then gets one block per listed set.
    """

    def __init__(self, inst: Instance, config: AlgorithmConfig,
                 ou_sets: list[UncertaintySet] | None = None):
        self.inst = inst
        self.config = config
        self.ou_sets = list(ou_sets) if ou_sets is not None else None
        self.model = LinearModel(name=f"{inst.name}-{config.variant}-master")
        self.x_ids = add_first_stage(self.model, inst)
        self.eta_id = self.model.add_var(config.eta_lb, np.inf, name="eta")
        obj = {self.x_ids[k]: float(inst.c1[k]) for k in range(inst.dim_x)}
        obj[self.eta_id] = 1.0
        self.model.set_objective(obj, "min")
        self.point_seeds: list[np.ndarray] = []
        self.ray_seeds: list[np.ndarray] = []
        self.basis_seeds: list[BasisId] = []
        self.blocks: dict[str, OptimalityBlock | None] = {}

    def has_point(self, pi: np.ndarray) -> bool:
        return _vector_seen(self.point_seeds, pi)

    def has_ray(self, gamma: np.ndarray) -> bool:
        return _vector_seen(self.ray_seeds, gamma)

    def has_basis(self, basis: BasisId) -> bool:
        return basis in self.basis_seeds


def _vector_seen(pool: list[np.ndarray], v: np.ndarray,
                 tol: float = _SEED_TOL) -> bool:
    v = np.asarray(v, dtype=float)
    return any(p.shape == v.shape and float(np.max(np.abs(p - v), initial=0.0)) <= tol
               for p in pool)


# -- seed insertion, one routine per master flavor -------------------------

def _add_seed_v1(state: MasterState, beta: np.ndarray, is_ray: bool) -> str:
    """Scalar cut plus the block pinning the seed's worst case u.

    Point pi:  eta >= pi'd - pi'B1 x - pi'E u,  u optimal for LP(x, pi).
    Ray gamma: 0 >= gamma'd - gamma'B1 x - gamma'E v, v optimal for LP(x, gamma),
    which excludes exactly the x whose recourse gamma certifies infeasible.
    """
    inst, cfg = state.inst, state.config
    beta = np.asarray(beta, dtype=float)
    tag = f"r{len(state.ray_seeds)}" if is_ray else f"p{len(state.point_seeds)}"
    blk = build_optimality_block(state.model, inst, beta, M=cfg.big_M,
                                 x_ids=state.x_ids, tag=tag)
    xw = inst.Y.B1.T @ beta
    uw = inst.Y.E.T @ beta
    coeffs = {state.x_ids[k]: float(xw[k]) for k in range(inst.dim_x)}
    for j, uid in enumerate(blk.u_ids):
        coeffs[uid] = float(uw[j])
    if not is_ray:
        coeffs[state.eta_id] = 1.0
    state.model.add_constr(coeffs, GEQ, float(inst.Y.d @ beta), name=f"cut{tag}")
    (state.ray_seeds if is_ray else state.point_seeds).append(beta)
    state.blocks[tag] = blk
    return tag


def _add_seed_v2(state: MasterState, beta: np.ndarray, is_ray: bool,
                 representation: str | None = None,
                 unique_data: np.ndarray | None = None) -> str:
    """Recourse replicate y, its feasibility rows against the seed's worst
    case u, and (for points, or always in unified mode) eta >= c2'y."""
    cfg = state.config
    beta = np.asarray(beta, dtype=float)
    base_tag = f"r{len(state.ray_seeds)}" if is_ray else f"p{len(state.point_seeds)}"
    sets = state.ou_sets if state.ou_sets is not None else [state.inst.U]
    for li, U_l in enumerate(sets):
        inst = state.inst if U_l is state.inst.U else replace(state.inst, U=U_l)
        tag = base_tag if state.ou_sets is None else f"{base_tag}s{li}"
        blk = build_optimality_block(state.model, inst, beta,
                                     representation=representation,
                                     M=cfg.big_M, unique_data=unique_data,
                                     x_ids=state.x_ids, tag=tag)
        y_ids = add_recourse_vars(state.model, inst.Y, prefix=f"y{tag}_")
        add_recourse_rows(state.model, inst.Y, y_ids, x_ids=state.x_ids,
                          u_ids=blk.u_ids, name=f"Y{tag}")
        if not is_ray or cfg.unified:
            coeffs = {state.eta_id: 1.0}
            for j, yid in enumerate(y_ids):
                coeffs[yid] = -float(inst.Y.c2[j])
            state.model.add_constr(coeffs, GEQ, 0.0, name=f"eta{tag}")
        state.blocks[tag] = blk
    (state.ray_seeds if is_ray else state.point_seeds).append(beta)
    return base_tag


def _binary_product_free(model: LinearModel, x_id: int, v_id: int, M: float,
                         name: str) -> int:
    """w = x * v for binary x and -M <= v <= M, by the shifted envelope."""
    w = model.add_var(-M, M, name=name)
    model.add_constr({w: 1.0, x_id: -M}, LEQ, 0.0)
    model.add_constr({w: 1.0, x_id: M}, GEQ, 0.0)
    model.add_constr({w: 1.0, v_id: -1.0, x_id: M}, LEQ, M)
    model.add_constr({w: 1.0, v_id: -1.0, x_id: -M}, GEQ, -M)
    return w


def _add_basis_seed(state: MasterState, basis: BasisId) -> str:
    """Cutting set indexed by a basis of the standard form [F(x) | I].

    A row whose slack is nonbasic becomes an equality on the basic structural
    coordinates, with paired deviation columns u1, u2; a row whose slack stays
    basic becomes an inequality with deviation u3.  The alternative-system
    multipliers lam make the eta row vacuous exactly when the basis is
    infeasible at x: free on equality rows, nonnegative on the rest.  Products
    of x with u or lam, which appear whenever the set's shape follows x, are
    enveloped for binary x and rejected otherwise.
    """
    inst, cfg = state.inst, state.config
    U, Y = inst.U, inst.Y
    n, mu = U.dim, U.n_rows
    model, x_ids = state.model, state.x_ids
    M = cfg.big_M

    coupled = _coupled_columns(U)
    if not _couples_only_binary(inst):
        raise ValueError(
            "basis cutting sets multiply first-stage terms into the "
            "alternative system; non-binary coupled components have no "
            "exact linearization")

    tag = f"b{len(state.basis_seeds)}"
    struct_basic = [j for j in basis.indices if j < n]
    slack_basic = {j - n for j in basis.indices if j >= n}
    eq_rows = [i for i in range(mu) if i not in slack_basic]
    ineq_rows = sorted(slack_basic)

    u_ids = model.add_vars(len(struct_basic), prefix=f"u{tag}_")
    ubar1 = model.add_vars(len(eq_rows), prefix=f"d1{tag}_")
    ubar2 = model.add_vars(len(eq_rows), prefix=f"d2{tag}_")
    ubar3 = model.add_vars(len(ineq_rows), prefix=f"d3{tag}_")
    # infeasible bases are neutralized by scaling lam along a negative-value
    # cone direction, so lam stays unbounded unless x-products force a box
    lam_lo, lam_hi = (-M, M) if coupled else (-np.inf, np.inf)
    lam_n = model.add_vars(len(eq_rows), lb=lam_lo, ub=lam_hi, prefix=f"ln{tag}_")
    lam_b = model.add_vars(len(ineq_rows), lb=0.0,
                           ub=M if coupled else np.inf, prefix=f"lb{tag}_")

    prod_cache: dict[tuple[int, int], int] = {}

    def prod(x_id: int, v_id: int, free: bool, name: str) -> int:
        key = (x_id, v_id)
        if key not in prod_cache:
            maker = _binary_product_free if free else _binary_product
            prod_cache[key] = maker(model, x_id, v_id, M, name=name)
        return prod_cache[key]

    def f_entry_coeffs(i: int, j_struct: int, target: int, free: bool,
                       coeffs: dict[int, float], what: str) -> None:
        # accumulate F(x)[i, j_struct] * target into coeffs, enveloping terms
        jj = struct_basic[j_struct]
        if U.F.base[i, jj] != 0.0:
            coeffs[target] = coeffs.get(target, 0.0) + U.F.base[i, jj]
        for k, Mk in U.F.terms:
            if Mk[i, jj] != 0.0:
                w = prod(x_ids[k], target, free, f"{what}{tag}_{i}_{k}_{j_struct}")
                coeffs[w] = coeffs.get(w, 0.0) + Mk[i, jj]

    for idx, i in enumerate(eq_rows):
        coeffs: dict[int, float] = {}
        for js in range(len(struct_basic)):
            f_entry_coeffs(i, js, u_ids[js], False, coeffs, "wu")
        coeffs[ubar1[idx]] = coeffs.get(ubar1[idx], 0.0) - 1.0
        coeffs[ubar2[idx]] = coeffs.get(ubar2[idx], 0.0) + 1.0
        for k in range(inst.dim_x):
            if U.G[i, k] != 0.0:
                coeffs[x_ids[k]] = coeffs.get(x_ids[k], 0.0) - U.G[i, k]
        model.add_constr(coeffs, EQ, float(U.h[i]), name=f"bs{tag}_eq{i}")
    for idx, i in enumerate(ineq_rows):
        coeffs = {}
        for js in range(len(struct_basic)):
            f_entry_coeffs(i, js, u_ids[js], False, coeffs, "wu")
        coeffs[ubar3[idx]] = coeffs.get(ubar3[idx], 0.0) - 1.0
        for k in range(inst.dim_x):
            if U.G[i, k] != 0.0:
                coeffs[x_ids[k]] = coeffs.get(x_ids[k], 0.0) - U.G[i, k]
        model.add_constr(coeffs, LEQ, float(U.h[i]), name=f"bs{tag}_le{i}")

    # alternative-system cone, one row per basic structural column
    for js in range(len(struct_basic)):
        coeffs = {}
        for idx, i in enumerate(eq_rows):
            f_entry_coeffs(i, js, lam_n[idx], True, coeffs, "wl")
        for idx, i in enumerate(ineq_rows):
            f_entry_coeffs(i, js, lam_b[idx], False, coeffs, "wl")
        if coeffs:
            model.add_constr(coeffs, GEQ, 0.0, name=f"alt{tag}_{js}")

    y_ids = add_recourse_vars(model, Y, prefix=f"y{tag}_")
    for r in range(Y.n_rows):
        coeffs = {y_ids[j]: float(Y.B2[r, j]) for j in range(Y.dim)
                  if Y.B2[r, j] != 0.0}
        for k in range(inst.dim_x):
            if Y.B1[r, k] != 0.0:
                coeffs[x_ids[k]] = coeffs.get(x_ids[k], 0.0) + Y.B1[r, k]
        for js, jj in enumerate(struct_basic):
            if Y.E[r, jj] != 0.0:
                coeffs[u_ids[js]] = coeffs.get(u_ids[js], 0.0) + Y.E[r, jj]
        model.add_constr(coeffs, GEQ, float(Y.d[r]), name=f"Y{tag}[{r}]")

    # eta >= c2'y + M (deviation mass) + (h + G x)' lam
    coeffs = {state.eta_id: 1.0}
    for j, yid in enumerate(y_ids):
        coeffs[yid] = -float(Y.c2[j])
    for vid in (*ubar1, *ubar2, *ubar3):
        coeffs[vid] = -M
    for idx, i in enumerate(eq_rows):
        coeffs[lam_n[idx]] = coeffs.get(lam_n[idx], 0.0) - U.h[i]
        for k in range(inst.dim_x):
            if U.G[i, k] != 0.0:
                w = prod(x_ids[k], lam_n[idx], True, f"wg{tag}_{i}_{k}")
                coeffs[w] = coeffs.get(w, 0.0) - U.G[i, k]
    for idx, i in enumerate(ineq_rows):
        coeffs[lam_b[idx]] = coeffs.get(lam_b[idx], 0.0) - U.h[i]
        for k in range(inst.dim_x):
            if U.G[i, k] != 0.0:
                w = prod(x_ids[k], lam_b[idx], False, f"wg{tag}_{i}_{k}")
                coeffs[w] = coeffs.get(w, 0.0) - U.G[i, k]
    model.add_constr(coeffs, GEQ, 0.0, name=f"eta{tag}")

    state.basis_seeds.append(basis)
    state.blocks[tag] = None
    return tag


# -- public builders, consuming recorded seed lists -------------------------

def build_master_v1(state: MasterState, seeds: list[DualPoint | DualRay]) -> LinearModel:
    """Scalar-cut master over the given dual points and rays."""
    for s in seeds:
        vec = s.as_array()
        if s.kind == "ray":
            if not state.has_ray(vec):
                _add_seed_v1(state, vec, is_ray=True)
        elif not state.has_point(vec):
            _add_seed_v1(state, vec, is_ray=False)
    return state.model


def build_master_v2(state: MasterState, seeds: list[DualPoint | DualRay]) -> LinearModel:
    """Replicate master over the given dual points and rays."""
    for s in seeds:
        vec = s.as_array()
        if s.kind == "ray":
            if not state.has_ray(vec):
                _add_seed_v2(state, vec, is_ray=True)
        elif not state.has_point(vec):
            _add_seed_v2(state, vec, is_ray=False)
    return state.model


def build_master_v3(state: MasterState, bases: list[BasisId]) -> LinearModel:
    """Basis-indexed master over the given bases."""
    for b in bases:
        if not state.has_basis(b):
            _add_basis_seed(state, b)
    return state.model


def basis_solution(U: UncertaintySet, x: np.ndarray,
                   basis: BasisId) -> tuple[np.ndarray, bool]:
    """Basic solution of [F(x) | I] at the given basis: the structural part
    and whether it is feasible (all basic values nonnegative)."""
    x = np.asarray(x, dtype=float)
    Fx = U.F.evaluate(x)
    A = np.hstack([Fx, np.eye(U.n_rows)])
    cols = list(basis.indices)
    if len(cols) != U.n_rows:
        raise ValueError(f"basis has {len(cols)} columns, need {U.n_rows}")
    try:
        vb = np.linalg.solve(A[:, cols], U.h + U.G @ x)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular basis {basis.indices}") from exc
    u = np.zeros(U.dim)
    for val, j in zip(vb, cols):
        if j < U.dim:
            u[j] = val
    feasible = bool(np.min(vb, initial=0.0) >= -1e-9)
    return u, feasible


# -- the outer loop ---------------------------------------------------------

def run(inst: Instance, config: AlgorithmConfig | None = None) -> RunResult:
    """Solve the robust problem to the configured gap.

    Dispatches to the approximation loops when the config asks for them;
    otherwise both stages must be continuous (integer uncertainty needs
    run_diu_approx, integer recourse needs mip_recourse_mode).
    """
    config = config or AlgorithmConfig()
    if config.mip_recourse_mode:
        return run_mip_recourse_approx(inst, config)
    if config.diu_approx is not None:
        return run_diu_approx(inst, _resolve_ddu_sets(inst, config.diu_approx), config)
    if inst.U.n_int_u:
        raise ValueError("integer uncertainty coordinates need the "
                         "decision-independent approximation loop (diu_approx)")
    if inst.Y.n_int_y:
        raise ValueError("integer recourse variables need mip_recourse_mode")
    return _ccg_loop(inst, config, mode="exact")


def run_mip_recourse_approx(inst: Instance, config: AlgorithmConfig | None = None) -> RunResult:
    """Bracket a mixed-integer-recourse problem: masters replicate the
    integer columns, the optimality subproblem relaxes them, and each
    incumbent is repriced by the exact recourse before the residual
    worst case is added back in."""
    config = config or AlgorithmConfig()
    if config.variant not in ("parametric",):
        raise ValueError("the mixed-integer recourse scheme runs on the "
                         "parametric master")
    if inst.U.n_int_u:
        raise ValueError("integer uncertainty coordinates need the "
                         "decision-independent approximation loop (diu_approx)")
    if inst.Y.n_int_y == 0:
        return _ccg_loop(inst, config, mode="exact")
    return _ccg_loop(inst, config, mode="mip")


def run_diu_approx(inst: Instance, ddu_sets: list[UncertaintySet],
                   config: AlgorithmConfig | None = None) -> RunResult:
    """Bracket a decision-independent problem between decision-dependent
    surrogates: subproblems run against the instance's own set, masters carry
    one optimality block per (seed, surrogate) pair.  Lower bounds are valid
    whenever every surrogate is contained in the instance's set at every x;
    the gap closes only when some surrogate is exact, so a repeated seed
    freezes the bounds and reports Stalled."""
    config = config or AlgorithmConfig()
    if config.variant not in ("parametric",):
        raise ValueError("the decision-independent approximation runs on the "
                         "parametric master")
    if not ddu_sets:
        raise ValueError("at least one surrogate uncertainty set is required")
    for U_l in ddu_sets:
        if U_l.dim != inst.U.dim:
            raise ValueError("surrogate set has a different uncertainty dimension")
        if U_l.G.shape[1] != inst.dim_x:
            raise ValueError("surrogate set couples a first-stage space of "
                             "different dimension")
    return _ccg_loop(inst, config, mode="diu", ddu_sets=ddu_sets)


def _resolve_ddu_sets(inst: Instance,
                      spec: list[UncertaintySet] | str) -> list[UncertaintySet]:
    if isinstance(spec, str):
        if spec != "metadata":
            raise ValueError(f"unknown diu_approx descriptor {spec!r}")
        raw = inst.metadata.get("ddu_sets")
        if not raw:
            raise ValueError("instance metadata carries no ddu_sets")
        from .instances import uncertainty_set_from_dict
        return [uncertainty_set_from_dict(d) if isinstance(d, dict) else d
                for d in raw]
    return list(spec)


def _ccg_loop(inst: Instance, config: AlgorithmConfig, mode: str,
              ddu_sets: list[UncertaintySet] | None = None) -> RunResult:
    t0 = time.monotonic()
    variant = config.variant
    stop_tol = max(config.tol, _OPT_GAP)
    feas_tol = _FEAS_TOL * max(1.0, float(np.abs(inst.Y.d).max(initial=0.0)))

    state = MasterState(inst, config, ou_sets=ddu_sets)
    meta: dict = {"mode": mode, "cut_mode": "unified" if config.unified else "split"}
    records: list[IterationRecord] = []

    def done(status: str, lb: float, ub: float, x, records, meta) -> RunResult:
        obj = float(ub) if np.isfinite(ub) else None
        meta["point_seeds"] = [tuple(map(float, v)) for v in state.point_seeds]
        meta["ray_seeds"] = [tuple(map(float, v)) for v in state.ray_seeds]
        meta["n_basis_seeds"] = len(state.basis_seeds)
        blocks = [b for b in state.blocks.values() if b is not None]
        meta["blocks_primal_dual"] = sum(b.representation == "primal-dual"
                                         for b in blocks)
        meta["blocks_kkt"] = len(blocks) - meta["blocks_primal_dual"]
        return RunResult(status=status, objective=obj,
                         x=None if x is None else np.asarray(x, dtype=float),
                         lb=float(lb), ub=float(ub), iterations=records,
                         elapsed_s=time.monotonic() - t0, variant=variant,
                         meta=meta)

    # the deterministic relaxation settles infeasibility up front, floors the
    # first bound, and anchors the stabilized cut selection
    det_model, det_ids = _deterministic_floor(inst, config.big_M)
    det = backend.solve(det_model, time_limit=config.time_limit_s)
    if det.status == backend.INFEASIBLE:
        meta["reason"] = "deterministic relaxation infeasible"
        return done("Infeasible", -np.inf, np.inf, None, records, meta)
    if det.status == backend.TIME_LIMIT:
        meta["reason"] = "wall clock"
        return done("TimeLimit", -np.inf, np.inf, None, records, meta)
    if det.status != backend.OPTIMAL:
        raise BackendError(f"deterministic relaxation ended {det.status}; "
                           "the robust value has no finite floor")
    x0 = np.array([det.x[j] for j in det_ids["x"]])
    meta["relaxation_value"] = float(det.objective)

    lb, ub = float(det.objective), np.inf
    incumbent: np.ndarray | None = None
    seen_x: list[np.ndarray] = []
    derived_points: list[np.ndarray] = []
    derived_rays: list[np.ndarray] = []
    prev_us: np.ndarray | None = None
    u_mid: np.ndarray | None = None
    t = 0

    def out_of_time(what: str) -> RunResult:
        meta["reason"] = f"{what} hit the wall clock"
        return done("TimeLimit", lb, ub, incumbent, records, meta)

    def budget() -> float:
        return max(config.time_limit_s - (time.monotonic() - t0), 0.01)

    def record(t: int, cut_kind: str, seed_id: str) -> None:
        records.append(IterationRecord(
            t=t, lb=float(lb), ub=float(ub), gap=relative_gap(lb, ub),
            elapsed_s=time.monotonic() - t0, cut_kind=cut_kind, seed_id=seed_id))

    def closure(t: int, what: str) -> RunResult:
        # a repeated seed proves the bounds met in the exact loop; anywhere
        # else, or when they visibly did not, the honest report is Stalled
        nonlocal lb
        gap = relative_gap(lb, ub)
        meta["reason"] = f"repeated {what}"
        if mode == "exact" and gap <= 1e-6:
            lb = ub
            record(t, "none", f"repeat-{what}")
            return done("Optimal", lb, ub, incumbent, records, meta)
        if gap <= stop_tol:
            record(t, "none", f"repeat-{what}")
            status = "Optimal" if gap <= _OPT_GAP else "GapReached"
            return done(status, lb, ub, incumbent, records, meta)
        record(t, "none", f"repeat-{what}")
        return done("Stalled", lb, ub, incumbent, records, meta)

    while True:
        t += 1
        remaining = config.time_limit_s - (time.monotonic() - t0)
        if remaining <= 0:
            meta["reason"] = "wall clock"
            return done("TimeLimit", lb, ub, incumbent, records, meta)

        out = backend.solve(state.model, time_limit=remaining)
        if out.status == backend.INFEASIBLE:
            # feasibility cutting sets exclude every first stage
            meta["reason"] = "master infeasible"
            record(t, "none", "master-infeasible")
            return done("Infeasible", lb, np.inf, None, records, meta)
        if out.status == backend.TIME_LIMIT:
            return out_of_time("master")
        if out.status != backend.OPTIMAL:
            raise BackendError(f"master solve ended {out.status}")
        lb = max(lb, float(out.objective))
        x_star = np.array([out.x[j] for j in state.x_ids])
        x_star[:inst.X.n_int] = np.round(x_star[:inst.X.n_int])

        if _vector_seen(seen_x, x_star,
                        tol=_X_REPEAT_TOL * max(1.0, float(np.abs(x_star).max()))):
            return closure(t, "first-stage")
        seen_x.append(x_star)

        r1 = sp1(inst, x_star, M=config.big_M, time_limit=budget())
        if r1.status == backend.TIME_LIMIT:
            return out_of_time("feasibility subproblem")

        if r1.value <= feas_tol:
            remaining = budget()
            if mode == "mip":
                r2 = sp2_mip_relax(inst, x_star, M=config.big_M,
                                   time_limit=remaining)
            else:
                r2 = sp2(inst, x_star, M=config.big_M, time_limit=remaining,
                         compute_basis=(variant == "basis"))
            if r2.status == backend.TIME_LIMIT:
                return out_of_time("worst-case subproblem")
            if r2.status != backend.OPTIMAL:
                raise BackendError(f"worst-case subproblem ended {r2.status}")
            pi_star = r2.pi

            if mode == "mip":
                try:
                    _, y_full = recourse_mip_at(inst, x_star, r2.u,
                                                time_limit=remaining)
                except BackendError:
                    y_full = None  # not relatively complete at this scenario
                if y_full is not None:
                    y_d = np.round(y_full[:inst.Y.n_int_y])
                    s4 = sp4(inst, x_star, y_d, M=config.big_M,
                             time_limit=remaining)
                    if s4.status == backend.TIME_LIMIT:
                        return out_of_time("frozen-recourse subproblem")
                    if s4.status not in (backend.OPTIMAL, backend.UNBOUNDED):
                        raise BackendError(f"frozen-recourse subproblem ended "
                                           f"{s4.status}")
                    if np.isfinite(s4.value) and float(inst.c1 @ x_star) + s4.value < ub:
                        ub = float(inst.c1 @ x_star) + s4.value
                        incumbent = x_star
            else:
                cand = float(inst.c1 @ x_star) + r2.value
                if cand < ub:
                    ub = cand
                    incumbent = x_star

            gap = relative_gap(lb, ub)
            if gap <= stop_tol:
                record(t, "none", "gap")
                status = "Optimal" if gap <= _OPT_GAP else "GapReached"
                return done(status, lb, ub, incumbent, records, meta)

            beta = pi_star
            if config.pareto and mode == "exact":
                if u_mid is None:
                    try:
                        u_mid = _u_box_midpoint(inst, x0, budget())
                    except SolveTimeLimit:
                        return out_of_time("core scenario probe")
                u_ref = prev_us if prev_us is not None else u_mid
                pol = sp2_pareto_lp(inst, x0, u_ref, x_star, r2.u, r2.value,
                                    time_limit=remaining)
                if not pol.used_fallback:
                    beta = pol.pi
            prev_us = r2.u

            if not config.pareto and _vector_seen(derived_points, pi_star):
                return closure(t, "dual-point")
            derived_points.append(pi_star)

            if variant == "benders":
                if state.has_point(beta):
                    record(t, "none", "seed-known")
                    continue
                seed_id = _add_seed_v1(state, beta, is_ray=False)
                kind = "optimality"
            elif variant == "parametric":
                if state.has_point(beta):
                    # nothing new to cut; the next master repeats x and closes
                    record(t, "none", "seed-known")
                    continue
                seed_id = _add_seed_v2(state, beta, is_ray=False)
                kind = "unified" if config.unified else "optimality"
            elif variant == "parametric-modified":
                try:
                    res_u, c_hat = ensure_unique_optimum(inst, x_star, beta,
                                                         time_limit=budget())
                except SolveTimeLimit:
                    return out_of_time("uniqueness perturbation")
                if state.has_basis(res_u.basis):
                    return closure(t, "basis")
                state.basis_seeds.append(res_u.basis)
                seed_id = _add_seed_v2(state, beta, is_ray=False,
                                       representation="unique", unique_data=c_hat)
                kind = "unified" if config.unified else "optimality"
            else:
                bases = [r2.basis_result.basis]
                try:
                    bases += _extra_bases(inst, x_star, beta, bases[0], budget())
                except SolveTimeLimit:
                    return out_of_time("basis probe")
                new = [b for b in bases if not state.has_basis(b)]
                if not new:
                    return closure(t, "basis")
                for b in new:
                    seed_id = _add_basis_seed(state, b)
                kind = "basis"
        else:
            r3 = sp3(inst, x_star, r1.u, time_limit=budget())
            if r3.status == backend.TIME_LIMIT:
                return out_of_time("feasibility ray subproblem")
            gamma = r3.ray
            if _vector_seen(derived_rays, gamma):
                return closure(t, "dual-ray")
            derived_rays.append(gamma)
            if variant == "benders":
                seed_id = _add_seed_v1(state, gamma, is_ray=True)
                kind = "feasibility"
            elif variant in ("parametric", "parametric-modified"):
                if variant == "parametric-modified":
                    try:
                        res_u, c_hat = ensure_unique_optimum(
                            inst, x_star, gamma, time_limit=budget())
                    except SolveTimeLimit:
                        return out_of_time("uniqueness perturbation")
                    if state.has_basis(res_u.basis):
                        return closure(t, "basis")
                    state.basis_seeds.append(res_u.basis)
                    seed_id = _add_seed_v2(state, gamma, is_ray=True,
                                           representation="unique",
                                           unique_data=c_hat)
                else:
                    seed_id = _add_seed_v2(state, gamma, is_ray=True)
                kind = "unified" if config.unified else "feasibility"
            else:
                try:
                    lp_res = lp_parametric(inst, x_star, gamma,
                                           time_limit=budget())
                    bases = [lp_res.basis] + _extra_bases(
                        inst, x_star, gamma, lp_res.basis, budget())
                except SolveTimeLimit:
                    return out_of_time("basis probe")
                new = [b for b in bases if not state.has_basis(b)]
                if not new:
                    return closure(t, "basis")
                for b in new:
                    seed_id = _add_basis_seed(state, b)
                kind = "basis"

        record(t, kind, seed_id)
        if config.max_iterations is not None and t >= config.max_iterations:
            meta["reason"] = "iteration cap"
            return done("Stalled", lb, ub, incumbent, records, meta)


def _deterministic_floor(inst: Instance, M: float) -> tuple[LinearModel, dict]:
    """The relaxation min{c1 x + c2 y : x in X, u in U(x), y in Y(x, u)},
    with x-dependent matrix entries enveloped for binary x; its optimum is a
    valid floor under every master bound."""
    if inst.U.F.is_constant:
        return build_deterministic_mip(inst)
    if not all(_is_binary(inst, k) for k, _ in inst.U.F.terms):
        raise ValueError(
            "matrix dependence on non-binary first-stage components has "
            "no exact master linearization")
    U, Y = inst.U, inst.Y
    m = LinearModel(name=f"{inst.name}_det")
    x_ids = add_first_stage(m, inst)
    u_ids = add_uncertainty_vars(m, U)
    y_ids = add_recourse_vars(m, Y)
    prod: dict[tuple[int, int], int] = {}
    for i in range(U.n_rows):
        coeffs = {u_ids[j]: float(U.F.base[i, j]) for j in range(U.dim)
                  if U.F.base[i, j] != 0.0}
        for k, Mk in U.F.terms:
            for j in range(U.dim):
                if Mk[i, j] != 0.0:
                    key = (k, j)
                    if key not in prod:
                        prod[key] = _binary_product(
                            m, x_ids[k], u_ids[j], M, name=f"w{k}_{j}")
                    coeffs[prod[key]] = coeffs.get(prod[key], 0.0) + Mk[i, j]
        for k in range(inst.dim_x):
            if U.G[i, k] != 0.0:
                coeffs[x_ids[k]] = coeffs.get(x_ids[k], 0.0) - U.G[i, k]
        m.add_constr(coeffs, LEQ, float(U.h[i]), name=f"U[{i}]")
    add_recourse_rows(m, Y, y_ids, x_ids=x_ids, u_ids=u_ids)
    obj = {x_ids[k]: float(inst.c1[k]) for k in range(inst.dim_x)
           if inst.c1[k] != 0.0}
    for j in range(inst.dim_y):
        if Y.c2[j] != 0.0:
            obj[y_ids[j]] = float(Y.c2[j])
    m.set_objective(obj, sense="min")
    return m, {"x": x_ids, "u": u_ids, "y": y_ids}


def _extra_bases(inst: Instance, x: np.ndarray, beta: np.ndarray,
                 first: BasisId, time_limit: float | None = None) -> list[BasisId]:
    """Alternative optimal bases at the same seed, probed by tiny
    deterministic tilts of the dual weights. A probe that fails is skipped;
    one that runs out of time raises SolveTimeLimit."""
    beta = np.asarray(beta, dtype=float)
    eps = 1e-7 * max(1.0, float(np.abs(beta).max(initial=0.0)))
    found: list[BasisId] = []
    for k in range(min(_EXTRA_BASES, beta.size)):
        tilted = beta.copy()
        tilted[k] += eps
        try:
            b = lp_parametric(inst, x, tilted, time_limit=time_limit).basis
        except SolveTimeLimit:
            raise
        except BackendError:
            continue
        if b != first and b not in found:
            found.append(b)
    return found


def _u_box_midpoint(inst: Instance, x0: np.ndarray,
                    time_limit: float | None = None) -> np.ndarray:
    """Midpoint of the per-coordinate range of the uncertainty set at x0,
    the default core scenario of the stabilized cut selection."""
    Fx, rhs = inst.U.F.evaluate(x0), inst.U.h + inst.U.G @ x0
    lo = np.array([range_probe(Fx, rhs, j, "min", time_limit)
                   for j in range(inst.U.dim)])
    hi = np.array([range_probe(Fx, rhs, j, "max", time_limit)
                   for j in range(inst.U.dim)])
    if not np.all(np.isfinite(hi)):
        raise BackendError("uncertainty range probe ended Unbounded")
    return (lo + hi) / 2.0


# -- artifacts ---------------------------------------------------------------

def records_to_csv(records: list[IterationRecord]) -> str:
    """One CSV row per iteration: t,lb,ub,gap,elapsed_s,cut_kind,seed_id."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "lb", "ub", "gap", "elapsed_s", "cut_kind", "seed_id"])
    for r in records:
        w.writerow([r.t, repr(float(r.lb)), repr(float(r.ub)),
                    repr(float(r.gap)), f"{r.elapsed_s:.6f}", r.cut_kind,
                    r.seed_id])
    return buf.getvalue()


def run_result_to_dict(res: RunResult) -> dict:
    """JSON-safe summary; non-finite bounds become None."""

    def num(v: float | None) -> float | None:
        if v is None or not np.isfinite(v):
            return None
        return float(v)

    return {
        "status": res.status,
        "objective": num(res.objective),
        "x": None if res.x is None else [float(v) for v in res.x],
        "lb": num(res.lb),
        "ub": num(res.ub),
        "n_iterations": res.n_iterations,
        "elapsed_s": float(res.elapsed_s),
        "variant": res.variant,
        "meta": {k: v for k, v in res.meta.items()
                 if isinstance(v, (str, int, float, bool, type(None)))},
    }
