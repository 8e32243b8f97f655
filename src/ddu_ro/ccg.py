"""Column-and-constraint generation for two-stage robust problems whose
uncertainty set depends on the first stage.

Four master flavors share one outer loop: scalar dual cuts ("benders"),
parametric cuts with recourse replicates ("parametric"), the same with
perturbed-unique scenario vertices ("parametric-modified"), and basis-indexed
cutting sets ("basis").  Two approximation loops reuse the parametric master:
one for mixed-integer recourse, one that brackets a decision-independent
problem between decision-dependent surrogates.  A run stops when the gap
closes or the master repeats a first stage, whose worst case it holds.

A master holds its cuts as data (MasterState.cuts), one per seed that a
subproblem found: a dual point, a dual ray or a basis. It is a MIP over the
first stage x and eta, unless MasterState.solve can value it over X's
integer lattice (see there): each cut is then priced lazily, only at the
points whose bound can still decide the argmin, in LPs of one copy per
point that backend.solve_copies narrows by halves where they are not
Optimal. A benders cut is valued there from its seed, by one LP over U(x);
its optimality block, and so its big-M, is written only for the MIP, once
the master leaves the lattice. Every other cut is written when it is added
and valued by the LP of its own rows. The deterministic relaxation is
valued over the same lattice where its columns outside x are continuous and
its copies are few enough (_lattice_relaxation).

What a run derives from the instance alone, it derives once per instance
(Instance.fact), so runs of several variants on one instance, as in the
paper's numerical study and `ddu-ro compare`, share it: X's lattice
(instances.lattice_first_stages, which the oracle reads too), and per
big-M the relaxation step (_relaxation): whether the deterministic
relaxation is feasible, its optimal x and value, and eta's floor.
RunResult.meta["facts"] reads "computed" where the run derived either and
"reused" where it took both from the instance.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import backend
from .backend import EQ, GEQ, LEQ, BackendError, LinearModel, SolveTimeLimit
from .instances import OracleError, coupled_continuous, lattice_first_stages
from .maxmin import (OptimalityBlock, ParametricLPResult, build_optimality_block,
                     dual_bound, ensure_unique_optimum, lp_parametric)
from .model import (BasisId, Instance, IterationRecord, RunResult, SchemaError,
                    UncertaintySet, add_first_stage, add_recourse_rows, add_recourse_vars,
                    affine_blocks, binary_coupling, build_deterministic_mip, range_probe,
                    relative_gap, uncertainty_sets_from_list)
from .subproblems import (_FEAS_TOL, _RAY_TOL, recourse_mip_at, sp1, sp2, sp2_mip_relax,
                          sp2_pareto_lp, sp3, sp4)

VARIANTS = ("benders", "parametric", "parametric-modified", "basis")

# gaps at or below this are reported Optimal rather than GapReached; it is
# also the floor under user tolerances, since the backend itself does not
# resolve bounds more finely
_OPT_GAP = 1e-7

_X_REPEAT_TOL = 1e-7
# eta's lower bound, binding only before the first optimality cut, unless
# the relaxation puts a valid floor lower (_eta_floor)
_ETA_LB = -1e7
# the points of a lattice master's first round where the state values its
# cuts by seed: a copy of the LP over U(x) costs little next to the LP (on
# a 2-vCPU host, 8 copies of pm_uk8's 9 x 8 U(x) took 1.20 ms, one 1.15 ms),
# and pm_uk8 benders' masters took 37 ms at 8 against 65 ms at 1 (39 ms at
# 4, 41 ms at 16; medians of 15 runs)
_SEED_ROUND = 8
# the most entries, lattice points times the nonzeros of the rows after X's,
# that _lattice_relaxation values by LPs over copies; past it the
# deterministic MIP is the faster (see there)
_RELAXATION_ENTRIES = 1e5


@dataclass
class AlgorithmConfig:
    """Knobs of one solver run.

    cut_mode None picks the variant default: split for benders (its cuts are
    scalar rows with nothing to unify), unified for the replicate masters.
    The basis variant's cutting sets have no cut mode. run holds big_M in
    backend for the run's length (backend.big_m), as it holds time_limit_s
    (backend.deadline); an infinite time_limit_s sets no limit.
    """

    variant: str = "parametric"
    tol: float = 1e-3
    time_limit_s: float = 3600.0
    big_M: float = backend.DEFAULT_BIG_M
    cut_mode: str | None = None
    pareto: bool = False
    mip_recourse_mode: bool = False
    diu_approx: list[UncertaintySet] | str | None = None
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.cut_mode not in (None, "split", "unified"):
            raise ValueError(f"unknown cut_mode {self.cut_mode!r}")
        if self.variant == "benders" and self.cut_mode == "unified":
            raise ValueError("scalar dual cuts have no recourse replicate to unify")
        if self.variant == "basis" and self.cut_mode is not None:
            raise ValueError("basis cutting sets have no cut_mode")
        # written so that nan fails each test
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        if not 0 < self.big_M < np.inf:
            raise ValueError("big_M must be finite and positive")
        if not self.time_limit_s > 0:
            raise ValueError("time_limit_s must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @property
    def unified(self) -> bool:
        if self.cut_mode is not None:
            return self.cut_mode == "unified"
        return self.variant != "benders"


class _OffLattice(Exception):
    """The master has a cut that the lattice route cannot value exactly."""


class _Cut(NamedTuple):
    """One seed the master holds (MasterState.add_seed): its tag, p, r or b
    for a point, ray or basis and the count of that kind before it; the
    dual point or ray (is_ray) of a benders or replicate cut, or the basis
    of a basis cutting set; and the cost row its blocks pin."""
    tag: str
    seed: np.ndarray | BasisId
    is_ray: bool
    cost_row: np.ndarray | None


class MasterState:
    """The master: its cuts, the model that holds those written, and the
    lattice route that values them.

    cuts lists every seed added (add_seed) as a _Cut, in order. Its writers
    (_add_dual_seed, _add_basis_seed) write the cuts into the model in cut
    order, each when it is added, unless the state values its cuts by seed
    (_by_seed: benders against the instance's own set while the lattice
    route holds). Those are written when code reads model, which writes
    every cut not yet written first, as solve does once the route is left;
    so the MIP gets the same rows in the same order either way. blocks
    holds the blocks written, by tag. Variable and row ids are append-only,
    so a cut written in iteration t keeps referencing the first-stage
    columns of iteration zero. ou_sets, when given, replaces the instance's
    own uncertainty set in every optimality block: each point seed then
    gets one block per listed set. The blocks read the big-M that backend
    holds (backend.big_m), not config.big_M, which run puts there.

    solve() values the master over X's integer lattice (the first stages of
    instances.lattice_first_stages) while the instance allows it: no
    continuous x that U(x) or the recourse rows read, no integer recourse
    and no coupled x but binary ones. That is exact: each cut's rows read
    only the integer x, eta and the cut's own columns, none of them
    integer, and bound eta from below (a test checks every writer); a
    product of a 0/1 x with a column is exact once x is fixed, and the
    separable continuous x meet only c1 and X. So at a lattice point x the
    master is c1'x plus the largest of eta's lower bound and each cut's
    least eta there, an LP per cut; a point where some cut's LP is
    infeasible is cut off (the master of Zeng and Zhao 2013, solved by
    enumerating the first stages, one of the master strategies that
    Rahmaniani et al., EJOR 2017, survey). A point is valued lazily, only
    when the argmin needs it (_lattice_solve), and then at every cut added
    since its last valuation (_cut_values): from the seeds, by an LP over
    U(x) with no lambda and no big-M, where the state values its cuts by
    seed, else by the LP of the cuts' rows. A copy that ends other than
    _cut_values allows, or a lattice that instances.lattice_first_stages
    refuses (OracleError), sends this and every later solve to
    backend.solve_mip. The lattice is the instance's one read-only array,
    derived once per instance and shared by every state on it and by the
    oracle (lattice()); derived marks a run that derived a fact of the
    instance, the lattice or the relaxation step (_ccg_loop). Its cost
    follows the first stages X admits, not its bound box: the search of
    enumeration.lattice_points visits only the prefixes X's rows can
    complete. lattice_copies counts the copies the route has solved.
    """

    def __init__(self, inst: Instance, config: AlgorithmConfig,
                 ou_sets: list[UncertaintySet] | None = None):
        self.inst = inst
        self.config = config
        self.ou_sets = list(ou_sets) if ou_sets is not None else None
        self._model = LinearModel(name=f"{inst.name}-{config.variant}-master")
        self.x_ids = add_first_stage(self._model, inst)
        binary = binary_coupling(self._model, inst.U, self.x_ids)
        if config.variant == "basis" and not binary:
            raise ValueError(
                "basis cutting sets multiply first-stage terms into the "
                "alternative system; non-binary coupled components have no "
                "exact linearization")
        self.eta_id = self._model.add_vars(1, _ETA_LB, np.inf)[0]
        self._model.set_objective({**dict(zip(self.x_ids, inst.c1)), self.eta_id: 1.0}, "min")
        self.cuts: list[_Cut] = []
        self.blocks: dict[str, OptimalityBlock | None] = {}
        # the model's first column and row of each cut written, in cut order
        self._starts: list[tuple[int, int]] = []
        # the lattice route: whether it holds; the points (the instance's
        # lattice, read at the first lattice()) and, per point, the number of
        # cuts valued there and the largest least eta among them
        self._route = not (coupled_continuous(inst) or inst.Y.n_int_y or not binary)
        self._points: np.ndarray | None = None
        self._done: np.ndarray | None = None
        self._theta: np.ndarray | None = None
        self.masters_lattice = self.masters_mip = self.lattice_copies = 0
        # whether the run derived a fact of the instance (Instance.fact)
        self.derived = False

    @property
    def model(self) -> LinearModel:
        """The master MIP, every cut written."""
        self._write()
        return self._model

    def _write(self) -> None:
        """Write every cut not yet written into the model, in cut order."""
        writer = _add_basis_seed if self.config.variant == "basis" else _add_dual_seed
        for cut in self.cuts[len(self._starts):]:
            self._starts.append((self._model.n_vars, self._model.n_constrs))
            writer(self, cut)

    @property
    def _by_seed(self) -> bool:
        return self._route and self.config.variant == "benders" and self.ou_sets is None

    @property
    def point_seeds(self) -> list[np.ndarray]:
        return [c.seed for c in self.cuts if c.tag[0] == "p"]

    @property
    def ray_seeds(self) -> list[np.ndarray]:
        return [c.seed for c in self.cuts if c.tag[0] == "r"]

    @property
    def basis_seeds(self) -> list[BasisId]:
        return [c.seed for c in self.cuts if c.tag[0] == "b"]

    def lattice(self) -> np.ndarray | None:
        """X's lattice points, one row each, while the route holds, else
        None: the instance's own read-only array, read at the first call,
        which leaves the route where instances.lattice_first_stages raises
        OracleError."""
        if self._route and self._points is None:
            self.derived |= not self.inst.knows(lattice_first_stages)
            try:
                self._points = lattice_first_stages(self.inst)
            except OracleError:
                self._route = False
                return None
            self._done = np.zeros(len(self._points), dtype=int)
            self._theta = np.full(len(self._points), -np.inf)
        return self._points if self._route else None

    def solve(self, **mip_options) -> backend.SolveOutcome:
        """The master's optimum, exact (bound = objective) over the lattice
        while the route holds (see the class docstring), else from
        backend.solve_mip with mip_options."""
        if self.lattice() is not None:
            try:
                out = self._lattice_solve()
                self.masters_lattice += 1
                return out
            except _OffLattice:
                self._route = False
        self.masters_mip += 1
        return backend.solve_mip(self.model, **mip_options)

    def _lattice_solve(self) -> backend.SolveOutcome:
        """The first point of least true value c1'x + max(eta's lower
        bound, each cut's least eta), with eta at that max; Infeasible when
        every point is cut off.

        A point's bound L = c1'x + max(eta's lower bound, θ) takes θ, the
        largest least eta, over the cuts valued there only, so true >= L
        at every point, with equality where no cut is pending. Each round
        takes the first argmin k of L and returns it once nothing is pending
        at k. Otherwise it values the pending cuts (_cut_values) at the
        pending points of L at most V, the least true value of a point with
        nothing pending, in order of L: the first round k alone, or the
        first _SEED_ROUND points where the state values its cuts by seed,
        each later round twice as many points. Those are the only points
        that can still tie or beat V. A round takes at least every such
        point not yet valued at all: its L rests on eta's lower bound alone,
        at most _ETA_LB, as a rule far below what the cuts give, so it would
        stay due round after round (the first master with a cut values every
        point at once). At the return L(k) is k's true
        value, every q < k has true(q) >= L(q) > L(k) and every q > k has
        true(q) >= L(q) >= L(k); so k is the first argmin of the true
        values, as if every cut had been valued at every point. A
        point whose L is +inf is cut off for good, as θ only rises."""
        c1x = self._points @ self.inst.c1
        eta_lb = self._model.columns()[0][self.eta_id]
        size = _SEED_ROUND if self._by_seed else 1
        while True:
            eta = np.maximum(eta_lb, self._theta)
            bound = c1x + eta
            if not np.isfinite(bound).any():
                return backend.SolveOutcome(status=backend.INFEASIBLE)
            k = int(np.argmin(bound))
            pending = self._done < len(self.cuts)
            if not pending[k]:
                break
            V = np.min(bound[~pending], initial=np.inf)
            due = np.flatnonzero(pending & (bound <= V) & np.isfinite(bound))
            fresh = int(np.sum(self._theta[due] == -np.inf))
            due = np.sort(due[np.argsort(bound[due], kind="stable")][:max(size, fresh)])
            # a point's pending cuts are those from its count on; the cuts
            # from the least count are valued at every point of the round,
            # which only repeats a value where a count is higher
            j = self._done[due].min()
            self._theta[due] = np.maximum(self._theta[due], _cut_values(self, j, due))
            self._done[due] = len(self.cuts)
            self.lattice_copies += len(due)
            size *= 2
        x = np.full(self._model.n_vars, np.nan)
        x[self.x_ids], x[self.eta_id] = self._points[k], eta[k]
        return backend.SolveOutcome(status=backend.OPTIMAL, objective=float(bound[k]),
                                    x=x, bound=float(bound[k]))

    def add_seed(self, seed: np.ndarray | BasisId, is_ray: bool = False,
                 cost_row: np.ndarray | None = None) -> str:
        """Insert one seed as a cut and return its tag: a dual point, or a
        ray with is_ray, for benders and the replicate variants, a basis of
        [F(x) | I] for "basis".  cost_row, a standard-form row over (u,
        slacks), scales the dual bound (dual_bound): for a dual seed it is
        the objective the optimality blocks pin, by default (-E' seed, 0),
        for a basis the parametric LP's, without which the bound is the
        run's big-M."""
        if self.config.variant == "basis":
            tag = f"b{len(self.cuts)}"
        else:
            seed = np.asarray(seed, dtype=float)
            tag = f"{'r' if is_ray else 'p'}{sum(c.is_ray == is_ray for c in self.cuts)}"
        self.cuts.append(_Cut(tag, seed, is_ray, cost_row))
        if not self._by_seed:
            self._write()
        return tag

    def cut(self, x: np.ndarray, beta: np.ndarray, is_ray: bool,
            basis_lp: ParametricLPResult | None = None) -> tuple[str, str]:
        """Cut the dual point (or ray, with is_ray) beta found at first stage
        x into the master the way the configured variant does, and return
        (cut kind, tag of the last seed added).

        The basis variant inserts the basis of basis_lp, sp2's parametric LP
        at x when given, and the parametric-LP basis at beta, which differs
        from it only where the Pareto step moved the seed (Magnanti and
        Wong 1981), each scaled by the cost row of its own LP; the LP at beta
        is basis_lp itself where beta is the seed basis_lp was solved at. A
        basis the master already holds is not added again, and the tag is
        empty when neither was new.  A dual seed is added even when it
        repeats.  Either way such a cut adds no bound the master lacked, and
        the loop stops on the first stage that the next master repeats.
        """
        inst, cfg = self.inst, self.config
        if cfg.variant == "basis":
            at_seed = (basis_lp if basis_lp is not None and np.array_equal(basis_lp.beta, beta)
                       else lp_parametric(inst, x, beta))
            # a basis just added is in basis_seeds when the next is tested
            tags = [self.add_seed(lp.basis, cost_row=lp.cost_row)
                    for lp in (basis_lp, at_seed)
                    if lp is not None and lp.basis not in self.basis_seeds]
            return "basis", tags[-1] if tags else ""
        cost_row = None
        if cfg.variant == "parametric-modified":
            _, cost_row = ensure_unique_optimum(inst, x, beta)
        kind = "feasibility" if is_ray else "optimality"
        return ("unified" if cfg.unified else kind,
                self.add_seed(beta, is_ray, cost_row))


def _vector_seen(pool: list[np.ndarray], v: np.ndarray, tol: float) -> bool:
    v = np.asarray(v, dtype=float)
    return any(p.shape == v.shape and float(np.max(np.abs(p - v), initial=0.0)) <= tol
               for p in pool)


# -- seed insertion ------------------------------------------------------------

def _add_dual_seed(state: MasterState, cut: _Cut) -> None:
    """Write a dual seed's cut: one block per uncertainty set pinning the
    seed's worst case u, an optimum (build_optimality_block) of the cut's
    cost_row where given, else of the set's row (-E' beta, 0), then for
    benders a scalar cut on it, for the replicate variants a recourse
    replicate y with its feasibility rows against u.

    Scalar point pi:  eta >= pi'd - pi'B1 x - pi'E u,  u optimal for LP(x, pi).
    Scalar ray gamma: 0 >= gamma'd - gamma'B1 x - gamma'E v, v optimal for
    LP(x, gamma), which excludes exactly the x whose recourse gamma certifies
    infeasible.  A replicate gets eta >= c2'y for points, or always in
    unified mode.
    """
    cfg, Y, model = state.config, state.inst.Y, state._model
    beta = cut.seed
    sets = state.ou_sets if state.ou_sets is not None else [state.inst.U]
    for li, U_l in enumerate(sets):
        tag = cut.tag if state.ou_sets is None else f"{cut.tag}s{li}"
        row = (np.concatenate([-(Y.E.T @ beta), np.zeros(U_l.n_rows)])
               if cut.cost_row is None else cut.cost_row)
        blk = build_optimality_block(model, U_l, row, state.x_ids)
        eta = [] if cut.is_ray and not cfg.unified else [([state.eta_id], [[1.0]])]
        if cfg.variant == "benders":
            model.add_rows([(state.x_ids, Y.B1.T @ beta), (blk.u_ids, Y.E.T @ beta),
                            *eta], GEQ, [Y.d @ beta])
        else:
            y_ids = add_recourse_vars(model, Y)
            add_recourse_rows(model, Y, y_ids, state.x_ids, blk.u_ids)
            if eta:
                model.add_rows([*eta, (y_ids, -Y.c2[None])], GEQ, [0.0])
        state.blocks[tag] = blk


def _add_basis_seed(state: MasterState, cut: _Cut) -> None:
    """Write the cutting set indexed by a basis of the standard form
    [F(x) | I], the cut's seed.

    A row whose slack is nonbasic becomes an equality on the basic structural
    coordinates, with paired deviation columns u1, u2; a row whose slack stays
    basic becomes an inequality with deviation u3.  The alternative-system
    multipliers lam make the eta row vacuous exactly when the basis is
    infeasible at x: free on equality rows, nonnegative on the rest.  Products
    of x with u or lam, which appear whenever the set's shape follows x, are
    enveloped; MasterState has already rejected non-binary coupled x.

    The primal side (the products of x with u) is bounded by the run's
    big-M M (backend.current_big_m).  The dual side (the deviation penalty,
    the box on lam and the products of x with lam) is bounded by M_d =
    dual_bound(U, cost_row), the bound an optimality block of the same seed
    puts on its lam, the cut's cost_row being the standard-form cost row
    (-E' beta, 0) of the parametric LP that gave the basis.  A unit deviation
    of row i moves the recourse cost by up to the basis's dual lam_i, so the
    penalty is exact where the recourse duals stay within the seed's scale.
    Without cost_row M_d is M.
    """
    inst, basis = state.inst, cut.seed
    U, Y = inst.U, inst.Y
    n, mu = U.dim, U.n_rows
    model, x_ids = state._model, state.x_ids
    M, M_d = backend.current_big_m(), dual_bound(U, cut.cost_row)

    coupled = U.coupled_columns
    struct_basic = [j for j in basis.indices if j < n]
    slack_basic = {j - n for j in basis.indices if j >= n}
    eq_rows = [i for i in range(mu) if i not in slack_basic]
    ineq_rows = sorted(slack_basic)
    n_eq, n_ineq = len(eq_rows), len(ineq_rows)

    u_ids = model.add_vars(len(struct_basic))
    ubar1 = model.add_vars(n_eq)
    ubar2 = model.add_vars(n_eq)
    ubar3 = model.add_vars(n_ineq)
    # infeasible bases are neutralized by scaling lam along a negative-value
    # cone direction, so lam stays unbounded unless x-products force a box
    lam_lo, lam_hi = (-M_d, M_d) if coupled else (-np.inf, np.inf)
    lam_n = model.add_vars(n_eq, lb=lam_lo, ub=lam_hi)
    lam_b = model.add_vars(n_ineq, lb=0.0, ub=M_d if coupled else np.inf)
    # lam_n is free, so its products with x take the shifted envelope
    lam, lam_low = lam_n + lam_b, [-M_d] * n_eq + [0.0] * n_ineq
    products: dict[tuple[int, int], int] = {}

    eye_eq = np.eye(n_eq)
    model.add_rows([*affine_blocks(model, U.F.take(eq_rows, struct_basic), u_ids,
                                   x_ids, M, products),
                    (ubar1, -eye_eq), (ubar2, eye_eq), (x_ids, -U.G[eq_rows])],
                   EQ, U.h[eq_rows])
    model.add_rows([*affine_blocks(model, U.F.take(ineq_rows, struct_basic), u_ids,
                                   x_ids, M, products),
                    (ubar3, -np.eye(n_ineq)), (x_ids, -U.G[ineq_rows])],
                   LEQ, U.h[ineq_rows])

    # alternative-system cone, one row per basic structural column that
    # meets some row
    alt = affine_blocks(model, U.F.take(eq_rows + ineq_rows, struct_basic), lam,
                        x_ids, M_d, products, transpose=True, lo=lam_low)
    meets = np.any([np.any(A != 0.0, axis=1) for _, A in alt], axis=0)
    model.add_rows([(ids, A[meets]) for ids, A in alt], GEQ,
                   np.zeros(int(meets.sum())))

    y_ids = add_recourse_vars(model, Y)
    model.add_rows([(y_ids, Y.B2), (x_ids, Y.B1), (u_ids, Y.E[:, struct_basic])],
                   GEQ, Y.d)

    # eta >= c2'y + M_d (deviation mass) + (h + G x)' lam
    rhs = affine_blocks(model, U.rhs_map.take(eq_rows + ineq_rows, [0]), lam, x_ids,
                        M_d, products, transpose=True, lo=lam_low)
    deviation = ubar1 + ubar2 + ubar3
    model.add_rows([([state.eta_id], [[1.0]]), (y_ids, -Y.c2[None]),
                    (deviation, np.full((1, len(deviation)), -M_d)),
                    *[(ids, -A) for ids, A in rhs]], GEQ, [0.0])
    state.blocks[cut.tag] = None


# -- the master over the lattice ------------------------------------------

def _cut_values(state: MasterState, j: int, at: np.ndarray) -> np.ndarray:
    """At the lattice points of index array at, the least eta that the cuts
    from j on allow with x fixed there, +inf where they allow none: from
    their seeds (_seed_values), with eta's lower bound under them, where the
    state values its cuts by seed, else by the LP of their rows with their
    own columns and eta free (_block_values)."""
    model, n_int = state._model, state.inst.X.n_int
    if state._by_seed:
        return np.maximum(model.columns()[0][state.eta_id],
                          _seed_values(state, state.cuts[j:], at))
    n0, m0 = state._starts[j]
    own = [*range(n0, model.n_vars), state.eta_id]
    return _block_values(model, m0, own, state.x_ids[:n_int],
                         state._points[at, :n_int], np.r_[np.zeros(len(own) - 1), 1.0])[0]


def _block_values(model: LinearModel, first: int, own, x_ids, points: np.ndarray, cost):
    """With the columns x_ids at each of the points, the least cost'v over
    the rows from first on, v the columns own, +inf where they allow none,
    and each v: backend.solve_copies, one copy per point, with only the
    rows' entries on x made dense. Raises _OffLattice where a copy ends
    neither Optimal nor Infeasible."""
    A, senses, rhs = model.rows(first, own)
    (indptr, cols, vals), _, _ = model.rows(first, x_ids)
    B = np.zeros((rhs.size, len(x_ids)))
    B[np.repeat(np.arange(rhs.size), np.diff(indptr)), cols] = vals
    lb, ub, _ = model.columns()
    status, v = backend.solve_copies(model.name, A, senses, rhs - points @ B.T,
                                     lb[own], ub[own], cost)
    if not np.isin(status, (backend.OPTIMAL, backend.INFEASIBLE)).all():
        raise _OffLattice
    return np.where(status == backend.OPTIMAL, v @ cost, np.inf), v


def _seed_values(state: MasterState, cuts: list[_Cut], at: np.ndarray) -> np.ndarray:
    """The largest bound on eta of the benders cuts at the points at. With
    w = max{(-E' beta)'u : u in U(x)}, a point seed beta bounds eta by
    beta'(d - B1 x) + w, +inf where U(x) is empty or w unbounded, as its
    block and cut row do; a ray gamma cuts x off (+inf) where gamma'(d - B1
    x) + w exceeds _RAY_TOL, the margin by which sp3 certifies a ray, and
    bounds nothing (-inf) elsewhere. The w come from backend.solve_copies,
    one copy per (point, seed) of min{(E' beta)'u : F(x) u <= h + G x, u >=
    0}, one solve_copies per distinct F(x) among the points. Raises
    _OffLattice where a copy ends other than Optimal, Infeasible or
    Unbounded."""
    U, Y = state.inst.U, state.inst.Y
    x = state._points[at]
    beta, is_ray = np.array([c.seed for c in cuts]), np.array([c.is_ray for c in cuts])
    cost, h = beta @ Y.E, U.h + x @ U.G.T
    w = np.empty((len(at), len(cuts)))
    terms = [k for k, _ in U.F.terms]
    group = (np.unique(x[:, terms], axis=0, return_inverse=True)[1] if terms
             else np.zeros(len(at), dtype=int))
    for g in range(group.max() + 1):
        pts = np.flatnonzero(group == g)
        F = U.F.evaluate(x[pts[0]])
        rhs, cost_k = np.repeat(h[pts], len(cuts), axis=0), np.tile(cost, (len(pts), 1))
        status, u = backend.solve_copies(state._model.name, F, LEQ, rhs, 0.0, np.inf, cost_k)
        if not np.isin(status, (backend.OPTIMAL, backend.INFEASIBLE, backend.UNBOUNDED)).all():
            raise _OffLattice
        w[pts] = np.where(status == backend.OPTIMAL, -np.einsum("kn,kn->k", u, cost_k),
                          np.inf).reshape(len(pts), len(cuts))
    bound = (Y.d - x @ Y.B1.T) @ beta.T + w
    return np.where(is_ray, np.where(bound > _RAY_TOL, np.inf, -np.inf), bound).max(axis=1)


# -- the outer loop ---------------------------------------------------------

def run(inst: Instance, config: AlgorithmConfig | None = None) -> RunResult:
    """Solve the robust problem to the configured gap within the config's
    wall clock.

    Both stages must be continuous unless the config picks one of the two
    approximation loops (not both), each on the parametric master:
    - mip_recourse_mode brackets a mixed-integer recourse: masters replicate
      the integer columns, the optimality subproblem relaxes them, and each
      incumbent is repriced by the exact recourse before the residual worst
      case is added back in;
    - diu_approx brackets a decision-independent problem between
      decision-dependent surrogates: subproblems run against the instance's
      own set, masters carry one optimality block per (seed, surrogate)
      pair. Lower bounds are valid whenever every surrogate is contained in
      the instance's set at every x; the gap closes only when some surrogate
      is exact, so a repeated first stage freezes the bounds and reports
      Stalled.
    """
    config = config or AlgorithmConfig()
    if config.mip_recourse_mode and config.diu_approx is not None:
        raise ValueError("mip_recourse_mode and diu_approx pick two different "
                         "approximation loops; set one of them")
    ddu_sets = None
    if config.mip_recourse_mode:
        if config.variant != "parametric":
            raise ValueError("the mixed-integer recourse scheme runs on the "
                             "parametric master")
    elif config.diu_approx is not None:
        ddu_sets = _resolve_ddu_sets(inst, config.diu_approx)
        if config.variant != "parametric":
            raise ValueError("the decision-independent approximation runs on the "
                             "parametric master")
    if inst.U.n_int_u and ddu_sets is None:
        raise ValueError("integer uncertainty coordinates need the "
                         "decision-independent approximation loop (diu_approx)")
    if inst.Y.n_int_y and not config.mip_recourse_mode:
        raise ValueError("integer recourse variables need mip_recourse_mode")
    mode = "diu" if ddu_sets is not None else "mip" if inst.Y.n_int_y else "exact"
    if config.pareto and mode != "exact":
        raise ValueError("the Pareto seed selection runs in the exact loop only, "
                         f"not in the {mode} approximation loop")
    with backend.deadline(config.time_limit_s), backend.big_m(config.big_M):
        return _ccg_loop(inst, config, mode, ddu_sets)


def _resolve_ddu_sets(inst: Instance,
                      spec: list[UncertaintySet] | str) -> list[UncertaintySet]:
    if isinstance(spec, str):
        if spec != "metadata":
            raise ValueError(f"unknown diu_approx descriptor {spec!r}")
        raw = inst.metadata.get("ddu_sets")
        if not isinstance(raw, list) or not raw:
            raise ValueError("instance metadata carries no list of ddu_sets")
        try:
            spec = uncertainty_sets_from_list(raw, "metadata.ddu_sets", inst.dim_x, inst.U.dim)
        except SchemaError as exc:
            raise ValueError(str(exc)) from exc
    if not spec:
        raise ValueError("at least one surrogate uncertainty set is required")
    for U_l in spec:
        if U_l.dim != inst.U.dim:
            raise ValueError("surrogate set has a different uncertainty dimension")
        if U_l.G.shape[1] != inst.dim_x:
            raise ValueError("surrogate set couples a first-stage space of "
                             "different dimension")
    return list(spec)


# the probe LPs of MasterState.cut, named in the reason of a timeout there
_CUT_STEP = {"basis": "basis probe", "parametric-modified": "uniqueness perturbation"}


def _ccg_loop(inst: Instance, config: AlgorithmConfig, mode: str,
              ddu_sets: list[UncertaintySet] | None = None) -> RunResult:
    """The outer loop; its solves share the deadline that run() sets."""
    t0 = time.monotonic()
    stop_tol = max(config.tol, _OPT_GAP)
    # HiGHS stops a MIP at a relative gap of 1e-4, and lb is the master's
    # dual bound, so a finer tol needs MIP masters solved that finely; a
    # master valued over the lattice is exact
    master_gap = {"mip_rel_gap": stop_tol} if stop_tol < 1e-4 else {}
    feas_tol = _FEAS_TOL * max(1.0, float(np.abs(inst.Y.d).max(initial=0.0)))

    state = MasterState(inst, config, ou_sets=ddu_sets)
    meta: dict = {"mode": mode, "cut_mode": "unified" if config.unified else "split"}
    records: list[IterationRecord] = []
    lb, ub = -np.inf, np.inf
    incumbent: np.ndarray | None = None
    step = None   # the step whose solves are running; None before the loop

    def done(status: str) -> RunResult:
        obj = float(ub) if np.isfinite(ub) else None
        meta["point_seeds"] = [tuple(map(float, v)) for v in state.point_seeds]
        meta["ray_seeds"] = [tuple(map(float, v)) for v in state.ray_seeds]
        meta["n_basis_seeds"] = len(state.basis_seeds)
        # the blocks written: none where a benders master stays on the lattice
        blocks = [b for b in state.blocks.values() if b is not None]
        meta["blocks_primal_dual"] = sum(b.representation == "primal-dual"
                                         for b in blocks)
        meta["blocks_kkt"] = len(blocks) - meta["blocks_primal_dual"]
        meta["masters_lattice"] = state.masters_lattice
        meta["masters_mip"] = state.masters_mip
        meta["lattice_copies"] = state.lattice_copies
        meta["facts"] = "computed" if state.derived else "reused"
        return RunResult(status=status, objective=obj,
                         x=incumbent, lb=float(lb), ub=float(ub), iterations=records,
                         elapsed_s=time.monotonic() - t0, variant=config.variant,
                         meta=meta)

    try:
        # the deterministic relaxation settles infeasibility up front, floors the
        # first bound, and anchors the stabilized cut selection
        key = (_relaxation, backend.current_big_m())
        state.derived |= not inst.knows(key)
        relaxation = inst.fact(key, lambda: _relaxation(state))
        if relaxation is None:
            meta["reason"] = "deterministic relaxation infeasible"
            return done("Infeasible")
        x0, lb, eta_floor = relaxation
        meta["relaxation_value"] = lb
        if -np.inf < eta_floor < _ETA_LB:
            state.model.set_bounds(state.eta_id, eta_floor, np.inf)

        seen_x: list[np.ndarray] = []
        prev_us: np.ndarray | None = None
        u_mid: np.ndarray | None = None
        t = 0

        def record(cut_kind: str, seed_id: str) -> None:
            records.append(IterationRecord(
                t=t, lb=float(lb), ub=float(ub), gap=relative_gap(lb, ub),
                elapsed_s=time.monotonic() - t0, cut_kind=cut_kind, seed_id=seed_id))

        def gap_status() -> str | None:
            gap = relative_gap(lb, ub)
            if gap < -stop_tol:
                meta["reason"] = f"lower bound {lb!r} exceeds upper bound {ub!r}"
                return "Numerical"
            if gap > stop_tol:
                return None
            return "Optimal" if gap <= _OPT_GAP else "GapReached"

        while True:
            t += 1
            step = "master"
            out = state.solve(**master_gap)
            if out.status == backend.INFEASIBLE:
                # feasibility cutting sets exclude every first stage
                meta["reason"] = "master infeasible"
                record("none", "master-infeasible")
                ub, incumbent = np.inf, None
                return done("Infeasible")
            if out.status != backend.OPTIMAL:
                raise BackendError(f"master solve ended {out.status}")
            # HiGHS stops at a relative MIP gap, so the incumbent may overstate
            # the master's value; its dual bound does not. Without a floor,
            # a master whose eta sits at _ETA_LB bounds nothing
            if eta_floor > -np.inf or out.x[state.eta_id] > _ETA_LB * (1 - 1e-9):
                lb = max(lb, float(out.objective if out.bound is None else out.bound))
            x_star = np.array([out.x[j] for j in state.x_ids])
            x_star[:inst.X.n_int] = np.round(x_star[:inst.X.n_int])

            if _vector_seen(seen_x, x_star,
                            _X_REPEAT_TOL * max(1.0, float(np.abs(x_star).max()))):
                # the worst case at x* was cut in at its first visit, so in
                # the exact loop the master's bound there meets sp2's value
                # (Zeng and Zhao 2013); anywhere else, or when the bounds
                # visibly did not meet, the honest report is Stalled
                meta["reason"] = "repeated first-stage"
                if mode == "exact" and -stop_tol <= relative_gap(lb, ub) <= 1e-6:
                    lb = ub
                record("none", "repeat-first-stage")
                return done(gap_status() or "Stalled")
            seen_x.append(x_star)

            step = "feasibility subproblem"
            r1 = sp1(inst, x_star)

            if r1.value <= feas_tol:
                step = "worst-case subproblem"
                solve_sp2 = sp2_mip_relax if mode == "mip" else sp2
                r2 = solve_sp2(inst, x_star, worst=r1.worst)

                if mode == "mip":
                    step = "exact recourse"
                    # no y: the integer recourse is not complete at this scenario
                    _, y_full = recourse_mip_at(inst, x_star, r2.u)
                    if y_full is not None:
                        step = "frozen-recourse subproblem"
                        y_d = np.round(y_full[:inst.Y.n_int_y])
                        s4 = sp4(inst, x_star, y_d)
                        if np.isfinite(s4.value) and float(inst.c1 @ x_star) + s4.value < ub:
                            ub = float(inst.c1 @ x_star) + s4.value
                            incumbent = x_star
                else:
                    cand = float(inst.c1 @ x_star) + r2.value
                    if cand < ub:
                        ub = cand
                        incumbent = x_star

                status = gap_status()
                if status is not None:
                    record("none", "gap")
                    return done(status)

                beta = r2.pi
                if config.pareto:
                    if u_mid is None:
                        step = "core scenario probe"
                        u_mid = _u_box_midpoint(inst, x0)
                    step = "Pareto seed subproblem"
                    u_ref = prev_us if prev_us is not None else u_mid
                    pol = sp2_pareto_lp(inst, x0, u_ref, x_star, r2.u, r2.value)
                    if pol.pi is not None:
                        beta = pol.pi
                prev_us = r2.u
                # sp2 reports no basis when U has integer coordinates
                is_ray, basis_lp = False, r2.basis_result
            else:
                step = "feasibility ray subproblem"
                beta = sp3(inst, x_star, r1.u).ray
                is_ray, basis_lp = True, None

            step = _CUT_STEP.get(config.variant)
            record(*state.cut(x_star, beta, is_ray, basis_lp))
            if config.max_iterations is not None and t >= config.max_iterations:
                meta["reason"] = "iteration cap"
                return done("Stalled")
    except SolveTimeLimit:
        meta["reason"] = f"{step} hit the wall clock" if step else "wall clock"
        return done("TimeLimit")
    except BackendError as exc:
        meta["reason"] = str(exc)
        return done("Numerical")


class _Relaxation(NamedTuple):
    """What a run takes from the deterministic relaxation (_relaxation):
    its optimal first stage x0, read-only, its value, a valid floor under
    every master bound, and eta's floor (_eta_floor)."""
    x0: np.ndarray
    value: float
    eta_floor: float


def _relaxation(state: MasterState) -> _Relaxation | None:
    """The deterministic relaxation at the run's big-M (backend.big_m),
    None where it is infeasible: over the state's lattice
    (_lattice_relaxation) where it can, else by the MIP of
    build_deterministic_mip. It reads only the instance and that big-M, so
    runs keep it by both (Instance.fact). Raises BackendError where it ends
    neither Optimal nor Infeasible."""
    det_model, det_ids = build_deterministic_mip(state.inst)
    det = (_lattice_relaxation(state, det_model, det_ids["x"])
           or backend.solve_mip(det_model))
    if det.status == backend.INFEASIBLE:
        return None
    if det.status != backend.OPTIMAL:
        raise BackendError(f"deterministic relaxation ended {det.status}; "
                           "the robust value has no finite floor")
    x0 = det.x[det_ids["x"]]
    x0.setflags(write=False)
    # the MIP's incumbent may lie above its dual bound by HiGHS's gap
    value = float(det.objective if det.bound is None else det.bound)
    return _Relaxation(x0, value, _eta_floor(state.inst, value))


def _lattice_relaxation(state: MasterState, model: LinearModel,
                        x_ids: list[int]) -> backend.SolveOutcome | None:
    """The optimum of build_deterministic_mip's model over the state's
    lattice, exact (bound = objective): at the first point of least c1'x
    plus the least recourse cost there, from _block_values over the columns
    outside x; X's rows, which every point meets, are left out. None
    where the state is off the lattice route, a column outside x is
    integer, a copy ends neither Optimal nor Infeasible, or the points times
    the nonzeros of those rows pass _RELAXATION_ENTRIES, a choice of speed
    alone (backend.solve_copies bounds each LP's memory). On ddu_uk
    p-medians at seeds 0-2 (2 vCPUs, medians of 5), these LPs against the
    MIP took 0.08-0.09 s against 0.05-0.10 s at 12 sites (110880 entries),
    0.16-0.18 s against 0.05-0.13 s at 14 sites and 0.33-0.45 s against
    0.10-0.25 s at 16; at 10 and 11 sites (43200 and 70785 entries) the MIP
    was ahead by at most 30 ms, where the LPs' bound is exact."""
    points = state.lattice()
    if points is None:
        return None
    own, first = np.setdiff1d(np.arange(model.n_vars), x_ids), state.inst.X.A.shape[0]
    if (model.columns()[2][own].any()
            or len(points) * model.rows(first)[0][2].size > _RELAXATION_ENTRIES):
        return None
    cost = model.objective_vector()
    try:
        values, v = _block_values(model, first, own, x_ids, points, cost[own])
    except _OffLattice:
        return None
    values += points @ cost[x_ids]
    if not np.isfinite(values).any():
        return backend.SolveOutcome(status=backend.INFEASIBLE)
    k = int(np.argmin(values))
    x = np.empty(model.n_vars)
    x[x_ids], x[own] = points[k], v[k]
    return backend.SolveOutcome(status=backend.OPTIMAL, objective=float(values[k]),
                                x=x, bound=float(values[k]))


def _eta_floor(inst: Instance, relaxation: float) -> float:
    """A lower bound on eta at every first stage: min(_ETA_LB, relaxation -
    max{c1'x : x in the LP relaxation of X}), since c1'x + Q(x) >=
    relaxation at every x of X.  Where that max is unbounded, min(_ETA_LB,
    min{c2'y : (x, u, y) in the deterministic relaxation}),
    since Q(x) is the recourse value at some u of U(x); -inf when that
    minimum does not exist either."""
    m = LinearModel(name="first_stage_max")
    x_ids = add_first_stage(m, inst)
    m.set_objective(dict(zip(x_ids, inst.c1)), "max")
    out = backend.solve_lp(m)
    if out.is_optimal:
        return min(_ETA_LB, relaxation - out.objective)
    if out.status != backend.UNBOUNDED:
        raise BackendError(f"first_stage_max ended {out.status}")
    det, ids = build_deterministic_mip(inst)
    det.name = "recourse_min"
    det.set_objective(dict(zip(ids["y"], inst.Y.c2)), "min")
    rec = backend.solve_mip(det)
    if not rec.is_optimal:
        return -np.inf
    return min(_ETA_LB, float(rec.objective if rec.bound is None else rec.bound))


def _u_box_midpoint(inst: Instance, x0: np.ndarray) -> np.ndarray:
    """Midpoint of the per-coordinate range of the uncertainty set at x0,
    the default core scenario of the stabilized cut selection."""
    Fx, rhs = inst.U.at(x0)
    lo, hi = (range_probe(Fx, rhs, np.arange(inst.U.dim), sense) for sense in ("min", "max"))
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
        return None if v is None or not np.isfinite(v) else float(v)

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
