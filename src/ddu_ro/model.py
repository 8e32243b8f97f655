"""Data model for two-stage robust programs with decision-dependent
uncertainty, the shared record types, and instance validation.

An instance is

    w* = min_{x in X} c1.x + max_{u in U(x)} min_{y in Y(x,u)} c2.y

with

    X      = {x in Z^{n_int}_+ x R^{n_cont}_+ : A x >= b, lb <= x <= ub},
    U(x)   = {u >= 0 : F(x) u <= h + G x},       F(x) = F0 + sum_k x_k Fk,
    Y(x,u) = {y >= 0 : B2 y >= d - B1 x - E u}.

Integer components of x (and of u, y where allowed) come first. Matrices are
dense float arrays; sparsity only appears in the JSON form (docs/schema.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .backend import EQ, GEQ, LEQ, BackendError, LinearModel, SolveTimeLimit

# Run-level statuses (per-solve statuses live in backend.py).
OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
GAP_REACHED = "GapReached"
TIME_LIMIT = "TimeLimit"
STALLED = "Stalled"

EPS_GAP = 1e-10   # guards the relative-gap denominator (objectives near 0 exist)
ATOL = 1e-9       # default absolute tolerance for numeric comparisons


def _arr(a, ndim: int) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != ndim:
        out = out.reshape((-1,) if ndim == 1 else (out.shape[0] if out.size else 0, -1))
    return out


@dataclass(frozen=True, eq=False)
class AffineMatrixMap:
    """Matrix-valued affine map x -> base + sum_k x_k * terms[k].

    An empty (or all-zero) term list is the constant case: the set it defines
    depends on x only through the right-hand side.
    """

    base: np.ndarray
    terms: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        base = np.atleast_2d(np.asarray(self.base, dtype=float))
        terms = tuple((int(k), np.atleast_2d(np.asarray(M, dtype=float)))
                      for k, M in self.terms)
        for k, M in terms:
            if M.shape != base.shape:
                raise ValueError(f"term {k} shape {M.shape} != base {base.shape}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "terms", terms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def is_constant(self) -> bool:
        return all(not np.any(M) for _, M in self.terms)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.base.copy()
        for k, M in self.terms:
            out += float(x[k]) * M
        return out


@dataclass(frozen=True, eq=False)
class FirstStageSet:
    """X = {x : A x >= b, lb <= x <= ub}, first n_int components integer."""

    A: np.ndarray
    b: np.ndarray
    n_int: int = 0
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _arr(self.A, 2))
        object.__setattr__(self, "b", _arr(self.b, 1))
        dim = self.A.shape[1]
        lb = np.zeros(dim) if self.lb is None else _arr(self.lb, 1)
        ub = np.full(dim, np.inf) if self.ub is None else _arr(self.ub, 1)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def n_cont(self) -> int:
        return self.dim - self.n_int


@dataclass(frozen=True, eq=False)
class UncertaintySet:
    """U(x) = {u >= 0 : F(x) u <= h + G x}."""

    F: AffineMatrixMap
    G: np.ndarray
    h: np.ndarray
    n_int_u: int = 0

    def __post_init__(self):
        object.__setattr__(self, "G", _arr(self.G, 2))
        object.__setattr__(self, "h", _arr(self.h, 1))

    @property
    def n_rows(self) -> int:
        return self.F.shape[0]

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @property
    def is_rhs_dependent(self) -> bool:
        return self.F.is_constant


@dataclass(frozen=True, eq=False)
class RecourseSet:
    """Y(x,u) = {y >= 0 : B2 y >= d - B1 x - E u}, cost row c2."""

    B1: np.ndarray
    B2: np.ndarray
    E: np.ndarray
    d: np.ndarray
    c2: np.ndarray
    n_int_y: int = 0

    def __post_init__(self):
        for name in ("B1", "B2", "E"):
            object.__setattr__(self, name, _arr(getattr(self, name), 2))
        object.__setattr__(self, "d", _arr(self.d, 1))
        object.__setattr__(self, "c2", _arr(self.c2, 1))

    @property
    def n_rows(self) -> int:
        return self.B2.shape[0]

    @property
    def dim(self) -> int:
        return self.B2.shape[1]


@dataclass(frozen=True, eq=False)
class Instance:
    name: str
    c1: np.ndarray
    X: FirstStageSet
    U: UncertaintySet
    Y: RecourseSet
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "c1", _arr(self.c1, 1))

    @property
    def dim_x(self) -> int:
        return self.c1.size

    @property
    def dim_u(self) -> int:
        return self.U.dim

    @property
    def dim_y(self) -> int:
        return self.Y.dim


@dataclass(frozen=True)
class DualPoint:
    """Extreme point pi of the recourse dual polyhedron {B2'pi <= c2, pi >= 0}."""

    vector: tuple[float, ...]
    kind: str = "point"

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vector)


@dataclass(frozen=True)
class DualRay:
    """Extreme ray gamma of the same cone: B2'gamma <= 0, gamma >= 0, gamma != 0."""

    vector: tuple[float, ...]
    kind: str = "ray"

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vector)


@dataclass(frozen=True)
class BasisId:
    """Sorted index set of basic columns of the standard form F(x)u + s = h + Gx.

    Columns 0..dim_u-1 are the structural u variables, dim_u..dim_u+n_rows-1
    the slacks. Cardinality equals the row count; equality is
    permutation-insensitive so repeats are detectable.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in self.indices)))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class IterationRecord:
    t: int
    lb: float
    ub: float
    gap: float
    elapsed_s: float
    cut_kind: str      # optimality / feasibility / unified / basis
    seed_id: str = ""


@dataclass
class RunResult:
    status: str                       # Optimal/Infeasible/GapReached/TimeLimit/Stalled
    objective: float | None = None
    x: np.ndarray | None = None
    lb: float = -np.inf
    ub: float = np.inf
    iterations: list[IterationRecord] = field(default_factory=list)
    elapsed_s: float = 0.0
    variant: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def relative_gap(lb: float, ub: float) -> float:
    if not np.isfinite(ub) or not np.isfinite(lb):
        return np.inf
    return (ub - lb) / max(abs(ub), EPS_GAP)


# -- model-building blocks shared by validation, oracle and the algorithms ----

def add_first_stage(model: LinearModel, inst: Instance, prefix: str = "x") -> list[int]:
    """Add x variables with bounds/integrality and the rows A x >= b."""
    X = inst.X
    x_ids = []
    for j in range(X.dim):
        x_ids.append(model.add_var(X.lb[j], X.ub[j], integer=j < X.n_int,
                                   name=f"{prefix}{j}"))
    if X.A.shape[0]:
        model.add_block(x_ids, X.A, GEQ, X.b, name="X")
    return x_ids


def add_uncertainty_vars(model: LinearModel, U: UncertaintySet,
                         prefix: str = "u") -> list[int]:
    return [model.add_var(0.0, np.inf, integer=j < U.n_int_u, name=f"{prefix}{j}")
            for j in range(U.dim)]


def range_probe(A: np.ndarray, b: np.ndarray, j: int, sense: str = "max",
                time_limit: float | None = None) -> float:
    """max (or min) z_j over {z >= 0 : A z <= b}, such as U(x) with
    A = F(x) and b = h + G x; +inf when z_j is unbounded above.

    Integrality is ignored. Raises SolveTimeLimit when the LP runs out of
    time and BackendError when the set is empty."""
    m = LinearModel(name="range_probe")
    z_ids = m.add_vars(A.shape[1], prefix="z")
    if A.shape[0]:
        m.add_block(z_ids, A, LEQ, b)
    m.set_objective({z_ids[j]: 1.0}, sense)
    out = backend.solve_lp(m, time_limit=time_limit)
    if out.status == backend.UNBOUNDED:
        return np.inf
    if out.status == backend.TIME_LIMIT:
        raise SolveTimeLimit("range probe ran out of time")
    if not out.is_optimal:
        raise BackendError(f"range probe ended {out.status}")
    return float(out.objective)


def add_uncertainty_rows(model: LinearModel, U: UncertaintySet, u_ids: list[int],
                         x_ids: list[int] | None = None,
                         x_fixed: np.ndarray | None = None,
                         name: str = "U") -> list[int]:
    """Rows of F(x) u <= h + G x.

    With x_fixed everything is evaluated at that point. With symbolic x_ids the
    map F must be constant (otherwise the rows would be bilinear); G x moves to
    the left-hand side.
    """
    if x_fixed is not None:
        Fx = U.F.evaluate(x_fixed)
        rhs = U.h + U.G @ np.asarray(x_fixed, dtype=float)
        return model.add_block(u_ids, Fx, LEQ, rhs, name=name)
    if not U.F.is_constant:
        raise ValueError("symbolic x with a nonconstant F would be bilinear")
    if x_ids is None:
        raise ValueError("need x_ids or x_fixed")
    rows = []
    F0 = U.F.base
    for i in range(U.n_rows):
        coeffs = {u_ids[j]: F0[i, j] for j in range(U.dim) if F0[i, j] != 0.0}
        for k in range(len(x_ids)):
            if U.G[i, k] != 0.0:
                coeffs[x_ids[k]] = coeffs.get(x_ids[k], 0.0) - U.G[i, k]
        rows.append(model.add_constr(coeffs, LEQ, U.h[i], name=f"{name}[{i}]"))
    return rows


def add_recourse_vars(model: LinearModel, Y: RecourseSet,
                      prefix: str = "y") -> list[int]:
    return [model.add_var(0.0, np.inf, integer=j < Y.n_int_y, name=f"{prefix}{j}")
            for j in range(Y.dim)]


def add_recourse_rows(model: LinearModel, Y: RecourseSet, y_ids: list[int],
                      x_ids: list[int] | None = None,
                      x_fixed: np.ndarray | None = None,
                      u_ids: list[int] | None = None,
                      u_fixed: np.ndarray | None = None,
                      name: str = "Y") -> list[int]:
    """Rows of B2 y >= d - B1 x - E u with x, u symbolic or fixed."""
    rhs = Y.d.copy()
    if x_fixed is not None:
        rhs = rhs - Y.B1 @ np.asarray(x_fixed, dtype=float)
    if u_fixed is not None:
        rhs = rhs - Y.E @ np.asarray(u_fixed, dtype=float)
    rows = []
    for i in range(Y.n_rows):
        coeffs = {y_ids[j]: Y.B2[i, j] for j in range(Y.dim) if Y.B2[i, j] != 0.0}
        if x_fixed is None and x_ids is not None:
            for k in range(len(x_ids)):
                if Y.B1[i, k] != 0.0:
                    coeffs[x_ids[k]] = coeffs.get(x_ids[k], 0.0) + Y.B1[i, k]
        if u_fixed is None and u_ids is not None:
            for j in range(len(u_ids)):
                if Y.E[i, j] != 0.0:
                    coeffs[u_ids[j]] = coeffs.get(u_ids[j], 0.0) + Y.E[i, j]
        rows.append(model.add_constr(coeffs, GEQ, rhs[i], name=f"{name}[{i}]"))
    return rows


def build_deterministic_mip(inst: Instance,
                            x_fixed: np.ndarray | None = None) -> tuple[LinearModel, dict]:
    """The deterministic relaxation min{c1 x + c2 y : x in X, u in U(x),
    y in Y(x,u)}. Feasibility of this program is the finiteness assumption the
    algorithms rely on; by weak duality its infeasibility makes the robust
    problem infeasible too.

    With symbolic x the map F must be constant; pass x_fixed to evaluate the
    decision-dependent rows at a point instead.
    """
    m = LinearModel(name=f"{inst.name}_det")
    if x_fixed is None:
        x_ids = add_first_stage(m, inst)
    else:
        x_ids = None
    u_ids = add_uncertainty_vars(m, inst.U)
    y_ids = add_recourse_vars(m, inst.Y)
    add_uncertainty_rows(m, inst.U, u_ids, x_ids=x_ids, x_fixed=x_fixed)
    add_recourse_rows(m, inst.Y, y_ids, x_ids=x_ids, x_fixed=x_fixed, u_ids=u_ids)
    obj = {}
    if x_ids is not None:
        for k in range(inst.dim_x):
            if inst.c1[k] != 0.0:
                obj[x_ids[k]] = inst.c1[k]
    for j in range(inst.dim_y):
        if inst.Y.c2[j] != 0.0:
            obj[y_ids[j]] = inst.Y.c2[j]
    const = float(inst.c1 @ x_fixed) if x_fixed is not None else 0.0
    m.set_objective(obj, sense="min", constant=const)
    return m, {"x": x_ids, "u": u_ids, "y": y_ids}


# -- validation ---------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    errors: list[str]
    dependence: str | None = None        # "rhs" or "lhs"
    a3_status: str | None = None
    a3_value: float | None = None
    a3_exact: bool = True
    a2_unbounded_dims: list[int] = field(default_factory=list)


def validate(inst: Instance, probe_boundedness: bool = True) -> ValidationReport:
    """Check dimensional consistency, classify the x-dependence, solve the
    deterministic relaxation (exactly when the rows are linear in (x, u),
    else at a feasible witness x), and optionally probe boundedness of U."""
    errors = []
    nx, nu, ny = inst.dim_x, inst.dim_u, inst.dim_y
    X, U, Y = inst.X, inst.U, inst.Y

    if X.dim != nx:
        errors.append(f"X has {X.dim} columns, c1 has {nx}")
    if X.A.shape[0] != X.b.size:
        errors.append(f"A has {X.A.shape[0]} rows, b has {X.b.size}")
    if not (0 <= X.n_int <= X.dim):
        errors.append(f"n_int {X.n_int} out of range")
    if X.lb.size != X.dim or X.ub.size != X.dim:
        errors.append("x bounds length mismatch")
    if U.G.shape != (U.n_rows, nx):
        errors.append(f"G is {U.G.shape}, expected {(U.n_rows, nx)}")
    if U.h.size != U.n_rows:
        errors.append(f"h has {U.h.size} entries, F has {U.n_rows} rows")
    for k, _ in U.F.terms:
        if not 0 <= k < nx:
            errors.append(f"F term index {k} outside x range")
    if Y.B1.shape != (Y.n_rows, nx):
        errors.append(f"B1 is {Y.B1.shape}, expected {(Y.n_rows, nx)}")
    if Y.E.shape != (Y.n_rows, nu):
        errors.append(f"E is {Y.E.shape}, expected {(Y.n_rows, nu)}")
    if Y.d.size != Y.n_rows:
        errors.append(f"d has {Y.d.size} entries, B2 has {Y.n_rows} rows")
    if Y.c2.size != ny:
        errors.append(f"c2 has {Y.c2.size} entries, B2 has {ny} columns")
    if errors:
        return ValidationReport(ok=False, errors=errors)

    report = ValidationReport(ok=True, errors=[],
                              dependence="rhs" if U.is_rhs_dependent else "lhs")

    witness_x = None
    try:
        det, _ = build_deterministic_mip(inst)
        out = backend.solve(det)
        report.a3_status = out.status
        report.a3_value = out.objective
        if out.is_optimal:
            witness_x = out.x[:nx]
    except ValueError:
        # bilinear rows: evaluate at a feasible first-stage witness instead
        witness_x = _feasible_first_stage(inst)
        report.a3_exact = False
        if witness_x is None:
            report.a3_status = backend.INFEASIBLE
        else:
            det, _ = build_deterministic_mip(inst, x_fixed=witness_x)
            out = backend.solve(det)
            report.a3_status = out.status
            report.a3_value = out.objective

    if probe_boundedness:
        px = witness_x
        if px is None:
            px = np.where(np.isfinite(X.ub), X.ub, np.maximum(X.lb, 1.0))
        Fx, rhs = U.F.evaluate(px), U.h + U.G @ px
        for j in range(nu):
            try:
                if range_probe(Fx, rhs, j) == np.inf:
                    report.a2_unbounded_dims.append(j)
            except BackendError:
                break     # U(px) is empty: nothing to probe

    if report.a3_status != backend.OPTIMAL:
        report.errors.append(
            f"deterministic relaxation is {report.a3_status}: no finite "
            "robust optimum exists")
    if report.a2_unbounded_dims:
        report.errors.append(
            f"uncertainty coordinates {report.a2_unbounded_dims} are "
            "unbounded at the probed first stage")
    report.ok = not report.errors
    return report


def _feasible_first_stage(inst: Instance) -> np.ndarray | None:
    m = LinearModel(name="x_witness")
    x_ids = add_first_stage(m, inst)
    m.set_objective({x_ids[k]: inst.c1[k] for k in range(inst.dim_x)
                     if inst.c1[k] != 0.0}, sense="min")
    out = backend.solve(m)
    return out.x[:inst.dim_x] if out.is_optimal else None


# -- JSON serialization (schema in docs/schema.md) ----------------------------

def _mat_to_dict(M: np.ndarray) -> dict:
    M = np.atleast_2d(M)
    triplets = [[int(i), int(j), float(M[i, j])]
                for i in range(M.shape[0]) for j in range(M.shape[1])
                if M[i, j] != 0.0]
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "triplets": triplets}


def _mat_from_dict(d: dict) -> np.ndarray:
    M = np.zeros((d["rows"], d["cols"]))
    for i, j, v in d["triplets"]:
        M[i, j] = v
    return M


def _vec_to_list(v: np.ndarray) -> list:
    return [None if np.isinf(x) else float(x) for x in v]


def _vec_from_list(lst, inf_sign: float = 1.0) -> np.ndarray:
    return np.array([inf_sign * np.inf if x is None else float(x) for x in lst])


def instance_to_dict(inst: Instance) -> dict:
    d = {
        "name": inst.name,
        "c1": [float(v) for v in inst.c1],
        "X": {
            "A": _mat_to_dict(inst.X.A),
            "b": [float(v) for v in inst.X.b],
            "n_int": inst.X.n_int,
            "bounds": {"lb": _vec_to_list(inst.X.lb), "ub": _vec_to_list(inst.X.ub)},
        },
        "U": {
            "F": {
                "base": _mat_to_dict(inst.U.F.base),
                "terms": [{"k": k, "matrix": _mat_to_dict(M)}
                          for k, M in inst.U.F.terms],
            },
            "G": _mat_to_dict(inst.U.G),
            "h": [float(v) for v in inst.U.h],
            "n_int_u": inst.U.n_int_u,
        },
        "Y": {
            "B1": _mat_to_dict(inst.Y.B1),
            "B2": _mat_to_dict(inst.Y.B2),
            "E": _mat_to_dict(inst.Y.E),
            "d": [float(v) for v in inst.Y.d],
            "c2": [float(v) for v in inst.Y.c2],
            "n_int_y": inst.Y.n_int_y,
        },
    }
    if inst.metadata:
        d["metadata"] = inst.metadata
    return d


def instance_from_dict(d: dict) -> Instance:
    Xd, Ud, Yd = d["X"], d["U"], d["Y"]
    X = FirstStageSet(
        A=_mat_from_dict(Xd["A"]),
        b=np.array(Xd["b"], dtype=float),
        n_int=int(Xd.get("n_int", 0)),
        lb=_vec_from_list(Xd["bounds"]["lb"], inf_sign=-1.0)
        if "bounds" in Xd else None,
        ub=_vec_from_list(Xd["bounds"]["ub"]) if "bounds" in Xd else None,
    )
    F = AffineMatrixMap(
        base=_mat_from_dict(Ud["F"]["base"]),
        terms=tuple((int(t["k"]), _mat_from_dict(t["matrix"]))
                    for t in Ud["F"].get("terms", [])),
    )
    U = UncertaintySet(F=F, G=_mat_from_dict(Ud["G"]),
                       h=np.array(Ud["h"], dtype=float),
                       n_int_u=int(Ud.get("n_int_u", 0)))
    Y = RecourseSet(
        B1=_mat_from_dict(Yd["B1"]), B2=_mat_from_dict(Yd["B2"]),
        E=_mat_from_dict(Yd["E"]), d=np.array(Yd["d"], dtype=float),
        c2=np.array(Yd["c2"], dtype=float), n_int_y=int(Yd.get("n_int_y", 0)),
    )
    return Instance(name=d.get("name", "instance"), c1=np.array(d["c1"], dtype=float),
                    X=X, U=U, Y=Y, metadata=d.get("metadata", {}))


def dumps(inst: Instance, indent: int | None = 2) -> str:
    return json.dumps(instance_to_dict(inst), indent=indent)


def loads(text: str) -> Instance:
    return instance_from_dict(json.loads(text))
