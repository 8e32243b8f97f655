"""Data model for two-stage robust programs with decision-dependent
uncertainty, the shared record types, and their dimension check.

An instance is

    w* = min_{x in X} c1.x + max_{u in U(x)} min_{y in Y(x,u)} c2.y

with

    X      = {x in Z^{n_int}_+ x R^{n_cont}_+ : A x >= b, lb <= x <= ub},
    U(x)   = {u >= 0 : F(x) u <= h + G x},       F(x) = F0 + sum_k x_k Fk,
    Y(x,u) = {y >= 0 : B2 y >= d - B1 x - E u}.

Integer components of x (and of u, y where allowed) come first. Matrices are
dense float arrays; sparsity only appears in the JSON form (instance_to_dict).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array

from . import backend
from .backend import GEQ, LEQ, BackendError, LinearModel

EPS_GAP = 1e-10   # guards the relative-gap denominator (objectives near 0 exist)


def _arr(a, ndim: int) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != ndim:
        out = out.reshape((-1,) if ndim == 1 else (out.shape[0] if out.size else 0, -1))
    return out


@dataclass(frozen=True, eq=False)
class AffineMatrixMap:
    """Matrix-valued affine map x -> base + sum_k x_k * terms[k].

    All-zero terms are dropped on construction, so every term kept makes the
    map depend on its x_k, and an empty term list is the constant case: the
    set it defines depends on x only through the right-hand side.
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
        object.__setattr__(self, "terms", tuple((k, M) for k, M in terms if M.any()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.base.copy()
        for k, M in self.terms:
            out += float(x[k]) * M
        return out

    def take(self, rows, cols) -> "AffineMatrixMap":
        """The map of the submatrix on the given rows and columns."""
        ix = np.ix_(rows, cols)
        return AffineMatrixMap(self.base[ix], tuple((k, M[ix]) for k, M in self.terms))


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
    def coupled_columns(self) -> list[int]:
        """The first-stage components U(x) depends on, through G or F."""
        return sorted(set(np.flatnonzero(self.G.any(axis=0)).tolist())
                      | {k for k, _ in self.F.terms})

    @property
    def rhs_map(self) -> AffineMatrixMap:
        """h + G x as a one-column affine map, one term per column of G
        that is not zero."""
        return AffineMatrixMap(self.h[:, None], tuple(
            (k, self.G[:, [k]]) for k in np.flatnonzero(self.G.any(axis=0))))


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
    status: str         # Optimal/Infeasible/GapReached/TimeLimit/Stalled/Numerical
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


# -- model-building blocks shared by the oracle and the algorithms ------------

def add_first_stage(model: LinearModel, inst: Instance) -> list[int]:
    """Add x variables with bounds/integrality and the rows A x >= b."""
    X = inst.X
    x_ids = model.add_vars(X.dim, X.lb, X.ub, np.arange(X.dim) < X.n_int)
    if X.A.shape[0]:
        model.add_rows([(x_ids, X.A)], GEQ, X.b)
    return x_ids


def max_over_u(A: np.ndarray, b: np.ndarray, c: np.ndarray,
               name: str) -> backend.SolveOutcome:
    """The LP max{c'z : z >= 0, A z <= b}, such as U(x) with A = F(x) and
    b = h + G x; z is its first columns. Integrality is ignored."""
    m = LinearModel(name=name)
    z_ids = m.add_vars(A.shape[1])
    m.add_rows([(z_ids, A)], LEQ, b)
    m.set_objective(dict(zip(z_ids, c)), "max")
    return backend.solve_lp(m)


def range_probe(A: np.ndarray, b: np.ndarray, j: int, sense: str = "max") -> float:
    """max (or min) z_j over {z >= 0 : A z <= b}, the min as -max(-z_j);
    +inf when z_j is unbounded above.

    Raises BackendError when the set is empty."""
    sign = 1.0 if sense == "max" else -1.0
    out = max_over_u(A, b, sign * np.eye(A.shape[1])[j], "range_probe")
    if out.status == backend.UNBOUNDED:
        return np.inf
    if not out.is_optimal:
        raise BackendError(f"range probe ended {out.status}")
    return sign * float(out.objective)


def add_recourse_vars(model: LinearModel, Y: RecourseSet) -> list[int]:
    return model.add_vars(Y.dim, integer=np.arange(Y.dim) < Y.n_int_y)


def add_recourse_rows(model: LinearModel, Y: RecourseSet, y_ids: list[int],
                      x_ids: list[int], u_ids: list[int] | None = None) -> list[int]:
    """Rows of B2 y + B1 x + E u >= d over symbolic x and, given u_ids, u."""
    blocks = [(y_ids, Y.B2), (x_ids, Y.B1)]
    if u_ids is not None:
        blocks.append((u_ids, Y.E))
    return model.add_rows(blocks, GEQ, Y.d)


def build_deterministic_mip(inst: Instance, M: float = 1e4) -> tuple[LinearModel, dict]:
    """The deterministic relaxation min{c1 x + c2 y : x in X, u in U(x),
    y in Y(x,u)}. Feasibility of this program is the finiteness assumption the
    algorithms rely on; by weak duality its infeasibility makes the robust
    problem infeasible too, and its optimum is a valid floor under every
    master bound.

    The rows F(x) u <= h + G x take each x-dependent entry of F through a
    product x_k u_j (affine_blocks), exact for binary x_k and u_j <= M; a
    dependence on any other component raises ValueError.
    """
    require_binary_terms(inst)
    m = LinearModel(name=f"{inst.name}_det")
    U = inst.U
    x_ids = add_first_stage(m, inst)
    u_ids = m.add_vars(U.dim, integer=np.arange(U.dim) < U.n_int_u)
    y_ids = add_recourse_vars(m, inst.Y)
    m.add_rows(affine_blocks(m, U.F, u_ids, x_ids, M, {}) + [(x_ids, -U.G)], LEQ, U.h)
    add_recourse_rows(m, inst.Y, y_ids, x_ids, u_ids)
    m.set_objective(dict(zip(x_ids + y_ids, np.concatenate([inst.c1, inst.Y.c2]))),
                    sense="min")
    return m, {"x": x_ids, "u": u_ids, "y": y_ids}


# -- binary products in matrix blocks -------------------------------------------

def _is_binary(inst: Instance, k: int) -> bool:
    """x_k is integer with bounds inside [0, 1], so it takes only 0 and 1."""
    return (k < inst.X.n_int and inst.X.lb[k] >= -1e-9
            and inst.X.ub[k] <= 1.0 + 1e-9)


def require_binary_terms(inst: Instance) -> None:
    """Raise ValueError unless every x_k that F(x) depends on is binary,
    which the exact envelopes of x_k times a column need."""
    if not all(_is_binary(inst, k) for k, _ in inst.U.F.terms):
        raise ValueError(
            "matrix dependence on non-binary first-stage components has "
            "no exact master linearization")


def _binary_products(model: LinearModel, pairs, M, lo=0.0) -> list[int]:
    """Columns w = x * v, one per (x id, v id) of pairs, for binary x and
    lo <= v <= M, lo either 0 or -M (each a scalar or one per pair), by the
    exact envelope, pair by pair: w <= M x, w >= lo x, w <= v - lo (1 - x)
    and w >= v - M (1 - x), the second one carried by w's bounds when lo is
    0. The columns take one add_vars call and the rows one add_rows call,
    from three sparse blocks on w, v and x with one sense per row."""
    n = len(pairs)
    M, lo = (np.broadcast_to(np.asarray(a, dtype=float), (n,)) for a in (M, lo))
    ws = model.add_vars(n, lo, M)
    x_ids, v_ids = np.reshape(np.asarray(pairs, dtype=np.int64), (n, 2)).T
    # four rows per pair, the second dropped where lo is 0; zero entries,
    # such as -lo on x where lo is 0, drop out in add_rows
    keep = np.flatnonzero(np.column_stack([np.ones(n), lo, np.ones(n), np.ones(n)]))
    rows, pair = np.arange(keep.size), keep // 4
    blocks = [(ids, coo_array((np.ravel(entries)[keep], (rows, pair)), shape=(keep.size, n)))
              for ids, entries in ((ws, np.ones((n, 4))),
                                   (v_ids, np.tile([0.0, 0.0, -1.0, -1.0], (n, 1))),
                                   (x_ids, np.column_stack([-M, -lo, -lo, -M])))]
    model.add_rows(blocks, np.tile([LEQ, GEQ, LEQ, GEQ], n)[keep],
                   np.column_stack([np.zeros((n, 2)), 0.0 - lo, -M]).ravel()[keep])
    return ws


def affine_blocks(model: LinearModel, F: AffineMatrixMap, v_ids: list[int],
                  x_ids: list[int], M: float, products: dict[tuple[int, int], int],
                  transpose: bool = False, lo: float | np.ndarray = 0.0
                  ) -> list[tuple[list[int], np.ndarray]]:
    """The LinearModel.add_rows blocks of F(x) v, or of F(x)' v with
    transpose, over symbolic binary x: F's base on v, then per term k the
    columns w = x_k v_j of the products its entries need.

    products maps each (x id, v id) pair to its column and may be shared by
    several calls, so a product is created once, by _binary_products with
    bound M and v's lower bound lo (0 or -M, a scalar or one per v). The new
    products of a call are made in one batch, ordered row by row, within a
    row v by v, within a v term by term. The caller checks that the x_k of
    the terms are binary.
    """
    mats = [F.base] + [Mk for _, Mk in F.terms]
    if transpose:
        mats = [A.T for A in mats]
    blocks = [(list(v_ids), mats[0])]
    if not F.terms:
        return blocks
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (len(v_ids),))
    needed = np.stack([A != 0.0 for A in mats[1:]], axis=-1)    # (row, v, term)
    # each (v, term) where it is first needed: its first product's place
    _, j, t = np.nonzero(needed)
    first = np.sort(np.unique(t * len(v_ids) + j, return_index=True)[1])
    new: dict[tuple[int, int], float] = {}     # each new pair with its v's lo
    for j, t in zip(j[first].tolist(), t[first].tolist()):
        key = (x_ids[F.terms[t][0]], v_ids[j])
        if key not in products:
            new.setdefault(key, lo[j])
    if new:
        products.update(zip(new, _binary_products(model, list(new), M, list(new.values()))))
    for t, (k, _) in enumerate(F.terms):
        cols = np.flatnonzero(needed[:, :, t].any(axis=0))
        blocks.append(([products[(x_ids[k], v_ids[j])] for j in cols],
                       mats[t + 1][:, cols]))
    return blocks


# -- dimension check -----------------------------------------------------------

def dimension_errors(inst: Instance) -> list[str]:
    """Every way the parts of inst disagree in their dimensions; empty when
    they fit together."""
    errors = []
    nx, nu, ny = inst.dim_x, inst.dim_u, inst.dim_y
    X, U, Y = inst.X, inst.U, inst.Y
    if X.dim != nx:
        errors.append(f"X has {X.dim} columns, c1 has {nx}")
    if X.A.shape[0] != X.b.size:
        errors.append(f"A has {X.A.shape[0]} rows, b has {X.b.size}")
    for name, n_int, dim in (("n_int", X.n_int, X.dim), ("n_int_u", U.n_int_u, U.dim),
                             ("n_int_y", Y.n_int_y, Y.dim)):
        if not 0 <= n_int <= dim:
            errors.append(f"{name} {n_int} out of range")
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
    return errors


# -- JSON serialization --------------------------------------------------------

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


def uncertainty_set_to_dict(U: UncertaintySet) -> dict:
    return {
        "F": {"base": _mat_to_dict(U.F.base),
              "terms": [{"k": k, "matrix": _mat_to_dict(M)} for k, M in U.F.terms]},
        "G": _mat_to_dict(U.G),
        "h": [float(v) for v in U.h],
        "n_int_u": U.n_int_u,
    }


def uncertainty_set_from_dict(d: dict) -> UncertaintySet:
    F = AffineMatrixMap(base=_mat_from_dict(d["F"]["base"]),
                        terms=tuple((int(t["k"]), _mat_from_dict(t["matrix"]))
                                    for t in d["F"].get("terms", [])))
    return UncertaintySet(F=F, G=_mat_from_dict(d["G"]),
                          h=np.array(d["h"], dtype=float),
                          n_int_u=int(d.get("n_int_u", 0)))


def instance_to_dict(inst: Instance) -> dict:
    """JSON-ready form of inst, keyed as the data model: each matrix is
    {"rows", "cols", "triplets"} with one [i, j, value] per nonzero entry,
    and an infinite bound is null. instances.check_schema checks a file
    against this layout."""
    d = {
        "name": inst.name,
        "c1": [float(v) for v in inst.c1],
        "X": {
            "A": _mat_to_dict(inst.X.A),
            "b": [float(v) for v in inst.X.b],
            "n_int": inst.X.n_int,
            "bounds": {"lb": _vec_to_list(inst.X.lb), "ub": _vec_to_list(inst.X.ub)},
        },
        "U": uncertainty_set_to_dict(inst.U),
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
    Xd, Yd = d["X"], d["Y"]
    X = FirstStageSet(
        A=_mat_from_dict(Xd["A"]),
        b=np.array(Xd["b"], dtype=float),
        n_int=int(Xd.get("n_int", 0)),
        lb=_vec_from_list(Xd["bounds"]["lb"], inf_sign=-1.0)
        if "bounds" in Xd else None,
        ub=_vec_from_list(Xd["bounds"]["ub"]) if "bounds" in Xd else None,
    )
    Y = RecourseSet(
        B1=_mat_from_dict(Yd["B1"]), B2=_mat_from_dict(Yd["B2"]),
        E=_mat_from_dict(Yd["E"]), d=np.array(Yd["d"], dtype=float),
        c2=np.array(Yd["c2"], dtype=float), n_int_y=int(Yd.get("n_int_y", 0)),
    )
    return Instance(name=d.get("name", "instance"), c1=np.array(d["c1"], dtype=float),
                    X=X, U=uncertainty_set_from_dict(d["U"]), Y=Y,
                    metadata=d.get("metadata", {}))
