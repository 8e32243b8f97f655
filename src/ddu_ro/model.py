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

import sys
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .backend import GEQ, LEQ, BackendError, LinearModel

EPS_GAP = 1e-10   # guards the relative-gap denominator (objectives near 0 exist)
_FLOAT_MAX = sys.float_info.max


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _arr(a, ndim: int) -> np.ndarray:
    """A read-only float copy of a with ndim dimensions."""
    out = np.array(a, dtype=float)
    if out.ndim != ndim:
        out = out.reshape((-1,) if ndim == 1 else (out.shape[0] if out.size else 0, -1))
    return _frozen(out)


@dataclass(frozen=True, eq=False)
class AffineMatrixMap:
    """Matrix-valued affine map x -> base + sum_k x_k * terms[k].

    All-zero terms are dropped on construction, so every term kept makes the
    map depend on its x_k, and an empty term list is the constant case: the
    set it defines depends on x only through the right-hand side. The map
    holds read-only copies of its matrices.
    """

    base: np.ndarray
    terms: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        base = _frozen(np.atleast_2d(np.array(self.base, dtype=float)))
        terms = tuple((int(k), _frozen(np.atleast_2d(np.array(M, dtype=float))))
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
        object.__setattr__(self, "lb", _arr(np.zeros(dim) if self.lb is None else self.lb, 1))
        object.__setattr__(self, "ub", _arr(np.full(dim, np.inf) if self.ub is None
                                            else self.ub, 1))

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

    def at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F(x), h + G x): the matrix and right-hand side of U(x)."""
        x = np.asarray(x, dtype=float)
        return self.F.evaluate(x), self.h + self.G @ x

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
    """A robust program, its arrays read-only, with a memo of what is
    derived from it alone (fact): dataclasses.replace starts the memo
    empty."""

    name: str
    c1: np.ndarray
    X: FirstStageSet
    U: UncertaintySet
    Y: RecourseSet
    metadata: dict = field(default_factory=dict)
    _facts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c1", _arr(self.c1, 1))

    def fact(self, key, derive):
        """derive(), derived once per instance: later calls with the same
        key return the same object. Where derive raises, nothing is kept and
        the next call derives again. derive must read nothing but the
        instance and key, which the read-only arrays keep valid."""
        if key not in self._facts:
            self._facts[key] = derive()
        return self._facts[key]

    def knows(self, key) -> bool:
        """Whether fact holds what it derived under key."""
        return key in self._facts

    @property
    def dim_x(self) -> int:
        return self.c1.size

    @property
    def dim_u(self) -> int:
        return self.U.dim


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


def max_lp(A: np.ndarray, b: np.ndarray, c: np.ndarray, name: str) -> LinearModel:
    """The LP max{c'z : z >= 0, A z <= b}, such as U(x) with A = F(x) and
    b = h + G x, or the recourse dual with A = B2'; z is its first columns.
    Integrality is ignored."""
    m = LinearModel(name=name)
    z_ids = m.add_vars(A.shape[1])
    m.add_rows([(z_ids, A)], LEQ, b)
    m.set_objective(dict(zip(z_ids, c)), "max")
    return m


def range_probe(A: np.ndarray, b: np.ndarray, cols, sense: str = "max") -> np.ndarray:
    """max (or min) z_j over {z >= 0 : A z <= b} for every j of the index
    array cols, from one LP of a copy per j (backend.solve_copies); +inf
    where z_j is unbounded above. Raises BackendError when a copy ends
    otherwise, as every copy does on an empty set."""
    sign = 1.0 if sense == "max" else -1.0
    status, value, _ = backend.solve_copies("range_probe", A, LEQ, np.tile(b, (len(cols), 1)),
                                            0.0, np.inf, -sign * np.eye(A.shape[1])[cols])
    failed = status[~np.isin(status, (backend.OPTIMAL, backend.UNBOUNDED))]
    if failed.size:
        raise BackendError(f"range probe ended {failed[0]}")
    return -sign * value


def add_recourse_vars(model: LinearModel, Y: RecourseSet) -> list[int]:
    return model.add_vars(Y.dim, integer=np.arange(Y.dim) < Y.n_int_y)


def add_recourse_rows(model: LinearModel, Y: RecourseSet, y_ids: list[int],
                      x_ids: list[int], u_ids: list[int] | None = None) -> list[int]:
    """Rows of B2 y + B1 x + E u >= d over symbolic x and, given u_ids, u."""
    blocks = [(y_ids, Y.B2), (x_ids, Y.B1)]
    if u_ids is not None:
        blocks.append((u_ids, Y.E))
    return model.add_rows(blocks, GEQ, Y.d)


def build_deterministic_mip(inst: Instance) -> tuple[LinearModel, dict]:
    """The deterministic relaxation min{c1 x + c2 y : x in X, u in U(x),
    y in Y(x,u)}. Feasibility of this program is the finiteness assumption the
    algorithms rely on; by weak duality its infeasibility makes the robust
    problem infeasible too, and its optimum is a valid floor under every
    master bound.

    The rows F(x) u <= h + G x take each x-dependent entry of F through a
    product x_k u_j (affine_blocks), exact for binary x_k and u_j <= M, the
    run's big-M (backend.current_big_m); a dependence on any other
    component raises ValueError.
    """
    m = LinearModel(name=f"{inst.name}_det")
    U = inst.U
    x_ids = add_first_stage(m, inst)
    binary_coupling(m, U, x_ids)
    u_ids = m.add_vars(U.dim, integer=np.arange(U.dim) < U.n_int_u)
    y_ids = add_recourse_vars(m, inst.Y)
    m.add_rows(affine_blocks(m, U.F, u_ids, x_ids, backend.current_big_m(), {})
               + [(x_ids, -U.G)], LEQ, U.h)
    add_recourse_rows(m, inst.Y, y_ids, x_ids, u_ids)
    m.set_objective(dict(zip(x_ids + y_ids, np.concatenate([inst.c1, inst.Y.c2]))),
                    sense="min")
    return m, {"x": x_ids, "u": u_ids, "y": y_ids}


# -- binary products in matrix blocks -------------------------------------------

def _is_binary(inst: Instance, k: int) -> bool:
    """x_k is integer with bounds inside [0, 1], so it takes only 0 and 1."""
    return (k < inst.X.n_int and inst.X.lb[k] >= -1e-9
            and inst.X.ub[k] <= 1.0 + 1e-9)


def binary_coupling(model: LinearModel, U: UncertaintySet, x_ids: list[int]) -> bool:
    """Whether every column x_ids[k] that U(x) depends on is binary in model
    (integer with bounds inside [0, 1]); ValueError unless every one that
    F(x) depends on is, which the exact envelopes of x_k times a column
    need."""
    lb, ub, integer = (a[np.asarray(x_ids, dtype=np.int64)] for a in model.columns())
    binary = integer & (lb >= -1e-9) & (ub <= 1.0 + 1e-9)
    if not all(binary[k] for k, _ in U.F.terms):
        raise ValueError("matrix dependence on non-binary first-stage components "
                         "has no exact master linearization")
    return bool(binary[U.coupled_columns].all())


def _envelope(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of the exact envelope (McCormick, Math. Prog. 1976) of
    products w_k = x_k v_k, for binary x_k and lo_k <= v_k <= hi_k with lo_k
    0 or -hi_k (one entry per product): product by product, w <= hi x,
    w >= lo x, w <= v - lo (1 - x) and w >= v - hi (1 - x), the second left
    out where lo is 0 (w's bound carries it then). Returns each row's
    product, its coefficients on w, v and x, its sense and its rhs."""
    n = len(hi)
    keep = np.flatnonzero(np.column_stack([np.ones(n), lo, np.ones(n), np.ones(n)]))
    return (keep // 4, np.ones(keep.size), np.tile([0.0, 0.0, -1.0, -1.0], n)[keep],
            np.column_stack([-hi, -lo, -lo, -hi]).ravel()[keep],
            np.tile([LEQ, GEQ, LEQ, GEQ], n)[keep],
            np.column_stack([np.zeros((n, 2)), 0.0 - lo, -hi]).ravel()[keep])


def _binary_products(model: LinearModel, pairs, M, lo=0.0) -> list[int]:
    """Columns w = x * v, one per (x id, v id) of pairs, for binary x and
    lo <= v <= M, lo either 0 or -M (each a scalar or one per pair), by the
    rows of _envelope. The columns take one add_vars call and the rows one
    add_rows call, from three CSR blocks on w, v and x."""
    n = len(pairs)
    M, lo = (np.broadcast_to(np.asarray(a, dtype=float), (n,)) for a in (M, lo))
    ws = model.add_vars(n, lo, M)
    x_ids, v_ids = np.reshape(np.asarray(pairs, dtype=np.int64), (n, 2)).T
    # zero entries, such as -lo on x where lo is 0, drop out in add_rows
    prod, *coefs, senses, rhs = _envelope(M, lo)
    model.add_rows([(ids, (np.arange(prod.size + 1), prod, c))
                    for ids, c in zip((ws, v_ids, x_ids), coefs)], senses, rhs)
    return ws


def envelope_rows(w: np.ndarray, x: np.ndarray, v: np.ndarray, M, lo=0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of _envelope as instance data (A, b) with A z >= b: row k of
    w, x and v gives w_k, x_k and v_k as combinations of the columns z, and
    M and lo are scalars or one per product. A column two roles share gets
    the sum of their entries, so the square w = x x of a binary reads
    w >= 2 x - 1; <= rows are negated, and no entry reads -0.0."""
    M, lo = (np.broadcast_to(np.asarray(a, dtype=float), (len(w),)) for a in (M, lo))
    prod, cw, cv, cx, senses, rhs = _envelope(M, lo)
    sign = np.where(senses == GEQ, 1.0, -1.0)
    A = sum((sign * c)[:, None] * role[prod] for c, role in ((cw, w), (cv, v), (cx, x)))
    return A + 0.0, sign * rhs + 0.0


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


# -- JSON serialization --------------------------------------------------------

class SchemaError(Exception):
    """A file departs from the layout instance_to_dict writes; the message
    names the place by a $... path."""


def _mat_to_dict(A: np.ndarray) -> dict:
    A = np.atleast_2d(A)
    triplets = [[int(i), int(j), float(A[i, j])] for i, j in zip(*np.nonzero(A))]
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "triplets": triplets}


def _vec_to_list(v: np.ndarray) -> list:
    return [None if np.isinf(x) else float(x) for x in v]


def uncertainty_set_to_dict(U: UncertaintySet) -> dict:
    return {
        "F": {"base": _mat_to_dict(U.F.base),
              "terms": [{"k": k, "matrix": _mat_to_dict(M)} for k, M in U.F.terms]},
        "G": _mat_to_dict(U.G),
        "h": [float(v) for v in U.h],
        "n_int_u": U.n_int_u,
    }


def instance_to_dict(inst: Instance) -> dict:
    """JSON-ready form of inst, keyed as the data model: each matrix is
    {"rows", "cols", "triplets"} with one [i, j, value] per nonzero entry,
    and an infinite bound is null. instance_from_dict reads this layout
    back, and refuses any other."""
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


# The reader checks each part of the layout where it builds it, and raises
# SchemaError at the first part off it.

def _keys(d, where: str, required: tuple, optional: tuple = ()) -> dict:
    if not isinstance(d, dict):
        raise SchemaError(f"expected an object at {where}")
    for key in d:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown key {key!r} at {where}")
    for key in required:
        if key not in d:
            raise SchemaError(f"missing key {key!r} at {where}")
    return d


def _list(v, what: str, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"expected a list of {what} at {where}")
    return v


# a bool is an int to Python, but not of type int
def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _is_number(v) -> bool:
    # json reads NaN and Infinity as floats, and an integer too large for a
    # float as an int
    return type(v) in (int, float) and abs(v) <= _FLOAT_MAX


def _count(d: dict, key: str, where: str, most: int | None = None) -> int:
    """d[key], 0 where it is absent, which must be a nonnegative int, and
    at most `most` where given (a count of integer columns, most the
    dimension)."""
    v = d.get(key, 0)
    if not _is_count(v):
        raise SchemaError(f"expected a nonnegative integer at {where}.{key}")
    if most is not None and v > most:
        raise SchemaError(f"{key} {v} out of range, the dimension is {most} at {where}.{key}")
    return v


def _vector(v, where: str, inf_sign: float | None = None,
            length: tuple[int, str] | None = None) -> np.ndarray:
    """A list of finite numbers, of length[0] entries where given (as
    _matrix's); given inf_sign, as for bounds, null stands for
    inf_sign * inf, the only infinity a file holds."""
    if not (isinstance(v, list) and all(
            _is_number(e) or (inf_sign is not None and e is None) for e in v)):
        raise SchemaError(f"expected a list of numbers at {where}")
    if length is not None and len(v) != length[0]:
        raise SchemaError(f"{length[1]}, {where.rsplit('.', 1)[-1]} has {len(v)} entries "
                          f"at {where}")
    return np.array([inf_sign * np.inf if e is None else e for e in v], dtype=float)


def _matrix(d, where: str, rows: tuple[int, str] | None = None,
            cols: tuple[int, str] | None = None) -> np.ndarray:
    """The matrix of d, found at the path where. rows and cols, where given,
    are each a length the declared count must equal and what has that
    length, such as (2, "d has 2 entries"); both are checked before the
    matrix is allocated, so a file allocates nothing that its own vectors do
    not bound, and a count past the memory (F.base's cols) is refused."""
    _keys(d, where, ("rows", "cols", "triplets"))
    n_rows, n_cols = d["rows"], d["cols"]
    if not (_is_count(n_rows) and _is_count(n_cols)):
        raise SchemaError(f"rows and cols must be nonnegative integers at {where}")
    name = where.rsplit(".", 1)[-1]
    for got, length, word in ((n_rows, rows, "rows"), (n_cols, cols, "columns")):
        if length is not None and got != length[0]:
            raise SchemaError(f"{length[1]}, {name} has {got} {word} at {where}")
    triplets, seen = _list(d["triplets"], "triplets", where), set()
    for trip in triplets:
        if not (type(trip) is list and len(trip) == 3 and _is_count(trip[0])
                and _is_count(trip[1]) and _is_number(trip[2])):
            raise SchemaError(f"triplet {trip!r} at {where} is not [i, j, value]")
        i, j, _ = trip
        if not (i < n_rows and j < n_cols):
            raise SchemaError(f"triplet ({i},{j}) out of bounds at {where} "
                              f"(shape {n_rows}x{n_cols})")
        if (i, j) in seen:
            raise SchemaError(f"two triplets at ({i},{j}) at {where}")
        seen.add((i, j))
    try:
        M = np.zeros((n_rows, n_cols))
    except MemoryError:
        raise SchemaError(f"{name} of {n_rows}x{n_cols} is too large at {where}") from None
    if triplets:
        i, j, v = zip(*triplets)
        M[i, j] = v
    return M


def _length(n: int | None, name: str) -> tuple[int, str] | None:
    """_matrix's (length, what has it) for n entries of name; None for None."""
    return None if n is None else (n, f"{name} has {n} entries")


def uncertainty_set_from_dict(d, where: str = "$", dim_x: int | None = None,
                              dim_u: int | None = None) -> UncertaintySet:
    """The set of the layout uncertainty_set_to_dict writes, d found at the
    path where; SchemaError where d departs from that layout, or from the
    first-stage dimension dim_x and the uncertainty dimension dim_u where
    given (a surrogate set read for an instance)."""
    _keys(d, where, ("F", "G", "h"), ("n_int_u",))
    h = _vector(d["h"], f"{where}.h")
    F = _keys(d["F"], f"{where}.F", ("base",), ("terms",))
    base = _matrix(F["base"], f"{where}.F.base", _length(len(h), "h"), _length(dim_u, "u"))
    terms = []
    for t, term in enumerate(_list(F.get("terms", []), "terms", f"{where}.F.terms")):
        at = f"{where}.F.terms[{t}]"
        _keys(term, at, ("k", "matrix"))
        k = _count(term, "k", at)
        if dim_x is not None and k >= dim_x:
            raise SchemaError(f"x has {dim_x} entries, no entry {k} at {at}.k")
        terms.append((k, _matrix(term["matrix"], f"{at}.matrix",
                                 (base.shape[0], f"F.base has {base.shape[0]} rows"),
                                 (base.shape[1], f"F.base has {base.shape[1]} columns"))))
    return UncertaintySet(F=AffineMatrixMap(base, tuple(terms)),
                          G=_matrix(d["G"], f"{where}.G", _length(len(h), "h"),
                                    _length(dim_x, "x")),
                          h=h, n_int_u=_count(d, "n_int_u", where, base.shape[1]))


def uncertainty_sets_from_list(sets, where: str, dim_x: int | None = None,
                               dim_u: int | None = None) -> list[UncertaintySet]:
    """The sets of a list of uncertainty_set_from_dict layouts, such as
    metadata.ddu_sets or a file of surrogate sets, the list at the path
    where, each checked against dim_x and dim_u where given."""
    return [uncertainty_set_from_dict(U, f"{where}[{i}]", dim_x, dim_u)
            for i, U in enumerate(_list(sets, "uncertainty sets", where))]


def instance_from_dict(d) -> Instance:
    """The instance of the layout instance_to_dict writes; SchemaError where
    d departs from it. Each matrix's rows and columns are checked against
    the vectors of the same dimension, and E's columns against F.base's,
    before it is built. The surrogate sets of metadata.ddu_sets are checked
    by building them against the instance's dimensions, and metadata is
    kept as written."""
    _keys(d, "$", ("c1", "X", "U", "Y"), ("name", "metadata"))
    c1 = _vector(d["c1"], "$.c1")
    x_len = _length(len(c1), "c1")
    Xd = _keys(d["X"], "$.X", ("A", "b"), ("n_int", "bounds"))
    b = _vector(Xd["b"], "$.X.b")
    A = _matrix(Xd["A"], "$.X.A", _length(len(b), "b"), x_len)
    lb = ub = None
    if "bounds" in Xd:
        bounds = _keys(Xd["bounds"], "$.X.bounds", ("lb", "ub"))
        lb = _vector(bounds["lb"], "$.X.bounds.lb", -1.0, x_len)
        ub = _vector(bounds["ub"], "$.X.bounds.ub", 1.0, x_len)
    X = FirstStageSet(A=A, b=b, n_int=_count(Xd, "n_int", "$.X", len(c1)), lb=lb, ub=ub)
    U = uncertainty_set_from_dict(d["U"], "$.U", dim_x=len(c1))
    Yd = _keys(d["Y"], "$.Y", ("B1", "B2", "E", "d", "c2"), ("n_int_y",))
    rhs, c2 = _vector(Yd["d"], "$.Y.d"), _vector(Yd["c2"], "$.Y.c2")
    d_len = _length(len(rhs), "d")
    # B2 first: its rows are the recourse rows
    Y = RecourseSet(B2=_matrix(Yd["B2"], "$.Y.B2", d_len, _length(len(c2), "c2")),
                    B1=_matrix(Yd["B1"], "$.Y.B1", d_len, x_len),
                    E=_matrix(Yd["E"], "$.Y.E", d_len, _length(U.dim, "u")),
                    d=rhs, c2=c2, n_int_y=_count(Yd, "n_int_y", "$.Y", len(c2)))
    metadata = d.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("expected an object at $.metadata")
    uncertainty_sets_from_list(metadata.get("ddu_sets", []), "$.metadata.ddu_sets",
                               len(c1), U.dim)
    return Instance(name=d.get("name", "instance"), c1=c1, X=X, U=U, Y=Y, metadata=metadata)
