"""The one lister of points: which points are listed, in what order,
within what tolerance, and past which cap the lister refuses (OracleError).
lattice_points lists the integer points of a box that linear rows admit,
enumerate_vertices the vertices of U(x) by the double description, and
binary_vertices the 0/1 points of an outer set where they are all of its
vertices. A two-stage worst case sits at a vertex of U(x) (Zeng and Zhao,
Oper. Res. Letters 2013), so a max over these lists is exact.
"""

from __future__ import annotations

import numpy as np

from . import backend
from .model import UncertaintySet, range_probe


class OracleError(Exception):
    """Raised when an instance exceeds the oracle's enumeration limits or
    violates the assumptions the enumeration relies on."""


_MAX_LATTICE = 20000        # integer prefixes alive per level of lattice_points
_MAX_VERTICES = 5000        # rays alive per U(x) in _cone_rays
_DEDUP_TOL = 1e-9


def lattice_points(lo, hi, G: np.ndarray, g: np.ndarray, what: str) -> np.ndarray:
    """The integer points p with lo <= p <= hi (within 1e-9) and G p >=
    g - 1e-9, as rows in itertools.product order, by a pruned search: level
    j extends each prefix by the values of coordinate j with which every row
    can still be met, the later coordinates at their best bounds (bound
    propagation over linear rows; Achterberg 2007), within a margin looser
    than the final filter's. OracleError, naming the points as what, when
    more than _MAX_LATTICE prefixes are alive at some level."""
    lo, hi = np.ceil(np.asarray(lo) - 1e-9), np.floor(np.asarray(hi) + 1e-9)
    best = np.column_stack([np.maximum(G * lo, G * hi), np.zeros(len(g))])
    reach = np.cumsum(best[:, ::-1], axis=1)[:, ::-1]   # the most coordinates j.. add
    slack = 1e-9 * (1.0 + np.abs(G) @ np.maximum(np.abs(lo), np.abs(hi)))
    alive = int(np.all(reach[:, 0] >= g - slack))
    prefixes, partial = np.zeros((alive, 0), dtype=np.int64), np.zeros((alive, len(g)))
    for j, col in enumerate(G.T):
        need = g - slack - reach[:, j + 1] - partial    # col v >= need, row by row
        first = np.ceil(need[:, col > 0] / col[col > 0]).max(axis=1, initial=lo[j])
        last = np.floor(need[:, col < 0] / col[col < 0]).min(axis=1, initial=hi[j])
        counts = np.maximum(last - first + 1, 0)
        if counts.sum() > _MAX_LATTICE:
            raise OracleError(f"integer {what} lattice exceeds {_MAX_LATTICE}")
        # child k of a prefix takes the value first + k
        parent = np.repeat(np.arange(len(counts)), counts.astype(int))
        values = np.arange(len(parent)) + (first + counts - np.cumsum(counts))[parent].astype(int)
        prefixes = np.column_stack([prefixes[parent], values])
        partial = partial[parent] + np.outer(values, col)
    pts = prefixes.astype(float)
    return pts[np.all(pts @ G.T >= g - 1e-9, axis=1)]


def enumerate_vertices(U: UncertaintySet, x: np.ndarray) -> np.ndarray:
    """All vertices of U(x) = {u >= 0 : F(x) u <= h + G x} as rows.

    Continuous case: the extreme rays (u, t) of the cone {(u, t) >= 0 :
    t (h + G x) - F(x) u >= 0} (_cone_rays) with t > 0, divided by t. A ray
    with t = 0 is a direction in which U(x) is unbounded, and without a ray
    with t > 0 U(x) is empty; either raises OracleError. Vertices whose
    entries agree to _DEDUP_TOL times the largest |u| entry are one. They
    come in descending lexicographic order of u, so the first vertex, the
    one instances.worst_case_values tests for recourse before the others,
    has high coordinates: the scenario of most demand, where the
    generators' recourse runs short. The order depends on the set alone,
    not on the order of its rows. All-integer case (n_int_u == dim): the
    integer points of U(x) inside the per-coordinate LP bounds, by
    lattice_points.
    """
    x = np.asarray(x, dtype=float)
    if U.n_int_u:
        if U.n_int_u != U.dim:
            raise OracleError("mixed-integer u is outside the oracle's scope")
        return _integer_points(*U.at(x))

    rays = _cone_rays(*U.at(x))
    t = rays[:, -1]
    if not (t > 0.0).any():
        raise OracleError("U(x) is empty at the probed x (nonemptiness violated)")
    if (t == 0.0).any():
        raise OracleError("U(x) is unbounded (boundedness violated)")
    u = rays[:, :-1] / t[:, None]
    keys = np.round(u / (_DEDUP_TOL * (np.abs(u).max(initial=0.0) or 1.0))).astype(np.int64)
    first = _first_rows(keys)
    if len(first) > 1:
        first = first[np.lexsort(keys[first].T[::-1])[::-1]]
    return u[first]


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys, axis=0, return_index=True)'s indices, ascending, from
    np.unique over one np.void per row, which sorts bytes instead of rows."""
    if not keys.shape[1]:
        return np.arange(min(1, len(keys)))
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    return np.sort(np.unique(rows, return_index=True)[1])


def _cone_rays(Fx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The extreme rays of the cone {(u, t) >= 0 : t rhs - Fx u >= 0}, as
    rows of largest entry 1, by the double description method (Motzkin et
    al. 1953; Fukuda and Prodon 1996). It starts from the unit rays of the
    orthant and adds the rows, each scaled to a largest |entry| of 1, one
    at a time. A row keeps the rays that meet it, drops those that violate
    it, and joins each adjacent pair of a violating ray and a ray strictly
    inside into a ray on the row, tight where both are and on the row. A
    row that no ray violates only adds its tight column, and one with no
    ray strictly inside only drops its violators; neither has a pair to
    join. A ray is tight on a row where its value there is at most
    _DEDUP_TOL times the sum of its terms' magnitudes, and on a bound of
    (u, t) >= 0 where that entry is 0; a join of two nonnegative rays with
    positive weights keeps those zeros exact. OracleError when more than
    _MAX_VERTICES rays are alive.

    Adjacency (_adjacent_pairs) is the combinatorial test, exact for a
    pointed cone, which every cone here is (Fukuda and Prodon, Prop. 7):
    no third ray is tight on all of Z, the constraints both rays are tight
    on. Rays of a cone in R^(n+1) are adjacent only where Z has rank n - 1,
    so |Z| >= n - 1 screens the pairs first. A scaled row that is the exact
    negative of an earlier row, or of a bound, completes an equality, found
    for every row by one comparison per call. Once every ray alive is tight
    on both, every later ray is too, since a join is tight where both of
    its rays are: the two count 2 in every later |Z| but 1 in its rank, so
    the screen asks for one more per such pair. A pair it now drops has Z
    of rank below n - 1, whose face holds a third ray tight on all of Z,
    so the holders test would drop it too: the pairs are the same."""
    n = Fx.shape[1]
    rows = np.hstack([-Fx, rhs[:, None]])
    top = np.abs(rows).max(axis=1)
    rows /= np.where(top > 0.0, top, 1.0)[:, None]
    # negated[j, k]: constraint k, a bound (k <= n) or row k - n - 1 < j, is -rows[j]
    negated = (rows[:, None] == -np.vstack([np.eye(n + 1), rows])).all(axis=2)
    negated &= np.arange(negated.shape[1]) < np.arange(n + 1, n + 1 + len(rows))[:, None]
    rays, tight = np.eye(n + 1), ~np.eye(n + 1, dtype=bool)    # tight[r, k]: ray r on k
    need = n - 1
    for a, partners in zip(rows, negated):
        v = rays @ a
        on = np.abs(v) <= _DEDUP_TOL * (rays @ np.abs(a))
        out, inside = (v < 0.0) & ~on, (v > 0.0) & ~on
        if not out.any():
            tight = np.column_stack([tight, on])
        elif not inside.any():
            rays, tight = rays[~out], np.column_stack([tight[~out], on[~out]])
        else:
            p, q = _adjacent_pairs(tight, np.flatnonzero(inside), np.flatnonzero(out), need)
            joined = v[p, None] * rays[q] - v[q, None] * rays[p]
            rays = np.vstack([rays[~out], joined / joined.max(axis=1, keepdims=True)])
            tight = np.vstack([np.column_stack([tight[~out], on[~out]]),
                               np.column_stack([tight[p] & tight[q], np.ones(len(p), dtype=bool)])])
        if len(rays) > _MAX_VERTICES:
            raise OracleError(f"more than {_MAX_VERTICES} vertices")
        if tight[:, -1].all() and tight[:, np.flatnonzero(partners)].all(axis=0).any():
            need += 1
    return rays


def _adjacent_pairs(tight: np.ndarray, P: np.ndarray, N: np.ndarray,
                    need: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, q) of P x N whose rays are adjacent, as two index
    arrays, by the combinatorial test: the constraints both are tight on,
    Z, number at least need, and no third ray of tight is tight on all of
    Z. The counts are float32 matrix products, which BLAS runs and which are
    exact at these counts, over chunks of at most 2e7 entries."""
    Z = tight.astype(np.float32)
    step = max(1, int(2e7 // max(len(N), *Z.shape)))
    pairs = [np.zeros((2, 0), dtype=int)]
    for lo in range(0, len(P), step):
        sub = P[lo:lo + step]
        common = Z[sub] @ Z[N].T                    # |Z| of each pair
        i, j = np.nonzero(common >= need)
        for c in range(0, len(i), step):
            ii, jj = i[c:c + step], j[c:c + step]
            holders = (Z[sub[ii]] * Z[N[jj]]) @ Z.T >= common[ii, jj][:, None]
            keep = holders.sum(axis=1) == 2         # p and q alone
            pairs.append(np.stack([sub[ii[keep]], N[jj[keep]]]))
    return tuple(np.concatenate(pairs, axis=1))


def _integer_points(Fx: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        hi = range_probe(Fx, rhs, np.arange(Fx.shape[1]))
    except backend.BackendError as exc:
        raise OracleError("U(x) is empty at the probed x (nonemptiness violated)") from exc
    if np.isinf(hi).any():
        raise OracleError(f"u[{np.argmax(np.isinf(hi))}] unbounded: integer "
                          "enumeration impossible")
    pts = lattice_points(np.zeros(len(hi)), hi, -Fx, -rhs, "u")
    if not len(pts):
        raise OracleError("U(x) has no integer points (nonemptiness violated)")
    return pts


def binary_vertices(A: np.ndarray, b: np.ndarray, n_int: int) -> np.ndarray | None:
    """The 0/1 points of {z >= 0 : A z <= b} in lattice_points' order where
    they are every vertex of the set: every z_j is capped at one, and either
    all are integer (the first n_int) or the set has integral vertices. None
    off that gate, and where lattice_points refuses (past _MAX_LATTICE)."""
    n = A.shape[1]
    if not (_outer_is_binary(A, b) and (n_int == n or has_integral_vertices(A, b))):
        return None
    try:
        return lattice_points(np.zeros(n), np.ones(n), -A, -b, "z")
    except OracleError:
        return None


def _outer_is_binary(A: np.ndarray, b: np.ndarray) -> bool:
    # every z_j capped at one by a row a_i >= 0: a_ij > 0, b_i / a_ij <= 1
    pos = (A > 0) & (A >= 0).all(axis=1, keepdims=True)
    ratio = np.divide(b[:, None], A, out=np.full(A.shape, np.inf), where=pos)
    return bool((ratio <= 1.0 + 1e-9).any(axis=0).all())


def has_interval_rows(A: np.ndarray) -> bool:
    """Every row is +/- a 0/1 vector whose ones are consecutive.

    Such an interval matrix is totally unimodular, and so is [A | I]
    (Schrijver, Theory of Linear and Integer Programming, 1986, sec. 19)."""
    for row in np.atleast_2d(np.asarray(A, dtype=float)):
        nz = np.flatnonzero(row)
        if nz.size and (abs(row[nz[0]]) != 1.0 or np.any(row[nz] != row[nz[0]])
                        or nz[-1] - nz[0] + 1 != nz.size):
            return False
    return True


def has_integral_vertices(A: np.ndarray, b: np.ndarray) -> bool:
    """{z >= 0 : A z <= b} has integral vertices because A is an interval
    matrix and b is integral."""
    b = np.asarray(b, dtype=float)
    return has_interval_rows(A) and bool(np.all(
        np.abs(b - np.round(b)) <= 1e-9 * np.maximum(1.0, np.abs(b))))
