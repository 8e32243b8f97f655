"""Tiny instances, a digest of what HiGHS receives of a model and a recorder
of the LPs it receives, that several test modules share."""

import contextlib
import hashlib

import numpy as np
from scipy.sparse import csr_array

from ddu_ro import backend, maxmin
from ddu_ro.instances import t1
from ddu_ro.model import AffineMatrixMap, FirstStageSet, Instance, RecourseSet, UncertaintySet


def t1_infeasible() -> Instance:
    """Recourse rows y >= 1 and y <= 1/2 can never hold together, so the
    deterministic relaxation (and the robust problem) is infeasible."""
    return Instance(
        name="T1-infeasible",
        c1=[1.0],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1,
                        lb=[0.0], ub=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=[[1.0]]), G=[[0.0]], h=[1.0]),
        Y=RecourseSet(B1=np.zeros((2, 1)), B2=[[1.0], [-1.0]], E=np.zeros((2, 1)),
                      d=[1.0, -0.5], c2=[1.0]),
    )


def t1_unbounded_u(F: AffineMatrixMap | None = None) -> Instance:
    """T1 with the row of U(x) replaced by F(x) u <= 1, by default 0 u <= 1,
    which leaves u without a cap: U(x) is unbounded wherever F(x) is 0."""
    inst = t1()
    F = F or AffineMatrixMap(base=np.zeros((1, 1)))
    return Instance(name="T1-unbounded-u", c1=inst.c1, X=inst.X,
                    U=UncertaintySet(F=F, G=np.zeros((1, 1)), h=np.ones(1)),
                    Y=inst.Y)


def short_supply() -> Instance:
    """U(x) is the unit box of (u1, u2); the recourse y >= 2 u1 + u2 costs 1
    a unit and is capped by 2 y <= 1 + 6 x, whose 2 keeps B2 off the
    network matrices. At x = 0 the 0/1 points (0, 1), (1, 0) and (1, 1) have
    no recourse, short by 1/2, 3/2 and 5/2, so the feasibility check's
    witness is (1, 1), the last of them in enumeration.lattice_points' order. At
    x = 1 every point is served, the worst case (1, 1) at cost 3."""
    return Instance(
        name="short_supply", c1=[0.5],
        X=FirstStageSet(A=np.zeros((0, 1)), b=np.zeros(0), n_int=1, ub=[1.0]),
        U=UncertaintySet(F=AffineMatrixMap(base=np.eye(2)), G=np.zeros((2, 1)),
                         h=[1.0, 1.0]),
        Y=RecourseSet(B1=[[0.0], [6.0]], B2=[[1.0], [-2.0]],
                      E=[[-2.0, -1.0], [0.0, 0.0]], d=[0.0, -1.0], c2=[1.0]),
    )


def sparse(m: backend.LinearModel, first: int = 0, cols=None):
    """m.rows(first, cols) with A as scipy's csr_array of its arrays, the
    tests' way to read a model's rows."""
    (indptr, indices, data), senses, rhs = m.rows(first, cols)
    shape = (rhs.size, m.n_vars if cols is None else len(cols))
    return csr_array((data, indices, indptr), shape=shape), senses, rhs


def model_digest(m: backend.LinearModel) -> str:
    """First 16 hex digits of the SHA-256 of everything HiGHS receives of m:
    CSR rows, senses, rhs, column bounds, integrality and objective."""
    A, senses, rhs = sparse(m)
    h = hashlib.sha256()
    for a in (A.data, A.indices, A.indptr, senses.astype("<U2"), rhs, *m.columns(),
              m.objective_vector(), np.array(A.shape), np.array([m.sense])):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def record_linprog(monkeypatch):
    """(model name, columns, digest) of every LP solve_lp solves, in order;
    the digest is the first 16 hex digits of the SHA-256 of what HiGHS
    receives (backend._highs' arrays and the whole option set) but the time
    limit, which follows the clock."""
    calls, solve_lp, highs = [], backend.solve_lp, backend._highs

    def named(model):
        calls.append([model.name, model.n_vars])
        return solve_lp(model)

    def hashed(a, options):
        if not a.integrality.any():
            h = hashlib.sha256()
            for key, part in a._asdict().items():
                h.update(key.encode())
                h.update(np.ascontiguousarray(part).tobytes())
            h.update(repr(sorted((k, v) for k, v in options.items()
                                 if k != "time_limit")).encode())
            calls[-1].append(h.hexdigest()[:16])
        return highs(a, options)

    monkeypatch.setattr(backend, "solve_lp", named)
    monkeypatch.setattr(backend, "_highs", hashed)
    return calls


@contextlib.contextmanager
def screen_apart(monkeypatch):
    """Within the block, check_inner_feasibility screens as it did before
    sp1 and sp2 shared an enumeration: maxmin.enumerate_outer answers only
    the screen's extended problem ("<name>_feas"), so the screen solves its
    "_feas_enum" and "_feas_polish" LPs and hands on no worst case."""
    real = maxmin.enumerate_outer
    with monkeypatch.context() as m:
        m.setattr(maxmin, "enumerate_outer",
                  lambda p: real(p) if p.name.endswith("_feas") else None)
        yield
