"""Tiny instances that several test modules share."""

import numpy as np

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
