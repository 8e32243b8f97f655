"""Workload definitions of the solve benchmark: the instances, the operations
run on them, the calibration that times are divided by, and the check of
every objective against a stored reference.

An operation is one call on a generated instance, either
``ddu_ro.run(inst, AlgorithmConfig(...))`` or ``oracle_exact(inst)``.  It
fails when it raises, ends with a status other than Optimal or GapReached,
returns an objective further from the reference than the run's tolerance, or
takes longer than the time limit (the oracle has no limit of its own).  A
failed operation is charged its time limit (PAR1), so a fix that turns a wrong
answer into a slower right one does not read as a regression.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from ddu_ro import (AlgorithmConfig, FLParams, Instance, PMedianParams,
                    gen_mip_recourse_fl, gen_reliable_pmedian, gen_robust_fl,
                    io_read, io_write, oracle_exact, run)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# per-operation budget and PAR charge; it leaves room for a correct benders
# solve of fl_rhs5, which takes about 24 s at big_M 1e5
TIME_LIMIT_S = 60.0
ORACLE_TOL = 1e-6    # relative; the oracle enumerates, it has no gap

PASSED, FAILED, UNCHECKED = "pass", "FAIL", "unchecked"


# -- instances -----------------------------------------------------------------

def _pm_uk8(s: int) -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=8, seed=s), "ddu_uk")


def _pm_pair5(s: int) -> Instance:
    return gen_reliable_pmedian(PMedianParams(n_sites=5, p=2, seed=s), "ddu_us_pair")


def _fl_rhs5(s: int) -> Instance:
    return gen_robust_fl(FLParams(n_sites=5, seed=s), "rhs")


def _fl_mip3(s: int) -> Instance:
    return gen_mip_recourse_fl(FLParams(n_sites=3, seed=s, capacity_lower_frac=1.5,
                                        capacity_upper_frac=1.5))


def _fl_rhs2(s: int) -> Instance:
    return gen_robust_fl(FLParams(n_sites=2, seed=s), "rhs")


GENERATORS = {"pm_uk8": _pm_uk8, "pm_pair5": _pm_pair5, "fl_rhs5": _fl_rhs5,
              "fl_mip3": _fl_mip3, "fl_rhs2": _fl_rhs2}


# -- operations ----------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One timed call. ``config`` holds AlgorithmConfig fields; None means the
    enumeration oracle.  ``known_defect`` names an operation that fails on the
    unchanged tree: it runs in the full matrix (no --workload), never in the
    timed runs, which must not fail."""

    instance: str
    label: str
    config: dict | None = None
    known_defect: str = ""

    @property
    def name(self) -> str:
        return f"{self.instance}/{self.label}"


def _ccg(instance: str, label: str, known_defect: str = "", **config) -> Op:
    return Op(instance, label, config, known_defect)


# Why each workload: pmedian spends 85-91 % of a pm_uk8 solve in sp2's KKT
# MIP and little in sp1, and its three masters grow differently; pm_pair5
# covers the bilinear max-min route and the decision-independent loop.
# facility is the mirror image (sp1 ~90 % of fl_rhs5), with feasibility cuts,
# unique-optimum blocks and sp4 / exact-recourse repricing.  oracle runs
# hundreds of tiny LPs and numpy vertex enumeration and no MIP.
WORKLOADS: dict[str, list[Op]] = {
    "pmedian": [
        _ccg("pm_uk8", "parametric", variant="parametric"),
        _ccg("pm_uk8", "benders", variant="benders"),
        _ccg("pm_uk8", "basis", variant="basis"),
        _ccg("pm_pair5", "diu", diu_approx="metadata"),
    ],
    "facility": [
        _ccg("fl_rhs5", "parametric", variant="parametric"),
        _ccg("fl_rhs5", "parametric-modified", variant="parametric-modified"),
        _ccg("fl_rhs5", "benders", "returns Infeasible at big_M 1e4 (ROADMAP item 1)",
             variant="benders"),
        # at the CLI default big_M the KKT system of sp4 is infeasible
        _ccg("fl_mip3", "mip", "raises BackendError 'M too small' at big_M 1e4",
             mip_recourse_mode=True),
        _ccg("fl_mip3", "mip-M1e5", mip_recourse_mode=True, big_M=1e5),
    ],
    "oracle": [
        Op("pm_uk8", "oracle"),
        Op("fl_rhs2", "oracle"),
    ],
}


def instances_of(ops: list[Op]) -> list[str]:
    return sorted({op.instance for op in ops})


def build_instances(names: list[str], instance_seed: int,
                    scratch_dir: str) -> dict[str, Instance]:
    """Generate, and load back through one io_write/io_read round trip, as a
    CLI user would load them."""
    os.makedirs(scratch_dir, exist_ok=True)
    out = {}
    for name in names:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # the generators' modelling notes
            inst = GENERATORS[name](instance_seed)
        path = os.path.join(scratch_dir, f"{name}-{os.getpid()}.json")
        io_write(path, inst)
        out[name] = io_read(path)
        os.unlink(path)
    return out


# -- calibration ------------------------------------------------------------------

def _calibration_data() -> dict:
    """Fixed problems in the three kinds of work the operations do: a 0-1
    multi-knapsack MILP, small LPs, and a batch of small dense solves."""
    rng = np.random.default_rng(0)
    A = rng.integers(1, 30, size=(30, 45)).astype(float)
    return {
        "milp": (-rng.integers(1, 50, size=45).astype(float),
                 LinearConstraint(A, -np.inf, 0.3 * A.sum(axis=1)), np.ones(45), Bounds(0, 1)),
        "lp": (-rng.random(12), rng.random((10, 12)), np.ones(10)),
        "dense": (rng.standard_normal((4000, 8, 8)), rng.standard_normal((4000, 8, 1))),
    }


CALIBRATION = _calibration_data()


def calibrate() -> float:
    """Seconds the calibration problems take, 0.8-1.3 s on the 2-vCPU host
    the benchmark was built on; none of them touches ddu_ro.  On that host the
    CPU speed drifts by up to 40 % over minutes.  Operation times divided by
    calibration times taken between the operations move far less than either
    does alone."""
    t0 = time.perf_counter()
    c, cons, integrality, bounds = CALIBRATION["milp"]
    milp(c, constraints=cons, integrality=integrality, bounds=bounds)
    c, A, b = CALIBRATION["lp"]
    for _ in range(100):
        linprog(c, A_ub=A, b_ub=b, bounds=(0, 1))
    mats, rhs = CALIBRATION["dense"]
    for _ in range(15):
        np.linalg.det(mats)
        np.linalg.solve(mats, rhs)
    return time.perf_counter() - t0


# -- references and verdicts ------------------------------------------------------

def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)["references"]


def reference_of(refs: dict, instance: str, instance_seed: int) -> float | None:
    entry = refs.get(instance, {}).get(str(instance_seed))
    return None if entry is None else float(entry["value"])


@dataclass
class OpResult:
    op: str
    status: str
    objective: float | None
    reference: float | None
    seconds: float          # measured wall time
    charged_s: float        # what solve_s and solve_norm count: the limit when failed
    verdict: str
    detail: str = ""
    iterations: int = 0
    seeds: int = 0
    calibration_s: float = 0.0   # set by the caller; see calibrate()


def judge(status: str, objective: float | None, reference: float | None,
          tol: float) -> tuple[str, str]:
    if status not in ("Optimal", "GapReached"):
        return FAILED, f"status {status}"
    if objective is None or not np.isfinite(objective):
        return FAILED, "no finite objective"
    if reference is None:
        return UNCHECKED, "no stored reference for this instance seed"
    err = abs(objective - reference)
    if err > tol * max(1.0, abs(reference)):
        return FAILED, f"objective off the reference by {err:.6g}"
    return PASSED, ""


def run_op(op: Op, inst: Instance, reference: float | None,
           time_limit: float = TIME_LIMIT_S) -> OpResult:
    """Time one operation; every exception it raises is a failure charged at
    the time limit, and the workload continues."""
    iterations = seeds = 0
    t0 = time.perf_counter()
    try:
        if op.config is None:
            res = oracle_exact(inst)
            seconds = time.perf_counter() - t0
            status, objective, tol = "Optimal", float(res.value), ORACLE_TOL
        else:
            cfg = AlgorithmConfig(time_limit_s=time_limit, **op.config)
            res = run(inst, cfg)
            seconds = time.perf_counter() - t0
            status, objective, tol = res.status, res.objective, cfg.tol
            iterations = res.n_iterations
            seeds = (len(res.meta.get("point_seeds", ())) + len(res.meta.get("ray_seeds", ()))
                     + int(res.meta.get("n_basis_seeds", 0)))
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
        seconds = time.perf_counter() - t0
        return OpResult(op.name, type(exc).__name__, None, reference, seconds,
                        time_limit, FAILED, f"{type(exc).__name__}: {exc}")
    verdict, detail = judge(status, objective, reference, tol)
    if seconds > time_limit:
        verdict, detail = FAILED, f"took {seconds:.3g} s, over the {time_limit:g} s limit"
    charged = seconds if verdict != FAILED else time_limit
    return OpResult(op.name, status, objective, reference, seconds, charged,
                    verdict, detail, iterations, seeds)
