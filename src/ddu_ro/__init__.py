"""Exact and approximate solvers for two-stage robust optimization where the
uncertainty set depends on the first-stage decision."""

from .model import (
    AffineMatrixMap,
    BasisId,
    FirstStageSet,
    Instance,
    IterationRecord,
    RecourseSet,
    RunResult,
    UncertaintySet,
    instance_from_dict,
    instance_to_dict,
    relative_gap,
)
from .instances import (
    FLParams,
    OracleLimits,
    OracleResult,
    PMedianParams,
    gen_mip_recourse_fl,
    gen_reliable_pmedian,
    gen_robust_fl,
    io_read,
    io_write,
    oracle_exact,
    t1,
)
from .ccg import VARIANTS, AlgorithmConfig, run
from .reformulations import (
    ReformulationOutput,
    neutralize,
    normalize,
    order_switch,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMatrixMap", "BasisId", "FirstStageSet",
    "Instance", "IterationRecord", "RecourseSet", "RunResult",
    "UncertaintySet", "instance_from_dict", "instance_to_dict",
    "relative_gap",
    "FLParams", "OracleLimits", "OracleResult", "PMedianParams",
    "gen_mip_recourse_fl", "gen_reliable_pmedian", "gen_robust_fl",
    "io_read", "io_write", "oracle_exact", "t1",
    "VARIANTS", "AlgorithmConfig", "run",
    "ReformulationOutput", "neutralize", "normalize", "order_switch",
    "__version__",
]
