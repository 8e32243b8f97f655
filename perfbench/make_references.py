"""Recompute the reference objectives and write them to references.json.

    python3 perfbench/make_references.py 0 1

Each reference comes from a route independent of the timed operation where
one exists: the enumeration oracle for the p-median instances (on the
matching decision-independent diu_u0 instance for pm_pair5) and for fl_rhs2;
for fl_rhs5 and fl_mip3, which are beyond the oracle's limits, the value the
C&CG variants agree on at tol 1e-7 with big_M 1e5 (fl_mip3, which only the
parametric master solves, also at big_M 1e6).  Disagreement is recorded
in the provenance, not hidden.  Takes a few minutes per seed.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from ddu_ro import AlgorithmConfig, PMedianParams, gen_reliable_pmedian, oracle_exact, run  # noqa: E402

import workloads as W  # noqa: E402

TIGHT = dict(tol=1e-7, big_M=1e5, time_limit_s=600.0)


def agreed(inst, configs: dict[str, dict]) -> tuple[float, str]:
    values = {}
    for label, cfg in configs.items():
        res = run(inst, AlgorithmConfig(**{**TIGHT, **cfg}))
        values[label] = (res.status, res.objective)
    objs = [v for s, v in values.values() if s in ("Optimal", "GapReached")]
    spread = max(objs) - min(objs)
    note = ", ".join(f"{k} {s} {v!r}" for k, (s, v) in values.items())
    return objs[0], f"C&CG at tol 1e-7, big_M 1e5: {note}; spread {spread:.3g}"


def references(seed: int) -> dict:
    out = {}
    v = oracle_exact(W.GENERATORS["pm_uk8"](seed)).value
    out["pm_uk8"] = (v, "oracle_exact")
    diu = gen_reliable_pmedian(PMedianParams(n_sites=5, p=2, seed=seed), "diu_u0")
    out["pm_pair5"] = (oracle_exact(diu).value, "oracle_exact on the matching diu_u0 instance")
    fl2 = W.GENERATORS["fl_rhs2"](seed)
    v2 = oracle_exact(fl2).value
    p2 = run(fl2, AlgorithmConfig(**TIGHT)).objective
    out["fl_rhs2"] = (v2, f"oracle_exact; parametric at tol 1e-7, big_M 1e5 gives {p2!r}")
    out["fl_rhs5"] = agreed(W.GENERATORS["fl_rhs5"](seed),
                            {v: {"variant": v} for v in
                             ("parametric", "parametric-modified", "benders")})
    out["fl_mip3"] = agreed(W.GENERATORS["fl_mip3"](seed),
                            {"parametric-mip": {"mip_recourse_mode": True},
                             "parametric-mip big_M 1e6": {"mip_recourse_mode": True,
                                                          "big_M": 1e6}})
    return out


def main(seeds: list[int]) -> None:
    refs: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in seeds:
            for name, (value, how) in references(s).items():
                refs.setdefault(name, {})[str(s)] = {"value": value, "provenance": how}
    # written here, not printed: HiGHS writes stray lines to standard output
    with open(W.REFERENCES, "w") as fh:
        json.dump({"references": refs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [0, 1])
