"""One digest of every model HiGHS receives on the benchmark operations.

Runs every operation of every workload (perfbench/workloads.py: pmedian,
facility and oracle) at instance seeds 0 and 1, those marked known_defect
included, and hashes what HiGHS receives on every solve, the arguments of
every backend._highs call: the objective, the constraint matrix as a
canonical CSR (duplicates summed, indices sorted; a copy, so HiGHS gets the
rows as they were), the row bounds, the column bounds, the integrality and
the whole option set other than time_limit, which follows the wall clock. It
also hashes every return of instances.worst_case_values: the bits of each
value and each worst u. It prints each operation's status, objective,
iteration count, number of solves, how many of them are MIPs (arrays with an
integer column), one digest over its own solves in call order and one over
its worst-case values, then the same counts and one digest over all of them.
Under each operation a second line counts its solves by the name of the
model solved (backend.solve_lp and backend.solve_mip are wrapped to read
it), the instance's name cut off the front, and a digest of their inputs in
call order cut to 8 hex digits: "_wc_enum 6 1f2e3d4c" is six solves of the
model "<instance>_wc_enum". Where two trees' operation lines differ, these
name the models whose input changed.

The operations of one workload at one seed share one Instance per instance
name, as the benchmark's passes do, and an instance derives its lattice
and its deterministic relaxation once (ddu_ro.Instance.fact). So after the
first pm_uk8 operation in workload order, the others solve no "xfill",
"_det" or "first_stage_max" model, and their "by model:" lines do not list
them.

Two trees that print the same lines gave HiGHS byte-identical input on
every solve of those operations, and the oracle the same vertices and
values; where they differ, the operation lines that differ name the
operations whose input or values changed. Where two trees share different
derivations between the operations, "the same work" means the same input
on every solve that each still makes. The marked operations
(fl_rhs5/benders and fl_mip3/mip) end Optimal now, and fl_mip3/mip brings
sp4's KKT MIP at the default big-M into the comparison.

It is also a check: it exits 1, and names on stderr each operation whose
verdict (workloads.judge) is not a pass with its verdict and detail, where
any is; stdout is the same either way. Run it from the root of a checkout:

    PYTHONPATH=src python tools/highs_digest.py
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import os
import sys
import tempfile

import numpy as np
from scipy.sparse import csr_array

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402
from ddu_ro import backend, instances  # noqa: E402


def _arrays(digest, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())


def _model_hash(a: backend.HighsArrays, options: dict) -> str:
    """sha256 of one solve's input: HiGHS's arrays a and options."""
    A = csr_array((a.data, a.indices, a.indptr), shape=(a.rhs.size, a.c.size), copy=True)
    A.sum_duplicates()
    A.sort_indices()
    digest = hashlib.sha256(b"mip" if a.integrality.any() else b"lp")
    _arrays(digest, a.c, A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data,
            a.lhs, a.rhs, a.lb, a.ub, a.integrality.astype(np.int64))
    digest.update(repr(sorted((k, v) for k, v in options.items()
                              if k != "time_limit")).encode())
    return digest.hexdigest()


def _digest(hashes: list[str]) -> str:
    return hashlib.sha256("".join(hashes).encode()).hexdigest()


class Recorder:
    """Wraps backend._highs, backend.solve_lp, backend.solve_mip and
    instances.worst_case_values while installed and keeps the hash of each
    solve's input, whether the solve was a MIP, the name of the model it
    solved (the innermost solve_lp or solve_mip around it) and the hash of
    each worst_case_values return."""

    def __init__(self) -> None:
        self.hashes: list[str] = []
        self.mips: list[bool] = []
        self.names: list[str] = []
        self.values: list[str] = []
        self._models: list[str] = []
        self._saved = (backend._highs, backend.solve_lp, backend.solve_mip,
                       instances.worst_case_values)

    def __enter__(self) -> "Recorder":
        highs, solve_lp, solve_mip, worst_case_values = self._saved

        def named(solve):
            def call(model, *args, **kwargs):
                self._models.append(model.name)
                try:
                    return solve(model, *args, **kwargs)
                finally:
                    self._models.pop()
            return call

        def hashed(a, options):
            self.hashes.append(_model_hash(a, options))
            self.mips.append(bool(a.integrality.any()))
            self.names.append(self._models[-1])
            return highs(a, options)

        def hashed_worst_case_values(inst, xs):
            out = worst_case_values(inst, xs)
            digest = hashlib.sha256(b"worst_case_values")
            for value, u in out:
                _arrays(digest, np.float64(value), u)
            self.values.append(digest.hexdigest())
            return out

        backend._highs = hashed
        backend.solve_lp, backend.solve_mip = named(solve_lp), named(solve_mip)
        instances.worst_case_values = hashed_worst_case_values
        return self

    def __exit__(self, *exc) -> None:
        (backend._highs, backend.solve_lp, backend.solve_mip,
         instances.worst_case_values) = self._saved


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    args = ap.parse_args(argv)
    refs = workloads.load_references()
    failed = []
    with Recorder() as rec, tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            for name in args.workloads:
                ops = workloads.WORKLOADS[name]
                insts = workloads.build_instances(workloads.instances_of(ops), seed, scratch)
                for op in ops:
                    before, valued = len(rec.hashes), len(rec.values)
                    res = workloads.run_op(op, insts[op.instance],
                                           workloads.reference_of(refs, op.instance, seed))
                    objective = "None" if res.objective is None else repr(float(res.objective))
                    own = rec.hashes[before:]
                    print(f"s{seed} {op.name}: {res.status} {objective} "
                          f"iterations {res.iterations} solves {len(own)} "
                          f"mips {sum(rec.mips[before:])} digest {_digest(own)} "
                          f"values {_digest(rec.values[valued:])}")
                    prefix = insts[op.instance].name
                    models = collections.defaultdict(list)
                    for model, digest in zip(rec.names[before:], own):
                        models[model.removeprefix(prefix)].append(digest)
                    print("  by model: " + ", ".join(
                        f"{model} {len(hashes)} {_digest(hashes)[:8]}"
                        for model, hashes in sorted(models.items())))
                    if res.verdict != workloads.PASSED:
                        failed.append(f"s{seed} {op.name}: {res.verdict} {res.detail}")
    print(f"solves {len(rec.hashes)} mips {sum(rec.mips)} digest {_digest(rec.hashes)}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
