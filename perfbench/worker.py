"""One workload in a fresh, single-threaded process; started by run.py.

Prints one JSON line per event on stdout, each flushed as soon as it is
known, so that run.py keeps every finished operation even when it has to stop
this process at its deadline:

- ``setup``: the set-up time and the calibration right after it, the
  operations of a pass, the time limit, the provenance and, when tracing, the
  per-layer metrics at zero;
- ``op``: one finished operation with its verdict and, in the traced pass,
  the per-layer metrics of the pass so far;
- ``end``: the file the spans of the traced pass were written to.

Every event carries the peak resident memory of the process so far.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ddu_ro  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def git_commit(root: str = ROOT) -> str:
    """HEAD of the checkout; "unknown" where it is not a git repository.  The
    explicit --git-dir keeps git from searching the directories above."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines(root: str = ROOT) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def provenance(args) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "seed": args.seed, "instance_seed": args.instance_seed,
            "git_commit": git_commit(), "src_lines": src_lines()}


def emit(event: str, **fields) -> None:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"event": event, "rss_mb": rss_mb, **fields}), flush=True)


def with_units(layers: dict[str, float]) -> dict:
    return {k: {"value": v, "unit": T.UNITS[k]} for k, v in layers.items()}


def run_pass(k: int, ops, insts, refs, instance_seed: int, tracer=None) -> None:
    """The operations in order with a calibration before, between and after
    them; each operation gets the mean of the two calibrations around it."""
    cal = W.calibrate()
    ccg_ops: dict[int, tuple[int, int]] = {}
    for i, op in enumerate(ops):
        ref = W.reference_of(refs, op.instance, instance_seed)
        if tracer is None:
            r = W.run_op(op, insts[op.instance], ref)
        else:
            with tracer.op(i, op.name):
                r = W.run_op(op, insts[op.instance], ref)
        after = W.calibrate()
        r.calibration_s = (cal + after) / 2
        cal = after
        fields = {"pass": k, "result": vars(r)}
        if tracer is not None:
            if op.config is not None:
                ccg_ops[i] = (r.iterations, r.seeds)
            fields["layers"] = with_units(T.layer_metrics(tracer.spans, ccg_ops))
        emit("op", **fields)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=1, help="plain passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one traced pass after the plain ones")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started us")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--matrix", action="store_true",
                   help="every operation, known defects included, in workload order")
    p.add_argument("--instance-seed", type=int, default=0)
    args = p.parse_args(argv)
    if not os.path.abspath(ddu_ro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"ddu_ro was imported from {ddu_ro.__file__}, not from this checkout")

    ops = [op for op in W.WORKLOADS[args.workload] if args.matrix or not op.known_defect]
    if not args.matrix:
        # the seed sets the order of the operations within each pass
        ops = [ops[k] for k in np.random.default_rng(args.seed).permutation(len(ops))]
    insts = W.build_instances(W.instances_of(ops), args.instance_seed, OUT_DIR)
    setup_s = time.monotonic() - args.t0
    prov = provenance(args)
    emit("setup", setup_s=setup_s, setup_cal_s=W.calibrate(),
         ops=[op.name for op in ops], time_limit=W.TIME_LIMIT_S, provenance=prov,
         layers=with_units({name: 0.0 for name in T.UNITS}) if args.trace else None)
    if args.setup_only:
        return 0

    refs = W.load_references()
    for k in range(args.passes):
        run_pass(k, ops, insts, refs, args.instance_seed)
    spans_file = None
    if args.trace:
        tracer = T.Tracer()
        with tracer:
            run_pass(args.passes, ops, insts, refs, args.instance_seed, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, header={"provenance": prov, "ops": [op.name for op in ops]})
        spans_file = os.path.relpath(path, ROOT)
    emit("end", spans_file=spans_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
