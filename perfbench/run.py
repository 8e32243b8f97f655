"""The solve benchmark of ddu_ro.

    python3 perfbench/run.py --workload pmedian --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, every operation
    python3 -m pytest -q perfbench           # self-tests of the benchmark

With ``--workload`` the named workload runs in a fresh single-threaded
process, over a fixed number of passes that fills about ``--seconds``; the
seed sets the order of the operations within a pass.  Each operation is
bracketed by calibration solves that do not touch ddu_ro (see
``workloads.calibrate``), and the metrics are:

- ``solve_norm``: the operation seconds of a pass, each divided by the mean
  of the calibration seconds around it, summed over the pass; the median over
  passes.  A failed operation counts as its time limit.  The plain wall-clock
  sum, ``solve_s``, is printed too but not gated: on the shared host the
  benchmark was built on it spread by 26-30 % between runs of identical
  inputs, against 5-8 % for ``solve_norm``.
- ``peak_rss_mb``: peak resident memory of the workload process.
- ``setup_s``: from interpreter start until the instances are loaded, in
  three fresh processes; each time is scaled by the calibration measured right
  after it to a host where the calibration takes ``REFERENCE_CAL_S``, and the
  median is reported.

``--trace 1`` runs one plain and one traced pass and reports the per-layer
metrics of tracing.py instead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

A run stops its worker at a deadline: ``DEADLINE_S``, or three times what its
passes take on the reference host if that is longer.  Every operation that
had not finished by then, or when the worker died, is reported as failed and
charged the time limit, and the metrics are computed as for any other failure.

Without ``--workload`` every workload runs one pass, one after the other, over
all of its operations including the known defects, which the timed runs leave
out because an operation there may not fail.  ``--instance-seed`` picks the
generator seed; references are stored for seeds 0 and 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pmedian", "facility", "oracle")
SETUP_RUNS = 3
# setup_s is given in seconds of a host on which one calibration takes this
# long; it takes 0.8-1.3 s on the 2-vCPU host the benchmark was built on
REFERENCE_CAL_S = 1.0
# seconds one pass takes, calibration included, on that host.  A run makes
# round(--seconds / this) passes, at least one: a count that followed the
# clock would vary with the host's speed, and as the first pass of a process
# is slower than later ones, the median would too.
PASS_S = {"pmedian": 24.0, "facility": 14.0, "oracle": 15.0}
DEADLINE_S = 170.0      # the least a run gets, set-up processes included


def spawn(args: list[str], timeout: float) -> tuple[list[dict], str]:
    """Run the worker in a fresh single-threaded interpreter.  Return the
    events it printed and, if it did not end normally, why; a worker still
    running at the timeout is killed and waited for."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args, "--t0", repr(t0)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        stopped = "" if proc.returncode == 0 else f"worker exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        stopped = f"stopped at the run's deadline, {timeout:.0f} s after its start"
    if stopped:
        sys.stderr.write(err)
    # HiGHS may write lines of its own to standard output
    events = [json.loads(line) for line in out.splitlines() if line.startswith('{"event"')]
    if not events or events[0]["event"] != "setup":
        raise RuntimeError(f"no set-up from the worker: {stopped}")
    return events, stopped


def fmt(v) -> str:
    return "-" if v is None else f"{v:.10g}"


def secs(v) -> str:
    return "-" if v is None else f"{v:.3f}"


def passes_of(events: list[dict], n_passes: int, stopped: str) -> list[list[dict]]:
    """The operation results of each pass; the operations a stopped worker
    did not finish are failed and charged the time limit."""
    setup = events[0]
    done = [e for e in events if e["event"] == "op"]
    cal = statistics.median([e["result"]["calibration_s"] for e in done]
                            or [setup["setup_cal_s"]])
    passes = []
    for k in range(n_passes):
        ps = [e["result"] for e in done if e["pass"] == k]
        ps += [{"op": name, "status": "Stopped", "objective": None, "reference": None,
                "seconds": None, "charged_s": setup["time_limit"], "verdict": "FAIL",
                "detail": stopped, "calibration_s": cal}
               for name in setup["ops"][len(ps):]]
        passes.append(ps)
    return passes


def total(ps: list[dict]) -> float:
    return sum(r["charged_s"] for r in ps)


def report(workload: str, events: list[dict], stopped: str, n_passes: int, trace: bool,
           setups: list[tuple[float, float]]) -> dict:
    """Print the operation verdicts and the metrics of one workload; return
    the result object."""
    passes = passes_of(events, n_passes + trace, stopped)
    plain = passes[:n_passes]
    ops = [r for ps in passes for r in ps]
    failed = sum(r["verdict"] == "FAIL" for r in ops)
    unchecked = sum(r["verdict"] == "unchecked" for r in ops)
    print(f"# {workload}: provenance {json.dumps(events[0]['provenance'])}")
    if stopped:
        print(f"# {workload}: {stopped}")
    print(f"{'pass':>4} {'operation':30} {'status':12} {'objective':>20} "
          f"{'reference':>20} {'verdict':9} {'seconds':>9} {'calib_s':>8}")
    for k, ps in enumerate(passes):
        for r in ps:
            print(f"{k:>4} {r['op']:30} {r['status']:12} {fmt(r['objective']):>20} "
                  f"{fmt(r['reference']):>20} {r['verdict']:9} {secs(r['seconds']):>9} "
                  f"{r['calibration_s']:8.3f}"
                  + (f"  {r['detail']}" if r["detail"] else ""))
    solve_s = statistics.median(total(ps) for ps in plain)
    if trace:
        layers = [e["layers"] for e in events if e.get("layers")][-1]
        metrics = dict(layers, **{"trace.overhead_s": {
            "value": total(passes[-1]) - solve_s, "unit": "s"}})
        end = events[-1] if events[-1]["event"] == "end" else {}
        print(f"# spans written to {end.get('spans_file')}")
    else:
        metrics = {
            "solve_norm": {"value": statistics.median(
                sum(r["charged_s"] / r["calibration_s"] for r in ps) for ps in plain),
                "unit": "x"},
            "peak_rss_mb": {"value": events[-1]["rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(w / c * REFERENCE_CAL_S for w, c in setups),
                        "unit": "s"},
        }
    print(f"{'ops':28} {len(ops):>14} count")
    print(f"{'ops_failed':28} {failed:>14} count")
    if unchecked:
        print(f"{'ops_unchecked':28} {unchecked:>14} count")
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"{'solve_s':28} {solve_s:>14.6g} s  (not gated: see solve_norm)")
        print(f"# setup_s is the median of {len(setups)} fresh processes, each set-up "
              "time scaled by the calibration time measured right after it; "
              "measured seconds / calibration seconds: "
              + " ".join(f"{w:.3f}/{c:.3f}" for w, c in setups))
    return {"correct": failed == 0 and unchecked == 0, "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def run_workload(workload: str, extra: list[str], n_passes: int, trace: bool) -> dict:
    deadline = time.monotonic() + max(DEADLINE_S, 3 * n_passes * PASS_S[workload])
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            events, _ = spawn(["--workload", workload, "--setup-only", *extra],
                              deadline - time.monotonic())
            setups.append((events[0]["setup_s"], events[0]["setup_cal_s"]))
    events, stopped = spawn(["--workload", workload, "--passes", str(n_passes),
                             "--trace", str(int(trace)), *extra],
                            deadline - time.monotonic())
    setups.append((events[0]["setup_s"], events[0]["setup_cal_s"]))
    return report(workload, events, stopped, n_passes, trace, setups)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seed", type=int, default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ddu_ro", "__init__.py")):
        print(f"no ddu_ro sources under {ROOT}/src", file=sys.stderr)
        return 2
    extra = ["--seed", str(args.seed), "--instance-seed", str(args.instance_seed)]
    trace = bool(args.trace)
    try:
        if args.workload:
            n_passes = 1 if trace else max(1, round(args.seconds / PASS_S[args.workload]))
            result = run_workload(args.workload, extra, n_passes, trace)
        else:
            per = {wl: run_workload(wl, [*extra, "--matrix"], 1, trace) for wl in WORKLOADS}
            result = {"correct": all(r["correct"] for r in per.values()),
                      "attempted": sum(r["attempted"] for r in per.values()),
                      "failed": sum(r["failed"] for r in per.values()),
                      "metrics": {f"{wl}.{k}": m for wl, r in per.items()
                                  for k, m in r["metrics"].items()}}
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
