"""The digest tool runs end to end: tools/highs_digest.py, the check that
two trees gave HiGHS the same input, on every workload at seed 0: oracle,
pmedian, whose masters are valued over X's lattice and whose pm_uk8
operations share one instance's lattice, and facility, whose MIP, KKT and
ray-cut paths run there. The tool exits 1 where an operation's objective
misses perfbench/references.json, so every bench objective is checked."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

HEX = "[0-9a-f]{64}"


def test_highs_digest_prints_a_line_per_operation_and_a_total():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "highs_digest.py"),
         "--workloads", "oracle", "pmedian", "facility", "--seeds", "0"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    ops = [op for name in ("oracle", "pmedian", "facility") for op in workloads.WORKLOADS[name]]
    assert len(lines) == 2 * len(ops) + 1
    for op, line, by_model in zip(ops, lines[::2], lines[1::2]):
        assert re.fullmatch(rf"s0 {re.escape(op.name)}: \S+ \S+ iterations \d+ solves \d+ "
                            rf"mips \d+ digest {HEX} values {HEX}", line), line
        assert re.fullmatch(r"  by model: \S+ \d+ [0-9a-f]{8}(, \S+ \d+ [0-9a-f]{8})*",
                            by_model), by_model
    assert re.fullmatch(rf"solves \d+ mips \d+ digest {HEX}", lines[-1]), lines[-1]
    # a workload's operations share one instance, which derives its lattice
    # once: only the first pm_uk8 operation of pmedian solves its xfill LP
    fills = [op.name for op, by_model in zip(ops, lines[1::2])
             if op in workloads.WORKLOADS["pmedian"] and op.instance == "pm_uk8"
             and re.search(r"[:,] xfill \d+", by_model)]
    assert fills == ["pm_uk8/parametric"]
