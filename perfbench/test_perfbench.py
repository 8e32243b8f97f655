"""Self-tests of the benchmark: span accounting checked against the
profiler, the failure charge, the deadline, and that tracing leaves ddu_ro as
it found it.

    python3 -m pytest -q perfbench
"""

import cProfile
import json
import os
import pstats
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from ddu_ro import FLParams, gen_mip_recourse_fl, gen_robust_fl, t1  # noqa: E402

import run as R  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

# the tier-1 FL fixture and its optimum (tests/test_ccg.py)
FLT = dict(n_sites=2, seed=5, capacity_lower_frac=1.2, capacity_upper_frac=1.2)
FLT_W = 4737.267202466099
FL2 = dict(n_sites=2, seed=1, capacity_lower_frac=1.5, capacity_upper_frac=1.5)


def _flt():
    return gen_robust_fl(FLParams(profits=np.zeros(2), **FLT), "rhs")


def _code_key(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


@pytest.fixture(scope="module")
def traced():
    """The fixture operations, traced and profiled at once; the profiler
    counts calls by code object, whichever name the caller used."""
    insts = {"t1": t1(), "flt": _flt()}
    refs = {"t1": 1.0, "flt": FLT_W}
    ops = [W.Op("t1", "parametric", {"variant": "parametric"}),
           W.Op("t1", "benders", {"variant": "benders"}),
           W.Op("flt", "parametric", {"variant": "parametric"}),
           W.Op("flt", "parametric-modified", {"variant": "parametric-modified"}),
           W.Op("flt", "oracle")]
    originals = {name: {id(getattr(mod, attr)): getattr(mod, attr)
                        for mod, attr, n, *_ in T.TARGETS if n == name}
                 for name in T.SPAN_NAMES}
    tracer, prof = T.Tracer(), cProfile.Profile()
    results = []
    with tracer:
        for i, op in enumerate(ops):
            with tracer.op(i, op.name):
                prof.enable()
                results.append(W.run_op(op, insts[op.instance], refs[op.instance]))
                prof.disable()
    stats = pstats.Stats(prof).stats
    # (calls, cumulative seconds) of each original function
    profiled = {name: [stats.get(_code_key(fn), (0, 0, 0.0, 0.0))[1:4:2]
                       for fn in fns.values()] for name, fns in originals.items()}
    return ops, results, tracer.spans, profiled


def test_fixture_operations_pass(traced):
    _, results, _, _ = traced
    assert [r.verdict for r in results] == [W.PASSED] * len(results)


def test_spans_nest_and_cover_the_timed_operation(traced):
    ops, results, spans, _ = traced
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert parent.op == s.op
    assert min(T.self_times(spans).values()) >= -1e-9
    for i, r in enumerate(ops):
        (root,) = [s for s in spans if s.op == i and s.name == "op"]
        top = [s for s in spans if s.parent == root.id]
        assert top, "every operation reaches at least one wrapped layer"
        # run_op's own clock sits inside the root span, with only the
        # verdict and the result object between the two
        assert 0.0 <= root.seconds - results[i].seconds < 0.01
        assert sum(s.seconds for s in top) <= results[i].seconds


def test_every_call_of_a_wrapped_function_has_its_span(traced):
    """A caller that reached a wrapped function by a name the tracer does not
    replace would show in the profile but leave no span."""
    _, _, spans, profiled = traced
    for name in T.SPAN_NAMES:
        calls = sum(nc for nc, _ in profiled[name])
        assert calls == sum(s.name == name for s in spans), name
    for name in ("sp1", "sp2", "backend.lp", "backend.mip", "highs.milp",
                 "highs.linprog", "instances.vertices", "instances.recourse"):
        assert sum(nc for nc, _ in profiled[name]) >= 1, name


def test_python_s_and_highs_time_match_the_profile(traced):
    """python_s is the operation wall time from run_op minus the HiGHS time;
    the HiGHS time agrees with the profiler's cumulative time in milp and
    linprog, and no HiGHS call runs inside another."""
    _, results, spans, profiled = traced
    m = T.layer_metrics(spans, {})
    highs_profiled = sum(ct for name in ("highs.milp", "highs.linprog")
                         for _, ct in profiled[name])
    wall = sum(r.seconds for r in results)
    assert 0.0 < highs_profiled < wall
    assert m["python_s"] + highs_profiled == pytest.approx(wall, rel=0.05, abs=0.02)
    by_id = {s.id: s for s in spans}
    assert all(not by_id[s.parent].name.startswith("highs.")
               for s in spans if s.parent is not None)


def test_layer_metrics_see_each_layer(traced):
    ops, results, spans, _ = traced
    ccg_ops = {i: (r.iterations, r.seeds) for i, (op, r) in enumerate(zip(ops, results))
               if op.config is not None}
    m = T.layer_metrics(spans, ccg_ops)
    assert set(m) == {name for name, _, _ in T.METRICS}
    for key in ("sp1.calls", "sp2.calls", "ccg.master.calls", "backend.lp.calls",
                "instances.vertices.calls", "instances.recourse.calls"):
        assert m[key] >= 1, key
    assert m["ccg.iterations"] == sum(r.iterations for r in results)
    assert m["ccg.seed_yield"] == m["ccg.seeds"] / m["ccg.iterations"]
    assert m["trace.overhead_s"] == 0.0
    assert m["backend.mip.highs_s"] <= m["backend.mip.s"]


def test_a_wrong_reference_fails_and_is_charged_the_time_limit():
    op = W.Op("t1", "parametric", {"variant": "parametric"})
    r = W.run_op(op, t1(), reference=2.0, time_limit=7.0)
    assert r.status == "Optimal" and r.verdict == W.FAILED
    assert r.charged_s == 7.0 and r.seconds < 7.0
    assert "reference" in r.detail


def test_an_exception_is_recorded_and_charged_the_time_limit():
    # integer recourse outside mip_recourse_mode is rejected by run()
    op = W.Op("fl_mip", "plain", {"variant": "parametric"})
    r = W.run_op(op, gen_mip_recourse_fl(FLParams(**FL2)), reference=None, time_limit=5.0)
    assert r.verdict == W.FAILED and r.status == "ValueError"
    assert "mip_recourse_mode" in r.detail and r.charged_s == 5.0


def test_an_overrun_without_a_limit_of_its_own_fails():
    r = W.run_op(W.Op("t1", "oracle"), t1(), 1.0, time_limit=1e-9)
    assert r.status == "Optimal" and r.verdict == W.FAILED
    assert r.charged_s == 1e-9 and "limit" in r.detail


def test_operations_of_a_stopped_worker_fail_and_are_charged_the_limit(capsys):
    """A worker stopped at the deadline in its second pass still gives a
    result: the operations it did not finish count as failed."""
    ops = ["a/x", "b/y", "c/z"]
    done = {"op": "a/x", "status": "Optimal", "objective": 1.0, "reference": 1.0,
            "seconds": 2.0, "charged_s": 2.0, "verdict": W.PASSED, "detail": "",
            "calibration_s": 1.0}
    events = [{"event": "setup", "rss_mb": 90.0, "setup_s": 0.9, "setup_cal_s": 1.0,
               "ops": ops, "time_limit": 60.0, "provenance": {}, "layers": None}]
    events += [{"event": "op", "rss_mb": 95.0, "pass": k,
                "result": dict(done, op=name, seconds=2.0 + k, charged_s=2.0 + k)}
               for k, name in [(0, "a/x"), (0, "b/y"), (0, "c/z"), (1, "a/x")]]
    res = R.report("w", events, "stopped at the run's deadline", 2, False, [(0.9, 1.0)])
    assert res["attempted"] == 6 and res["failed"] == 2 and not res["correct"]
    # the median of a 6 s pass and a 3 + 60 + 60 s pass
    assert res["metrics"]["solve_norm"]["value"] == pytest.approx((6.0 + 123.0) / 2)
    assert res["metrics"]["peak_rss_mb"]["value"] == 95.0
    assert "Stopped" in capsys.readouterr().out


def test_a_missing_reference_is_unchecked_not_passed():
    r = W.run_op(W.Op("t1", "parametric", {"variant": "parametric"}), t1(), None)
    assert r.verdict == W.UNCHECKED


def test_tracing_restores_every_wrapped_attribute():
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in T.TARGETS]
    with pytest.raises(RuntimeError):
        with T.Tracer():
            assert all(getattr(mod, attr) is not o for mod, attr, o in originals)
            W.run_op(W.Op("t1", "benders", {"variant": "benders"}), t1(), 1.0)
            raise RuntimeError("leave the block early")
    assert all(getattr(mod, attr) is o for mod, attr, o in originals)


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == T.METRICS
