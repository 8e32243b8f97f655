"""Per-layer tracing of ddu_ro from outside the package.

The tracer replaces the module attributes that callers look up (for example
``ddu_ro.ccg.sp1``, which ``_ccg_loop`` resolves at call time) with wrappers
that record a span per call: name, start, end, parent span and operation id,
plus a few attributes read from the arguments or the result (model sizes,
HiGHS node counts, vertex counts).  Spans are kept in memory; ``uninstall``
puts every original object back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from ddu_ro import backend, ccg, instances, maxmin, subproblems


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _model_attrs(args, kwargs) -> dict:
    model = args[0] if args else kwargs["model"]
    return {"model": model.name, "rows": len(model.constrs), "cols": len(model.vars),
            "nnz": sum(len(c.coeffs) for c in model.constrs),
            "ints": sum(1 for v in model.vars if v.integer)}


def _status_attrs(result) -> dict:
    return {"status": result.status}


def _milp_attrs(result) -> dict:
    return {"nodes": int(getattr(result, "mip_node_count", 0) or 0)}


def _vertex_attrs(result) -> dict:
    return {"count": int(result.shape[0])}


# (module, attribute, span name, attributes from the arguments, from the result)
TARGETS = [
    (ccg, "sp1", "sp1", None, None),
    (ccg, "sp2", "sp2", None, None),
    (ccg, "sp3", "sp3", None, None),
    (ccg, "sp4", "sp4", None, None),
    (ccg, "sp2_mip_relax", "sp2_relax", None, None),
    (ccg, "recourse_mip_at", "recourse_mip", None, None),
    (ccg, "lp_parametric", "maxmin.lp_parametric", None, None),
    (subproblems, "sp2", "sp2", None, None),
    (subproblems, "check_inner_feasibility", "maxmin.feas", None, None),
    (subproblems, "solve_maxmin_dual", "maxmin.dual", None, None),
    (subproblems, "lp_parametric", "maxmin.lp_parametric", None, None),
    (maxmin, "solve_maxmin_kkt", "maxmin.kkt", None, None),
    (maxmin, "check_inner_feasibility", "maxmin.feas", None, None),
    (maxmin, "lp_parametric", "maxmin.lp_parametric", None, None),
    (backend, "solve_lp", "backend.lp", _model_attrs, _status_attrs),
    (backend, "solve_mip", "backend.mip", _model_attrs, _status_attrs),
    (backend, "milp", "highs.milp", None, _milp_attrs),
    (backend, "linprog", "highs.linprog", None, None),
    (instances, "enumerate_vertices", "instances.vertices", None, _vertex_attrs),
    (instances, "recourse_value", "instances.recourse", None, None),
]

SPAN_NAMES = list(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Collects spans while installed.  Use as a context manager, and wrap
    each operation in ``op`` so its spans share an operation id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def install(self) -> None:
        for module, attr, name, before, after in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self._op, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, name: str):
        """The root span of one operation."""
        self._op = op_id
        span = self._open("op", {"op": name})
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, before(args, kwargs) if before else {})
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                span.attrs["error"] = True
                raise
            self._close(span)
            if after:
                span.attrs.update(after(result))
            return result
        return traced

    def write(self, path: str, header: dict) -> None:
        """One JSON line of header, then one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- per-layer metrics ------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover."""
    out = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def highs_seconds(spans: list[Span]) -> float:
    return sum(s.seconds for s in spans if s.name.startswith("highs."))


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def _below(kids, span: Span):
    for c in kids[span.id]:
        yield c
        yield from _below(kids, c)


METRICS = [
    # (name, unit, better)
    ("sp1.calls", "count", "lower"), ("sp1.s", "s", "lower"), ("sp1.nodes", "count", "lower"),
    ("sp2.calls", "count", "lower"), ("sp2.s", "s", "lower"), ("sp2.nodes", "count", "lower"),
    ("sp3.calls", "count", "lower"), ("sp3.s", "s", "lower"),
    ("sp4.calls", "count", "lower"), ("sp4.s", "s", "lower"),
    ("recourse_mip.calls", "count", "lower"), ("recourse_mip.s", "s", "lower"),
    ("maxmin.kkt.calls", "count", "lower"), ("maxmin.kkt.s", "s", "lower"),
    ("maxmin.kkt.binaries.max", "count", "lower"),
    ("maxmin.bilinear.calls", "count", "lower"), ("maxmin.bilinear.s", "s", "lower"),
    ("maxmin.lp_parametric.calls", "count", "lower"),
    ("maxmin.lp_parametric.s", "s", "lower"),
    ("ccg.iterations", "count", "lower"), ("ccg.seeds", "count", "lower"),
    ("ccg.seed_yield", "seeds/iter", "higher"),
    ("ccg.master.calls", "count", "lower"), ("ccg.master.s", "s", "lower"),
    ("ccg.master.nodes", "count", "lower"), ("ccg.master.rows.max", "count", "lower"),
    ("ccg.master.cols.max", "count", "lower"), ("ccg.master.nnz.max", "count", "lower"),
    ("ccg.self_s", "s", "lower"),
    ("backend.mip.calls", "count", "lower"), ("backend.mip.s", "s", "lower"),
    ("backend.mip.highs_s", "s", "lower"), ("backend.mip.nodes", "count", "lower"),
    ("backend.mip.nonoptimal", "count", "lower"),
    ("backend.lp.calls", "count", "lower"), ("backend.lp.s", "s", "lower"),
    ("backend.lp.highs_s", "s", "lower"), ("backend.lp.nonoptimal", "count", "lower"),
    ("backend.assembly_s", "s", "lower"), ("backend.dense_mb.max", "MB", "lower"),
    ("python_s", "s", "lower"),
    ("instances.vertices.calls", "count", "lower"), ("instances.vertices.s", "s", "lower"),
    ("instances.vertices.count", "count", "lower"),
    ("instances.recourse.calls", "count", "lower"), ("instances.recourse.s", "s", "lower"),
] + [(f"{name}.errors", "count", "lower") for name in SPAN_NAMES] + [
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in METRICS}


def layer_metrics(spans: list[Span], ccg_ops: dict[int, tuple[int, int]]) -> dict[str, float]:
    """Fold the spans of one traced pass into the per-layer metrics.

    ccg_ops maps the id of each C&CG operation to its (iterations, seeds);
    the oracle operations are absent from it.  A layer that was never called
    reads 0.  trace.overhead_s reads 0 too: it compares the traced pass with
    a plain one, which the caller fills in."""
    m = {name: 0.0 for name, _, _ in METRICS}
    kids = _children(spans)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def nodes_below(span: Span) -> int:
        return sum(c.attrs.get("nodes", 0) for c in _below(kids, span)
                   if c.name == "highs.milp")

    for s in spans:
        if s.attrs.get("error"):
            m[f"{s.name}.errors"] += 1
        if s.name in ("sp1", "sp2", "sp3", "sp4", "recourse_mip",
                      "maxmin.kkt", "maxmin.lp_parametric"):
            m[f"{s.name}.calls"] += 1
            m[f"{s.name}.s"] += s.seconds
        if s.name in ("sp1", "sp2"):
            m[f"{s.name}.nodes"] += nodes_below(s)
        if s.name == "maxmin.kkt":
            ints = [c.attrs["ints"] for c in kids[s.id] if c.name == "backend.mip"]
            m["maxmin.kkt.binaries.max"] = max([m["maxmin.kkt.binaries.max"], *ints])
        # the product linearisation is the MIP named "<problem>_bilin"; a call
        # that ends at the feasibility check or falls back to KKT is not one
        if s.name == "maxmin.dual" and any(c.name == "backend.mip" and
                                           c.attrs["model"].endswith("_bilin")
                                           for c in kids[s.id]):
            m["maxmin.bilinear.calls"] += 1
            m["maxmin.bilinear.s"] += s.seconds - sum(
                c.seconds for c in kids[s.id] if c.name == "maxmin.feas")
        if s.name in ("backend.mip", "backend.lp"):
            m["backend.assembly_s"] += selfs[s.id]
            m["backend.dense_mb.max"] = max(m["backend.dense_mb.max"],
                                            s.attrs["rows"] * s.attrs["cols"] * 8 / 1e6)
        if s.name == "backend.mip" and s.attrs["ints"]:
            m["backend.mip.calls"] += 1
            m["backend.mip.s"] += s.seconds
            m["backend.mip.highs_s"] += sum(c.seconds for c in kids[s.id]
                                            if c.name == "highs.milp")
            m["backend.mip.nodes"] += nodes_below(s)
            m["backend.mip.nonoptimal"] += s.attrs.get("status", "") != "Optimal"
        if s.name == "backend.lp":
            m["backend.lp.calls"] += 1
            m["backend.lp.s"] += s.seconds
            m["backend.lp.highs_s"] += sum(c.seconds for c in kids[s.id]
                                           if c.name == "highs.linprog")
            m["backend.lp.nonoptimal"] += s.attrs.get("status", "") != "Optimal"
        if s.name == "instances.vertices":
            m["instances.vertices.calls"] += 1
            m["instances.vertices.s"] += s.seconds
            m["instances.vertices.count"] += s.attrs.get("count", 0)
        if s.name == "instances.recourse":
            m["instances.recourse.calls"] += 1
            m["instances.recourse.s"] += s.seconds
        if s.name == "op":
            m["python_s"] += s.seconds - highs_seconds(list(_below(kids, s)))
            if s.op in ccg_ops:
                m["ccg.self_s"] += selfs[s.id]
        parent = by_id.get(s.parent) if s.parent is not None else None
        if (parent is not None and parent.name == "op" and s.op in ccg_ops
                and s.name.startswith("backend.") and s.attrs["model"].endswith("-master")):
            m["ccg.master.calls"] += 1
            m["ccg.master.s"] += s.seconds
            m["ccg.master.nodes"] += nodes_below(s)
            for dim in ("rows", "cols", "nnz"):
                key = f"ccg.master.{dim}.max"
                m[key] = max(m[key], s.attrs[dim])

    for iterations, seeds in ccg_ops.values():
        m["ccg.iterations"] += iterations
        m["ccg.seeds"] += seeds
    if m["ccg.iterations"]:
        m["ccg.seed_yield"] = m["ccg.seeds"] / m["ccg.iterations"]
    return m
