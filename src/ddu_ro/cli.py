"""Command-line front end: generate, import, convert, solve, compare, oracle.

Artifacts are written atomically (temp file + rename) so interrupted runs
never leave half-written JSON or CSV behind. Exit codes are a contract:

* 0: solved to the requested gap (or all compared variants agree)
* 2: the instance is infeasible
* 3: wall clock or stall ended the run before the gap closed
* 5: compared variants disagree beyond tolerance
* 64: bad command line
* 1: any other error, a run that ends Numerical included

compare runs its variants in order on one instance, and runs on one
instance derive its lattice and its deterministic relaxation once: the
first variant pays for them and the others reuse them (meta "facts" in the
run.json of solve), so the first variant's time_s includes that work.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import backend
from .ccg import AlgorithmConfig, VARIANTS, records_to_csv, run, run_result_to_dict
from .instances import (FLParams, OracleError, PMedianParams, PMEDIAN_KINDS,
                        gen_mip_recourse_fl, gen_reliable_pmedian, gen_robust_fl,
                        io_read, io_write, oracle_exact, write_atomic)
from .model import Instance, SchemaError, uncertainty_sets_from_list
from .reformulations import neutralize, normalize, order_switch

_AGREE_TOL = 1e-5
_DEFAULTS = AlgorithmConfig()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 64 instead of 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_algorithm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANTS, default=_DEFAULTS.variant)
    p.add_argument("--tol", type=float, default=_DEFAULTS.tol,
                   help="relative optimality gap (default %(default)s)")
    p.add_argument("--time-limit", type=float, default=_DEFAULTS.time_limit_s,
                   help="wall clock budget in seconds (default %(default)s)")
    p.add_argument("--big-m", type=float, default=_DEFAULTS.big_M,
                   help="linearization constant (default %(default)s)")
    p.add_argument("--pareto", action="store_true",
                   help="strengthen cut scenarios against a reference point")
    p.add_argument("--mip-recourse", action="store_true",
                   help="bracket integer recourse between relaxed and exact")
    p.add_argument("--diu-approx", default=None, metavar="SRC",
                   help="'metadata' or a JSON file with surrogate sets")
    p.add_argument("--max-iterations", type=int, default=None)


def _build_parser() -> _Parser:
    top = _Parser(prog="ddu-ro", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solver loop on an instance")
    p.add_argument("instance")
    _add_algorithm_flags(p)
    p.add_argument("--out", default=".", help="directory for run artifacts")

    p = sub.add_parser("compare", help="run several variants side by side",
                       description=__doc__.split("\n\n")[-1])
    p.add_argument("instance")
    p.add_argument("--variants", default="benders,parametric",
                   help="comma list of variants (at least two)")
    _add_algorithm_flags(p)
    p.add_argument("--out", default=".", help="directory for compare.csv")

    p = sub.add_parser("oracle", help="ground-truth value by enumeration")
    p.add_argument("instance")

    p = sub.add_parser("convert", help="apply a structural rewrite")
    p.add_argument("mode", choices=("neutralize", "normalize", "order-switch"))
    p.add_argument("instance")
    p.add_argument("--lo-cols", default=None,
                   help="comma list: first-stage columns of the lower ends")
    p.add_argument("--hi-cols", default=None,
                   help="comma list: first-stage columns of the upper ends")
    p.add_argument("--big-m", type=float, default=backend.DEFAULT_BIG_M,
                   help="linearization constant (default %(default)s)")
    p.add_argument("--force-upper-bound", action="store_true")
    p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("generate", help="write a synthetic benchmark instance")
    p.add_argument("--model", required=True,
                   choices=("fl-rhs", "fl-lhs", "fl-mip", "pmedian"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--facilities", type=int, default=None)
    p.add_argument("--capacity-lower-frac", type=float, default=None)
    p.add_argument("--capacity-upper-frac", type=float, default=None)
    p.add_argument("--high-fixed", action="store_true")
    p.add_argument("--kind", choices=PMEDIAN_KINDS, default="ddu_uk")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("-o", "--out", default=None, help="output file path")

    p = sub.add_parser("import", help="build an instance from CSV matrices")
    p.add_argument("--model", required=True,
                   choices=("fl-rhs", "fl-lhs", "fl-mip", "pmedian"))
    p.add_argument("--costs", required=True, help="CSV service/transport costs")
    p.add_argument("--demands", default=None, help="CSV demand vector")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=PMEDIAN_KINDS, default="ddu_uk")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("-o", "--out", default=None, help="output file path")

    return top


def _config_from(args, inst: Instance) -> AlgorithmConfig:
    """The run's config; a --diu-approx file's sets are checked against
    inst's dimensions as they are read."""
    diu = args.diu_approx
    if diu is not None and diu != "metadata":
        with open(diu) as fh:
            diu = uncertainty_sets_from_list(json.load(fh), diu, inst.dim_x, inst.U.dim)
    return AlgorithmConfig(variant=args.variant, tol=args.tol,
                           time_limit_s=args.time_limit, big_M=args.big_m,
                           pareto=args.pareto, mip_recourse_mode=args.mip_recourse,
                           diu_approx=diu, max_iterations=args.max_iterations)


_EXIT_BY_STATUS = {"Optimal": 0, "GapReached": 0, "Infeasible": 2,
                   "TimeLimit": 3, "Stalled": 3}


def cmd_solve(args) -> int:
    inst = io_read(args.instance)
    res = run(inst, _config_from(args, inst))
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "run.json"),
                 json.dumps(run_result_to_dict(res), indent=2))
    write_atomic(os.path.join(args.out, "iterations.csv"),
                 records_to_csv(res.iterations))
    obj = "-" if res.objective is None else f"{res.objective:.10g}"
    print(f"{res.status} objective={obj} lb={res.lb:.10g} ub={res.ub:.10g} "
          f"iterations={res.n_iterations} time={res.elapsed_s:.3f}s")
    return _EXIT_BY_STATUS.get(res.status, 1)


def cmd_compare(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if len(variants) < 2:
        raise _UsageError("compare needs at least two --variants")
    for v in variants:
        if v not in VARIANTS:
            raise _UsageError(f"unknown variant {v!r}")
    inst = io_read(args.instance)
    rows = []
    for v in variants:
        cfg_args = argparse.Namespace(**vars(args))
        cfg_args.variant = v
        try:
            res = run(inst, _config_from(cfg_args, inst))
            gap = res.iterations[-1].gap if res.iterations else float("nan")
            rows.append((v, res.status,
                         "" if res.objective is None else f"{res.objective!r}",
                         f"{gap!r}", str(res.n_iterations),
                         f"{res.elapsed_s:.6f}"))
        except (ValueError, backend.BackendError) as exc:
            rows.append((v, "Error", "", "", "", ""))
            print(f"{v}: {exc}", file=sys.stderr)
    lines = ["variant,status,value,gap,iterations,time_s"]
    lines += [",".join(r) for r in rows]
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "compare.csv"), "\n".join(lines) + "\n")
    print("\n".join(lines))

    finished = [float(r[2]) for r in rows if r[1] == "Optimal"]
    if not finished and all(r[1] in ("Error", "Numerical") for r in rows):
        return 1
    infeasible = [r[0] for r in rows if r[1] == "Infeasible"]
    valued = [f"{r[0]} {r[2]}" for r in rows if r[1] in ("Optimal", "GapReached")
              and r[2] and np.isfinite(float(r[2]))]
    if infeasible and valued:
        print(f"value disagreement: {', '.join(infeasible)} Infeasible, "
              f"{', '.join(valued)}", file=sys.stderr)
        return 5
    if finished:
        lo, hi = min(finished), max(finished)
        if hi - lo > _AGREE_TOL * max(1.0, abs(lo)):
            print(f"value disagreement: spread {hi - lo:.3g} over {lo!r}",
                  file=sys.stderr)
            return 5
    return 0


def cmd_oracle(args) -> int:
    inst = io_read(args.instance)
    res = oracle_exact(inst)
    print(f"{res.value!r}")
    return 0


def _csv_ints(text: str | None, flag: str) -> list[int]:
    if text is None:
        raise _UsageError(f"this conversion needs {flag}")
    return [int(t) for t in text.split(",") if t.strip()]


def cmd_convert(args) -> int:
    inst = io_read(args.instance)
    stem = os.path.splitext(args.instance)[0]
    if args.mode == "order-switch":
        if "E_hat" not in inst.metadata:
            print("order-switch needs metadata.E_hat (cost tilt matrix)",
                  file=sys.stderr)
            return 1
        with backend.big_m(args.big_m):
            out = order_switch(inst, np.asarray(inst.metadata["E_hat"], dtype=float),
                               force_upper_bound=args.force_upper_bound)
        sol = backend.solve_mip(out.model)
        payload = {"kind": out.kind, "status": sol.status,
                   "objective": None if sol.objective is None
                   else float(sol.objective),
                   "x": [float(sol.x[i]) for i in out.mapping["x"]]
                   if sol.is_optimal else None,
                   "y": [float(sol.x[i]) for i in out.mapping["y"]]
                   if sol.is_optimal else None,
                   "upper_bound_only": out.mapping["upper_bound_only"]}
        path = args.out or f"{stem}.switched.json"
        write_atomic(path, json.dumps(payload, indent=2))
    else:
        if args.mode == "neutralize":
            out = neutralize(inst)
        else:
            out = normalize(inst, _csv_ints(args.lo_cols, "--lo-cols"),
                            _csv_ints(args.hi_cols, "--hi-cols"))
        new_inst = out.instance
        new_inst.metadata["reformulation"] = {"kind": out.kind,
                                              "mapping": out.mapping}
        path = args.out or f"{stem}.diu.json"
        io_write(path, new_inst)
    print(path)
    return 0


# generator flag -> the parameter field of the same meaning in either family;
# a family without that field ignores the flag
_PARAM_FIELDS = {"seed": "seed", "sites": "n_sites", "facilities": "n_facilities",
                 "capacity_lower_frac": "capacity_lower_frac",
                 "capacity_upper_frac": "capacity_upper_frac",
                 "high_fixed": "high_fixed", "p": "p", "k": "k", "rho": "rho",
                 "theta": "theta", "q": "q"}


def _params(cls, args, csv_overrides: dict | None = None):
    """cls (FLParams or PMedianParams) from the flags given on the command
    line, then the CSV data."""
    fields = {f.name for f in dataclasses.fields(cls)}
    kw = {name: getattr(args, flag) for flag, name in _PARAM_FIELDS.items()
          if name in fields and getattr(args, flag, None) is not None}
    kw.update(csv_overrides or {})
    return cls(**kw)


def _generate_instance(args, csv_overrides: dict | None = None) -> Instance:
    if args.model == "pmedian":
        return gen_reliable_pmedian(_params(PMedianParams, args, csv_overrides),
                                    args.kind)
    params = _params(FLParams, args, csv_overrides)
    if args.model == "fl-mip":
        return gen_mip_recourse_fl(params)
    return gen_robust_fl(params, args.model.split("-")[1])


def cmd_generate(args) -> int:
    inst = _generate_instance(args)
    path = args.out or f"{inst.name}.json"
    io_write(path, inst)
    print(path)
    return 0


def cmd_import(args) -> int:
    overrides: dict = {"costs": np.atleast_2d(np.loadtxt(args.costs,
                                                         delimiter=","))}
    n = overrides["costs"].shape[0]
    if args.demands is not None:
        overrides["demands"] = np.atleast_1d(np.loadtxt(args.demands,
                                                        delimiter=","))
        n = overrides["demands"].size
    args.sites = n
    args.facilities = None
    inst = _generate_instance(args, overrides)
    path = args.out or f"{inst.name}.json"
    io_write(path, inst)
    print(path)
    return 0


_COMMANDS = {"solve": cmd_solve, "compare": cmd_compare, "oracle": cmd_oracle,
             "convert": cmd_convert, "generate": cmd_generate,
             "import": cmd_import}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 64
    except (OSError, json.JSONDecodeError, SchemaError, OracleError,
            backend.BackendError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
