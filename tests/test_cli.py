"""Exit-code contract, artifacts, and subcommand plumbing."""

import json
from pathlib import Path

import numpy as np
import pytest

from ddu_ro import cli
from ddu_ro.instances import io_read, io_write, t1
from ddu_ro.model import RunResult, instance_to_dict
from toys import t1_infeasible


@pytest.fixture
def t1_path(tmp_path):
    path = tmp_path / "t1.json"
    io_write(str(path), t1())
    return str(path)


def test_solve_writes_artifacts_and_exits_zero(t1_path, tmp_path, capsys):
    out = str(tmp_path / "art")
    code = cli.main(["solve", t1_path, "--variant", "parametric",
                     "--tol", "1e-6", "--out", out])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("Optimal objective=1")
    payload = json.loads(Path(out, "run.json").read_text())
    assert payload["status"] == "Optimal"
    assert payload["objective"] == pytest.approx(1.0)
    csv = Path(out, "iterations.csv").read_text().splitlines()
    assert csv[0] == "t,lb,ub,gap,elapsed_s,cut_kind,seed_id"
    assert len(csv) == payload["n_iterations"] + 1


def test_solve_infeasible_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    io_write(str(path), t1_infeasible())
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2


def test_solve_time_limit_exits_three_with_partial_trace(t1_path, tmp_path):
    out = str(tmp_path / "tl")
    code = cli.main(["solve", t1_path, "--time-limit", "1e-9", "--out", out])
    assert code == 3
    assert json.loads(Path(out, "run.json").read_text())[
        "status"] == "TimeLimit"


def test_solve_subproblem_time_limit_exits_three(t1_path, tmp_path, monkeypatch):
    # a worst-case subproblem that runs out of time reports no value; the
    # run must end TimeLimit rather than fail on the missing number
    from ddu_ro import ccg
    from ddu_ro.backend import SolveTimeLimit

    def times_out(*args, **kwargs):
        raise SolveTimeLimit("SP2")

    monkeypatch.setattr(ccg, "sp2", times_out)
    out = str(tmp_path / "tl")
    assert cli.main(["solve", t1_path, "--out", out]) == 3
    payload = json.loads(Path(out, "run.json").read_text())
    assert payload["status"] == "TimeLimit"
    assert payload["lb"] is not None


@pytest.fixture
def fl_mip3_path(tmp_path):
    from ddu_ro.instances import FLParams, gen_mip_recourse_fl
    path = tmp_path / "fl_mip3.json"
    io_write(str(path), gen_mip_recourse_fl(FLParams(
        n_sites=3, seed=0, capacity_lower_frac=1.5, capacity_upper_frac=1.5)))
    return str(path)


@pytest.fixture
def fl_rhs5_path(tmp_path):
    from ddu_ro.instances import FLParams, gen_robust_fl
    path = tmp_path / "fl_rhs5.json"
    io_write(str(path), gen_robust_fl(FLParams(n_sites=5, seed=0), "rhs"))
    return str(path)


def test_solve_numerical_exits_one_with_the_run(fl_rhs5_path, tmp_path):
    # benders at big_M 1e6 ends Numerical: sp2's max-min value and its
    # vertex-dual audit LP differ by ~19 (an open defect)
    out = str(tmp_path / "num")
    assert cli.main(["solve", fl_rhs5_path, "--variant", "benders", "--big-m", "1e6",
                     "--out", out]) == 1
    payload = json.loads(Path(out, "run.json").read_text())
    assert payload["status"] == "Numerical"
    assert "differs from the LP value" in payload["meta"]["reason"]
    assert payload["lb"] is not None and payload["ub"] is None


def test_a_master_highs_refuses_ends_numerical(tmp_path):
    # at big_M 1e15 HiGHS refuses the 2-site parametric master, whose M-rows
    # hold 1e15; the run ended Infeasible, exit 2, though the oracle gives
    # -51406.065
    from ddu_ro.instances import FLParams, gen_robust_fl
    path, out = str(tmp_path / "fl2.json"), str(tmp_path / "run")
    io_write(path, gen_robust_fl(FLParams(n_sites=2, seed=0), "rhs"))
    assert cli.main(["solve", path, "--variant", "parametric", "--big-m", "1e15",
                     "--out", out]) == 1
    payload = json.loads(Path(out, "run.json").read_text())
    assert payload["status"] == "Numerical"
    assert payload["meta"]["reason"] == "master solve ended Numerical"


def test_solve_prints_only_its_summary_line(fl_rhs5_path, tmp_path, capfd):
    # HiGHS prints a line of its own with a raw printf during this run's
    # MIPs; stdout must still hold the summary alone
    code = cli.main(["solve", fl_rhs5_path, "--variant", "benders",
                     "--out", str(tmp_path / "art")])
    assert code == 0
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Optimal objective=-116370.336")


def test_pareto_in_an_approximation_loop_exits_one(fl_mip3_path, tmp_path, capsys):
    assert cli.main(["solve", fl_mip3_path, "--mip-recourse", "--pareto",
                     "--out", str(tmp_path)]) == 1
    assert "exact loop" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_compare_exits_one_when_every_variant_fails(fl_rhs5_path, tmp_path):
    # benders at big_M 1e6 ends Numerical on sp2's audit (the open defect of
    # the test above), and basis refuses fl-rhs's continuous coupled
    # capacities
    code = cli.main(["compare", fl_rhs5_path, "--variants", "benders,basis",
                     "--big-m", "1e6", "--out", str(tmp_path)])
    assert code == 1
    rows = (tmp_path / "compare.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["benders", "Numerical"],
                                                ["basis", "Error"]]


def test_bad_flags_exit_sixty_four(t1_path, capsys):
    assert cli.main(["solve", t1_path, "--variant", "newton"]) == 64
    assert cli.main(["frobnicate"]) == 64
    assert "usage" in capsys.readouterr().err or True


def test_both_approximation_loops_exit_one(t1_path, tmp_path, capsys):
    assert cli.main(["solve", t1_path, "--mip-recourse", "--diu-approx", "metadata",
                     "--out", str(tmp_path)]) == 1
    assert "set one of them" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_solve_flag_defaults_are_the_config_defaults():
    args = cli._build_parser().parse_args(["solve", "inst.json"])
    assert cli._config_from(args, t1()) == cli.AlgorithmConfig()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_an_iteration_cap_below_one_exits_one(cap, t1_path, tmp_path, capsys):
    assert cli.main(["solve", t1_path, "--max-iterations", cap,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: max_iterations must be at least 1")
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "tol must be nonnegative"),
    ("--big-m", "inf", "big_M must be finite and positive"),
    ("--big-m", "nan", "big_M must be finite and positive"),
    ("--time-limit", "nan", "time_limit_s must be positive"),
])
def test_a_nan_or_infinite_knob_exits_one(flag, value, message, t1_path, tmp_path, capsys):
    # --tol nan once ended pm_uk8 GapReached at a 32 % gap, exit 0
    assert cli.main(["solve", t1_path, flag, value, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run.json").exists()


def test_one_big_m_default_for_the_config_and_every_cli_flag():
    parser = cli._build_parser()
    defaults = [parser.parse_args([*command, "inst.json"]).big_m
                for command in (["solve"], ["compare"], ["convert", "order-switch"])]
    assert defaults == [cli.backend.DEFAULT_BIG_M] * 3
    assert cli.AlgorithmConfig().big_M == cli.backend.DEFAULT_BIG_M == 1e4


def test_missing_file_exits_one(capsys):
    assert cli.main(["solve", "no-such-file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def _drop(d, *path):
    for key in path[:-1]:
        d = d[key]
    del d[path[-1]]


@pytest.mark.parametrize("break_file, names", [
    (lambda d: _drop(d, "U", "F"), "'F' at $.U"),
    (lambda d: _drop(d, "Y", "B2", "rows"), "'rows' at $.Y.B2"),
    (lambda d: d["Y"]["B2"]["triplets"].append([0, 0]), "[0, 0] at $.Y.B2"),
    (lambda d: _drop(d, "c1"), "'c1' at $"),
    (lambda d: d["Y"]["d"].append(1.0), "d has 2 entries, B2 has 1 rows"),
    (lambda d: d.update(c1={"a": 1.0}), "at $.c1"),
    (lambda d: d["U"]["h"].__setitem__(0, None), "at $.U.h"),
    (lambda d: d.update(metadata={"ddu_sets": [{"G": d["U"]["G"], "h": [1.0]}]}),
     "'F' at $.metadata.ddu_sets[0]"),
    (lambda d: d.update(metadata={"ddu_sets": d["U"]}), "list of uncertainty sets "
     "at $.metadata.ddu_sets"),
    (lambda d: d["X"].update(n_int=5), "n_int 5 out of range, the dimension is 1 at $.X.n_int"),
    (lambda d: d["X"]["bounds"].update(ub=[]), "c1 has 1 entries, ub has 0 entries at "
     "$.X.bounds.ub"),
    (lambda d: d["c1"].append(1.0), "c1 has 2 entries, A has 1 columns at $.X.A"),
    (lambda d: d["U"].update(n_int_u=7), "n_int_u 7 out of range"),
    (lambda d: d["Y"].update(n_int_y=7), "n_int_y 7 out of range"),
    (lambda d: d["X"].update(n_int=[1]), "integer at $.X.n_int"),
    (lambda d: d["X"].update(n_int=1.7), "integer at $.X.n_int"),
    (lambda d: d["U"].update(n_int_u=True), "integer at $.U.n_int_u"),
    (lambda d: d["Y"]["B2"]["triplets"][0].__setitem__(2, True),
     "True] at $.Y.B2 is not [i, j, value]"),
    (lambda d: d.update(metadata=[1]), "object at $.metadata"),
    (lambda d: d["U"]["F"]["base"]["triplets"][0].__setitem__(2, float("nan")),
     "nan] at $.U.F.base is not [i, j, value]"),
    (lambda d: d["Y"]["B2"].update(triplets=3), "list of triplets at $.Y.B2"),
    (lambda d: d["U"]["F"].update(terms=3), "list of terms at $.U.F.terms"),
    (lambda d: d["Y"]["B2"].update(rows=10**7, cols=10**7),
     "d has 1 entries, B2 has 10000000 rows at $.Y.B2"),
    (lambda d: d["U"]["F"].update(terms=[{"k": 0, "matrix": {
        "rows": 1, "cols": 2, "triplets": [[0, 1, 1.0]]}}]),
     "F.base has 1 columns, matrix has 2 columns at $.U.F.terms[0].matrix"),
    (lambda d: d.update(metadata={"ddu_sets": [
        {**d["U"], "G": {"rows": 1, "cols": 2, "triplets": []}}]}),
     "x has 1 entries, G has 2 columns at $.metadata.ddu_sets[0].G"),
    # U's dimension is bounded by no vector; 10^15 columns pass any address
    # space, so numpy refuses them on every host
    (lambda d: d["U"]["F"]["base"].update(cols=10**15),
     "base of 1x1000000000000000 is too large at $.U.F.base"),
], ids=["U-without-F", "matrix-without-rows", "two-entry-triplet", "no-c1",
        "d-longer-than-B2", "c1-an-object", "null-in-h", "surrogate-without-F",
        "surrogates-an-object", "n_int-beyond-dim", "bounds-shorter-than-c1",
        "c1-longer-than-A", "n_int_u-beyond-dim", "n_int_y-beyond-dim",
        "n_int-a-list", "n_int-a-fraction", "n_int_u-a-bool", "triplet-value-a-bool",
        "metadata-a-list", "nan-in-F", "triplets-a-number", "terms-a-number",
        "B2-beyond-its-vectors", "term-wider-than-base", "surrogate-G-too-wide",
        "F.base-past-the-memory"])
def test_malformed_instance_file_is_a_one_line_error(break_file, names, tmp_path,
                                                      capsys):
    # each of these once ended in a traceback (n_int_y beyond its dimension
    # only after sp1 had started solving, a 10^7 x 10^7 B2 in numpy's
    # allocation error, as was F.base with 10^15 columns), was refused
    # without a $ path (a term wider than F.base), or was solved as some
    # other file: n_int 1.7 as 1, a bool as 1, NaN in F as it came and a
    # surrogate set over another x
    d = instance_to_dict(t1())
    break_file(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err and "Traceback" not in err


@pytest.fixture
def pmedian3_path(tmp_path, capsys):
    path = str(tmp_path / "pm3.json")
    assert cli.main(["generate", "--model", "pmedian", "--sites", "3", "--p", "1",
                     "-o", path]) == 0
    capsys.readouterr()
    return path


def test_oracle_prints_the_value_of_three_site_pmedian(pmedian3_path, capsys):
    assert cli.main(["oracle", pmedian3_path]) == 0
    assert capsys.readouterr().out == "23931.272419348083\n"


@pytest.mark.parametrize("break_file, names", [
    (lambda d: d["U"]["F"]["base"]["triplets"][0].__setitem__(2, float("nan")),
     "nan] at $.U.F.base is not [i, j, value]"),
    (lambda d: d["U"]["h"].__setitem__(0, float("inf")), "numbers at $.U.h"),
], ids=["nan-in-F", "infinity-in-h"])
def test_oracle_refuses_a_number_that_is_not_finite(break_file, names, pmedian3_path,
                                                    capsys):
    # the oracle once printed the clean file's value for both
    with open(pmedian3_path) as fh:
        d = json.load(fh)
    break_file(d)
    with open(pmedian3_path, "w") as fh:
        json.dump(d, fh)
    assert cli.main(["oracle", pmedian3_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err and "Traceback" not in err


def test_malformed_surrogate_file_is_a_one_line_error(t1_path, tmp_path, capsys):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps([{"G": {"rows": 1, "cols": 1, "triplets": []},
                                 "h": [1.0]}]))
    assert cli.main(["solve", t1_path, "--diu-approx", str(path),
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing key 'F'") and err.count("\n") == 1


def test_single_object_surrogate_file_is_a_one_line_error(t1_path, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(instance_to_dict(t1())["U"]))
    assert cli.main(["solve", t1_path, "--diu-approx", str(path),
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected a list") and err.count("\n") == 1
    assert str(path) in err


def test_compare_agreeing_variants_exit_zero(t1_path, tmp_path, capsys):
    code = cli.main(["compare", t1_path, "--variants",
                     "benders,parametric,basis", "--tol", "0",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,status,value,gap,iterations,time_s"
    assert len(lines) == 4
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[1] == "Optimal"
        assert float(cells[2]) == pytest.approx(1.0)


def test_compare_on_pm_uk8_writes_what_a_solve_per_variant_gives(tmp_path, capsys):
    # compare's later variants reuse the lattice and the relaxation that the
    # first derived on its one instance (meta "facts" of a solve), and write
    # the status, value, gap and iterations of a solve of their own
    path = str(tmp_path / "pm_uk8.json")
    assert cli.main(["generate", "--model", "pmedian", "--sites", "8", "-o", path]) == 0
    variants = ["parametric", "benders", "basis"]
    code = cli.main(["compare", path, "--variants", ",".join(variants),
                     "--out", str(tmp_path)])
    assert code == 0
    rows = [row.split(",")[:5]
            for row in (tmp_path / "compare.csv").read_text().splitlines()[1:]]
    solved = []
    for v in variants:
        out = tmp_path / v
        assert cli.main(["solve", path, "--variant", v, "--out", str(out)]) == 0
        payload = json.loads((out / "run.json").read_text())
        assert payload["meta"]["facts"] == "computed"
        gap = (out / "iterations.csv").read_text().splitlines()[-1].split(",")[3]
        solved.append([v, payload["status"], repr(payload["objective"]), gap,
                       str(payload["n_iterations"])])
    assert rows == solved
    assert {row[1] for row in rows} == {"Optimal"}


def test_compare_needs_two_variants(t1_path):
    assert cli.main(["compare", t1_path, "--variants", "parametric"]) == 64


def test_compare_disagreement_exits_five(t1_path, tmp_path, monkeypatch):
    def fake_run(inst, config):
        value = 1.0 if config.variant == "benders" else 1.5
        return RunResult(status="Optimal", objective=value, x=(0.0,),
                         lb=value, ub=value, iterations=[], elapsed_s=0.0,
                         variant=config.variant, meta={})

    monkeypatch.setattr(cli, "run", fake_run)
    code = cli.main(["compare", t1_path, "--variants", "benders,parametric",
                     "--out", str(tmp_path)])
    assert code == 5


def test_compare_infeasible_beside_a_value_exits_five(t1_path, tmp_path, monkeypatch,
                                                     capsys):
    def fake_run(inst, config):
        if config.variant == "benders":
            return RunResult(status="Infeasible", variant=config.variant)
        return RunResult(status="GapReached", objective=-51406.0, x=(0.0,),
                         lb=-51410.0, ub=-51406.0, variant=config.variant)

    monkeypatch.setattr(cli, "run", fake_run)
    code = cli.main(["compare", t1_path, "--variants", "benders,parametric",
                     "--out", str(tmp_path)])
    assert code == 5
    assert "value disagreement" in capsys.readouterr().err


def test_compare_marks_error_rows_without_asserting(t1_path, tmp_path):
    # the basis variant rejects nothing on T1, so force an error by picking
    # an instance the variant cannot linearize
    from ddu_ro.instances import FLParams, gen_robust_fl
    path = tmp_path / "fl.json"
    io_write(str(path), gen_robust_fl(FLParams(n_sites=2, seed=5,
                                               profits=np.zeros(2)), "rhs"))
    code = cli.main(["compare", str(path), "--variants", "parametric,basis",
                     "--tol", "0", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "compare.csv").read_text().strip().splitlines()[1:]
    by_variant = {r.split(",")[0]: r.split(",")[1] for r in rows}
    assert by_variant["basis"] == "Error"
    assert by_variant["parametric"] == "Optimal"


def test_oracle_prints_the_value(t1_path, capsys):
    assert cli.main(["oracle", t1_path]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_convert_neutralize_roundtrip(tmp_path, capsys):
    from tests.test_reformulations import _interdiction
    from ddu_ro.instances import oracle_exact
    path = tmp_path / "toy.json"
    io_write(str(path), _interdiction())
    assert cli.main(["convert", "neutralize", str(path)]) == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path == str(tmp_path / "toy.diu.json")
    converted = io_read(out_path)
    assert converted.metadata["reformulation"]["kind"] == "neutralized-diu"
    assert oracle_exact(converted).value == pytest.approx(1.6)


def test_convert_normalize_needs_columns(tmp_path):
    from tests.test_reformulations import _dne
    path = tmp_path / "dne.json"
    io_write(str(path), _dne())
    assert cli.main(["convert", "normalize", str(path)]) == 64
    assert cli.main(["convert", "normalize", str(path), "--lo-cols", "0,1",
                     "--hi-cols", "2,3"]) == 0
    assert (tmp_path / "dne.diu.json").exists()


def test_convert_order_switch_solves_the_flat_model(tmp_path, capsys):
    from tests.test_reformulations import _objective_toy, E_HAT
    inst = _objective_toy()
    inst.metadata["E_hat"] = E_HAT.tolist()
    path = tmp_path / "tilt.json"
    io_write(str(path), inst)
    assert cli.main(["convert", "order-switch", str(path)]) == 0
    payload = json.loads(Path(capsys.readouterr().out.strip()).read_text())
    assert payload["status"] == "Optimal"
    assert payload["objective"] == pytest.approx(3.3)
    # without the tilt matrix the conversion cannot proceed
    bare = tmp_path / "bare.json"
    io_write(str(bare), _objective_toy())
    assert cli.main(["convert", "order-switch", str(bare)]) == 1


def test_convert_order_switch_runs_at_the_given_big_m(tmp_path, capsys, monkeypatch):
    from tests.test_reformulations import _objective_toy, E_HAT
    inst = _objective_toy()
    inst.metadata["E_hat"] = E_HAT.tolist()
    path = tmp_path / "tilt.json"
    io_write(str(path), inst)
    seen, real = [], cli.order_switch
    monkeypatch.setattr(cli, "order_switch", lambda *args, **kwargs: seen.append(
        cli.backend.current_big_m()) or real(*args, **kwargs))
    assert cli.main(["convert", "order-switch", str(path), "--big-m", "123"]) == 0
    assert seen == [123.0]
    for bad in ("inf", "nan", "0"):
        out = tmp_path / f"{bad}.json"
        assert cli.main(["convert", "order-switch", str(path), "--big-m", bad,
                         "--out", str(out)]) == 1
        assert "error: big-M must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


def test_generate_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["generate", "--model", "pmedian", "--sites", "8", "--p", "3",
            "--k", "1", "--seed", "7"]
    assert cli.main(argv + ["-o", a]) == 0
    assert cli.main(argv + ["-o", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()
    inst = io_read(a)
    assert inst.dim_u == 8


def test_generate_pmedian_honours_facilities(tmp_path):
    path = str(tmp_path / "pm.json")
    assert cli.main(["generate", "--model", "pmedian", "--sites", "5",
                     "--facilities", "3", "--p", "2", "-o", path]) == 0
    inst = io_read(path)
    assert inst.metadata["blocks"]["x_d"] == [0, 1, 2]
    assert inst.dim_u == 5


def test_generate_fl_models(tmp_path):
    for model in ("fl-rhs", "fl-lhs", "fl-mip"):
        path = str(tmp_path / f"{model}.json")
        assert cli.main(["generate", "--model", model, "--sites", "3",
                         "--seed", "1", "-o", path]) == 0
        io_read(path)


@pytest.mark.parametrize("argv, field", [
    (["--model", "pmedian", "--sites", "3", "--facilities", "5"], "n_facilities"),
    (["--model", "fl-rhs", "--sites", "0"], "n_sites"),
    (["--model", "pmedian", "--sites", "4", "--p", "0"], "p"),
    (["--model", "pmedian", "--kind", "ddu_ukq", "--sites", "4", "--p", "2", "--q", "-1"], "q"),
])
def test_generate_rejects_parameters_no_instance_has(argv, field, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.main(["generate", *argv, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must")
    assert not out.exists()


def test_import_builds_an_instance_from_csv(tmp_path):
    costs = tmp_path / "costs.csv"
    demands = tmp_path / "demands.csv"
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(4, 2))
    c = 100.0 * np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    np.savetxt(costs, c, delimiter=",")
    np.savetxt(demands, rng.uniform(50, 150, size=4), delimiter=",")
    out = str(tmp_path / "imported.json")
    assert cli.main(["import", "--model", "pmedian", "--costs", str(costs),
                     "--demands", str(demands), "--p", "2", "--k", "1",
                     "-o", out]) == 0
    inst = io_read(out)
    assert inst.dim_u == 4