import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import virialkit
from virialkit import virial as virial_mod
from virialkit._config import S_MAX
from virialkit.cli import (
    MAX_HYPOTHESIS_COORDINATES,
    MAX_MC_MAYER_FACTORS,
    MAX_SERIES_GRAPHS,
    MAX_SERIES_INDICES,
    MAX_STABILITY_TRIALS,
    _series_plan,
    build_parser,
    compact_index,
    dumps,
    main,
)
from virialkit.series import MPSeries, MultiIndex, Truncation


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def hard_rods_model(tmp_path):
    return write(tmp_path / "hr.json",
                 {"schema": "virialkit/1", "type": "hard_rods_1d",
                  "sigma": {"1": 1.0}, "L": 10.0})


@pytest.fixture
def synthetic_model(tmp_path):
    return write(tmp_path / "syn.json",
                 {"schema": "virialkit/1", "type": "synthetic", "species": 2,
                  "default_w": "0",
                  "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]},
                              "colours": [1, 2], "w": "1"}]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- JSON emitter ----------------------------------------------------------------


def test_dumps_floats_17_digits():
    text = dumps({"x": 1.0 / 3.0, "y": [2.5, True, None], "s": "a"})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "y": [2.5, True, None], "s": "a"}


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": math.inf})


def test_compact_index():
    assert compact_index(MultiIndex({1: 2, 3: 1})) == "2·e1+1·e3"
    assert compact_index(MultiIndex()) == "0"


# -- graphs ----------------------------------------------------------------------


def test_graphs_count(capsys):
    code, out, _ = run(capsys, "graphs", "count", "--n", "4", "--class", "connected")
    assert code == 0
    assert json.loads(out)["count"] == 38


def test_graphs_dissymmetry(capsys):
    code, out, _ = run(capsys, "graphs", "dissymmetry", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] and doc["graphs"] == 38
    assert all(r["lhs"] == r["rhs"] for r in doc["results"])


def test_graphs_dissymmetry_stdout_is_pinned(capsys):
    # SHA-256 of the rows written when the connected list held Graph objects
    code, out, err = run(capsys, "graphs", "dissymmetry", "--n", "5")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "774dedae74f1a5af844a475585d31520d9a8ac5ebb593ae67d414df563bf8915"


def test_graphs_dissymmetry_below_two_vertices(capsys):
    # n = 0 has no connected graph; n = 1 has one, the single vertex, with
    # no block: 1 + 0 = 1 + 0
    code, out, err = run(capsys, "graphs", "dissymmetry", "--n", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "graphs dissymmetry", "n": 0, "graphs": 0,
                               "all_pass": True, "results": []}
    code, out, err = run(capsys, "graphs", "dissymmetry", "--n", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "graphs dissymmetry", "n": 1, "graphs": 1,
                               "all_pass": True,
                               "results": [{"edges": [], "lhs": 1, "rhs": 1, "pass": True}]}


@pytest.mark.parametrize("argv,cap", [
    (("count", "--n", "8", "--class", "all"), 7),
    (("count", "--n", "8", "--class", "two_connected"), 7),
    (("dissymmetry", "--n", "7"), 6),
], ids=["count-all", "count-two-connected", "dissymmetry"])
def test_graph_commands_above_their_cap_are_usage_errors(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run(capsys, "graphs", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"n = {cap}" in err


def test_graphs_blocks(capsys, tmp_path):
    path = write(tmp_path / "g.json", {"n": 3, "edges": [[1, 2], [2, 3]]})
    code, out, _ = run(capsys, "graphs", "blocks", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["blocks"]) == 2
    assert doc["articulation_points"] == [2]
    assert doc["block_cut_tree"]["block_count"] == 2


# -- virial ----------------------------------------------------------------------


def test_virial_invert_table(capsys, synthetic_model):
    code, out, _ = run(capsys, "virial", "invert", "--model", synthetic_model,
                       "--degree", "2", "--method", "recursive")
    assert code == 0
    rows = json.loads(out)["coefficients"]
    assert {"n": {"1": 1, "2": 1}, "c": "-1", "method": "recursive"} in rows


def test_virial_invert_csv(capsys, synthetic_model):
    code, out, _ = run(capsys, "virial", "invert", "--model", synthetic_model,
                       "--degree", "2", "--method", "two-connected", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,method"
    assert "1·e1+1·e2,-1,two-connected" in lines


def test_virial_compare_identical(capsys, synthetic_model):
    code, out, _ = run(capsys, "virial", "compare", "--model", synthetic_model,
                       "--degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "identical"
    assert doc["methods"] == ["recursive", "lagrange-good", "two-connected"]
    assert doc["differences"] == []


def test_virial_compare_builds_the_pressure_once(capsys, monkeypatch, hard_rods_model):
    import virialkit.virial as virial_mod

    calls = []
    build = virial_mod.pressure_from_weights

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(virial_mod, "pressure_from_weights", counting)
    argv = ("virial", "compare", "--model", hard_rods_model, "--degree", "2",
            "--samples", "500", "--seed", "3", "--tol", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    # every Monte Carlo stream is seeded from --seed and what it estimates
    assert run(capsys, *argv)[1] == out


def test_virial_invert_ideal_gas(tmp_path, capsys):
    model = write(tmp_path / "ideal.json",
                  {"type": "synthetic", "species": 2, "default_w": "0", "blocks": []})
    code, out, _ = run(capsys, "virial", "invert", "--model", model, "--degree", "3")
    assert code == 0
    rows = json.loads(out)["coefficients"]
    assert rows == [{"n": {"2": 1}, "c": "1", "method": "recursive"},
                    {"n": {"1": 1}, "c": "1", "method": "recursive"}]


def test_virial_invert_quadratic_pressure_table(tmp_path, capsys):
    # edge weight 2 with triangle weight -12 makes the cubic term vanish, so
    # the pressure is exactly z + z^2 and the inverted table is -1, 4
    model = write(tmp_path / "quad.json",
                  {"type": "synthetic", "species": 1, "default_w": "0",
                   "blocks": [
                       {"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 1], "w": "2"},
                       {"graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
                        "colours": [1, 1, 1], "w": "-12"}]})
    code, out, _ = run(capsys, "virial", "invert", "--model", model, "--degree", "3",
                       "--method", "recursive")
    assert code == 0
    rows = json.loads(out)["coefficients"]
    assert {"n": {"1": 2}, "c": "-1", "method": "recursive"} in rows
    assert {"n": {"1": 3}, "c": "4", "method": "recursive"} in rows


def test_virial_compare_mc_model_with_tolerance(capsys, hard_rods_model):
    code, out, _ = run(capsys, "virial", "compare", "--model", hard_rods_model,
                       "--degree", "2", "--samples", "60000", "--seed", "4",
                       "--tol", "0.08")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "identical"
    assert doc["tolerance"] == 0.08


def test_virial_compare_flags_an_exact_difference_below_one_ulp(tmp_path, capsys, monkeypatch):
    # c(2·e1) = 1 on this model; a skew of 10^-30 vanishes in floats but not
    # in the exact comparison
    model = write(tmp_path / "m.json",
                  {"type": "synthetic", "species": 2, "default_w": "0",
                   "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 1], "w": "-2"},
                              {"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 2], "w": "1"}]})
    build = virial_mod.virial_from_two_connected
    skew = Fraction(1, 10 ** 30)

    def skewed(source, truncation):
        v = build(source, truncation)
        return virial_mod.VirialSeries(
            v.series + MPSeries({MultiIndex({1: 2}): skew}, truncation), v.method)

    monkeypatch.setattr(virial_mod, "virial_from_two_connected", skewed)
    code, out, _ = run(capsys, "virial", "compare", "--model", model, "--degree", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "mismatch"
    assert doc["differences"] == [{"n": {"1": 2}, "method": "two-connected",
                                   "recursive": "1", "other": str(1 + skew)}]


def test_virial_compare_refuses_a_non_finite_coefficient(capsys, monkeypatch, hard_rods_model):
    build = virial_mod.virial_from_two_connected

    def broken(source, truncation):
        v = build(source, truncation)
        return virial_mod.VirialSeries(
            v.series + MPSeries({MultiIndex({1: 2}): math.nan}, truncation, v.series.field),
            v.method)

    monkeypatch.setattr(virial_mod, "virial_from_two_connected", broken)
    code, out, err = run(capsys, "virial", "compare", "--model", hard_rods_model,
                         "--degree", "2", "--samples", "100", "--tol", "1")
    assert (code, out) == (2, "")
    assert "non-finite float" in err


def test_virial_mu(capsys, synthetic_model):
    code, out, _ = run(capsys, "virial", "mu", "--model", synthetic_model,
                       "--degree", "2", "--species", "1")
    assert code == 0
    rows = json.loads(out)["correction"]
    assert rows == [{"n": {"2": 1}, "c": "-1", "method": "chemical-potential"}]


# SHA-256 of the stdout of each command on RANDOM_TWO_SPECIES at degree 5, as
# written by the Fraction-coefficient series core: the integer-numerator core
# must print every rational as the same "p/q" string.
PINNED_STDOUT = {
    ("invert", "recursive"):
        "2e248834197db93087247235a166f1a38a8af39e01119816ae7a728417481ed6",
    ("invert", "lagrange-good"):
        "edbe0c6d2fda8e4ef8f40bb1599b3f212ba1dd63ee26f856fa58713d9d79fabf",
    ("invert", "two-connected"):
        "a42351ddd0f892e9b8759cb5506c6fd873dc725dc6152bbde1bfd708fd89f9e1",
    ("compare",): "6dc398aeef91ff14172bd69bbd8ea122cd6b3538691de64aeb45e3b922495257",
    ("mu", "2"): "31ac8dbe0c34306a6cc6c4e29f9591207fc037e2a339a0c0ca22cce6c8507ec6",
}
RANDOM_TWO_SPECIES = {
    "schema": "virialkit/1", "type": "synthetic", "species": 2,
    "random_fallback": {"seed": 7, "low": -3, "high": 4},
    "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 2], "w": "3/2"}]}


@pytest.mark.parametrize("command", list(PINNED_STDOUT), ids="-".join)
def test_virial_stdout_is_pinned(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # the model path is printed: keep it relative
    write(tmp_path / "model.json", RANDOM_TWO_SPECIES)
    argv = ["virial", command[0], "--model", "model.json", "--degree", "5"]
    if command[0] == "invert":
        argv += ["--method", command[1]]
    elif command[0] == "mu":
        argv += ["--species", command[1]]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


# The same model at degree 6: every m = 6 class-table key reaches the output
# through the random fallback weight drawn from repr((seed, key)).
PINNED_STDOUT_DEGREE_6 = {
    "recursive": "1938b6b82bc0848f387ef0662fd527638774470030a8aada53cb6bea40a213ba",
    "two-connected": "26f7f8f6b2fec2f0032e29f7a3919359daa2fa7f2c418a19e455cf75ee14bfac",
}


@pytest.mark.parametrize("method", list(PINNED_STDOUT_DEGREE_6))
def test_virial_stdout_is_pinned_at_degree_6(tmp_path, capsys, monkeypatch, method):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "model.json", RANDOM_TWO_SPECIES)
    code, out, err = run(capsys, "virial", "invert", "--model", "model.json", "--degree", "6",
                         "--method", method)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_DEGREE_6[method]


def test_exact_paths_draw_without_numpys_generator(tmp_path, capsys, monkeypatch):
    def generator(*args, **kwargs):
        raise AssertionError("an exact path called numpy's Generator")

    monkeypatch.setattr(np.random, "default_rng", generator)
    model, t = virialkit.weights.SyntheticBlockModel.random(3, 2), Truncation(5, 2)
    assert virial_mod.pressure_from_weights(model, t).series.terms
    assert virial_mod.two_connected_gf(model, t).series.terms
    path = write(tmp_path / "model.json", RANDOM_TWO_SPECIES)
    code, out, err = run(capsys, "virial", "compare", "--model", path, "--degree", "5")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "identical"


def fresh_main(argv, cwd):
    """`main(argv)` in a new interpreter: (exit code, stdout, stderr)."""
    src = str(Path(virialkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys; from virialkit.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_shared_parser_serves_back_to_back_subcommands_as_fresh_calls(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "model.json", RANDOM_TWO_SPECIES)
    write(tmp_path / "d.json", {"species": [{"i": 1, "r": 0.01, "R": 0.04, "a": 0.5},
                                            {"i": 2, "r": 0.01, "R": 0.04, "a": 0.5}]})
    commands = [("virial", "invert", "--model", "model.json", "--degree", "4",
                 "--method", "lagrange-good"),
                ("bounds", "compute", "--spec", "d.json", "--model", "model.json",
                 "--degree", "3", "--seed", "4"),
                ("graphs", "count", "--n", "4", "--class", "two_connected"),
                ("virial", "invert", "--model", "model.json", "--degree", "4")]
    assert build_parser() is build_parser()
    in_process = [run(capsys, *argv) for argv in commands]
    for argv, got in zip(commands, in_process, strict=True):
        assert got[0] == 0
        assert got == fresh_main(argv, tmp_path)


# -- weights ----------------------------------------------------------------------


# SHA-256 of the stdout of Monte Carlo commands on a hard-rod mixture; the
# model and graph paths are printed, so they are relative to the working
# directory.  `weights estimate` is one `weight_mc` run, as written by the
# exp-of-energy Mayer kernel; the `virial invert` pressures are one joint
# estimate per (vertex count, colouring) by subset recursion, taken at its
# exact binary value, and each c(n) is rounded to a float once, at output
PINNED_MC_STDOUT = {
    ("virial", "invert", "--method", "recursive", "--degree", "4", "--samples", "20000"):
        "c8ca5e2e9a26f48af72680e4e237424a6f361783503addf0c540164389299659",
    ("virial", "invert", "--method", "recursive", "--degree", "3", "--samples", "100000"):
        "0f1c9bcbef55f6e1aecf14dc47afe65b3cc4210a6308d517e65d4e174526eec6",
    ("virial", "invert", "--method", "lagrange-good", "--degree", "4", "--samples", "20000"):
        "4d7fc307e408fe9e95d3af740b642bf5120a298c8bd3da7d2d20e5c435798443",
    ("weights", "estimate", "--graph", "graph.json", "--samples", "50000"):
        "269f4a76a4989eb546f22cbff27d56a5fe5261fef2883c2b79c50134dcab13a3",
}
ROD_MIXTURE = {"schema": "virialkit/1", "type": "hard_rods_1d",
               "sigma": {"1": 1.0, "2": 2.0}, "L": 40.0}


@pytest.mark.parametrize("argv", list(PINNED_MC_STDOUT),
                         ids=["invert-d4", "invert-d3", "invert-lg-d4", "estimate"])
def test_monte_carlo_stdout_is_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "model.json", ROD_MIXTURE)
    write(tmp_path / "graph.json", {"n": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]],
                                    "colours": [2, 1, 1, 2]})
    code, out, err = run(capsys, *argv, "--seed", "5", "--model", "model.json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MC_STDOUT[argv]


def test_recursive_and_lagrange_good_print_the_same_mc_coefficients(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "model.json", ROD_MIXTURE)
    rows = {}
    for method in ("recursive", "lagrange-good"):
        code, out, err = run(capsys, "virial", "invert", "--method", method, "--degree", "4",
                             "--samples", "20000", "--seed", "5", "--model", "model.json")
        assert (code, err) == (0, "")
        rows[method] = [(row["n"], row["c"]) for row in json.loads(out)["coefficients"]]
    assert rows["recursive"] == rows["lagrange-good"]


def test_virial_compare_lists_no_lagrange_good_difference_on_the_rod_mixture(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "model.json", ROD_MIXTURE)
    code, out, err = run(capsys, "virial", "compare", "--degree", "3", "--seed", "5",
                         "--model", "model.json")
    assert err == ""
    differences = json.loads(out)["differences"]
    assert all(d["method"] == "two-connected" for d in differences)


def test_mc_coefficient_outside_the_float_range_is_usage_error(capsys, monkeypatch,
                                                               hard_rods_model):
    invert = virial_mod.invert_recursive

    def huge(p):
        v = invert(p)
        return virial_mod.VirialSeries(
            v.series + MPSeries({MultiIndex({1: 2}): 10 ** 400}, v.series.truncation), v.method)

    monkeypatch.setattr(virial_mod, "invert_recursive", huge)
    code, out, err = run(capsys, "virial", "invert", "--model", hard_rods_model,
                         "--degree", "2", "--samples", "100")
    assert (code, out) == (2, "")
    assert "c(2·e1) lies outside the float range" in err


def test_weights_estimate_and_determinism(tmp_path, capsys, hard_rods_model):
    graph = write(tmp_path / "edge.json", {"n": 2, "edges": [[1, 2]], "colours": [1, 1]})
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    for out in (out1, out2):
        code = main(["weights", "estimate", "--graph", graph, "--model", hard_rods_model,
                     "--samples", "20000", "--seed", "9", "--output", out])
        assert code == 0
    first = (tmp_path / "a.json").read_bytes()
    assert first == (tmp_path / "b.json").read_bytes()
    doc = json.loads(first)
    assert doc["seed"] == 9 and doc["sample_count"] == 20000
    assert abs(doc["estimate"] + 2.0) <= 3 * doc["stderr"]


def test_weights_kp_check_pass_and_fail(tmp_path, capsys):
    model = write(tmp_path / "rods.json",
                  {"type": "hard_rods_1d",
                   "sigma": {str(k): float(k) for k in range(1, 13)}, "L": 80.0})
    base = {str(k): 0.5 * math.exp(-2 * k) for k in range(1, 13)}
    good = write(tmp_path / "kp.json", {"radii": base, "a": 1.0, "b": 0.0})
    code, out, _ = run(capsys, "weights", "kp-check", "--model", model, "--spec", good)
    assert code == 0 and json.loads(out)["passed"]
    bad = write(tmp_path / "kp2.json",
                {"radii": {k: 2.8 * v for k, v in base.items()}, "a": 1.0, "b": 0.0})
    code, out, _ = run(capsys, "weights", "kp-check", "--model", model, "--spec", bad)
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"] and not doc["entries"][0]["passed"]


def test_weights_stability(capsys, hard_rods_model):
    code, out, _ = run(capsys, "weights", "stability", "--model", hard_rods_model,
                       "--b", "0", "--samples", "200")
    assert code == 0 and json.loads(out)["passed"]


# -- bounds -----------------------------------------------------------------------


def test_bounds_compute_constant_only(tmp_path, capsys):
    spec = write(tmp_path / "d.json",
                 {"schema": "virialkit/1",
                  "species": [{"i": 1, "r": 0.25, "R": 1.0, "a": 1.0}]})
    code, out, _ = run(capsys, "bounds", "compute", "--spec", spec)
    assert code == 0
    doc = json.loads(out)
    assert doc["constant"] == pytest.approx(math.exp(1 / 3), abs=1e-12)
    assert "hypothesis" not in doc


def test_bounds_compute_with_model(tmp_path, capsys, synthetic_model):
    spec = write(tmp_path / "d.json",
                 {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3},
                              {"i": 2, "r": 0.02, "R": 0.08, "a": 0.3}]})
    code, out, _ = run(capsys, "bounds", "compute", "--spec", spec,
                       "--model", synthetic_model, "--degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["hypothesis"]["passed"]
    assert doc["audit"]["passed"]
    assert doc["per_n_bounds"]


def test_bounds_compute_hypothesis_and_audit_on_negative_quadratic(tmp_path, capsys):
    # the model builds p = z - z^2 exactly; on |z| <= 1/4 the log-derivative
    # budget 0.75 holds and the audit is clean
    model = write(tmp_path / "m.json",
                  {"type": "synthetic", "species": 1, "default_w": "0",
                   "blocks": [
                       {"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 1], "w": "-2"},
                       {"graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
                        "colours": [1, 1, 1], "w": "-12"}]})
    spec = write(tmp_path / "d.json",
                 {"species": [{"i": 1, "r": 0.1, "R": 0.25, "a": 0.75}]})
    code, out, _ = run(capsys, "bounds", "compute", "--spec", spec,
                       "--model", model, "--degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["hypothesis"]["passed"]
    assert doc["hypothesis"]["log_derivative"][0]["max_log_abs"] == pytest.approx(
        math.log(2.0), abs=1e-9)
    assert doc["audit"]["passed"]


def test_bounds_compute_is_byte_identical_on_repeat(tmp_path, capsys, synthetic_model):
    spec = write(tmp_path / "d.json",
                 {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3},
                              {"i": 2, "r": 0.02, "R": 0.08, "a": 0.3}]})
    argv = ("bounds", "compute", "--spec", spec, "--model", synthetic_model,
            "--degree", "3", "--seed", "5")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


@pytest.mark.parametrize("species,samples", [(2, "-3"), (5, "0")],
                         ids=["negative", "no-grid-no-samples"])
def test_bounds_compute_without_hypothesis_points_is_usage_error(tmp_path, capsys,
                                                                 species, samples):
    model = write(tmp_path / "m.json",
                  {"type": "synthetic", "species": species, "default_w": "0",
                   "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]},
                               "colours": [1, 2], "w": "1"}]})
    spec = write(tmp_path / "d.json",
                 {"species": [{"i": i, "r": 0.02, "R": 0.08, "a": 0.3}
                              for i in range(1, species + 1)]})
    code, out, err = run(capsys, "bounds", "compute", "--spec", spec, "--model", model,
                         "--degree", "2", "--samples-hypothesis", samples)
    assert code == 2
    assert out == ""
    assert "samples" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_bounds_compute_below_degree_one_is_usage_error(tmp_path, capsys, degree):
    # at degree 0 the pressure is empty, every dp/dz_i is 0 and the audit fails
    model = write(tmp_path / "m.json", {"type": "synthetic", "species": 1, "default_w": "1"})
    spec = write(tmp_path / "d.json", {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3}]})
    code, out, err = run(capsys, "bounds", "compute", "--spec", spec, "--model", model,
                         "--degree", degree)
    assert code == 2
    assert out == ""
    assert "--degree" in err and "1.." in err


# -- errors -----------------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "graphs", "blocks", "--input", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_unknown_schema_is_usage_error(tmp_path, capsys):
    path = write(tmp_path / "g.json", {"schema": "virialkit/999", "n": 2, "edges": []})
    code, _, err = run(capsys, "graphs", "blocks", "--input", path)
    assert code == 2
    assert "schema" in err


@pytest.mark.parametrize("doc", [
    {"type": "hard_rods_1d", "sigma": {"1": None}, "L": 40},
    {"type": "synthetic", "species": 1,
     "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 1], "w": [1, 2]}]},
], ids=["null-sigma", "list-w"])
def test_malformed_model_config_is_usage_error(tmp_path, capsys, doc):
    path = write(tmp_path / "bad.json", doc)
    code, _, err = run(capsys, "virial", "invert", "--model", path, "--degree", "2",
                       "--samples", "100")
    assert code == 2
    assert ("sigma" if doc["type"] == "hard_rods_1d" else "w") in err


HARD_RODS = "<hard rods model>"
UNIT_BOX_RODS = "<short hard rods model in a box of length 1>"
ONE_SPECIES = "<one-species synthetic model>"
PATH_400 = {"n": 400, "edges": [[i, i + 1] for i in range(1, 400)], "colours": [1] * 400}
PATH_1000 = {"n": 1000, "edges": [[i, i + 1] for i in range(1, 1000)], "colours": [1] * 1000}
TWO_RODS = "<two-species hard rods model>"
TWO_RODS_DOC = {"type": "hard_rods_1d", "sigma": {"1": 1, "2": 2}, "L": 10}
# every degree-5 joint sum may reach L^4·4! > 10^309
HUGE_RODS = {"sigma": {"1": 9e76, "2": 5e76}, "L": 1e77, "type": "hard_rods_1d"}
K_100 = {"n": 100, "edges": [[i, j] for i in range(1, 101) for j in range(i + 1, 101)],
         "colours": [1] * 100}


@pytest.fixture
def one_species_model(tmp_path):
    return write(tmp_path / "one.json",
                 {"type": "synthetic", "species": 1, "random_fallback": {"seed": 1}})


@pytest.mark.parametrize("argv,doc,named", [
    (("virial", "invert", "--degree", "2", "--model"), [1, 2], "JSON object"),
    (("virial", "mu", "--degree", "2", "--species", "1", "--model"), "rods", "JSON object"),
    (("graphs", "blocks", "--input"), [], "JSON object"),
    (("bounds", "compute", "--spec"), [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3}],
     "JSON object"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1, "random_fallback": 5}, "random_fallback"),
    (("bounds", "compute", "--spec"), {"species": 5}, "species"),
    (("weights", "kp-check", "--model", HARD_RODS, "--spec"),
     {"radii": [1, 2], "a": 1.0}, "radii"),
    (("weights", "kp-check", "--model", HARD_RODS, "--spec"), {"radii": {}, "a": 1.0}, "radii"),
    (("graphs", "blocks", "--input"), {"n": 1e308, "edges": []}, "n: expected"),
    (("graphs", "blocks", "--input"), {"n": 3, "edges": 5}, "edges"),
    (("graphs", "blocks", "--input"), {"n": 3, "edges": [[1, None]]}, "edges"),
    (("graphs", "blocks", "--input"), {"n": 100000, "edges": [[1, 2]]}, "0..1000"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1, "blocks": 5}, "blocks"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1, "blocks": [5]}, "blocks"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1,
      "blocks": [{"graph": 5, "colours": [1, 1], "w": "1"}]}, "graph"),
    (("weights", "estimate", "--samples", "100", "--model", HARD_RODS, "--graph"),
     {"n": 2, "edges": [[1, 2]], "colours": 5}, "colours: expected a list"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1,
      "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [None, 1], "w": "1"}]},
     "blocks[0].colours[0]: expected a species index"),
    (("weights", "kp-check", "--model", HARD_RODS, "--spec"),
     {"radii": {"1": None}, "a": 1.0}, 'radii["1"]: expected a radius'),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": True}, "species: expected"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 0.5}, "species: expected"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1000000}, f"1..{S_MAX}"),
    (("virial", "invert", "--degree", "2", "--samples", "100", "--model"),
     {"type": "hard_rods_1d", "sigma": {"1000000": 1.0}, "L": 10.0},
     f'sigma["1000000"]: expected a species index in 1..{S_MAX}'),
    (("weights", "kp-check", "--model", HARD_RODS, "--spec"),
     {"radii": {"100000000": 0.01}, "a": 1.0}, f"1..{S_MAX}"),
    (("bounds", "compute", "--model", ONE_SPECIES, "--degree", "2", "--spec"),
     {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 800}]}, "species i = 1"),
    (("bounds", "compute", "--model", ONE_SPECIES, "--degree", "2", "--spec"),
     {"species": [{"i": 1, "r": 1e-200, "R": 1.0, "a": 0.3}]}, "largest float"),
    (("weights", "stability", "--b", "1e308", "--model"),
     {"type": "hard_rods_1d", "sigma": {"1": 1.0}, "L": 10.0}, "--b: expected"),
    (("weights", "estimate", "--samples", "100", "--model", HARD_RODS, "--graph"),
     PATH_400, "on 400 vertices"),
    (("weights", "estimate", "--samples", "2000000", "--model", HARD_RODS, "--graph"),
     K_100, "capped at 5000000000 Mayer factors (edges × samples), got 4950 edges"),
    (("virial", "invert", "--degree", "3", "--samples", "100", "--model"),
     {"type": "hard_rods_1d", "sigma": {"1": 1.0}, "L": 1e300}, "L = 1e+300"),
    (("weights", "estimate", "--samples", "65536", "--model", UNIT_BOX_RODS, "--graph"),
     PATH_1000, "capped at 268435456 bytes per sample chunk"),
    (("virial", "invert", "--degree", "2", "--samples", "100", "--species-cap", "3",
      "--model"), TWO_RODS_DOC, "--species-cap: expected a species index in 1..2"),
    (("weights", "kp-check", "--samples", "100", "--model", TWO_RODS, "--spec"),
     {"radii": {"1": 0.5, "2": 1.0, "3": 1.5}, "a": 1.0},
     "radii: expected a species index in 1..2"),
    (("virial", "invert", "--degree", "2", "--samples", "100", "--model"),
     {"type": "hard_rods_1d", "sigma": {"1": 1, "3": 2}, "L": 10}, 'missing sigma["2"]'),
    (("virial", "compare", "--degree", "2", "--samples", "100", "--tol", "nan", "--model"),
     TWO_RODS_DOC, "--tol: expected"),
    (("virial", "compare", "--degree", "2", "--samples", "100", "--tol", "inf", "--model"),
     TWO_RODS_DOC, "--tol: expected"),
    (("virial", "compare", "--degree", "2", "--samples", "100", "--tol", "-1", "--model"),
     TWO_RODS_DOC, "--tol: expected"),
    (("weights", "estimate", "--samples", "100", "--model", TWO_RODS, "--graph"),
     {"n": 2, "edges": [[1, 2]], "colours": [3, 1]},
     "colours[0]: expected a species index in 1..2 (the model's species), got 3"),
    (("virial", "invert", "--degree", "5", "--samples", "200", "--model"), HUGE_RODS,
     "L^4·4!, past the largest float"),
    (("virial", "compare", "--degree", "5", "--samples", "200", "--model"), HUGE_RODS,
     "L^4·4!, past the largest float"),
    (("weights", "stability", "--b", "0", "--scheme", "low-discrepancy", "--model"),
     TWO_RODS_DOC, "--scheme: stability draws pseudo-random configurations only"),
    (("weights", "kp-check", "--model", HARD_RODS, "--spec"), {"a": 1.0}, "error: radii: missing"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1, "default_w": "0",
      "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 1]}]},
     "error: blocks[0].w: missing"),
    (("bounds", "compute", "--spec"), {"species": [{"i": 1, "r": 0.02, "a": 0.3}]},
     "error: species[0].R: missing"),
    (("virial", "invert", "--degree", "2", "--samples", "100", "--model"),
     {"type": "hard_rods_1d", "sigma": {"1": 1.0}}, "error: L: missing"),
    (("graphs", "blocks", "--input"), {"n": 2}, "error: edges: missing"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 1, "default_w": "0", "random_fallback": {"seed": 1}},
     "error: random_fallback, default_w:"),
    (("virial", "invert", "--degree", "2", "--model"),
     {"type": "synthetic", "species": 2, "default_w": "0",
      "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 2], "w": "1"},
                 {"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [2, 1], "w": "3"}]},
     "error: blocks[1]: weight 3 for the canonical block of blocks[0], which has weight 1"),
    (("bounds", "compute", "--spec"),
     {"species": [{"i": 1, "r": 0.1, "R": 0.2, "a": 1}, {"i": 1, "r": 0.01, "R": 0.5, "a": 2}]},
     "error: species[1].i: species 1 is given twice"),
], ids=["array-model", "string-model", "array-graph", "array-spec", "int-random-fallback",
        "int-species", "list-radii", "empty-radii", "huge-float-n", "int-edges", "null-vertex",
        "n-above-graph-cap", "int-blocks", "int-block-entry", "int-block-graph",
        "int-colours", "null-colour", "null-radius", "bool-species", "float-species",
        "species-above-cap", "rod-key-above-cap", "radius-key-above-cap",
        "bound-exp-overflow", "bound-power-overflow", "stability-b-overflow",
        "mc-volume-overflow", "estimate-above-mayer-cap", "rod-box-volume-overflow",
        "estimate-above-chunk-cap", "cap-above-rod-species", "radii-above-rod-species",
        "rod-species-gap", "nan-tol", "inf-tol", "negative-tol", "colour-above-rod-species",
        "invert-joint-sum-overflow", "compare-joint-sum-overflow", "stability-scheme",
        "missing-radii", "missing-block-w", "missing-domain-R", "missing-rod-L",
        "missing-graph-edges", "two-unseen-key-rules", "repeated-block-key",
        "repeated-domain-species"])
def test_malformed_config_shape_is_usage_error(tmp_path, capsys, hard_rods_model,
                                               one_species_model, argv, doc, named):
    path = write(tmp_path / "bad.json", doc)
    models = {HARD_RODS: hard_rods_model, ONE_SPECIES: one_species_model,
              TWO_RODS: write(tmp_path / "two.json", TWO_RODS_DOC),
              UNIT_BOX_RODS: write(tmp_path / "unit.json", {"type": "hard_rods_1d",
                                                            "sigma": {"1": 0.001}, "L": 1.0})}
    argv = [models.get(a, a) for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, path)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_bounds_spec_missing_a_species_is_refused_before_sampling(tmp_path, capsys,
                                                                  monkeypatch):
    def sampled(*args):
        raise AssertionError("sampled before the refusal")

    monkeypatch.setattr(virialkit.weights.McWeightSource, "connected_sums", sampled)
    spec = write(tmp_path / "spec.json", {"species": [{"i": 1, "r": 0.01, "R": 0.02, "a": 0.3}]})
    model = write(tmp_path / "rods.json", {"type": "hard_rods_1d", "sigma": {"1": 1, "2": 2},
                                           "L": 40})
    code, out, err = run(capsys, "bounds", "compute", "--model", model, "--spec", spec,
                         "--degree", "6", "--samples", "1000000")
    assert code == 2
    assert out == ""
    assert err == "error: species [2] not covered by the domain spec\n"


def test_two_connected_sums_past_the_float_range_are_refused_before_sampling(
        tmp_path, capsys, monkeypatch):
    # the route-3 class sums on 5 vertices reach 238 labelled graphs × L^4 > 10^310
    def sampled(*args):
        raise AssertionError("sampled before the refusal")

    monkeypatch.setattr(virialkit.weights, "weight_mc", sampled)
    path = write(tmp_path / "huge.json", HUGE_RODS)
    start = time.perf_counter()
    code, out, err = run(capsys, "virial", "mu", "--degree", "5", "--samples", "200",
                         "--species", "1", "--model", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: L = 1e+77: the two-connected sums on 5 vertices")
    assert "Traceback" not in err


@pytest.mark.parametrize("species", ["0", "3"])
def test_mu_species_outside_the_cap_is_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                               species):
    # at degree 5 route 3 samples for seconds before the derivative reads --species
    def sampled(*args):
        raise AssertionError("sampled before the refusal")

    monkeypatch.setattr(virialkit.weights.McWeightSource, "two_connected_sums", sampled)
    path = write(tmp_path / "model.json", ROD_MIXTURE)
    start = time.perf_counter()
    code, out, err = run(capsys, "virial", "mu", "--degree", "5", "--species", species,
                         "--model", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --species: expected a species index in 1..2, got {species}")


def test_model_block_above_the_canonical_key_cap_is_usage_error(tmp_path, capsys):
    # a 12-cycle block would take about 45 min of colour-preserving permutations
    cycle = [[i, i % 12 + 1] for i in range(1, 13)]
    path = write(tmp_path / "cycle.json",
                 {"type": "synthetic", "species": 1,
                  "blocks": [{"graph": {"n": 12, "edges": cycle}, "colours": [1] * 12,
                              "w": "1"}]})
    start = time.perf_counter()
    code, out, err = run(capsys, "virial", "invert", "--model", path, "--degree", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "8 vertices" in err


@pytest.mark.parametrize("cap", ["0", "-1", "1000000"])
@pytest.mark.parametrize("argv", [
    ("virial", "invert", "--degree", "2"), ("virial", "compare", "--degree", "2"),
    ("virial", "mu", "--degree", "2", "--species", "1"), ("weights", "kp-check"),
], ids=["invert", "compare", "mu", "kp-check"])
def test_species_cap_below_one_is_usage_error(tmp_path, capsys, hard_rods_model, argv, cap):
    spec = write(tmp_path / "kp.json", {"radii": {"1": 0.01}, "a": 1.0})
    if argv[1] == "kp-check":
        argv += ("--spec", spec)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--model", hard_rods_model, "--species-cap", cap)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"--species-cap: expected a species index in 1..{S_MAX}, got {cap}" in err


@pytest.mark.parametrize("argv", [
    ("virial", "invert"), ("virial", "compare"), ("virial", "mu", "--species", "1"),
], ids=["invert", "compare", "mu"])
def test_degree_above_the_weight_sum_cap_is_usage_error(capsys, synthetic_model, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--model", synthetic_model, "--degree", "7")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "degree 6" in err


def test_bounds_compute_degree_above_the_weight_sum_cap_is_usage_error(
        tmp_path, capsys, synthetic_model):
    spec = write(tmp_path / "d.json",
                 {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3},
                              {"i": 2, "r": 0.02, "R": 0.08, "a": 0.3}]})
    code, _, err = run(capsys, "bounds", "compute", "--spec", spec,
                       "--model", synthetic_model, "--degree", "7")
    assert code == 2
    assert "degree 6" in err


def test_two_connected_method_on_non_factorizing_model(tmp_path, capsys, hard_rods_model):
    # interaction models do factorize (rigid molecules), so this passes through;
    # the refusal path needs a source that explicitly does not declare it
    from virialkit.cli import _virial_by_method
    from virialkit.series import Truncation

    class Opaque:
        block_factorizing = False

    with pytest.raises(ValueError):
        _virial_by_method(Opaque(), Truncation(2, 1), "two-connected")



SAMPLING_COMMANDS = [
    ("virial", "invert", "--degree", "2", "--model", TWO_RODS),
    ("virial", "compare", "--degree", "2", "--tol", "1", "--model", TWO_RODS),
    ("virial", "mu", "--degree", "2", "--species", "1", "--model", TWO_RODS),
    ("weights", "estimate", "--graph", "<edge>", "--model", TWO_RODS),
    ("weights", "kp-check", "--spec", "<kp spec>", "--model", TWO_RODS),
    ("weights", "stability", "--b", "0", "--model", TWO_RODS),
    ("bounds", "compute", "--spec", "<domain spec>", "--model", ONE_SPECIES),
]
SAMPLING_IDS = ["invert", "compare", "mu", "estimate", "kp-check", "stability", "bounds"]


def sampling_argv(tmp_path, one_species_model, argv):
    files = {TWO_RODS: write(tmp_path / "two.json", TWO_RODS_DOC),
             ONE_SPECIES: one_species_model,
             "<edge>": write(tmp_path / "edge.json",
                             {"n": 2, "edges": [[1, 2]], "colours": [1, 2]}),
             "<kp spec>": write(tmp_path / "kp.json", {"radii": {"1": 0.01}, "a": 1.0}),
             "<domain spec>": write(tmp_path / "d.json",
                                    {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3}]})}
    return [files.get(a, a) for a in argv] + ["--samples", "100"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "-18446744073709551616"])
@pytest.mark.parametrize("argv", SAMPLING_COMMANDS, ids=SAMPLING_IDS)
def test_seed_outside_64_bits_is_usage_error(tmp_path, capsys, one_species_model, argv, seed):
    code, out, err = run(capsys, *sampling_argv(tmp_path, one_species_model, argv),
                         "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: --seed: expected a 64-bit seed in 0..{2 ** 64 - 1}, got {seed}\n"


@pytest.mark.parametrize("argv", SAMPLING_COMMANDS, ids=SAMPLING_IDS)
def test_every_64_bit_seed_is_accepted(tmp_path, capsys, one_species_model, argv):
    for seed in ("0", str(2 ** 64 - 1)):
        code, out, err = run(capsys, *sampling_argv(tmp_path, one_species_model, argv),
                             "--seed", seed)
        assert code in (0, 1) and err == "", (seed, err)
        assert json.loads(out)["seed"] == int(seed)


@pytest.mark.parametrize("samples", ["1", "0", "-100"])
@pytest.mark.parametrize("argv", SAMPLING_COMMANDS, ids=SAMPLING_IDS)
def test_samples_below_two_is_usage_error(tmp_path, capsys, one_species_model, argv, samples):
    code, out, err = run(capsys, *sampling_argv(tmp_path, one_species_model, argv),
                         "--samples", samples)
    assert (code, out) == (2, "")
    assert err == f"error: --samples: expected a sample count in 2.., got {samples}\n"


CAP = "--samples: a Monte Carlo run is capped at 5000000000 Mayer factors, got "


@pytest.mark.parametrize("argv,named", [
    (("invert", "--degree", "2", "--samples", "100000000000"),
     "100000000000 samples × 1 pairs of the joint sum on 2 vertices"),
    (("invert", "--degree", "4", "--samples", "900000000"),
     "900000000 samples × 6 pairs of the joint sum on 4 vertices"),
    (("invert", "--method", "two-connected", "--degree", "4", "--samples", "200000000"),
     "6 graphs × 200000000 samples × 5 edges of a two-connected class on 4 vertices"),
    (("compare", "--degree", "3", "--samples", "2000000000"),
     "2000000000 samples × 3 pairs of the joint sum on 3 vertices"),
    (("compare", "--degree", "6", "--samples", "1000000"),
     "720 graphs × 1000000 samples × 9 edges of a two-connected class on 6 vertices"),
    (("mu", "--species", "1", "--degree", "5", "--samples", "20000000"),
     "60 graphs × 20000000 samples × 7 edges of a two-connected class on 5 vertices"),
], ids=["invert-d2", "invert-d4", "invert-two-connected", "compare-pressure",
        "compare-two-connected", "mu"])
def test_monte_carlo_run_above_the_mayer_cap_is_refused_before_sampling(tmp_path, capsys,
                                                                         argv, named):
    model = write(tmp_path / "two.json", TWO_RODS_DOC)
    start = time.perf_counter()
    code, out, err = run(capsys, "virial", *argv, "--model", model)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {CAP}{named}\n")


def random_model(tmp_path, species):
    return write(tmp_path / f"random-{species}.json",
                 {"type": "synthetic", "species": species, "random_fallback": {"seed": 1}})


INDEX_CAP = f"a series plan is capped at {MAX_SERIES_INDICES} admissible indices, got "
GRAPH_CAP = f"a series plan is capped at {MAX_SERIES_GRAPHS} labelled connected graphs summed, got "


@pytest.mark.parametrize("species,degree,argv,named", [
    (64, 3, ("virial", "invert"), f"--degree and --species-cap: {INDEX_CAP}47904 at degree 3 "
                                  f"over 64 species"),
    (12, 5, ("virial", "invert"), f"--degree and --species-cap: {INDEX_CAP}6187 at degree 5 "
                                  f"over 12 species"),
    (8, 6, ("virial", "invert"), f"--degree and --species-cap: {GRAPH_CAP}46413704 at degree 6 "
                                 f"over 8 species"),
    (8, 6, ("virial", "mu", "--species", "1"),
     f"--degree and --species-cap: {GRAPH_CAP}46413704 at degree 6 over 8 species"),
    (64, 3, ("bounds", "compute", "--spec", None),
     f"--degree: {INDEX_CAP}47904 at degree 3 over 64 species"),
], ids=["invert-64-3", "invert-12-5", "invert-8-6", "mu-8-6", "bounds-64-3"])
def test_series_plan_above_a_cap_is_refused_before_any_work(tmp_path, capsys, species, degree,
                                                            argv, named):
    # at the parent of these caps the first three ran 26 s, over 30 s and
    # over 60 s
    if None in argv:
        spec = write(tmp_path / "d.json", {"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3}]})
        argv = tuple(spec if a is None else a for a in argv)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--model", random_model(tmp_path, species),
                         "--degree", str(degree))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("species,degree,above", [
    (64, 2, (64, 3)), (26, 3, (27, 3)), (15, 4, (16, 4)), (10, 5, (11, 5)), (7, 6, (8, 6)),
])
def test_series_plans_under_the_caps_are_admitted(tmp_path, species, degree, above):
    # the largest plan under both caps at each degree, and the next one up;
    # Lagrange-Good, which compare runs, has no species cap of its own
    def plan(species, degree, command, methods):
        args = build_parser().parse_args(["virial", command, "--model",
                                          random_model(tmp_path, species), "--degree",
                                          str(degree)])
        return _series_plan(args, methods)

    assert plan(species, degree, "invert", ("recursive",))[1] == Truncation(degree, species)
    every = ("recursive", "lagrange-good", "two-connected")
    assert plan(species, degree, "compare", every)[1] == Truncation(degree, species)
    with pytest.raises(ValueError, match="series plan is capped"):
        plan(*above, "invert", ("recursive",))


@pytest.mark.parametrize("argv,methods", [
    (("invert", "--method", "lagrange-good"), ("lagrange-good",)),
    (("compare",), ("recursive", "lagrange-good", "two-connected")),
], ids=["lagrange-good-24-3", "compare-24-3"])
def test_lagrange_good_plans_past_twelve_species_are_admitted(tmp_path, argv, methods):
    # Lagrange-Good's det M sums Hessian minors of dimension <= D - 1, so a
    # plan past the 12 x 12 determinant cap is bounded by the series caps alone
    args = build_parser().parse_args(["virial", *argv, "--model", random_model(tmp_path, 24),
                                      "--degree", "3"])
    assert _series_plan(args, methods)[1] == Truncation(3, 24)


@pytest.mark.parametrize("species,degree,above", [(64, 2, (64, 3)), (26, 3, (27, 3)),
                                                  (15, 4, (16, 4))])
def test_compare_at_the_widest_admitted_plans_agrees_exactly(tmp_path, capsys, species,
                                                             degree, above):
    # the widest plan per degree that the series caps admit: all three routes,
    # Lagrange-Good over every species, agree exactly; one species more is
    # refused by the index cap
    code, out, err = run(capsys, "virial", "compare", "--model", random_model(tmp_path, species),
                         "--degree", str(degree))
    doc = json.loads(out)
    assert (code, err, doc["verdict"], doc["tolerance"], doc["differences"]) == \
        (0, "", "identical", 0, [])
    s, d = above
    code, out, err = run(capsys, "virial", "compare", "--model", random_model(tmp_path, s),
                         "--degree", str(d))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --degree and --species-cap: {INDEX_CAP}")


def test_default_samples_stay_under_the_mayer_cap():
    # the largest runs at degree 6 over two species: the joint sum on six
    # vertices and the two-connected class of 720 graphs with 9 edges
    samples = build_parser().parse_args(["virial", "invert", "--model", "m", "--degree",
                                         "6"]).samples
    assert 15 * samples <= MAX_MC_MAYER_FACTORS
    assert virial_mod.largest_two_connected_class(Truncation(6, 2)) == (6, 720, 9)
    assert 720 * samples * 9 <= MAX_MC_MAYER_FACTORS


def test_stability_trials_above_the_cap_are_refused_before_sampling(tmp_path, capsys):
    model = write(tmp_path / "two.json", TWO_RODS_DOC)
    start = time.perf_counter()
    code, out, err = run(capsys, "weights", "stability", "--b", "0", "--max-n", "8",
                         "--samples", "100000000000", "--model", model)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: --samples: expected a sample count in 2..{MAX_STABILITY_TRIALS}, "
                   f"got 100000000000\n")


@pytest.mark.parametrize("species,samples", [(1, "1000000000000"), (2, "2000001"), (1, "-1")],
                         ids=["one-species", "two-species", "negative"])
def test_hypothesis_points_outside_the_cap_are_refused_before_any_work(tmp_path, capsys,
                                                                      species, samples):
    model = write(tmp_path / "m.json", {"type": "synthetic", "species": species,
                                        "random_fallback": {"seed": 1}})
    spec = write(tmp_path / "d.json", {"species": [{"i": i, "r": 0.02, "R": 0.08, "a": 0.3}
                                                   for i in range(1, species + 1)]})
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "compute", "--spec", spec, "--model", model,
                         "--samples-hypothesis", samples)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: --samples-hypothesis: expected a sample count for {species} species "
                   f"in 0..{MAX_HYPOTHESIS_COORDINATES // species}, got {samples}\n")


def test_default_trials_and_hypothesis_points_stay_under_their_caps():
    stability = build_parser().parse_args(["weights", "stability", "--model", "m", "--b", "0"])
    bounds = build_parser().parse_args(["bounds", "compute", "--spec", "d"])
    assert stability.samples <= MAX_STABILITY_TRIALS
    assert bounds.samples_hypothesis * 8 <= MAX_HYPOTHESIS_COORDINATES
