"""Command-line front end.

Subcommands mirror the library: `graphs` (count / dissymmetry / blocks),
`virial` (invert / compare / mu), `weights` (estimate / kp-check / stability)
and `bounds` (compute).  Configs are JSON files carrying a top-level
``"schema": "virialkit/1"`` key; output is JSON on stdout (CSV as an opt-in
projection for coefficient tables).  Every run is deterministic given the
config and ``--seed``: floats are serialized with 17 significant digits so
re-runs are byte-identical.

Exit codes: 0 when all requested checks pass, 1 when a check fails, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import graphs as graphs_mod
from . import virial as virial_mod
from . import weights as weights_mod
from ._config import (EXP_MAX, config_field, config_int, config_mapping, config_number,
                      config_species)
from .series import MPSeries, MultiIndex, Truncation, admissible_indices
from .weights import McParams, McWeightSource, SyntheticBlockModel

SCHEMA = "virialkit/1"


# -- deterministic JSON -------------------------------------------------------


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x} in JSON output")
    return format(x, ".17g")


def dumps(doc, indent: int = 0) -> str:
    """JSON with deterministic float formatting (17 significant digits)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in doc.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        rows = [f"{inner}{dumps(v, indent + 1)}" for v in doc]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(doc, bool) or doc is None:
        return json.dumps(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return _format_float(doc)
    if isinstance(doc, Fraction):
        return json.dumps(str(doc))
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def compact_index(n: MultiIndex) -> str:
    """Multi-index as a compact sum like "2·e1+1·e3"."""
    if not n:
        return "0"
    return "+".join(f"{e}·e{s}" for s, e in n.items())


def _coeff_out(n: MultiIndex, value: Fraction, source):
    """c(n) for output: "p/q" from an exact source, the nearest float from a
    Monte Carlo source, rounded once, here."""
    if not isinstance(source, McWeightSource):
        return str(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"c({compact_index(n)}) lies outside the float range, past "
                         f"{sys.float_info.max:.6g} in magnitude") from None


def _load_json(path: str) -> dict:
    with open(path) as fh:
        doc = config_mapping(json.load(fh), path)
    schema = doc.get("schema")
    if schema is not None and schema != SCHEMA:
        raise ValueError(f"unsupported config schema {schema!r} (expected {SCHEMA!r})")
    return doc


def _write(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, args) -> None:
    _write(dumps(doc) + "\n", args)


def _coefficient_rows(series: MPSeries, method: str, source) -> list[dict]:
    return [{"n": {str(s): e for s, e in n.items()}, "c": _coeff_out(n, c, source),
             "method": method} for n, c in series.sorted_terms()]


def _emit_csv(rows: list[dict], args) -> None:
    lines = ["n,value,method"]
    for row in rows:
        n = MultiIndex({int(s): e for s, e in row["n"].items()})
        lines.append(f"{compact_index(n)},{row['c']},{row['method']}")
    _write("\n".join(lines) + "\n", args)


# -- weight sources from model configs ----------------------------------------


# Largest Monte Carlo run a command accepts, in Mayer factors: one per edge
# (or pair) per sample, at about 9·10^7 per second on hard rods (K_100 with
# 10^6 samples takes 55 s on a 2-core Xeon, Python 3.11, numpy 2.4), so the
# cap runs for about a minute; K_1000 would run 499 500 factors per sample
# in `weights estimate`.  It also keeps the exact hard-core totals of a
# joint sum below 2^53: a sample's value is at most (m - 1)! = 120 at m = 6.
MAX_MC_MAYER_FACTORS = 5 * 10 ** 9


# Largest series plan, S species up to --degree D: on random synthetic models
# (2-core Xeon, Python 3.11) the graph sums take 0.8-2 µs per labelled graph
# (pressure at (S, D) = (8, 6): 89 s), while the routes, whose series
# products visit only the pairs they keep, take far less (at (12, 5), just
# above the cap: Lagrange-Good 1.25 s, recursive 0.19 s); `virial compare`
# at the largest admitted plans takes 0.26 s at (64, 2), 0.52 s at (26, 3),
# 1.2 s at (15, 4), 4.8 s at (10, 5) and 36 s at (7, 6), the last mostly in
# its per-colouring graph tables.  Lagrange-Good has no species cap of its
# own: its det M walks one Hessian minor per squarefree index of degree
# <= D - 1, so this cap bounds it too.
MAX_SERIES_INDICES = 4000
MAX_SERIES_GRAPHS = 3 * 10 ** 7


def _series_plan(args, methods) -> tuple[object, Truncation]:
    """(weight source, truncation) of a command running the routes `methods`
    on --model to --degree over --species-cap (else the model's) species,
    refused before any work above a series cap or, on a Monte Carlo source
    (a synthetic model is its own), MAX_MC_MAYER_FACTORS in one run or a
    hard-core sum, joint or two-connected, that can leave the float range."""
    model = weights_mod.model_from_json(_load_json(args.model))
    flags = "--degree and --species-cap" if hasattr(args, "species_cap") else "--degree"
    truncation = Truncation(args.degree, _species_cap(model, getattr(args, "species_cap", None)))
    virial_mod._check_weight_sum_size(truncation)
    s, d = truncation.species, truncation.degree
    graphs = sum(math.comb(m + s - 1, m) * len(graphs_mod.connected_graph_list(m))
                 for m in range(1, d + 1))
    for size, cap, what in ((math.comb(d + s, s) - 1, MAX_SERIES_INDICES, "admissible indices"),
                            (graphs, MAX_SERIES_GRAPHS, "labelled connected graphs summed")):
        if size > cap:
            raise ValueError(f"{flags}: a series plan is capped at {cap} {what}, got {size} "
                             f"at degree {d} over {s} species")
    if isinstance(model, SyntheticBlockModel):
        return model, truncation
    samples, pairs = args.samples, d * (d - 1) // 2 if set(methods) - {"two-connected"} else 0
    runs = [(samples * pairs, f"{samples} samples × {pairs} pairs of the joint sum on {d} "
                              f"vertices")]
    if "two-connected" in methods:
        m, count, edges = virial_mod.largest_two_connected_class(truncation)
        runs.append((count * samples * edges,
                     f"{count} graphs × {samples} samples × {edges} edges of a two-connected "
                     f"class on {m} vertices"))
    for factors, what in runs:
        if factors > MAX_MC_MAYER_FACTORS:
            raise ValueError(f"--samples: a Monte Carlo run is capped at {MAX_MC_MAYER_FACTORS} "
                             f"Mayer factors, got {what}")
    if model.overlap_batch is not None:
        # a hard-core sum on m vertices is the volume L^(dim (m - 1)) of the
        # free positions times a mean of magnitude at most (m - 1)! for the
        # joint sum (largest at m = d when L >= 1), and at most the count of
        # labelled graphs for the two-connected classes (each |f...f| <= 1)
        reach = [("a joint sum", d, f"{d - 1}!", math.factorial(d - 1))] if pairs else []
        if "two-connected" in methods:
            reach += [("the two-connected sums", m, f"{count}", count) for m in range(2, d + 1)
                      for count in [len(graphs_mod.two_connected_graph_list(m))]]
        for what, m, shown, factor in reach:
            power = model.dimension * (m - 1)
            if Fraction(model.box_length) ** power * factor > sys.float_info.max:
                raise ValueError(f"L = {model.box_length:g}: {what} on {m} vertices can reach "
                                 f"L^{power}·{shown}, past the largest float "
                                 f"{sys.float_info.max:.6g}; lower --degree or the model's L")
    return McWeightSource(model, McParams(samples, args.seed, args.scheme)), truncation


# -- graphs --------------------------------------------------------------------


# Largest n each graph command accepts: the work finishes there and grows
# steeply past it.  `count --n 7` walks 2^21 edge masks (11 s for all graphs,
# 38 s for two-connected ones on a 2-core Xeon, Python 3.11) and n = 8 would
# walk 2^28; `dissymmetry --n 6` writes 26 704 rows (12 MB, 3 s) and n = 7
# would write 1 866 256.
MAX_COUNT_VERTICES = 7
MAX_DISSYMMETRY_VERTICES = 6


def _check_graph_size(n: int, cap: int, command: str) -> None:
    if n > cap:
        raise ValueError(f"graphs {command} is capped at n = {cap}, got {n}")


def cmd_graphs_count(args) -> int:
    _check_graph_size(args.n, MAX_COUNT_VERTICES, "count")
    count = sum(1 for _ in graphs_mod.enumerate_graphs(args.n, args.graph_class))
    _emit({"command": "graphs count", "n": args.n, "class": args.graph_class,
           "count": count}, args)
    return 0


def cmd_graphs_dissymmetry(args) -> int:
    _check_graph_size(args.n, MAX_DISSYMMETRY_VERTICES, "dissymmetry")
    results = []
    all_pass = True
    for mask in graphs_mod.connected_graph_list(args.n).tolist():
        g = graphs_mod.Graph(args.n, mask)
        lhs, rhs = graphs_mod.dissymmetry_check(g)
        ok = lhs == rhs
        all_pass &= ok
        results.append({"edges": [list(e) for e in g.sorted_edges()],
                        "lhs": lhs, "rhs": rhs, "pass": ok})
    _emit({"command": "graphs dissymmetry", "n": args.n, "graphs": len(results),
           "all_pass": all_pass, "results": results}, args)
    return 0 if all_pass else 1


def cmd_graphs_blocks(args) -> int:
    g = graphs_mod.graph_from_json(_load_json(args.input))
    d = graphs_mod.block_decomposition(g)
    tree = graphs_mod.block_cut_tree(d)
    _emit({
        "command": "graphs blocks",
        "n": g.n,
        "blocks": [{"vertices": list(b.vertices),
                    "edges": [list(e) for e in sorted(b.edges)]} for b in d.blocks],
        "articulation_points": sorted(d.articulation_points),
        "block_cut_tree": {"block_count": tree.block_count,
                           "cut_vertices": list(tree.cut_vertices),
                           "edges": [list(e) for e in tree.edges]},
    }, args)
    return 0


# -- virial ----------------------------------------------------------------------


METHOD_FLAGS = ("recursive", "lagrange-good", "two-connected")


def _virial_by_method(source, truncation: Truncation, method: str,
                      pressure: virial_mod.PressureSeries | None = None) -> MPSeries:
    """The virial series by one route; the recursive and Lagrange-Good routes
    invert `pressure`, which is built from `source` when not given."""
    if method == "two-connected":
        return virial_mod.virial_from_two_connected(source, truncation).series
    p = pressure if pressure is not None else virial_mod.pressure_from_weights(source, truncation)
    if method == "recursive":
        return virial_mod.invert_recursive(p).series
    inverter = virial_mod.LagrangeGoodInverter(p)
    terms = {}
    for n in admissible_indices(truncation, min_degree=1):
        c = inverter.coefficient(n)
        if c != 0:
            terms[n] = c
    return MPSeries(terms, truncation)


def cmd_virial_invert(args) -> int:
    source, truncation = _series_plan(args, (args.method,))
    series = _virial_by_method(source, truncation, args.method)
    rows = _coefficient_rows(series, args.method, source)
    if args.format == "csv":
        _emit_csv(rows, args)
    else:
        _emit({"command": "virial invert", "model": args.model, "degree": args.degree,
               "method": args.method, "seed": args.seed, "coefficients": rows}, args)
    return 0


def cmd_virial_compare(args) -> int:
    tol = config_number(args.tol, "--tol", "a tolerance >= 0", lambda x: x >= 0)
    source, truncation = _series_plan(args, METHOD_FLAGS)
    # Both inversion routes read the same pressure: build it once, since for
    # a Monte Carlo source every build samples each (vertex count, colouring)
    # again.
    p = virial_mod.pressure_from_weights(source, truncation)
    base, *others = (_virial_by_method(source, truncation, m, p) for m in METHOD_FLAGS)
    diffs = []
    for m, series in zip(METHOD_FLAGS[1:], others):
        # every route is exact, so only sampling separates them: on a Monte
        # Carlo source route 3 draws its own streams
        for n, d in (series - base).sorted_terms():
            if abs(d) > tol:
                diffs.append({"n": {str(s): e for s, e in n.items()}, "method": m,
                              "recursive": _coeff_out(n, base[n], source),
                              "other": _coeff_out(n, series[n], source)})
    identical = not diffs
    _emit({"command": "virial compare", "model": args.model, "degree": args.degree,
           "methods": METHOD_FLAGS, "seed": args.seed, "tolerance": args.tol,
           "verdict": "identical" if identical else "mismatch",
           "differences": diffs,
           "coefficients": _coefficient_rows(base, "recursive", source)}, args)
    return 0 if identical else 1


def cmd_virial_mu(args) -> int:
    source, truncation = _series_plan(args, ("two-connected",))
    config_int(args.species, "--species", 1, truncation.species, "a species index")
    series = virial_mod.chemical_potential(source, truncation, args.species)
    rows = _coefficient_rows(series, "chemical-potential", source)
    if args.format == "csv":
        _emit_csv(rows, args)
    else:
        _emit({"command": "virial mu", "model": args.model, "degree": args.degree,
               "species": args.species, "seed": args.seed, "correction": rows}, args)
    return 0


def _species_cap(model, requested: int | None = None, path: str = "--species-cap") -> int:
    """The requested species cap, else the model's own species count; an
    interaction model has no species above its largest to sample."""
    synthetic = isinstance(model, SyntheticBlockModel)
    top = model.species_count if synthetic else max(model.species)
    cap = top if requested is None else config_species(requested, path)
    if cap > top and not synthetic:
        raise ValueError(f"{path}: expected a species index in 1..{top} (the model's species), "
                         f"got {cap}")
    return cap


# -- weights ----------------------------------------------------------------------


# Largest sample chunk `weights estimate` holds: min(samples, MC_CHUNK) rows of
# float64 coordinates.  The per-vertex copies about double it: a 300-vertex rod
# path (a 157 MB chunk) peaked at 338 MB; a 1000-vertex path needs 0.5 GB.
MAX_ESTIMATE_CHUNK_BYTES = 1 << 28
# On a 2-core Xeon, `weights stability --max-n 8` ran 1.5·10^6 hard-rod trials
# in 49 s, and `bounds compute --model` peaked at 280-320 MB for 4·10^6 sampled
# coordinates (hypothesis points × species; 1, 4 or 8 species).
MAX_STABILITY_TRIALS = 1_500_000
MAX_HYPOTHESIS_COORDINATES = 4 * 10 ** 6


def cmd_weights_estimate(args) -> int:
    model = weights_mod.model_from_json(_load_json(args.model))
    if isinstance(model, SyntheticBlockModel):
        raise ValueError("weights estimate needs an interaction model")
    cg = graphs_mod.coloured_graph_from_json(_load_json(args.graph))
    for k, colour in enumerate(cg.colours):  # each colour must be one of the model's species
        _species_cap(model, colour, f"colours[{k}]")
    params = McParams(args.samples, args.seed, args.scheme)
    edges = cg.graph.mask.bit_count()
    if edges * params.sample_count > MAX_MC_MAYER_FACTORS:
        raise ValueError(f"weights estimate is capped at {MAX_MC_MAYER_FACTORS} Mayer "
                         f"factors (edges × samples), got {edges} edges × "
                         f"{params.sample_count} samples")
    dims = weights_mod.mc_sample_dims(cg.graph.n, model.dimension)
    chunk = min(params.sample_count, weights_mod.MC_CHUNK)
    if chunk * dims * 8 > MAX_ESTIMATE_CHUNK_BYTES:
        raise ValueError(f"weights estimate is capped at {MAX_ESTIMATE_CHUNK_BYTES} bytes per "
                         f"sample chunk (samples × coordinates × 8), got {chunk} × {dims} × 8")
    est, err = weights_mod.weight_mc(cg, model, params)
    _emit({"command": "weights estimate", "graph": args.graph, "model": args.model,
           "estimate": est, "stderr": err, "sample_count": args.samples,
           "seed": args.seed, "scheme": args.scheme}, args)
    return 0


def cmd_weights_kp_check(args) -> int:
    model = weights_mod.model_from_json(_load_json(args.model))
    if isinstance(model, SyntheticBlockModel):
        raise ValueError("kp-check needs an interaction model")
    doc = _load_json(args.spec)
    radii = {config_species(k, f'radii["{k}"]', key=True):
             float(config_number(r, f'radii["{k}"]', "a radius > 0", lambda x: x > 0))
             for k, r in config_mapping(*config_field(doc, "radii"), nonempty=True).items()}
    cap = (_species_cap(model, max(radii), "radii") if args.species_cap is None
           else _species_cap(model, args.species_cap))
    # the criterion weighs species k by e^((a+3b)k): keep that finite up to the cap
    b = config_number(doc.get("b", 0), "b", "a constant b >= 0", lambda x: x >= 0)
    a = config_number(*config_field(doc, "a"), f"a slope a > 0 with (a+3b)·{cap} <= {EXP_MAX}",
                      lambda x: 0 < x and (x + 3 * b) * cap <= EXP_MAX)
    spec = weights_mod.KpSpec(radii, float(a), float(b))
    report = weights_mod.kp_check(model, spec, cap,
                                  McParams(args.samples, args.seed, args.scheme))
    _emit({"command": "weights kp-check", "model": args.model, "spec": args.spec,
           "species_cap": cap, "seed": args.seed, **report.as_dict()}, args)
    return 0 if report.passed else 1


def cmd_weights_stability(args) -> int:
    config_int(args.samples, "--samples", 2, MAX_STABILITY_TRIALS, "a sample count")
    model = weights_mod.model_from_json(_load_json(args.model))
    if isinstance(model, SyntheticBlockModel):
        raise ValueError("stability needs an interaction model")
    if args.scheme != weights_mod.SCHEME_PSEUDO:
        raise ValueError(f"--scheme: stability draws pseudo-random configurations only, "
                         f"got {args.scheme}")
    # a configuration of max_n molecules is weighed by e^(b·sum of species
    # indices): keep that finite for the largest species
    max_n = config_int(args.max_n, "--max-n", 2, weights_mod.MAX_STABILITY_MOLECULES)
    top = max_n * _species_cap(model)
    b = config_number(args.b, "--b", f"a constant b >= 0 with b·{top} <= {EXP_MAX}",
                      lambda x: 0 <= x and x * top <= EXP_MAX)
    report = weights_mod.stability_check(model, float(b),
                                         McParams(args.samples, args.seed, args.scheme),
                                         max_n)
    _emit({"command": "weights stability", "model": args.model, "seed": args.seed,
           **report.as_dict()}, args)
    return 0 if report.passed else 1


# -- bounds -----------------------------------------------------------------------


def cmd_bounds_compute(args) -> int:
    spec = bounds_mod.domain_spec_from_json(_load_json(args.spec))
    doc = {"command": "bounds compute", "spec": args.spec,
           "density_domain_radii": {str(i): r for i, r in
                                    sorted(bounds_mod.density_domain(spec).radii.items())}}
    if args.model:
        config_int(args.degree, "--degree", 1, None, "an audit degree")  # 0 audits no pressure
        source, truncation = _series_plan(args, ("recursive",))
        spec.require(range(1, truncation.species + 1))
        hypothesis = config_int(args.samples_hypothesis, "--samples-hypothesis", 0,
                                MAX_HYPOTHESIS_COORDINATES // truncation.species,
                                f"a sample count for {truncation.species} species")
        p = virial_mod.pressure_from_weights(source, truncation)
        report = bounds_mod.bound_report(
            spec, p, virial_mod.invert_recursive(p),
            indices=admissible_indices(truncation, min_degree=1),
            samples=hypothesis, seed=args.seed)
        doc["seed"] = args.seed
    else:
        report = bounds_mod.bound_report(spec)
    doc.update(report.as_dict())
    _emit(doc, args)
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------------


MC_SAMPLES_HELP = ("Monte Carlo samples, at least 2: per (vertex count, colouring) for the "
                   "pressure, per graph for weights estimate, per labelled graph for the "
                   "two-connected route, where a class of c isomorphic graphs draws "
                   "c × samples in one run; a run above "
                   f"{MAX_MC_MAYER_FACTORS} Mayer factors is refused")
SEED_MAX = 2 ** 64 - 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every `main` call:
    building it takes about 1.3 ms (2-core x86-64, Python 3.11), a fifth of
    an in-process `virial invert --degree 4 --samples 20000`.  Parsing
    leaves it unchanged; callers must not modify it."""
    parser = argparse.ArgumentParser(prog="virialkit",
                                     description="Multispecies virial expansions")
    sub = parser.add_subparsers(dest="group", required=True)

    def add_common(p, samples_default=100_000, samples_help=MC_SAMPLES_HELP):
        p.add_argument("--seed", type=int, default=0, help="64-bit seed for any sampling")
        p.add_argument("--samples", type=int, default=samples_default, help=samples_help)
        p.add_argument("--scheme", choices=(weights_mod.SCHEME_PSEUDO,
                                            weights_mod.SCHEME_LOW_DISCREPANCY),
                       default=weights_mod.SCHEME_PSEUDO)
        p.add_argument("--output", help="write the JSON/CSV document here instead of stdout")

    graphs = sub.add_parser("graphs", help="enumeration, blocks, dissymmetry")
    gsub = graphs.add_subparsers(dest="command", required=True)
    g_count = gsub.add_parser("count")
    g_count.add_argument("--n", type=int, required=True)
    g_count.add_argument("--class", dest="graph_class", default="connected",
                         choices=graphs_mod.GRAPH_CLASSES)
    g_count.add_argument("--output")
    g_count.set_defaults(handler=cmd_graphs_count)
    g_dis = gsub.add_parser("dissymmetry")
    g_dis.add_argument("--n", type=int, required=True)
    g_dis.add_argument("--output")
    g_dis.set_defaults(handler=cmd_graphs_dissymmetry)
    g_blocks = gsub.add_parser("blocks")
    g_blocks.add_argument("--input", required=True, help="graph JSON file")
    g_blocks.add_argument("--output")
    g_blocks.set_defaults(handler=cmd_graphs_blocks)

    virial = sub.add_parser("virial", help="pressure inversion three ways")
    vsub = virial.add_subparsers(dest="command", required=True)
    v_inv = vsub.add_parser("invert")
    v_inv.add_argument("--model", required=True)
    v_inv.add_argument("--degree", type=int, required=True)
    v_inv.add_argument("--method", choices=METHOD_FLAGS, default="recursive")
    v_inv.add_argument("--species-cap", type=int, default=None)
    v_inv.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(v_inv)
    v_inv.set_defaults(handler=cmd_virial_invert)
    v_cmp = vsub.add_parser("compare")
    v_cmp.add_argument("--model", required=True)
    v_cmp.add_argument("--degree", type=int, required=True)
    v_cmp.add_argument("--species-cap", type=int, default=None)
    v_cmp.add_argument("--tol", type=float, default=0.0,
                       help="absolute tolerance on each c(n) difference from the recursive "
                            "route; every route is exact, so on Monte Carlo models they "
                            "differ only by sampling (exact models should keep 0)")
    add_common(v_cmp)
    v_cmp.set_defaults(handler=cmd_virial_compare)
    v_mu = vsub.add_parser("mu")
    v_mu.add_argument("--model", required=True)
    v_mu.add_argument("--degree", type=int, required=True)
    v_mu.add_argument("--species", type=int, required=True)
    v_mu.add_argument("--species-cap", type=int, default=None)
    v_mu.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(v_mu)
    v_mu.set_defaults(handler=cmd_virial_mu)

    weights = sub.add_parser("weights", help="cluster integrals and criteria checks")
    wsub = weights.add_subparsers(dest="command", required=True)
    w_est = wsub.add_parser("estimate")
    w_est.add_argument("--graph", required=True)
    w_est.add_argument("--model", required=True)
    add_common(w_est)
    w_est.set_defaults(handler=cmd_weights_estimate)
    w_kp = wsub.add_parser("kp-check")
    w_kp.add_argument("--model", required=True)
    w_kp.add_argument("--spec", required=True)
    w_kp.add_argument("--species-cap", type=int, default=None)
    add_common(w_kp, samples_help="samples per species pair for a box integral of |zeta| "
                                  "that has no closed form")
    w_kp.set_defaults(handler=cmd_weights_kp_check)
    w_st = wsub.add_parser("stability")
    w_st.add_argument("--model", required=True)
    w_st.add_argument("--b", type=float, required=True)
    w_st.add_argument("--max-n", type=int, default=4)
    add_common(w_st, samples_default=2000, samples_help="random configurations to test")
    w_st.set_defaults(handler=cmd_weights_stability)

    bounds = sub.add_parser("bounds", help="convergence constants and audits")
    bsub = bounds.add_subparsers(dest="command", required=True)
    b_cmp = bsub.add_parser("compute")
    b_cmp.add_argument("--spec", required=True)
    b_cmp.add_argument("--model", default=None)
    b_cmp.add_argument("--degree", type=int, default=4)
    b_cmp.add_argument("--samples-hypothesis", type=int, default=500)
    add_common(b_cmp)
    b_cmp.set_defaults(handler=cmd_bounds_compute)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):  # the sampling commands, which all take --samples too
            args.seed = config_int(args.seed, "--seed", 0, SEED_MAX, "a 64-bit seed")
            args.samples = config_int(args.samples, "--samples", 2, None, "a sample count")
        return args.handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
