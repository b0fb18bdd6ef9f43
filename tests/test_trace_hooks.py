"""The benchmark's tracer (perfbench/tracer.py) wraps package names by
attribute.  A refactor that drops or moves one of them must fail here rather
than break `perfbench/run.py --trace 1` silently."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from virialkit import bounds, cli, graphs, series, virial, weights

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("virialkit_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_and_restore():
    tracing = load_tracer()
    pkg = SimpleNamespace(series=series, graphs=graphs, weights=weights, virial=virial,
                          bounds=bounds, cli=cli)
    owners = (series, graphs, weights, virial, bounds, cli, series.MPSeries,
              weights.SyntheticBlockModel, virial.LagrangeGoodInverter)
    before = [dict(vars(owner)) for owner in owners]
    patches = tracing.install(tracing.Tracer(), pkg)
    try:
        patched = {(owner.__name__, attr) for owner, snapshot in zip(owners, before)
                   for attr, value in vars(owner).items() if snapshot.get(attr) is not value}
    finally:
        patches.restore()
    assert patched == {
        ("MPSeries", "__mul__"),
        ("virialkit.virial", "canonical_coloured_key"),
        ("virialkit.weights", "canonical_coloured_key"),
        ("SyntheticBlockModel", "weight_for_canonical_key"),
        ("virialkit.weights", "weight_mc"),
        ("virialkit.virial", "determinant"),
        ("virialkit.virial", "reciprocal"),
        ("virialkit.virial", "pressure_from_weights"),
        ("virialkit.virial", "invert_recursive"),
        ("virialkit.virial", "virial_from_two_connected"),
        ("LagrangeGoodInverter", "coefficient"),
        ("virialkit.bounds", "bound_report"),
        ("virialkit.cli", "main"),
    }
    for owner, snapshot in zip(owners, before):
        for attr, value in snapshot.items():
            assert vars(owner)[attr] is value, (owner.__name__, attr)


def test_names_the_benchmark_set_up_reads():
    for fn in (graphs.connected_graph_list, graphs.two_connected_graph_list,
               graphs.connected_block_profiles, graphs.canonical_coloured_key):
        assert callable(fn.cache_info)
