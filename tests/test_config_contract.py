"""The input contract of the CLI: replace any one value of a valid config by
any JSON value and the command exits 0, 1 or 2, never with a traceback, and
exit 2 prints an `error:` line."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from virialkit.cli import main

ROD = {"type": "hard_rods_1d", "sigma": {"1": 1.0, "2": 2.0}, "L": 10.0}
GRAPH = {"n": 3, "edges": [[1, 2], [2, 3]], "colours": [1, 1, 2]}
# (config, argv before the config path); "ROD" stands for a valid rod model.
# Degree 1 keeps every in-range species count cheap; the readers run the same.
CONFIGS = [
    ({"type": "synthetic", "species": 2, "default_w": "0",
      "blocks": [{"graph": {"n": 2, "edges": [[1, 2]]}, "colours": [1, 2], "w": "1/2"}]},
     ["virial", "invert", "--degree", "1", "--model"]),
    # a model takes one rule for unseen block keys: default_w or random_fallback
    ({"type": "synthetic", "species": 2, "random_fallback": {"seed": 1, "low": -5, "high": 5}},
     ["virial", "invert", "--degree", "1", "--model"]),
    (ROD, ["virial", "invert", "--degree", "1", "--samples", "100", "--model"]),
    ({"species": [{"i": 1, "r": 0.02, "R": 0.08, "a": 0.3}]}, ["bounds", "compute", "--spec"]),
    ({"radii": {"1": 0.01, "2": 0.01}, "a": 1.0, "b": 0.0},
     ["weights", "kp-check", "--samples", "100", "--model", "ROD", "--spec"]),
    (GRAPH, ["weights", "estimate", "--samples", "100", "--model", "ROD", "--graph"]),
    (GRAPH, ["graphs", "blocks", "--input"]),
]


def _paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


SITES = [(k, path) for k, (doc, _) in enumerate(CONFIGS) for path in _paths(doc)]
WRONG = [None, [], {}, "x", 1e308, True, -1, 0, 0.5, "1/0", [1], {"k": 1}, -1e308,
         10 ** 6, "1e999999999", float("inf"), float("nan"), "-3/4", "−1/2", 64, 65, 1000]
VALUES = st.sampled_from(WRONG) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    (folder / "rod.json").write_text(json.dumps(ROD))
    return folder


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(site=st.sampled_from(SITES), value=VALUES)
def test_any_one_wrong_value_is_a_clean_exit(folder, site, value):
    k, path = site
    doc, argv = CONFIGS[k]
    config = folder / "config.json"
    config.write_text(json.dumps(_replaced(doc, path, value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(folder / "rod.json") if a == "ROD" else a for a in argv]
                    + [str(config)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
