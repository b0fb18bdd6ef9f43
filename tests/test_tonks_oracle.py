"""The mc-rods benchmark checks every Monte Carlo c(n) against the closed-form
Tonks value within delta-method standard errors (perfbench/workloads.py).
Nothing else runs that oracle, so a change that breaks it must fail here
rather than in a benchmark run."""

import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from virialkit import cli, series, virial, weights

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
KEY = (3, 3, 2000)  # (seed, degree, samples)


def rods_workload():
    spec = importlib.util.spec_from_file_location("virialkit_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    workload = module.RodsWorkload()
    workload.vk = SimpleNamespace(series=series, weights=weights, virial=virial)
    return module, workload


def test_standard_errors_are_zero_at_degree_one_and_positive_above():
    _, workload = rods_workload()
    errors = workload.standard_errors(KEY)
    assert errors and all(math.isfinite(e) for e in errors.values())
    for dense, err in errors.items():
        assert (err == 0.0) == (sum(dense) == 1), dense


def test_check_tonks_accepts_a_real_invert_document(tmp_path):
    module, workload = rods_workload()
    seed, degree, samples = KEY
    model = tmp_path / "rods.json"
    model.write_text(json.dumps({"type": "hard_rods_1d", "L": float(module.ROD_BOX),
                                 "sigma": {str(k): float(v)
                                           for k, v in module.ROD_SIGMA.items()}}))
    out = tmp_path / "out.json"
    assert cli.main(["virial", "invert", "--model", str(model), "--degree", str(degree),
                     "--method", "recursive", "--samples", str(samples), "--seed", str(seed),
                     "--output", str(out)]) == 0
    assert workload.check_tonks(KEY, json.loads(out.read_text())) is None
