"""The mc-rods benchmark checks every Monte Carlo c(n) against the closed-form
Tonks value within delta-method standard errors (perfbench/workloads.py).
Nothing else runs that oracle, so a change that breaks it must fail here
rather than in a benchmark run."""

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from virialkit import cli, series, virial, weights

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
KEY = (3, 3, 2000)  # (seed, degree, samples)


def workloads_module():
    spec = importlib.util.spec_from_file_location("virialkit_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def rods_workload():
    module = workloads_module()
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


@pytest.mark.parametrize("degree, species", [(12, 2), (7, 4), (5, 6)])
def test_both_series_routes_equal_the_tonks_closed_form(degree, species):
    # rods sigma_k = k: the activity series b(n) = (-sum_k n_k sigma_k)^(|n|-1) / n!
    # inverts, by the recursive route and by Lagrange-Good alike, to the
    # closed-form c(n) of bp = sum_k rho_k / (1 - sum_k sigma_k rho_k)
    tonks_coefficient = workloads_module().tonks_coefficient
    sigma = {k: k for k in range(1, species + 1)}
    t = series.Truncation(degree, species)
    indices = list(series.admissible_indices(t, min_degree=1))
    b = {n: Fraction((-sum(e * sigma[k] for k, e in n.items())) ** (n.degree - 1),
                     n.factorial())
         for n in indices}
    p = virial.PressureSeries(series.MPSeries(b, t))
    recursive = virial.invert_recursive(p).series
    inverter = virial.LagrangeGoodInverter(p)
    for n in indices:
        c = tonks_coefficient(dict(n.items()), sigma)
        assert recursive[n] == c, n
        assert inverter.coefficient(n) == c, n
