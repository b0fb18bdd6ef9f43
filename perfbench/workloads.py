"""The three benchmark workloads: request generation, execution and checks.

Every request is generated from the workload seed alone; the package only
sees the generated models and configs.

* ``exact-corpus``: the acceptance criterion-1 mix of random synthetic
  block models, few species and deep truncation, graph work heavy.
* ``wide-species``: the same pipeline on many species at low degree, where
  the Lagrange-Good determinant and series products dominate.
* ``mc-rods``: ``virialkit virial invert`` run in-process on a hard-rod
  mixture, the only workload that reaches the Monte Carlo weights and the
  CLI.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# (species, degree) -> requests per cycle.  The criterion-1 corpus is
# 12:6:8:14:10 models of (1,6):(2,6):(2,5):(3,5):(3,4); one cycle is half of it.
EXACT_MIX = (((1, 6), 6), ((2, 6), 3), ((2, 5), 4), ((3, 5), 7), ((3, 4), 5))
# 12:12:8:4:4 reduced to one cycle of ten.
# A cycle's nominal time is its wall time on the reference machine (2-core
# x86-64 Linux, Python 3.11) at the commit that introduced the benchmark; it
# only converts --seconds into a fixed number of cycles.
WIDE_MIX = (((4, 3), 3), ((6, 2), 3), ((5, 3), 2), ((7, 2), 1), ((4, 4), 1))

# bounds.bound_report runs on every synthetic request; its verdict is recorded,
# not gated.  Small polydisk radii keep dp/dz near 1 for the random models.
BOUND_DOMAIN = (0.005, 0.02, 1.0)  # (r, R, a) for every species
BOUND_SAMPLES = 60
STAGES = ("pressure", "recursive", "lagrange_good", "two_connected", "equality", "bounds")

# Hard-rod mixture for mc-rods, and the two request kinds mixed 3:1:
# many short Monte Carlo runs (per-graph overhead) and few long ones (kernel).
ROD_SIGMA = {1: 1, 2: 2}
ROD_BOX = 40
MC_MIX = ((("overhead", 4, 20_000), 3), (("kernel", 3, 1_000_000), 1))
# Seeds per kind: each seed recurs, so repeated requests must give identical bytes.
MC_SEED_POOL = 2
# A c(n) passes when it lies within this many standard errors of the exact
# Tonks value; two-sided normal tail 2e-9 per coefficient.
MC_Z = 6.0


def interleave(mix) -> list:
    """One cycle of the weighted mix, spread so every prefix keeps the shares
    (smooth weighted round robin)."""
    total = sum(w for _, w in mix)
    credit = [0] * len(mix)
    out = []
    for _ in range(total):
        for i, (_, w) in enumerate(mix):
            credit[i] += w
        best = max(range(len(mix)), key=lambda i: (credit[i], -i))
        credit[best] -= total
        out.append(mix[best][0])
    return out


def _index_count(species: int, degree: int) -> int:
    """Admissible multi-indices of degree 1..D over S species."""
    return math.comb(degree + species, species) - 1


@dataclass
class Outcome:
    request: object
    latency: float = 0.0
    coeffs: int = 0
    error: str | None = None
    stages: dict = field(default_factory=dict)
    verdict: bool | None = None
    bytes_out: int = 0
    payload: object = None  # kept for the after-pass check

    @property
    def ok(self) -> bool:
        return self.error is None


# -- synthetic block models: exact-corpus and wide-species --------------------------


@dataclass(frozen=True)
class ModelRequest:
    species: int
    degree: int
    model_seed: int


class SyntheticWorkload:
    def __init__(self, name: str, mix, nominal_cycle_s: float):
        self.name = name
        self.mix = mix
        self.nominal_cycle_s = nominal_cycle_s
        self.max_degree = max(d for (_, d), _ in mix)
        self.vk = None

    def open(self, vk, workdir: Path) -> None:
        self.vk = vk

    def close(self) -> None:
        pass

    def warmups(self, seed: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/warm-up")
        return [ModelRequest(s, d, rng.getrandbits(31)) for (s, d), _ in self.mix]

    def cycle(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        return [ModelRequest(s, d, rng.getrandbits(31)) for s, d in interleave(self.mix)]

    def run(self, req: ModelRequest) -> Outcome:
        vk = self.vk
        series, virial = vk.series, vk.virial
        model = vk.weights.SyntheticBlockModel.random(req.model_seed, req.species)
        t = series.Truncation(req.degree, req.species)
        indices = list(series.admissible_indices(t, min_degree=1))
        marks = [perf_counter()]
        p = virial.pressure_from_weights(model, t)
        marks.append(perf_counter())
        rec = virial.invert_recursive(p)
        marks.append(perf_counter())
        inverter = virial.LagrangeGoodInverter(p)
        lg_terms = {}
        for n in indices:
            c = inverter.coefficient(n)
            if c != 0:
                lg_terms[n] = c
        lg = series.MPSeries(lg_terms, t, p.series.field)
        marks.append(perf_counter())
        two = virial.virial_from_two_connected(model, t).series
        marks.append(perf_counter())
        agree = rec.series == lg == two
        marks.append(perf_counter())
        spec = vk.bounds.make_domain_spec([(i, *BOUND_DOMAIN) for i in range(1, req.species + 1)])
        report = vk.bounds.bound_report(spec, p, rec, indices=indices,
                                        samples=BOUND_SAMPLES, seed=req.model_seed)
        marks.append(perf_counter())
        stages = dict(zip(STAGES, (b - a for a, b in zip(marks, marks[1:]))))
        return Outcome(req, coeffs=len(indices), stages=stages, verdict=report.passed,
                       error=None if agree else "recursive, lagrange-good and two-connected differ",
                       payload=(p, rec.series))

    def verify(self, outcomes) -> None:
        """Untimed: the inverted series substituted into the densities gives p back."""
        virial, series = self.vk.virial, self.vk.series
        for o in outcomes:
            if o.ok:
                p, c = o.payload
                if series.substitute(c, virial.densities(p).by_species) != p.series:
                    o.error = "substitute(c, densities(p)) != p"
            o.payload = None


# -- hard rods through the CLI: mc-rods -----------------------------------------------


def tonks_coefficient(n: dict, sigma: dict) -> Fraction:
    """Exact c(n) of the Tonks gas bp = sum rho_k / (1 - sum rho_k sigma_k):
    sum over k with n_k >= 1 of multinomial(|n|-1; n-e_k) prod_l sigma_l^(n-e_k)_l."""
    total = Fraction(0)
    for k, nk in n.items():
        if nk < 1:
            continue
        rest = dict(n)
        rest[k] -= 1
        term = Fraction(math.factorial(sum(rest.values())))
        for l, e in rest.items():
            term = term / math.factorial(e) * Fraction(sigma[l]) ** e
        total += term
    return total


@dataclass(frozen=True)
class RodsRequest:
    kind: str
    degree: int
    samples: int
    mc_seed: int

    @property
    def key(self) -> tuple:
        return (self.mc_seed, self.degree, self.samples)


class RodsWorkload:
    name = "mc-rods"
    mix = MC_MIX
    nominal_cycle_s = 3.1

    def __init__(self):
        self.max_degree = max(d for (_, d, _), _ in MC_MIX)
        self.vk = None
        self.dir = None
        self.first_bytes: dict[tuple, bytes] = {}

    def open(self, vk, workdir: Path) -> None:
        self.vk = vk
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="mc-rods-", dir=workdir))
        self.model_path = self.dir / "rods.json"
        self.model_path.write_text(json.dumps(
            {"schema": "virialkit/1", "type": "hard_rods_1d",
             "sigma": {str(k): float(v) for k, v in ROD_SIGMA.items()}, "L": float(ROD_BOX)}))

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def _pools(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {kind: [rng.getrandbits(31) for _ in range(MC_SEED_POOL)]
                for (kind, _, _), _ in MC_MIX}

    def warmups(self, seed: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/warm-up")
        return [RodsRequest(kind, d, s, rng.getrandbits(31)) for (kind, d, s), _ in MC_MIX]

    def cycle(self, seed: int, index: int) -> list:
        pools = self._pools(seed)
        seen = {kind: index * w for (kind, _, _), w in MC_MIX}
        out = []
        for kind, d, s in interleave(MC_MIX):
            out.append(RodsRequest(kind, d, s, pools[kind][seen[kind] % MC_SEED_POOL]))
            seen[kind] += 1
        return out

    def run(self, req: RodsRequest) -> Outcome:
        out_path = self.dir / "out.json"
        rc = self.vk.cli.main(["virial", "invert", "--model", str(self.model_path),
                               "--degree", str(req.degree), "--method", "recursive",
                               "--samples", str(req.samples), "--seed", str(req.mc_seed),
                               "--output", str(out_path)])
        if rc != 0:
            return Outcome(req, error=f"virialkit exited {rc}")
        data = out_path.read_bytes()
        out_path.unlink()
        first = self.first_bytes.setdefault(req.key, data)
        error = None if data == first else "output bytes differ from an earlier identical request"
        return Outcome(req, coeffs=_index_count(len(ROD_SIGMA), req.degree), error=error,
                       bytes_out=len(data))

    def verify(self, outcomes) -> None:
        """Untimed: every c(n) of each distinct request against the Tonks value."""
        bad = {}
        for key in sorted({o.request.key for o in outcomes if o.ok}):
            problem = self.check_tonks(key, json.loads(self.first_bytes[key]))
            if problem:
                bad[key] = problem
        for o in outcomes:
            if o.ok and o.request.key in bad:
                o.error = bad[o.request.key]

    def standard_errors(self, key) -> dict:
        """Standard error of each c(n) by the delta method.

        The same seeded Monte Carlo run yields per-graph standard errors of
        every b(n); they are pushed through the recursive inversion with a
        finite-difference Jacobian dc(n)/db(k) (c is a polynomial in b).
        """
        vk = self.vk
        seed, degree, samples = key
        t = vk.series.Truncation(degree, len(ROD_SIGMA))
        rods = vk.weights.HardRods1D(ROD_SIGMA, ROD_BOX)
        p, errors = vk.virial.mc_pressure_series(rods, vk.weights.McParams(samples, seed), t)
        c = vk.virial.invert_recursive(p).series
        var = {n: 0.0 for n in vk.series.admissible_indices(t, min_degree=1)}
        for k, err in errors.items():
            if err == 0.0:
                continue
            h = 1e-6 * max(1.0, abs(p.series[k]))
            terms = dict(p.series.terms)
            terms[k] = terms.get(k, 0.0) + h
            shifted = vk.virial.PressureSeries(vk.series.MPSeries(terms, t, vk.series.FLOAT))
            c2 = vk.virial.invert_recursive(shifted).series
            for n in var:
                var[n] += ((c2[n] - c[n]) / h * err) ** 2
        return {tuple(n.dense(t.species)): math.sqrt(v) for n, v in var.items()}

    def check_tonks(self, key, doc) -> str | None:
        sigma_err = self.standard_errors(key)
        got = {}
        for row in doc["coefficients"]:
            dense = [0] * len(ROD_SIGMA)
            for s, e in row["n"].items():
                dense[int(s) - 1] = e
            got[tuple(dense)] = float(row["c"])
        for dense, err in sigma_err.items():
            exact = tonks_coefficient(dict(enumerate(dense, start=1)), ROD_SIGMA)
            value = got.get(dense, 0.0)
            if abs(value - float(exact)) > MC_Z * err + 1e-9 * abs(float(exact)):
                return (f"c{dense} = {value} is {abs(value - float(exact)):.3g} from the "
                        f"Tonks value {exact}; tolerance {MC_Z} x {err:.3g}")
        return None


def make(name: str):
    if name == "exact-corpus":
        return SyntheticWorkload(name, EXACT_MIX, 17.8)
    if name == "wide-species":
        return SyntheticWorkload(name, WIDE_MIX, 8.3)
    if name == "mc-rods":
        return RodsWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact-corpus", "wide-species", "mc-rods")
