"""Seeded workload definitions: the CLI command lines each round runs.

Each workload is a fixed list of CLI calls whose numeric inputs are drawn
from the seed. Draws are stratified (one draw per equal stratum of the
admissible range) so that the amount of work in a round hardly depends on
the seed, while the inputs themselves differ from seed to seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("n1_theory", "n1_passages", "n2_delays")

DDR = "models/ddr.model"
QUARTIC = "models/quartic_n2.model"
CANARD = "models/canard_n2.model"
MODELS = (DDR, QUARTIC, CANARD)

# Sizes of the seeded lists; the README records why these sizes.
DELTA0_POINTS = 240
DULAC_EPS = 3
NGE2_EPS = 64


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments after `-m turnpike.cli`.

    `kind` names the output checker; `out` is the CSV path passed with
    --out (relative to the checkout root), None for commands that only
    print a verdict. `threads` is TURNPIKE_THREADS in the traced run only:
    the timed runs are serial, because on 2 shared vCPUs the GIL hand-offs
    of a 2-thread pool doubled the run-to-run spread of wall_s (README).
    """

    kind: str
    argv: tuple[str, ...]
    out: str | None = None
    threads: int = 0
    inputs: dict = field(default_factory=dict, compare=False)


def parse_model(path: Path) -> dict[str, str]:
    """Minimal `key = value` reader for the shipped model files."""
    kv = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            kv[key.strip()] = value.strip()
    return kv


def floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _stratified(rng: random.Random, lo: float, hi: float, k: int,
                log: bool = False) -> list[float]:
    """k draws, one uniform draw inside each of k equal strata of [lo, hi].

    The draw keeps to the middle half of its stratum, so neighbours are at
    least half a stratum apart (strict orderings stay well resolved).
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / k
    out = []
    for i in range(k):
        u = a + width * (i + 0.25 + 0.5 * rng.random())
        out.append(math.exp(u) if log else u)
    return out


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def build(workload: str, seed: int, root: Path, out_dir: str) -> list[Call]:
    """The calls of one round of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "n1_theory":
        kv = parse_model(root / DDR)
        lam0, lam1 = floats(kv["lambda"])
        lo, hi = floats(kv["I_in"])
        xs = _stratified(rng, lo, hi, DELTA0_POINTS)
        rng.shuffle(xs)  # the program sees them in no particular order
        return [
            Call("hypotheses", ("hypotheses", "--model", DDR)),
            Call("pv-check", ("pv-check", "--", repr(lam0), repr(lam1)),
                 inputs={"lam": (lam0, lam1)}),
            Call("delta0", ("delta0", "--model", DDR, "--x-in", _csv_list(xs),
                            "--out", f"{out_dir}/delta0.csv"),
                 out=f"{out_dir}/delta0.csv", inputs={"x_in": xs}),
        ]
    if workload == "n1_passages":
        kv = parse_model(root / DDR)
        eps = _stratified(rng, 0.002, 0.01, DULAC_EPS, log=True)
        lo, hi = floats(kv["I_in"])
        x_in = lo + (hi - lo) * (0.25 + 0.75 * rng.random())
        eps_arg = _csv_list(sorted(eps, reverse=True))
        return [
            Call("dulac", ("dulac", "--model", DDR, "--eps", eps_arg,
                           "--out", f"{out_dir}/dulac.csv"),
                 out=f"{out_dir}/dulac.csv", inputs={"eps": eps}),
            Call("chart-view", ("chart-view", "--model", DDR, "--eps", eps_arg,
                                "--x-in", repr(x_in),
                                "--out", f"{out_dir}/chart.csv"),
                 out=f"{out_dir}/chart.csv",
                 inputs={"eps": eps, "x_in": x_in}),
        ]
    if workload == "n2_delays":
        eps = _stratified(rng, 0.001, 0.1, NGE2_EPS, log=True)
        rng.shuffle(eps)
        p1 = 0.05 + 0.15 * rng.random()
        p3 = 0.05 + 0.15 * rng.random()
        return [
            Call("nge2", ("nge2", "--model", QUARTIC, "--eps", _csv_list(eps),
                          "--out", f"{out_dir}/nge2.csv"),
                 out=f"{out_dir}/nge2.csv", threads=2, inputs={"eps": eps}),
            Call("canard-solve", ("canard-solve", "--model", CANARD, "--l", "1",
                                  "--perturb", repr(p1)),
                 inputs={"l": 1, "perturb": p1}),
            Call("canard-solve", ("canard-solve", "--model", CANARD, "--l", "3",
                                  "--perturb", repr(p3)),
                 inputs={"l": 3, "perturb": p3}),
        ]
    raise ValueError(f"unknown workload {workload!r}")
