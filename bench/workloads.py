"""Seeded request generator for the four benchmark workloads.

A request is the argument list given to the interpreter, e.g.
``("-m", "oloid", "parallel", "--rho", "0.5")`` or
``("scripts/reproduce_constants.py", "--tol", "1e-9", ...)``.  Each workload
is an endless sequence of cycles; one cycle holds every request class of the
workload once.  The seed draws the inputs that do not change a request's
cost (radius, rho, format order, Monte Carlo seeds) and the rotation of
the cycle, so the same seed gives the same requests, and every seed gives
the same cost mix.  The inputs that set the cost (tolerance, resolution,
sample count) take fixed values spread over each workload's range.

Classes of unequal cost are ordered cheap, dear, cheap, dear, ... inside a
cycle, so that the part of a cycle a timed run ends in holds a similar cost
mix on every seed.  Neighbouring classes differ little in latency, so the
median and the tail percentile do not jump between request kinds.

Loop: closed, one client.  A request is sent when the previous one has
exited.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

FORMATS = ("text", "json", "csv")
PAIRS = ("ball-ball", "oloid-ball", "oloid-oloid")
# 1-2-5 steps down to 1e-14, where the cost rises smoothly, then the one step
# to 1.2e-15 where it rises steeply (about 3x); the tail percentile lands on
# the smooth part, the steep step shows in requests_per_s and the layers
CONSTANTS_TOLS = (
    "1e-9", "5e-10", "2e-10", "1e-10", "5e-11", "2e-11", "1e-11", "5e-12", "2e-12",
    "1e-12", "5e-13", "2e-13", "1e-13", "5e-14", "2e-14", "1e-14", "1.2e-15",
)
# (size, requests per cycle): log-spaced sizes from 64 to 256, weighted toward
# the middle so the median and the tail fall among several requests of one
# size instead of between sizes that differ by 10-20% in latency
MESH_MIX = ((64, 1), (76, 1), (92, 2), (108, 2), (128, 3), (152, 2), (180, 2), (216, 1),
            (256, 1))
MESH_RESOLUTIONS = tuple(n for n, _ in MESH_MIX)
MC_KIN_SAMPLES = tuple(int(2e6 + (k + 0.5) / 14 * 18e6) for k in range(14))
# a script request costs about as much as the dearest kinematic ones, so the
# latency distribution has no gap for a percentile to fall in
MC_SCRIPT_SAMPLES = tuple(int(1e6 + (k + 0.5) / 7 * 1e6) for k in range(7))

Request = tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """A request mix; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    deadline_s: float
    mix: str
    cycle: Callable[[random.Random, int, int, str], list[Request]]


def _radius(rng: random.Random) -> str:
    return format(math.exp(rng.uniform(math.log(0.25), math.log(4.0))), ".6g")


def _zipper(items: list) -> list:
    """Reorder items sorted by cost as cheapest, dearest, 2nd cheapest, ..."""
    out = []
    lo, hi = 0, len(items) - 1
    while lo <= hi:
        out.append(items[lo])
        if lo != hi:
            out.append(items[hi])
        lo, hi = lo + 1, hi - 1
    return out


def _rotate(items: list, offset: int) -> list:
    k = offset % len(items)
    return items[k:] + items[:k]


def _closed_form(rng: random.Random, index: int, offset: int, out_dir: str) -> list[Request]:
    reqs: list[Request] = []
    for fmt in FORMATS:
        reqs.append(("-m", "oloid", "parallel", "--radius", _radius(rng),
                     "--rho", format(rng.uniform(0.0, 2.0), ".4g"), "--format", fmt))
        for pair in PAIRS:
            reqs.append(("-m", "oloid", "kinematic", "--pair", pair,
                         "--radius", _radius(rng), "--format", fmt))
    rng.shuffle(reqs)  # all classes cost about the same
    return reqs


def _constants(rng: random.Random, index: int, offset: int, out_dir: str) -> list[Request]:
    # formats rotate across cycles, so every tolerance is printed in
    # json or csv at least once in any two consecutive cycles
    reqs = [
        ("-m", "oloid", "constants", "--radius", _radius(rng), "--tol", tol,
         "--format", FORMATS[(offset + index + i) % len(FORMATS)])
        for i, tol in enumerate(CONSTANTS_TOLS)
    ]
    return _rotate(_zipper(reqs), offset)


def _mesh(rng: random.Random, index: int, offset: int, out_dir: str) -> list[Request]:
    reqs = [("-m", "oloid", "mesh", "--resolution", str(n), "--out", f"{out_dir}/mesh.obj")
            for n, count in MESH_MIX for _ in range(count)]
    return _rotate(_zipper(reqs), offset)


def _montecarlo(rng: random.Random, index: int, offset: int, out_dir: str) -> list[Request]:
    kinematic = [
        ("-m", "oloid", "kinematic", "--pair", "ball-ball", "--radius", _radius(rng),
         "--mc-samples", str(n), "--seed", str(rng.randrange(1 << 31)),
         "--format", rng.choice(FORMATS))
        for n in MC_KIN_SAMPLES
    ]
    script = [
        ("scripts/reproduce_constants.py", "--tol", "1e-9", "--mc-samples", str(n),
         "--seed", str(rng.randrange(1 << 31)))
        for n in MC_SCRIPT_SAMPLES
    ]
    kinematic, script = _zipper(kinematic), _zipper(script)
    reqs = [req for k in range(len(script))
            for req in (kinematic[2 * k], kinematic[2 * k + 1], script[k])]
    return _rotate(reqs, offset)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed-form", 10.0,
            "parallel (radius, rho from the seed) and kinematic for the three pairs, "
            "each in text, json and csv; 12 classes per cycle",
            _closed_form,
        ),
        Workload(
            "constants", 20.0,
            "constants over the tolerance ladder 1e-9, 5e-10, 2e-10, ..., 2e-14, 1e-14, "
            "1.2e-15 (17 steps), radius from the seed, format rotating across cycles",
            _constants,
        ),
        Workload(
            "mesh", 30.0,
            "mesh --resolution n, n in 64..256 log-spaced, 15 requests per cycle weighted to "
            "n = 128; OBJ written under "
            "the run's scratch directory",
            _mesh,
        ),
        Workload(
            "montecarlo", 30.0,
            "kinematic --pair ball-ball --mc-samples N (14 values of N in 2e6..2e7) and "
            "scripts/reproduce_constants.py --tol 1e-9 --mc-samples N "
            "(7 values of N in 1e6..2e6), 2:1",
            _montecarlo,
        ),
    )
}


def requests(name: str, seed: int, out_dir: str) -> Iterator[Request]:
    """Endless request sequence of workload ``name`` for ``seed``."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    offset = rng.randrange(1 << 16)
    index = 0
    while True:
        yield from workload.cycle(rng, index, offset, out_dir)
        index += 1
