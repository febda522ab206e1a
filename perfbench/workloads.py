"""Seeded inputs for the four benchmark workloads.

Every workload is written as scenario JSON under a work directory; the
program under test only ever sees those files.  The same seed gives
byte-identical files.  Randomness comes from `random.Random(seed)`, whose
stream does not depend on the numpy version.

The bundled scenarios set their guard time close to the deadline, where the
mu step ceiling (or, for `example1`, the stiffness of the chain law) makes
the step count explode.  Each generated scenario keeps the bundled clock,
gains, solver and monitors but stops at an earlier guard, so that one run of
every workload fits the benchmark's time budget while the same layers
dominate; `GUARD_FRAC` records the choice.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCENARIO_DIR = Path("src") / "dptco" / "scenarios"

# Circulant graph of the large-network workload: node i links to i +- k for
# every offset k.  With N = 60 its algebraic connectivity is about 1.01,
# close to the bundled ring's 1.0.
NETWORK_N = 60
NETWORK_OFFSETS = (1, 7, 23)

SWEEP_DEADLINES = (0.5, 1.0, 2.0)

# Guard fraction of each workload's generated scenarios (see module doc).
GUARD_FRAC = {
    "network_large": 0.99,
    "deadline_sweep": 0.995,
    "manipulator_chain": 0.915,
    "strictfb_adaptive": 0.99,
}

WORKLOADS = tuple(GUARD_FRAC)


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload.

    `scenarios` are the files the dptco command reads.  A sweep workload
    runs `dptco sweep` over `sweep_dir`; any other runs `dptco run` on its
    single scenario.
    """

    name: str
    scenarios: tuple
    sweep_dir: Path | None = None


def _bundled(root: Path, name: str) -> dict:
    with open(root / SCENARIO_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _point(rng: random.Random, half_width: float, dim: int) -> list:
    return [rng.uniform(-half_width, half_width) for _ in range(dim)]


def circulant_edges(n: int) -> list:
    """Unit-weight edges (i, i + k mod n), k in NETWORK_OFFSETS."""
    return [[i, (i + k) % n, 1.0] for i in range(n) for k in NETWORK_OFFSETS]


def network_large(root: Path, seed: int) -> dict:
    """N = 60 agents with seeded quadratic costs and initial states.

    Clock, gains, solver and monitors are the bundled ring's.  Curvatures
    stay within 4% of the ring's, so the ring's gain still satisfies the
    generator growth criterion without an override.
    """
    sc = _bundled(root, "ring")
    rng = random.Random(seed)
    n, dim = NETWORK_N, sc["costs"]["dim"]
    sc["name"] = "network_large"
    sc["clock"]["guard_frac"] = GUARD_FRAC["network_large"]
    sc["network"] = {"n_agents": n, "edges": circulant_edges(n)}
    sc["costs"]["agents"] = [
        {"family": "quadratic",
         "Q": [[rng.uniform(0.96, 1.04) if r == c else 0.0
                for c in range(dim)] for r in range(dim)],
         "center": _point(rng, 2.0, dim)}
        for _ in range(n)]
    sc["agents"]["varpi_init"] = [_point(rng, 3.0, dim) for _ in range(n)]
    return sc


def deadline_sweep(root: Path, seed: int) -> list:
    """The ring at each deadline in SWEEP_DEADLINES, with the same seeded
    initial states and cost centres (rotated on the unit circle)."""
    base = _bundled(root, "ring")
    rng = random.Random(seed)
    base["clock"]["guard_frac"] = GUARD_FRAC["deadline_sweep"]
    dim = base["costs"]["dim"]
    turn = rng.uniform(0.0, 1.0)
    agents = base["costs"]["agents"]
    for k, cost in enumerate(agents):
        angle = 2.0 * math.pi * (k / len(agents) + turn)
        cost["center"] = [math.cos(angle), math.sin(angle)]
    base["agents"]["varpi_init"] = [_point(rng, 3.0, dim)
                                    for _ in range(len(agents))]
    out = []
    for T in SWEEP_DEADLINES:
        sc = copy.deepcopy(base)
        sc["name"] = f"ring_T{T}"
        sc["clock"]["T"] = T
        out.append(sc)
    return out


def manipulator_chain(root: Path, seed: int) -> dict:
    """Bundled example1 with the seed as its disturbance seed."""
    sc = _bundled(root, "example1")
    sc["clock"]["guard_frac"] = GUARD_FRAC["manipulator_chain"]
    sc["agents"]["disturbance"]["seed"] = seed
    return sc


def strictfb_adaptive(root: Path, seed: int) -> dict:
    """Bundled example2; it has no random input, so the seed is unused."""
    sc = _bundled(root, "example2")
    sc["clock"]["guard_frac"] = GUARD_FRAC["strictfb_adaptive"]
    return sc


def generate(name: str, seed: int, root: Path, out_dir: Path) -> Workload:
    """Write the workload's scenario files under out_dir."""
    if name not in GUARD_FRAC:
        raise ValueError(f"unknown workload {name!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "deadline_sweep":
        sweep_dir = out_dir / "sweep"
        sweep_dir.mkdir(exist_ok=True)
        paths = []
        for sc in deadline_sweep(root, seed):
            paths.append(_write(sweep_dir / f"{sc['name']}.json", sc))
        return Workload(name, tuple(paths), sweep_dir)
    make = {"network_large": network_large,
            "manipulator_chain": manipulator_chain,
            "strictfb_adaptive": strictfb_adaptive}[name]
    return Workload(name, (_write(out_dir / f"{name}.json",
                                  make(root, seed)),))


def _write(path: Path, scenario: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(scenario, fh, indent=1)
        fh.write("\n")
    return path
