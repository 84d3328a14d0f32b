"""The three benchmark workloads, as flat squarm configs built from a seed.

Each workload is the `squarm` preset on a ring plus a few overrides. The
workload seed becomes the config's `seed`, which fixes the objective
instance, the initial positions and every node's noise stream; nothing
else in a workload depends on it.

BENCHMARK.json at the repository root is the one source of the workload
descriptions and of the metrics' names, units and directions (SPEC).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from squarm import config, presets

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    T: int
    overrides: Callable[[int], dict]  # run length T -> config overrides
    # exact outputs of one run at DEFAULT_SEED and full T; the output gate
    # compares against them, so a "speed-up" that changes the algorithm fails
    recorded: dict
    # config warnings build_run_config raises for this workload (any seed)
    warnings: tuple[str, ...]

    @property
    def why(self) -> str:
        return _WHY[self.name]

    def flat(self, seed: int, T: int | None = None) -> dict:
        """Merged flat config for one run; T shortens the run for smoke tests."""
        T = self.T if T is None else T
        return config.merged(presets.preset("squarm"), self.overrides(T), {"T": T, "seed": seed})


# Gradient noise and random starts keep f(xbar) - f* well above round-off:
# without noise, wide_model converges to a gap of ~2e-10 on a loss of ~-5400.
_NOISY = {"topology.kind": "ring", "objective.noise_sigma": 0.1, "x0_scale": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_ring",
            T=1000,
            overrides=lambda T: {
                **_NOISY,
                "topology.n": 32,
                "objective.d": 200,
                "H": 5,
                "diagnostics": False,
                "variant": "full_copy",
            },
            recorded={"bits_total": 320000, "triggers": 6400},
            warnings=("T=1000 below the non-convex admissibility minimum 1679616",),
        ),
        Workload(
            name="sparse_trigger",
            T=800,
            overrides=lambda T: {
                **_NOISY,
                "topology.n": 128,
                "objective.d": 20,
                "H": 1,
                "threshold.init": 10.0,
                "threshold.step": 6.0,
                "threshold.period": max(1, T // 4),
                "diagnostics": True,
                "variant": "mem_efficient",
            },
            recorded={"bits_total": 391324, "triggers": 10298},
            warnings=("T=800 below the non-convex admissibility minimum 6718464",),
        ),
        Workload(
            name="wide_model",
            T=200,
            overrides=lambda T: {
                **_NOISY,
                "topology.n": 8,
                "objective.d": 2000,
                "eval_every": 4,
                "diagnostics": False,
            },
            recorded={"bits_total": 87040, "triggers": 320},
            warnings=("T=200 below the non-convex admissibility minimum 419904",),
        ),
    )
}
