"""Each step's X of a run, recorded from outside the run.

The engine takes the shared-curvature product
(objective.shared_curvature_grads) once before the first step and once
after each step's consensus, for every objective kind; the sample kinds get
None back. So the X of the product's call t + 1 is the state at the end of
step t, and wrapping the function records the whole trajectory without the
run keeping it.
"""

import numpy as np

from squarm import objective
from squarm.config import RunConfig
from squarm.engine import RunResult, run


def traced_run(cfg: RunConfig) -> tuple[RunResult, list[np.ndarray]]:
    """(run(cfg), [X after step t for t = 0..T-1])."""
    seen: list[np.ndarray] = []
    product = objective.shared_curvature_grads

    def recording(obj, X):
        seen.append(X.copy())
        return product(obj, X)

    objective.shared_curvature_grads = recording
    try:
        result = run(cfg)
    finally:
        objective.shared_curvature_grads = product
    assert len(seen) == cfg.T + 1, f"{len(seen)} shared-curvature calls in a run of T={cfg.T}"
    return result, seen[1:]
