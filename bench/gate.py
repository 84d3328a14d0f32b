"""Output gate: the checks every measured repeat must pass.

A repeat that fails any check counts as a failed run. The identity bounds
are the acceptance suite's own (criteria 04, 05 and 08).
"""

from __future__ import annotations

import json
import math

import numpy as np

from squarm import compress

from workloads import DEFAULT_SEED, Workload

MEAN_DEV_TOL = 1e-10
VIRTUAL_RESIDUAL_TOL = 1e-8


def message_bits(cfg) -> int:
    """Wire bits of one message under cfg's compressor (the same for every message)."""
    d = cfg.objective.d
    probe = compress.compress(cfg.compressor, np.ones(d), np.random.default_rng(0))
    return compress.bit_cost(cfg.compressor, d, probe)


def check(workload: Workload, cfg, result, csv_text: str, summary_text: str) -> list[str]:
    """Every failed check, as one message each; empty when the repeat passes."""
    errors = []
    last = result.rows[-1]
    final = [last.loss, last.grad_norm_sq, last.consensus, last.virtual_residual, last.weighted_avg_loss]
    if not all(math.isfinite(v) for v in final if v is not None):
        errors.append(f"final row is not finite: {final}")

    if cfg.accounting != "broadcast":
        errors.append(f"accounting is {cfg.accounting!r}, the gate assumes broadcast")
    per_message = message_bits(cfg)
    if not (result.total_bits == last.bits_cum == last.triggers * per_message and last.messages == last.triggers):
        errors.append(
            f"bits_total {result.total_bits} (row {last.bits_cum}) != triggers {last.triggers}"
            f" x {per_message} bits; messages {last.messages}"
        )

    if cfg.diagnostics:
        diag = result.diagnostics
        if not diag.max_mean_dev < MEAN_DEV_TOL:
            errors.append(f"mean preservation {diag.max_mean_dev:.3e} >= {MEAN_DEV_TOL:g}")
        if not diag.max_virtual_residual < VIRTUAL_RESIDUAL_TOL:
            errors.append(f"virtual residual {diag.max_virtual_residual:.3e} >= {VIRTUAL_RESIDUAL_TOL:g}")
        if diag.trigger_violations != 0:
            errors.append(f"{diag.trigger_violations} trigger-drift violations")

    if cfg.seed == DEFAULT_SEED and cfg.T == workload.T:
        measured = {"bits_total": result.total_bits, "triggers": last.triggers}
        for key, want in workload.recorded.items():
            if measured[key] != want:
                errors.append(f"{key} {measured[key]} != recorded {want} for seed {DEFAULT_SEED}")

    if csv_text.count("\n") != len(result.rows) + 1:
        errors.append("metrics_csv does not have one line per row plus a header")
    if json.loads(summary_text)["total_bits"] != result.total_bits:
        errors.append("summary_json total_bits differs from the run's")
    return errors
