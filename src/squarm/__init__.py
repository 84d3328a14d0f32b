"""Deterministic simulator for decentralized momentum SGD with compression,
local iterations, and event-triggered communication."""

from . import compress, engine, node, objective, presets, schedule, topology
from .compress import CompressedMessage, CompressorSpec, bit_cost, decode, estimate_contraction, omega_of
from .engine import MetricsRow, RunConfig, RunResult, bits_to_seconds, run
from .objective import ObjectiveSet, full_grad_global, loss, optimum, partition_heterogeneous, stochastic_grad
from .schedule import (
    LrSchedule,
    ThresholdSchedule,
    constant_lr,
    decaying_lr,
    gamma_relaxed,
    gamma_strong,
    min_T_nonconvex,
    min_a_strongly_convex,
    p_of,
    s_T,
    threshold_at,
    weighted_avg_weight,
)
from .topology import MixingMatrix, build_complete, build_custom, build_ring, power_deviation, spectral_quantities

__version__ = "0.1.0"
