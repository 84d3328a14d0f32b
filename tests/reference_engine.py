"""Frozen per-node reference of the engine, kept as a test oracle.

This is the loop the array-state engine replaced, with its per-node state
objects and, in the full-copy variant, an explicit table of every
neighbor's public copy. It shares with the package what is per node in
the algorithm (the stochastic gradient, the compressor, the schedules),
the seed layout, so both sides draw identical random numbers, and the
engine's record types and identity checks. Metric
rows use the per-node sums of the losses and gradients, not the closed
forms the package evaluates.

Do not change this file to make the package pass: it is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from squarm import objective as obj_ops
from squarm.compress import CompressedMessage, CompressorSpec, bit_cost, compress, decode
from squarm.engine import (
    Diagnostics,
    MetricsRow,
    RunConfig,
    RunResult,
    initial_positions,
    mean_preservation_check,
    seed_streams,
    virtual_residual,
)
from squarm.errors import DivergenceError, ParameterError, TopologyError
from squarm.schedule import eta_at, threshold_at, weighted_avg_weight

# ---------------------------------------------------------------------------
# per-node state and transitions


@dataclass
class NodeState:
    index: int
    x: np.ndarray
    v: np.ndarray
    hat_self: np.ndarray
    copies: dict[int, np.ndarray] | None = None  # full_copy variant
    s: np.ndarray | None = None  # mem_efficient variant
    neighbors: tuple[int, ...] = field(default=())


def make_node(index: int, x0: np.ndarray, neighbors: tuple[int, ...], variant: str) -> NodeState:
    """Fresh node with x = x0 and all communication state zeroed."""
    d = x0.shape[0]
    if variant == "full_copy":
        return NodeState(
            index=index,
            x=np.array(x0, dtype=float, copy=True),
            v=np.zeros(d),
            hat_self=np.zeros(d),
            copies={j: np.zeros(d) for j in neighbors},
            neighbors=tuple(neighbors),
        )
    if variant == "mem_efficient":
        return NodeState(
            index=index,
            x=np.array(x0, dtype=float, copy=True),
            v=np.zeros(d),
            hat_self=np.zeros(d),
            s=np.zeros(d),
            neighbors=tuple(neighbors),
        )
    raise ValueError(f"unknown variant {variant!r}")


def local_step(state: NodeState, g: np.ndarray, eta: float, beta: float) -> None:
    """Momentum SGD step: v <- beta v + g; x <- x - eta (beta v_new + g)."""
    if not np.isfinite(g).all():
        raise ParameterError("gradient has non-finite entries")
    state.v = beta * state.v + g
    state.x = state.x - eta * (beta * state.v + g)


def should_trigger(state: NodeState, c_t: float, eta: float) -> bool:
    """True iff the copy drift ||x - hat_self||^2 strictly exceeds c_t eta^2."""
    if math.isinf(c_t):
        return False
    diff = state.x - state.hat_self
    return float(diff @ diff) > c_t * eta * eta


def encode_update(state: NodeState, spec: CompressorSpec, rng: np.random.Generator) -> CompressedMessage:
    """Compress the change in this node's public copy; state is untouched."""
    return compress(spec, state.x - state.hat_self, rng)


def apply_incoming(state: NodeState, sender: int, q: np.ndarray, w_row: np.ndarray) -> None:
    """Fold one decoded payload q from `sender` into the copy bookkeeping.

    A node applies its own broadcast too (sender == state.index), which keeps
    hat_self in lockstep with the copy of this node held by every neighbor.
    """
    if state.copies is not None:
        if sender == state.index:
            state.hat_self = state.hat_self + q
        else:
            if sender not in state.copies:
                raise TopologyError(f"node {state.index} got message from non-neighbor {sender}")
            state.copies[sender] = state.copies[sender] + q
    else:
        if sender != state.index and sender not in state.neighbors:
            raise TopologyError(f"node {state.index} got message from non-neighbor {sender}")
        state.s = state.s + w_row[sender] * q
        if sender == state.index:
            state.hat_self = state.hat_self + q


def consensus_step(state: NodeState, gamma: float, w_row: np.ndarray) -> None:
    """Gossip correction x += gamma * sum_j w_ij (hat_x_j - hat_self)."""
    if state.copies is not None:
        acc = np.zeros_like(state.x)
        for j, copy in state.copies.items():
            acc += w_row[j] * (copy - state.hat_self)
        state.x = state.x + gamma * acc
    else:
        state.x = state.x + gamma * (state.s - state.hat_self)


def make_nodes(cfg: RunConfig, variant: str) -> tuple[list[NodeState], list[np.random.Generator]]:
    """The run's nodes at t = 0 and their random streams, seeded as the package seeds them."""
    W = cfg.topology
    _, x0_rng, node_rngs = seed_streams(cfg.seed, W.n)
    x0 = initial_positions(x0_rng, W.n, cfg.objective.d, cfg.x0_scale)
    return [make_node(i, x0[i], W.adjacency[i], variant) for i in range(W.n)], node_rngs


def deliver(nodes: list[NodeState], W, payloads: dict[int, np.ndarray]) -> None:
    """Every sender applies its own payload, then each of its neighbors does, in sender order."""
    for sender in range(W.n):
        if sender in payloads:
            q = payloads[sender]
            apply_incoming(nodes[sender], sender, q, W.w[sender])
            for j in W.adjacency[sender]:
                apply_incoming(nodes[j], sender, q, W.w[j])


# ---------------------------------------------------------------------------
# metrics as per-node sums


def loss_sum(obj: obj_ops.ObjectiveSet, x: np.ndarray) -> float:
    return sum(obj_ops._local_loss(obj, i, x) for i in range(obj.n)) / obj.n


def grad_sum(obj: obj_ops.ObjectiveSet, x: np.ndarray) -> np.ndarray:
    g = np.zeros(obj.d)
    for i in range(obj.n):
        g += obj_ops.local_grad(obj, i, x)
    return g / obj.n


# ---------------------------------------------------------------------------
# run loop


def run(cfg: RunConfig) -> tuple[RunResult, list[np.ndarray]]:
    """(result, [X after step t for t = 0..T-1]) of cfg's run."""
    W = cfg.topology
    obj = cfg.objective
    n, d = W.n, obj.d
    out_degree = [len(W.adjacency[i]) for i in range(n)]
    nodes, node_rngs = make_nodes(cfg, cfg.variant)

    eval_every = cfg.eval_every if cfg.eval_every else max(1, cfg.T // 200)
    decaying = cfg.lr.kind == "decaying"

    bits_cum = 0
    messages = 0
    triggers = 0
    rows: list[MetricsRow] = []
    diag = Diagnostics()
    trace = []

    wavg_acc = np.zeros(d) if decaying else None
    wavg_sum = 0.0

    v_bar = np.zeros(d)  # v^{-1} = 0
    vres_since_eval = 0.0

    def x_bar_now() -> np.ndarray:
        acc = np.zeros(d)
        for st in nodes:
            acc += st.x
        return acc / n

    for t in range(cfg.T):
        eta = eta_at(cfg.lr, t)

        if decaying:
            w_t = weighted_avg_weight(cfg.lr.a, t)
            wavg_acc += w_t * x_bar_now()
            wavg_sum += w_t

        x_bar_start = x_bar_now() if cfg.diagnostics else None

        grads = []
        for st, rng in zip(nodes, node_rngs):
            g = obj_ops.stochastic_grad(obj, st.index, st.x, rng)
            if cfg.grad_clip is not None:
                g = obj_ops.clip_to_norm(g, cfg.grad_clip)
            local_step(st, g, eta, cfg.beta)
            grads.append(g)

        if cfg.diagnostics:
            for st in nodes:
                diag.max_momentum_norm = max(diag.max_momentum_norm, float(np.linalg.norm(st.v)))

        if (t + 1) % cfg.H == 0:
            c_t = threshold_at(cfg.threshold, t, eta)
            fired = [should_trigger(st, c_t, eta) for st in nodes]
            if cfg.diagnostics and not np.isinf(c_t):
                for st, f in zip(nodes, fired):
                    if not f:
                        drift = st.x - st.hat_self
                        if float(drift @ drift) > c_t * eta * eta:
                            diag.trigger_violations += 1
            payloads: dict[int, np.ndarray] = {}
            for i in range(n):
                if fired[i]:
                    msg = encode_update(nodes[i], cfg.compressor, node_rngs[i])
                    payloads[i] = decode(msg)
                    cost = bit_cost(cfg.compressor, d, msg)
                    if cfg.accounting == "broadcast":
                        bits_cum += cost
                        messages += 1
                    else:
                        bits_cum += cost * out_degree[i]
                        messages += out_degree[i]
                    triggers += 1
            deliver(nodes, W, payloads)
            x_bar_half = x_bar_now() if cfg.diagnostics else None
            for st in nodes:
                consensus_step(st, cfg.gamma, W.w[st.index])
            if cfg.diagnostics:
                diag.sync_rounds += 1
                diag.max_mean_dev = max(
                    diag.max_mean_dev, mean_preservation_check(x_bar_half, x_bar_now())
                )

        if cfg.diagnostics:
            g_bar = np.zeros(d)
            for g in grads:
                g_bar += g
            g_bar /= n
            v_bar_start, v_bar = v_bar, np.zeros(d)
            for st in nodes:
                v_bar += st.v
            v_bar /= n
            defect = virtual_residual(x_bar_start, v_bar_start, x_bar_now(), v_bar, g_bar, eta, cfg.beta)
            diag.max_virtual_residual = max(diag.max_virtual_residual, defect)
            vres_since_eval = max(vres_since_eval, defect)

        trace.append(np.stack([st.x for st in nodes]))

        if t == 0 or t == cfg.T - 1 or (t + 1) % eval_every == 0:
            xb = x_bar_now()
            f_val = loss_sum(obj, xb)
            grad = grad_sum(obj, xb)
            consensus = sum(float((st.x - xb) @ (st.x - xb)) for st in nodes)
            wavg_loss = None
            if decaying and wavg_sum > 0:
                wavg_loss = loss_sum(obj, wavg_acc / wavg_sum)
            row = MetricsRow(
                t=t,
                loss=f_val,
                grad_norm_sq=float(grad @ grad),
                consensus=consensus,
                bits_cum=bits_cum,
                messages=messages,
                triggers=triggers,
                virtual_residual=vres_since_eval if cfg.diagnostics else None,
                weighted_avg_loss=wavg_loss,
            )
            vres_since_eval = 0.0
            if not np.isfinite(f_val):
                raise DivergenceError(f"loss diverged at t={t}")
            rows.append(row)

    result = RunResult(
        rows=rows,
        x_avg=(wavg_acc / wavg_sum) if decaying and wavg_sum else None,
        total_bits=bits_cum,
        config=cfg,
        diagnostics=diag,
    )
    return result, trace
