"""Run loop: local momentum steps, event-triggered compressed gossip,
metrics, bit accounting, and exact-identity diagnostics.

Iterations are indexed t = 0..T-1. Communication happens after the local
step of iteration t whenever (t+1) is a multiple of the synchronization gap
H; the listing's index set {0, H, 2H, ...} therefore makes the first
exchange land at t+1 = H (the 0 element never gates anything because t
starts at 0).

With diagnostics on, each run verifies two algebraic identities online:

  mean preservation   the gossip correction is average-free, so the node
                      average is unchanged by the consensus step at every
                      synchronization index (inf-norm deviation < 1e-10);

  virtual sequence    for constant eta, the shifted average
                      xt = xbar - (eta beta^2 / (1 - beta)) vbar
                      satisfies xt^{t+1} = xt^t - eta/((1-beta) n) sum_i g_i
                      exactly, whatever the compressor or trigger pattern
                      did (inf-norm defect < 1e-8);

plus two protocol facts: every non-triggering node's copy drift is within
its threshold, and with clipped gradients the momentum norm stays below
G/(1-beta).

Node state lives in (n, d) arrays (see squarm.node), and a step runs as
whole-graph phases:

  gradients    objective.stochastic_grads, every node's stochastic gradient
  local        node.local_steps, every node's momentum step
  and, at a synchronization round,
  trigger      node.fired, the nodes whose copy drift exceeds c_t eta^2
  encode       encode_round, the fired nodes' decoded messages and bits
  delivery     node.apply_incoming
  consensus    node.consensus_step, the gossip correction

Inside the gradient, local, trigger and encode phases each node is still
one call, in node order, drawing from the node's own random stream: those
per-node calls are what the benchmark counts today. Node i's gradient
reads only row i of X and of the step-start product below, so computing
every gradient before any local step is the same arithmetic as
interleaving them. For the quadratic kind, every node's exact gradient
comes from one product X A with the shared curvature matrix
(objective.shared_curvature_grads): one before the first step and one
after each step's consensus, which is both the next step's gradients and
that step's metrics row's loss and gradient at the node average, so a run
reads A T+1 times plus once per weighted-average row. Each node's
stochastic-gradient call only adds its noise. The averages, norms and
distances behind the metrics and diagnostics are array reductions.

The run holds x_bar, the node average of X as it stands. X changes in
place only in the local phase and in the consensus step, so x_bar is taken
once before the first step and once after each of those two; the
weighted-average accumulator, the mean-preservation check (whose pre-gossip
average is the post-local x_bar), the virtual sequence and every metrics
row read it instead of averaging X again.

Everything is deterministic given the seed: each node owns a private random
stream, every phase visits the nodes in node order, and messages are
always applied in fixed node order.

A run diverges when the parameters stop being finite, which is checked
after every local phase, or when a metrics row's loss or weighted-average
loss does; it then raises DivergenceError carrying the rows so far plus one
for the failing step.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import node as node_ops
from . import objective as obj_ops
from .compress import CompressorSpec, bit_cost, decode, omega_of
from .config import RunConfig, seed_streams
from .errors import DivergenceError
from .schedule import eta_at, p_of, threshold_at, weighted_avg_weight


@dataclass
class MetricsRow:
    """State snapshot recorded after completing iteration t.

    The fields, in order, are metrics.csv's columns. The ones without a
    default are in every row; the others are set only by some runs."""

    t: int
    loss: float
    grad_norm_sq: float
    consensus: float
    bits_cum: int
    messages: int
    triggers: int
    virtual_residual: float | None = None  # constant step sizes with diagnostics on
    weighted_avg_loss: float | None = None  # decaying step sizes


ROW_FIELDS = tuple(f.name for f in fields(MetricsRow))
# the fields every row has: summary.json's final block and sweep.csv's columns
FINAL_FIELDS = tuple(f.name for f in fields(MetricsRow) if f.default is MISSING)
CSV_HEADER = ",".join(ROW_FIELDS)


@dataclass
class Diagnostics:
    max_mean_dev: float = 0.0
    max_virtual_residual: float = 0.0
    trigger_violations: int = 0
    max_momentum_norm: float = 0.0
    sync_rounds: int = 0


@dataclass
class RunResult:
    rows: list[MetricsRow]
    x_avg: np.ndarray | None
    total_bits: int
    config: RunConfig
    diagnostics: Diagnostics


def initial_positions(x0_rng: np.random.Generator, n: int, d: int, scale: float) -> np.ndarray:
    if scale == 0.0:
        return np.zeros((n, d))
    return scale * x0_rng.standard_normal((n, d))


def virtual_residual(
    x_tilde_prev: np.ndarray,
    x_bar_new: np.ndarray,
    v_bar_new: np.ndarray,
    g_bar: np.ndarray,
    eta: float,
    beta: float,
) -> tuple[float, np.ndarray]:
    """Advance the virtual sequence one step and return (defect, new x_tilde).

    The defect is the inf-norm distance between the measured
    xt^{t+1} = xbar^{t+1} - eta beta^2/(1-beta) vbar^t and the value the
    recurrence predicts from xt^t and the mean stochastic gradient.
    """
    x_tilde_new = x_bar_new - (eta * beta**2 / (1.0 - beta)) * v_bar_new
    predicted = x_tilde_prev - (eta / (1.0 - beta)) * g_bar
    return float(np.abs(x_tilde_new - predicted).max()), x_tilde_new


# overflow on the way to a divergence is detected by the run loop, not warned about
_QUIET = np.errstate(over="ignore", invalid="ignore")


def mean_preservation_check(x_bar_half: np.ndarray, x_bar_next: np.ndarray) -> float:
    """Inf-norm change of the node average across one consensus step."""
    return float(np.abs(x_bar_next - x_bar_half).max())


def trigger_violations(state: node_ops.NodeState, fired: list[int], c_t: float, eta: float) -> int:
    """How many silent nodes the trigger test should have fired: their copy
    drift, as node.drift_sq computes it, exceeds c_t eta^2.

    One einsum over all rows preselects the nodes within rounding of the
    threshold; its sums may differ from the trigger test's in the last bits,
    so only drift_sq decides, and a tie the test kept silent is no violation."""
    drift = state.X - state.Hat
    limit = c_t * eta * eta
    # two sums of d non-negative terms differ by at most 2 d u of their value
    slack = 2.0 * drift.shape[1] * np.finfo(float).eps
    near = np.einsum("ij,ij->i", drift, drift) > limit * (1.0 - slack)
    near[fired] = False
    return sum(node_ops.drift_sq(state, i) > limit for i in np.flatnonzero(near))


def encode_round(
    state: node_ops.NodeState,
    fired: list[int],
    spec: CompressorSpec,
    rngs: list[np.random.Generator],
    fanout: list[int],
) -> tuple[np.ndarray, int, int]:
    """The encode phase: (Q, bits, messages) for the fired nodes, ascending.

    Q[k] is the decoded message of node fired[k], whose random compressor
    draws from rngs[fired[k]]; a node's message counts fanout[i] times
    towards bits and messages. One encode_update, decode and bit_cost call
    per fired node."""
    d = state.X.shape[1]
    Q = np.empty((len(fired), d))
    bits = messages = 0
    for k, i in enumerate(fired):
        msg = node_ops.encode_update(state, i, spec, rngs[i])
        Q[k] = decode(msg)
        bits += bit_cost(spec, d, msg) * fanout[i]
        messages += fanout[i]
    return Q, bits, messages


@_QUIET
def run(cfg: RunConfig) -> RunResult:
    W = cfg.topology
    obj = cfg.objective
    n, d = W.n, obj.d
    # the copies of one message a node's send makes: one broadcast, or one per neighbour
    fanout = [1] * n if cfg.accounting == "broadcast" else [len(nbrs) for nbrs in W.adjacency]

    _, x0_rng, node_rngs = seed_streams(cfg.seed, n)
    state = node_ops.make_state(initial_positions(x0_rng, n, d, cfg.x0_scale), cfg.variant)
    X, V = state.X, state.V

    eval_every = cfg.eval_every if cfg.eval_every else max(1, cfg.T // 200)
    decaying = cfg.lr.kind == "decaying"  # else constant: LrSchedule has no third kind

    bits_cum = 0
    messages = 0
    triggers = 0
    rows: list[MetricsRow] = []
    diag = Diagnostics()

    # weighted-average accumulator (two running sums; O(d) for any T); each
    # step adds w_t = (a + t)^2 >= 1 before any row or result reads it
    wavg_acc = np.zeros(d) if decaying else None
    wavg_sum = 0.0

    x_bar = X.mean(axis=0)  # the node average of X as it stands
    x_tilde = x_bar  # v^{-1} = 0, so xt^0 = xbar^0
    vres_since_eval = 0.0

    def metrics_row(t: int, grads: np.ndarray | None) -> MetricsRow:
        # grads: the shared-curvature product at the current X, when there is one
        if grads is None:
            loss, grad = obj_ops.loss(obj, x_bar), obj_ops.full_grad_global(obj, x_bar)
        else:
            loss, grad = obj_ops.loss_and_grad_at_mean(obj, x_bar, grads)
        dev = X - x_bar
        return MetricsRow(
            t=t,
            loss=loss,
            grad_norm_sq=float(grad @ grad),
            consensus=float(np.vdot(dev, dev)),
            bits_cum=bits_cum,
            messages=messages,
            triggers=triggers,
            virtual_residual=vres_since_eval if cfg.diagnostics and not decaying else None,
            weighted_avg_loss=obj_ops.loss(obj, wavg_acc / wavg_sum) if decaying else None,
        )

    def result(kept: list[MetricsRow]) -> RunResult:
        return RunResult(
            rows=kept,
            x_avg=wavg_acc / wavg_sum if decaying else None,
            total_bits=bits_cum,
            config=cfg,
            diagnostics=diag,
        )

    def diverged(row: MetricsRow, why: str) -> DivergenceError:
        return DivergenceError(f"{why} at t={row.t}", partial=result(rows + [row]))

    exact = obj_ops.shared_curvature_grads(obj, X)
    for t in range(cfg.T):
        eta = eta_at(cfg.lr, t)

        if decaying:
            w_t = weighted_avg_weight(cfg.lr.a, t)
            wavg_acc += w_t * x_bar
            wavg_sum += w_t

        G = obj_ops.stochastic_grads(obj, X, node_rngs, exact, cfg.grad_clip)
        node_ops.local_steps(state, G, eta, cfg.beta)
        x_bar = X.mean(axis=0)
        # a non-finite gradient entry makes its row of X non-finite too
        if not np.isfinite(X).all():
            raise diverged(metrics_row(t, None), "parameters diverged")

        if cfg.diagnostics:
            diag.max_momentum_norm = max(
                diag.max_momentum_norm, float(np.linalg.norm(V, axis=1).max())
            )

        if (t + 1) % cfg.H == 0:
            c_t = threshold_at(cfg.threshold, t, eta)
            fired = node_ops.fired(state, c_t, eta)
            if cfg.diagnostics:
                diag.trigger_violations += trigger_violations(state, fired, c_t, eta)
            Q, bits, sent = encode_round(state, fired, cfg.compressor, node_rngs, fanout)
            bits_cum += bits
            messages += sent
            triggers += len(fired)
            node_ops.apply_incoming(state, fired, Q, W.w)
            x_bar_half = x_bar
            node_ops.consensus_step(state, cfg.gamma, W.w)
            x_bar = X.mean(axis=0)
            if cfg.diagnostics:
                diag.sync_rounds += 1
                diag.max_mean_dev = max(diag.max_mean_dev, mean_preservation_check(x_bar_half, x_bar))

        # serves the next step's gradients and this step's metrics row
        exact = obj_ops.shared_curvature_grads(obj, X)

        if cfg.diagnostics and not decaying:
            defect, x_tilde = virtual_residual(x_tilde, x_bar, V.mean(axis=0), G.mean(axis=0), eta, cfg.beta)
            diag.max_virtual_residual = max(diag.max_virtual_residual, defect)
            vres_since_eval = max(vres_since_eval, defect)

        if t == 0 or t == cfg.T - 1 or (t + 1) % eval_every == 0:
            row = metrics_row(t, exact)
            vres_since_eval = 0.0
            if not np.isfinite(row.loss):
                raise diverged(row, "loss diverged")
            if row.weighted_avg_loss is not None and not np.isfinite(row.weighted_avg_loss):
                raise diverged(row, "weighted average diverged")
            rows.append(row)
    return result(rows)


# ---------------------------------------------------------------------------
# emission


def csv_line(values) -> str:
    """One CSV line: floats round-trip exactly, None is an empty cell."""
    return ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values)


def metrics_csv(result: RunResult) -> str:
    rows = (csv_line(getattr(r, name) for name in ROW_FIELDS) for r in result.rows)
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def derived_constants(cfg: RunConfig) -> dict:
    return {
        "gamma": cfg.gamma,
        "p": p_of(cfg.gamma, cfg.topology.delta),
        "delta": cfg.topology.delta,
        "lambda": cfg.topology.lambda_dev,
        "omega": omega_of(cfg.compressor, cfg.objective.d),
    }


def _json_safe(value):
    """value with every non-finite float replaced by None, so it encodes as
    strict JSON (null) instead of the NaN/Infinity tokens."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def summary_json(result: RunResult) -> str:
    """The run's summary as strict JSON; a divergent run's non-finite values are null."""
    last = result.rows[-1]
    payload = {
        "final": {name: getattr(last, name) for name in FINAL_FIELDS},
        "total_bits": result.total_bits,
        "derived": derived_constants(result.config),
        "diagnostics": asdict(result.diagnostics),
        "config": result.config.raw,
    }
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
