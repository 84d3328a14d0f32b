"""Node state of the whole graph as (n, d) arrays, and its transitions.

Row i of each array belongs to node i:

  X    parameters x_i
  V    momentum buffers v_i
  Hat  public copies hat_x_i, the stale, compressed view of x_i
  S    memory-efficient variant only: the weighted copy sums
       s_i = sum_{j in N_i + {i}} w_ij hat_x_j, accumulated as messages arrive

Every neighbor of node j applies the same decoded updates to its copy of j
in the same order as j does to its own, so all those copies are bitwise
equal to Hat[j]; one row per node holds them all. The gossip correction
comes in two variants that produce the same trajectories:

  full_copy      x_i += gamma sum_j w_ij (hat_x_j - hat_x_i), for all nodes
                 at once as X += gamma (W Hat - Hat)
  mem_efficient  x_i += gamma (s_i - hat_x_i)

since each weight row sums to one, s_i - hat_x_i = sum_j w_ij (hat_x_j - hat_x_i).

A step runs as whole-graph phases: local_steps moves every node, fired
tests every node's trigger, and at a synchronization round apply_incoming
delivers the round's messages and consensus_step applies the gossip
correction. The first two still make one call per node, in node order, to
local_step and should_trigger, each acting on its own row: those per-node
calls, like encode_update's per fired node, are what the benchmark counts
today.

The local step uses the updated momentum buffer (v <- beta v + g, then
x <- x - eta (beta v + g)); some momentum conventions use the stale buffer
instead, so this is worth stating. Triggering is strict (>), so a zero
threshold still suppresses exact-zero differences. The copy drift is
diff @ diff; engine.trigger_violations takes every node's at once as the
rows of a stacked product, which are bitwise that dot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compress import CompressedMessage, CompressorSpec, compress
from .errors import Key, checked

VARIANT = Key(str, "full_copy", ("full_copy", "mem_efficient"))  # make_state's variant, which config.KEYS gives variant


@dataclass
class NodeState:
    X: np.ndarray
    V: np.ndarray
    Hat: np.ndarray
    S: np.ndarray | None = None  # mem_efficient variant


def make_state(x0: np.ndarray, variant: str) -> NodeState:
    """Fresh state with X = x0 (one row per node) and all communication state zeroed."""
    X = np.array(x0, dtype=float, copy=True)
    S = np.zeros_like(X) if checked("variant", variant, VARIANT) == "mem_efficient" else None
    return NodeState(X=X, V=np.zeros_like(X), Hat=np.zeros_like(X), S=S)


def local_step(state: NodeState, i: int, g: np.ndarray, eta: float, beta: float) -> None:
    """Momentum SGD step of node i, in place: v <- beta v + g; x <- x - eta (beta v_new + g)."""
    v = state.V[i]
    v *= beta
    v += g
    state.X[i] -= eta * (beta * v + g)


def local_steps(state: NodeState, G: np.ndarray, eta: float, beta: float) -> None:
    """The local phase: every node's momentum step with its gradient row G[i]."""
    for i in range(len(G)):
        local_step(state, i, G[i], eta, beta)


def should_trigger(state: NodeState, i: int, c_t: float, eta: float) -> bool:
    """True iff node i's copy drift ||x_i - hat_x_i||^2 strictly exceeds
    c_t eta^2; no finite drift exceeds the never threshold's c_t = inf."""
    diff = state.X[i] - state.Hat[i]
    return float(diff @ diff) > c_t * eta * eta


def fired(state: NodeState, c_t: float, eta: float) -> list[int]:
    """The trigger phase: the nodes whose should_trigger holds, ascending."""
    return [i for i in range(len(state.X)) if should_trigger(state, i, c_t, eta)]


def encode_update(
    state: NodeState, i: int, spec: CompressorSpec, rng: np.random.Generator
) -> CompressedMessage:
    """Compress the change in node i's public copy; state is untouched
    (the copy itself advances when the message is applied)."""
    return compress(spec, state.X[i] - state.Hat[i], rng)


def apply_incoming(state: NodeState, fired: list[int], Q: np.ndarray, w: np.ndarray) -> None:
    """Deliver the decoded payload Q[k] of each sender fired[k] (ascending) to
    every holder of that sender's copy.

    Each memory-efficient sum s_i adds its terms one at a time in ascending
    sender order, whatever the graph: the nonzero weights w_ij of the fired
    senders are ranked within their receiver, and rank r adds every
    receiver's r-th term at once (rank count = the largest number of fired
    senders any node holds a copy of).
    """
    state.Hat[fired] += Q
    if state.S is not None:
        sub = w[:, fired]
        rr, kk = np.nonzero(sub)  # receiver-major, senders ascending within a receiver
        rank = np.arange(len(rr)) - np.searchsorted(rr, rr)
        for r in range(int(rank.max(initial=-1)) + 1):
            at = rank == r
            ri, ki = rr[at], kk[at]
            state.S[ri] += sub[ri, ki][:, None] * Q[ki]


def consensus_step(state: NodeState, gamma: float, w: np.ndarray) -> None:
    """Gossip correction of every node: x_i += gamma sum_j w_ij (hat_x_j - hat_x_i)."""
    if state.S is None:
        state.X += gamma * (w @ state.Hat - state.Hat)
    else:
        state.X += gamma * (state.S - state.Hat)
