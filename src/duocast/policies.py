"""Action-selection policies for the broadcast queue network.

Two families are provided: a probabilistic policy that draws actions from a
precomputed conditional distribution and activates links by Bernoulli coins
(never looking at queue lengths), and a max-weight backpressure policy that
scores each action by its expected backlog relief and never needs the rate
targets.  A per-state dispatcher combines independent reactive sub-policies,
one per observable channel state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .channel import ErasureStats
from .queuenet import ACTION_LINKS, LINK_NAMES

__all__ = [
    "ACTION_SETS",
    "Observation",
    "PolicyDecision",
    "action_weights",
    "link_intents",
    "maxweight_decide",
    "probabilistic_decide",
    "per_state_memoryless_decide",
]

ACTION_SETS: dict[str, tuple[int, ...]] = {
    "A2": (0, 1, 2),
    "A3": (0, 1, 2, 3),
    "A5": (0, 1, 2, 3, 4, 5),
}

QueueLengths = tuple[tuple[int, int, int], tuple[int, int, int]]


@dataclass(frozen=True)
class Observation:
    """What the transmitter can see when it decides.

    ``key`` indexes the action distribution: the (possibly delayed) channel
    state for a visible model, the recent feedback window for a hidden one,
    or None when decisions are unconditional.
    """

    key: Hashable | None = None


@dataclass(frozen=True)
class PolicyDecision:
    action: int
    intents: dict[tuple[int, str], int]

    def __post_init__(self) -> None:
        allowed = set(ACTION_LINKS[self.action])
        for key, value in self.intents.items():
            if value and key not in allowed:
                raise ValueError(f"intent {key} invalid under action {self.action}")


def _queue_lengths(net) -> QueueLengths:
    if hasattr(net, "queue_lengths"):
        return net.queue_lengths()
    return net


def action_weights(queues: QueueLengths, stats: ErasureStats) -> list[float]:
    """Expected backlog relief of each action, indexed 0..5."""

    (q11, q21, q31), (q12, q22, q32) = queues
    e1, e2, e12 = stats.eps1, stats.eps2, stats.eps12
    pos = lambda v: v if v > 0 else 0
    w1 = (1 - e1) * q11 + (e1 - e12) * pos(q11 - q21)
    w2 = (1 - e2) * q12 + (e2 - e12) * pos(q12 - q22)
    w3 = (1 - e1) * q21 + (1 - e2) * q22
    w4 = (1 - e12) * (pos(q11 - q31) + pos(q12 - q32))
    w5 = (
        (e1 - e12) * pos(q31 - q21)
        + (1 - e1) * q31
        + (e2 - e12) * pos(q32 - q22)
        + (1 - e2) * q32
    )
    return [0.0, w1, w2, w3, w4, w5]


def link_intents(action: int, queues: QueueLengths) -> dict[tuple[int, str], int]:
    """Positive-differential-backlog activations for the action's links."""

    rules = {
        "12": lambda q: q[0] > q[1],
        "13": lambda q: q[0] > q[2],
        "14": lambda q: q[0] > 0,
        "24": lambda q: q[1] > 0,
        "32": lambda q: q[2] > q[1],
        "34": lambda q: q[2] > 0,
    }
    return {
        (j, link): int(rules[link](queues[j - 1]))
        for j, link in ACTION_LINKS[action]
    }


def maxweight_decide(net, stats: ErasureStats, action_set: str = "A5") -> PolicyDecision:
    """Pick the action with the largest Table-style weight; idle on all zero."""

    queues = _queue_lengths(net)
    weights = action_weights(queues, stats)
    action = 0
    best = 0.0
    for a in ACTION_SETS[action_set]:
        if weights[a] > best:
            best = weights[a]
            action = a
    return PolicyDecision(action, link_intents(action, queues))


def probabilistic_decide(dist, ratios: Mapping[int, Mapping[str, float]],
                         obs: Observation, rng) -> PolicyDecision:
    """Draw an action from dist(.|obs.key) and link activations from ratios.

    Queue lengths are never consulted.  The draw order is fixed (one action
    coin, then twelve link coins) so that a run consumes randomness the same
    way regardless of which action comes up.
    """

    probs = dist.probs if hasattr(dist, "probs") else dist
    try:
        row = probs[obs.key]
    except KeyError:
        raise ValueError(f"no action distribution for observation {obs.key!r}")
    u = rng.random()
    action = 5
    acc = 0.0
    for a, p in enumerate(row):
        acc += p
        if u < acc:
            action = a
            break
    coins = {}
    for j in (1, 2):
        for link in LINK_NAMES:
            ratio = ratios.get(j, {}).get(link, 0.0)
            coins[(j, link)] = int(rng.random() < ratio)
    intents = {key: coins[key] for key in ACTION_LINKS[action]}
    return PolicyDecision(action, intents)


def per_state_memoryless_decide(subsystems: Mapping, stats_by_state: Mapping,
                                obs: Observation) -> PolicyDecision:
    """Dispatch to the reactive sub-policy owning the observed state."""

    return maxweight_decide(subsystems[obs.key], stats_by_state[obs.key], "A3")
