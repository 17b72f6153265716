"""Action-selection policies for the broadcast queue network.

Two families are provided: a probabilistic policy that draws actions from a
precomputed conditional distribution and activates links by Bernoulli coins
(never looking at queue lengths), and a max-weight backpressure policy that
scores each action by its expected backlog relief and never needs the rate
targets.  Per state, the reactive policy is A3 max-weight on the observed
state's own subsystem, as the packet engine and the dispatcher run it.

The policies take plain per-slot values, as the slot stream yields them: the
observation key and the (eps1, eps2, eps12) triple max-weight weighs.  The
probabilistic policy's draw depends on the stream alone, so
`kernel.probabilistic_draws` makes it per chunk for both engines, and
`probabilistic_decide` only keeps the coins of the drawn action's links.
Each decide function returns an ``(action, intents)`` pair, the intents a
link mask in `queuenet`'s layout.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .queuenet import ACTION_LINKS, ALLOWED_LINKS, LINK_BITS

__all__ = [
    "ACTION_SETS",
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
ErasureTriple = Sequence[float]  # (eps1, eps2, eps12)
Decision = tuple[int, int]  # (action, intents as a link mask)


def action_weights(queues: QueueLengths, eps: ErasureTriple) -> list[float]:
    """Expected backlog relief of each action, indexed 0..5.

    ``eps`` is the slot's (eps1, eps2, eps12).  Each bracket
    ``(a - b if a > b else 0)`` is the positive part of ``a - b``.
    """

    (q11, q21, q31), (q12, q22, q32) = queues
    e1, e2, e12 = eps
    w1 = (1 - e1) * q11 + (e1 - e12) * (q11 - q21 if q11 > q21 else 0)
    w2 = (1 - e2) * q12 + (e2 - e12) * (q12 - q22 if q12 > q22 else 0)
    w3 = (1 - e1) * q21 + (1 - e2) * q22
    w4 = (1 - e12) * (
        (q11 - q31 if q11 > q31 else 0) + (q12 - q32 if q12 > q32 else 0)
    )
    w5 = (
        (e1 - e12) * (q31 - q21 if q31 > q21 else 0)
        + (1 - e1) * q31
        + (e2 - e12) * (q32 - q22 if q32 > q22 else 0)
        + (1 - e2) * q32
    )
    return [0.0, w1, w2, w3, w4, w5]


# Positive differential backlog per link, as (from, to) indices into one
# receiver's (q1, q2, q3); None stands for the empty q4.
_LINK_TESTS: dict[str, tuple[int, int | None]] = {
    "12": (0, 1),
    "13": (0, 2),
    "14": (0, None),
    "24": (1, None),
    "32": (2, 1),
    "34": (2, None),
}

# One (bit, receiver index, test) rule per link of each action.
_INTENT_RULES: dict[int, tuple[tuple[int, int, tuple[int, int | None]], ...]] = {
    action: tuple((LINK_BITS[j, link], j - 1, _LINK_TESTS[link]) for j, link in links)
    for action, links in ACTION_LINKS.items()
}


def link_intents(action: int, queues: QueueLengths) -> int:
    """The link mask of the action's links with a positive differential backlog."""

    intents = 0
    for bit, i, (src, dst) in _INTENT_RULES[action]:
        q = queues[i]
        if q[src] > (0 if dst is None else q[dst]):
            intents |= bit
    return intents


def maxweight_decide(net, eps: ErasureTriple, action_set: str = "A5") -> Decision:
    """Pick the action with the largest Table-style weight; idle on all zero."""

    queues = net.queue_lengths() if hasattr(net, "queue_lengths") else net
    weights = action_weights(queues, eps)
    action = 0
    best = 0.0
    for a in ACTION_SETS[action_set]:
        if weights[a] > best:
            best = weights[a]
            action = a
    return action, link_intents(action, queues)


def probabilistic_decide(action: int, coins: int) -> Decision:
    """The slot's drawn action and its coin mask ANDed with the action's links.

    `kernel.probabilistic_draws` draws both per chunk from the slot stream;
    queue lengths are never consulted.
    """

    return action, coins & ALLOWED_LINKS[action]


def per_state_memoryless_decide(subsystems: Mapping, key: Hashable,
                                eps: ErasureTriple) -> Decision:
    """Dispatch to the reactive sub-policy of state ``key``, whose triple is ``eps``."""

    return maxweight_decide(subsystems[key], eps, "A3")
