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

Max-weight's weights are written once, as the expressions of `WEIGHTS`
over the queues and `weight_factors`, and its intents are the backpressure
test on each link's `queuenet.LINK_ENDS`.  `action_weights` evaluates the
table per packet slot, and `kernel` compiles the same expressions and link
tables into the counts loop.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .queuenet import ACTION_LINKS, ALLOWED_LINKS, LINK_BITS, LINK_ENDS

__all__ = [
    "ACTION_SETS",
    "WEIGHTS",
    "action_weights",
    "link_intents",
    "maxweight_decide",
    "probabilistic_decide",
    "per_state_memoryless_decide",
    "weight_factors",
]

ACTION_SETS: dict[str, tuple[int, ...]] = {
    "A2": (0, 1, 2),
    "A3": (0, 1, 2, 3),
    "A5": (0, 1, 2, 3, 4, 5),
}

QueueLengths = tuple[tuple[int, int, int], tuple[int, int, int]]
ErasureTriple = Sequence[float]  # (eps1, eps2, eps12)
Decision = tuple[int, int]  # (action, intents as a link mask)


# Each max-weight action's weight: its expected backlog relief, one
# expression over receiver 1's queues a1, a2, a3, receiver 2's b1, b2, b3
# and the slot's `weight_factors` c1, g1, c2, g2, c12.  Each bracket
# ``(a - b if a > b else 0)`` is the positive part of ``a - b``.
WEIGHTS: dict[int, str] = {
    1: "c1 * a1 + g1 * (a1 - a2 if a1 > a2 else 0)",
    2: "c2 * b1 + g2 * (b1 - b2 if b1 > b2 else 0)",
    3: "c1 * a2 + c2 * b2",
    4: "c12 * ((a1 - a3 if a1 > a3 else 0) + (b1 - b3 if b1 > b3 else 0))",
    5: "g1 * (a3 - a2 if a3 > a2 else 0) + c1 * a3 + g2 * (b3 - b2 if b3 > b2 else 0)"
       " + c2 * b3",
}


def weight_factors(eps1, eps2, eps12):
    """The weights' factors c1, g1, c2, g2, c12 of (eps1, eps2, eps12).

    They are 1 - eps1, eps1 - eps12, 1 - eps2, eps2 - eps12 and 1 - eps12,
    of floats or, elementwise and with the same bits, of numpy columns.
    """

    return 1 - eps1, eps1 - eps12, 1 - eps2, eps2 - eps12, 1 - eps12


_weigh = eval(compile(
    "lambda a1, a2, a3, b1, b2, b3, c1, g1, c2, g2, c12: [0.0, "
    + ", ".join(WEIGHTS.values()) + "]", "<max-weight weights>", "eval"))


def action_weights(queues: QueueLengths, eps: ErasureTriple) -> list[float]:
    """Each action's `WEIGHTS` entry at ``queues`` and the slot's ``eps``, indexed 0..5."""

    return _weigh(*queues[0], *queues[1], *weight_factors(*eps))


# One (bit, receiver index, ends) rule per link of each action.
_INTENT_RULES: dict[int, tuple[tuple[int, int, tuple[int, int | None]], ...]] = {
    action: tuple((LINK_BITS[j, link], j - 1, LINK_ENDS[link]) for j, link in links)
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
