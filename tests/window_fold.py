"""The per-window filter that the hidden-window statistics are tested against.

Each kept window's belief is its prefix's belief stepped once by
`belief_update`, starting from the stationary law, and its erasure law is
`cond_erasure_hidden` of that belief.  The weights are the window
probabilities divided by their Python ``sum``.  The arithmetic is fixed, so
``lp_corpus.py`` builds its hidden_L case from it and the recorded corpus
pins only the solver.

`filter_bank_gap` is the oracle for the window gaps that
`forgetting_check` and `prediction_gap` measure along a `slot_stream` trace.
"""

from __future__ import annotations

import numpy as np

from duocast.channel import (
    Belief,
    ChannelModel,
    belief_update,
    cond_erasure_hidden,
    stationary_distribution,
    window_distribution,
)
from duocast.kernel import slot_stream


def per_window_stats(model: ChannelModel, window_len: int) -> tuple[dict, dict]:
    """Per-window erasure stats and window probabilities, zero-mass dropped."""

    dist = window_distribution(model, window_len)
    beliefs = {(): Belief(probs=stationary_distribution(model))}

    def belief(window: tuple) -> Belief:
        if window not in beliefs:
            beliefs[window] = belief_update(model, belief(window[:-1]), window[-1])
        return beliefs[window]

    stats = {}
    weights = {}
    for window, p in dist.items():
        if p <= 0.0:
            continue
        stats[window] = cond_erasure_hidden(model, belief(window))
        weights[window] = p
    total = sum(weights.values())
    return stats, {k: v / total for k, v in weights.items()}


def stream_outcomes(model: ChannelModel, horizon: int, seed: int) -> list[int]:
    """Each slot's outcome index 2*z1 + z2 along a `slot_stream` trace."""

    stream = slot_stream(model, seed=seed, horizon=horizon, visible=False, delay=1)
    return [zi for _, _, zis, _, _ in stream for zi in zis.tolist()]


def filter_bank_gap(model: ChannelModel, L: int, pairs: list[int],
                    project: np.ndarray | None) -> float:
    """The window gap from a bank of beliefs stepped together over ``pairs``.

    Row 0 is the full-history belief; row k >= 1 was restarted from the
    stationary law k - 1 slots ago, so after each shift row L holds the
    L-window belief.  The gap is half the L1 norm of the difference of rows
    0 and L, projected by ``project`` when given.
    """

    pi = stationary_distribution(model)
    bank = np.tile(pi, (L + 1, 1))
    worst = 0.0
    for zi in pairs:
        bank *= model.emission[:, zi]
        bank /= bank.sum(axis=1, keepdims=True)
        bank = bank @ model.transition
        diff = bank[0] - bank[-1]
        if project is not None:
            diff = diff @ project
        worst = max(worst, 0.5 * float(np.abs(diff).sum()))
        bank[1:] = bank[:-1].copy()
        bank[1] = pi
    return worst
