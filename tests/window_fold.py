"""The per-window filter that the hidden-window statistics are tested against.

Each kept window's belief is its prefix's belief stepped once by
`belief_update`, starting from the stationary law, and its erasure law is
`cond_erasure_hidden` of that belief.  The weights are the window
probabilities divided by their Python ``sum``.  The arithmetic is fixed, so
``lp_corpus.py`` builds its hidden_L case from it and the recorded corpus
pins only the solver.
"""

from __future__ import annotations

from duocast.channel import (
    Belief,
    ChannelModel,
    belief_update,
    cond_erasure_hidden,
    stationary_distribution,
    window_distribution,
)


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
