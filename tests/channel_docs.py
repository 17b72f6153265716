"""The channel documents the tests share, one definition each.

Each function returns a fresh `load_channel` document, so a test may edit its
copy without touching another test's.
"""

from __future__ import annotations

from duocast.channel import ChannelModel, load_channel


def bursty() -> dict:
    """The bursty Gilbert-Elliott channel with a visible state."""

    return {
        "gilbert_elliot": {"kind": "visible", "eps1": 0.6, "g1": 0.1, "eps2": 0.5,
                           "g2": 0.2}
    }


def noisy() -> dict:
    """The same chain with a hidden state: every state emits every outcome."""

    return {
        "gilbert_elliot": {
            "kind": "hidden", "eps1": 0.6, "g1": 0.1, "eps2": 0.5, "g2": 0.2,
            "eps1_good": 0.2, "eps1_bad": 0.866, "eps2_good": 0.2, "eps2_bad": 0.8,
        }
    }


def alternating() -> dict:
    """Two-state periodic chain: a clean slot always follows a half-lossy one."""

    return {
        "states": 2,
        "transition": [[0.0, 1.0], [1.0, 0.0]],
        "emission": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]],
        "allow_periodic": True,
    }


def alternating_model() -> ChannelModel:
    return load_channel(alternating())


def memoryless_chain() -> dict:
    """One state whose four outcomes all have positive probability."""

    return {"states": 1, "transition": [[1.0]], "emission": [[0.35, 0.2, 0.25, 0.2]]}
