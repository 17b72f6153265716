"""A fixed corpus of simulation runs that pins both engines' traces bit for bit.

    PYTHONPATH=src python tests/trace_corpus.py     # rewrite data/trace_corpus.json

The corpus holds every scenario of ``TestEngineEquivalence`` on both
engines, per_state and probabilistic packets runs, and runs on both engines
long enough to cross several chunks of the slot stream.  Each entry records a
digest of each field of the run's `SimTrace`: ``record``, ``times``,
``final_queues``, ``arrivals``, ``exits`` and ``audit_passed``.  The
recorded digests come from a kernel whose traces are the reference;
``tests/test_kernel.py`` checks that the current code reproduces them.  The
belief fold and the policy tables are float computations whose bits depend
on the LAPACK build, so the file records the environment of
``lp_corpus.environment()``, and the test compares digests only there.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import lp_corpus
from duocast.channel import load_channel
from duocast.harness import Scenario, SimTrace, run
from duocast.regions import diagonal_rate, region_hidden_L

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "trace_corpus.json"

BURSTY = {
    "gilbert_elliot": {"kind": "visible", "eps1": 0.6, "g1": 0.1, "eps2": 0.5, "g2": 0.2}
}
NOISY = {
    "gilbert_elliot": {
        "kind": "hidden", "eps1": 0.6, "g1": 0.1, "eps2": 0.5, "g2": 0.2,
        "eps1_good": 0.2, "eps1_bad": 0.866, "eps2_good": 0.2, "eps2_bad": 0.8,
    }
}
ALTERNATING = {
    "states": 2,
    "transition": [[0.0, 1.0], [1.0, 0.0]],
    "emission": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]],
    "allow_periodic": True,
}
MEMORYLESS = {"states": 1, "transition": [[1.0]], "emission": [[0.35, 0.2, 0.25, 0.2]]}

FIELDS = ("record", "times", "final_queues", "arrivals", "exits", "audit_passed")


def _mw(action_set: str) -> dict:
    return {"kind": "maxweight", "action_set": action_set}


def _equivalence() -> dict[str, Scenario]:
    """The scenarios of ``TestEngineEquivalence``, counts engine."""

    cases = {}
    for name, channel, visible, delay, action_set, rates in (
        ("bursty_A5_d1", BURSTY, True, 1, "A5", (0.28, 0.30)),
        ("bursty_A5_d3", BURSTY, True, 3, "A5", (0.25, 0.28)),
        ("alternating_A3_d1", ALTERNATING, True, 1, "A3", (0.30, 0.30)),
        ("memoryless_A2_d1", MEMORYLESS, True, 1, "A2", (0.25, 0.25)),
        ("noisy_A5_d1", NOISY, False, 1, "A5", (0.20, 0.20)),
        ("noisy_A5_d2", NOISY, False, 2, "A5", (0.18, 0.18)),
        ("noisy_A3_d2", NOISY, False, 2, "A3", (0.18, 0.18)),
        ("noisy_A5_d3", NOISY, False, 3, "A5", (0.17, 0.17)),
    ):
        cases[name] = Scenario(channel=channel, rates=rates, horizon=2000, seed=99,
                               visible=visible, delay=delay, policy=_mw(action_set),
                               stride=1)
    cases["prob_bursty_d1"] = Scenario(
        channel=BURSTY, rates=(0.25, 0.25), horizon=2000, seed=7, stride=1,
        policy={"kind": "probabilistic", "target": [0.25, 0.25]})
    cases["prob_bursty_d3"] = Scenario(
        channel=BURSTY, rates=(0.2, 0.2), horizon=2000, seed=7, delay=3, stride=1,
        policy={"kind": "probabilistic", "target": [0.2, 0.2]})
    r = 0.85 * diagonal_rate(region_hidden_L(load_channel(NOISY), 2))
    cases["prob_noisy_L2"] = Scenario(
        channel=NOISY, rates=(r, r), horizon=3000, seed=13, visible=False,
        stride=1, policy={"kind": "probabilistic", "window_len": 2})
    for seed in (0, 1, 2):
        cases[f"bursty_A5_seed{seed}"] = Scenario(
            channel=BURSTY, rates=(0.31, 0.33), horizon=1500, seed=seed,
            policy=_mw("A5"), stride=1)
    return cases


def corpus() -> dict[str, dict[str, Scenario]]:
    """The corpus by group; every run is a fixed scenario."""

    equivalence = _equivalence()
    packets = {
        "per_state_d1": dict(channel=BURSTY, rates=(0.15, 0.15), seed=21, stride=7,
                             policy={"kind": "per_state"}),
        "per_state_d2": dict(channel=BURSTY, rates=(0.12, 0.14), seed=22, delay=2,
                             stride=5, policy={"kind": "per_state"}),
        "prob_bursty_d2": dict(channel=BURSTY, rates=(0.18, 0.2), seed=23, delay=2,
                               stride=7,
                               policy={"kind": "probabilistic", "target": [0.2, 0.2]}),
        "prob_noisy_L1": dict(channel=NOISY, rates=(0.15, 0.15), seed=24, visible=False,
                              stride=3, policy={"kind": "probabilistic", "window_len": 1}),
    }
    # Five chunks of the stream and a part, with records at every offset
    # into a chunk.
    chunks = {
        "bursty_A5_d2": Scenario(channel=BURSTY, rates=(0.28, 0.3), horizon=5500,
                                 seed=31, delay=2, policy=_mw("A5"), stride=7),
        "noisy_A5_d3": Scenario(channel=NOISY, rates=(0.17, 0.17), horizon=5500,
                                seed=32, visible=False, delay=3, policy=_mw("A5"),
                                stride=3),
        "prob_bursty_d3": Scenario(
            channel=BURSTY, rates=(0.2, 0.2), horizon=5500, seed=33, delay=3, stride=5,
            policy={"kind": "probabilistic", "target": [0.22, 0.22]}),
        "prob_noisy_L2": Scenario(
            channel=NOISY, rates=(0.18, 0.18), horizon=5500, seed=34, visible=False,
            stride=6, policy={"kind": "probabilistic", "window_len": 2}),
    }
    return {
        "equivalence_counts": equivalence,
        "equivalence_packets": {name: replace(s, engine="packets")
                                for name, s in equivalence.items()},
        "packets": {name: Scenario(horizon=3000, engine="packets", **args)
                    for name, args in packets.items()},
        "chunks_counts": chunks,
        "chunks_packets": {name: replace(s, engine="packets") for name, s in chunks.items()},
    }


def _digest(array: np.ndarray) -> str:
    return lp_corpus._digest(np.ascontiguousarray(array, dtype=np.int64).tobytes())


def entry(trace: SimTrace) -> dict[str, str]:
    """A digest of each trace field; ``audit_passed`` as its repr."""

    digests = {name: _digest(getattr(trace, name)) for name in FIELDS[:-1]}
    digests["audit_passed"] = repr(trace.audit_passed)
    return digests


def main() -> None:
    groups = {
        group: {name: entry(run(scenario)) for name, scenario in runs.items()}
        for group, runs in corpus().items()
    }
    # One run per line, so a changed trace shows as a one-line diff.
    lines = ['{"environment": ' + json.dumps(lp_corpus.environment()) + ', "groups": {']
    for g, (group, entries) in enumerate(groups.items()):
        lines.append(json.dumps(group) + ": {")
        lines += [json.dumps(name) + ": " + json.dumps(e)
                  + ("," if i < len(entries) - 1 else "")
                  for i, (name, e) in enumerate(entries.items())]
        lines.append("}" + ("," if g < len(groups) - 1 else ""))
    lines.append("}}")
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {CORPUS_PATH}: { {group: len(e) for group, e in groups.items()} }")


if __name__ == "__main__":
    main()
