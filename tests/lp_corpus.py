"""A fixed corpus of LPs that pins the cold simplex path bit for bit.

    PYTHONPATH=src python tests/lp_corpus.py     # rewrite data/lp_cold_corpus.json

The corpus holds random boxed LPs and the membership, flow and
``per_state_split`` LPs the library builds on seeded channels.  The hidden_L
window statistics come from ``window_fold.py``, not from the library, so a
change in how the library computes them leaves the corpus's inputs alone.
Each entry records a digest of the LP itself and of ``solve(lp)``'s status,
value and witness bytes.  The recorded digests come from a solver whose cold
path is the reference; ``tests/test_lp.py`` checks that the current solver,
called without a seed, reproduces them.  Float bits depend on the LAPACK build, so
the file also records the numpy version and machine it was written on.
The random LP generators here serve ``tests/test_lp.py`` as well.
"""

from __future__ import annotations

import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np

from duocast import harness, regions
from duocast.channel import (
    ChannelModel,
    cond_erasure_visible,
    ge_hidden,
    ge_visible,
    stationary_distribution,
)
from duocast.lp import LinearProgram, LpSolution, solve
from duocast.queuenet import LINK_NAMES
from window_fold import per_window_stats

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "lp_cold_corpus.json"


def box_lp(c, rows, bounds):
    return LinearProgram(
        objective=np.asarray(c, dtype=float),
        constraints=[(np.asarray(a, dtype=float), rel, float(b)) for a, rel, b in rows],
        bounds=[(float(lo), float(hi)) for lo, hi in bounds],
    )


def random_mixed_lp(rng: np.random.Generator, infeasible: bool) -> LinearProgram:
    """A boxed LP with <=, = and >= rows, feasible unless asked otherwise."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    lo = rng.uniform(-1.0, 0.5, size=n)
    hi = lo + rng.uniform(0.2, 2.0, size=n)
    G = rng.normal(size=(m, n))
    interior = rng.uniform(lo, hi)
    rows = []
    for i in range(m):
        rel = ("<=", "=", ">=")[int(rng.integers(3))]
        slack = {"<=": 1.0, "=": 0.0, ">=": -1.0}[rel] * rng.uniform(0.0, 1.0)
        rows.append((G[i], rel, float(G[i] @ interior + slack)))
    if infeasible:
        # One row asks for more than its largest value over the box.
        a = rng.normal(size=n)
        top = float(np.sum(np.maximum(a * lo, a * hi)))
        rows.insert(int(rng.integers(m + 1)),
                    (a, ("=", ">=")[int(rng.integers(2))], top + rng.uniform(0.01, 0.5)))
    return box_lp(rng.normal(size=n), rows, list(zip(lo, hi)))


def _random_chain(rng: np.random.Generator, n: int) -> ChannelModel:
    return ChannelModel(
        rng.dirichlet(np.full(n, 2.0), size=n), rng.dirichlet(np.full(4, 2.0), size=n)
    )


class _Recorder:
    """Collects every LP a module hands to its ``solve`` while installed."""

    def __init__(self, *modules) -> None:
        self.modules = modules
        self.seen: list[LinearProgram] = []

    def _solve(self, lp):
        self.seen.append(lp)
        return solve(lp)

    def __enter__(self):
        self.saved = [module.solve for module in self.modules]
        for module in self.modules:
            module.solve = self._solve
        return self.seen

    def __exit__(self, *exc) -> None:
        for module, saved in zip(self.modules, self.saved):
            module.solve = saved


def corpus() -> dict[str, list[LinearProgram]]:
    """The corpus by group; every LP is rebuilt from fixed seeds."""
    rng = np.random.default_rng(20260)
    groups = {"random": [random_mixed_lp(rng, infeasible=i % 4 == 0) for i in range(400)]}

    models = [ge_visible(0.6, 0.1, 0.5, 0.2)] + [
        _random_chain(rng, n) for n in (2, 3, 4, 5)
    ]
    cases = []
    for model in models:
        stats = {s: cond_erasure_visible(model, s) for s in range(model.num_states)}
        cases.append(("visible", stats, stationary_distribution(model)))
    noisy = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
    cases.append(("hidden_L", *per_window_stats(noisy, 2)))
    with _Recorder(regions) as seen:
        for kind, stats, weights in cases:
            # Points from the closed-form visible region, which no LP draws.
            region = regions._knapsack_region(kind, stats, weights)
            for vertex in region.boundary:
                for scale in (0.5, 0.9, 1.1):
                    point = regions.RatePoint(scale * vertex.r1, scale * vertex.r2)
                    for member in (kind, "reactive", "uncoded"):
                        regions.region_membership(member, stats, weights, point)
    groups["membership"] = list(seen)

    with _Recorder(regions) as seen:
        for _ in range(60):
            caps = {link: float(c) for link, c in zip(LINK_NAMES, rng.uniform(0, 1, 6))}
            top = regions.flow_optimum(caps)
            for share in (0.3, 0.8, 1.0, 1.2):
                regions.flow_solve(caps, share * top)
    groups["flow"] = list(seen)

    with _Recorder(harness) as seen:
        for model in models[:3] + [_random_chain(rng, 3) for _ in range(6)]:
            for r in (0.05, 0.12, 0.2, 0.3):
                for delay in (1, 2):
                    try:
                        harness.per_state_split(model, (r, 0.8 * r), delay)
                    except RuntimeError:
                        pass  # an infeasible split LP is still a corpus entry
    groups["per_state_split"] = list(seen)
    return groups


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def lp_digest(lp: LinearProgram) -> str:
    chunks = [np.asarray(lp.objective, dtype=float).tobytes()]
    for a, rel, b in lp.constraints:
        chunks += [np.asarray(a, dtype=float).tobytes(), rel.encode(), float(b).hex().encode()]
    chunks.append(np.asarray(lp.bounds, dtype=float).tobytes())
    return _digest(*chunks)


def entry(lp: LinearProgram, sol: LpSolution) -> list[str]:
    """[LP digest, status, value as float.hex, witness digest]."""
    witness = b"" if sol.witness is None else sol.witness.tobytes()
    return [lp_digest(lp), sol.status, float(sol.value).hex(), _digest(witness)]


def environment() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def compares_bits(recorded: dict[str, str]) -> bool:
    """Whether a corpus ``recorded`` in that environment can be compared bitwise.

    Float bits are LAPACK's, so elsewhere a corpus test checks less; it then
    warns, naming both environments, so the fallback shows in the report.
    """

    here = environment()
    if recorded == here:
        return True
    warnings.warn(f"corpus recorded on {recorded}, running on {here}: "
                  "float bits are not compared", stacklevel=2)
    return False


def main() -> None:
    groups = {
        name: [entry(lp, solve(lp)) for lp in lps] for name, lps in corpus().items()
    }
    # One entry per line, so a changed digest shows as a one-line diff.
    lines = ['{"environment": ' + json.dumps(environment()) + ', "groups": {']
    for g, (name, entries) in enumerate(groups.items()):
        lines.append(json.dumps(name) + ": [")
        lines += [json.dumps(e) + ("," if i < len(entries) - 1 else "")
                  for i, e in enumerate(entries)]
        lines.append("]" + ("," if g < len(groups) - 1 else ""))
    lines.append("}}")
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {CORPUS_PATH}: { {name: len(e) for name, e in groups.items()} }")


if __name__ == "__main__":
    main()
