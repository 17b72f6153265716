"""The three workloads: inputs made from a seed, one job at a time, checks.

Each workload builds one *pass*: a fixed list of job kinds whose inputs
(rate points, random channels, simulation seeds) come from the seed.  The
benchmark repeats whole passes, so every run sees the same mix of kinds.

- frontier: counts-engine stability runs on both sides of the region each
  policy reaches.  All three kernel paths run: visible table lookup (max-
  weight A5/A3/A2), hidden belief fold (max-weight A5 on the noisy channel)
  and the probabilistic table (visible, and hidden with window_len 2).
- regions: region tracing, the path of `duocast region`: load the channel
  document, condition the erasure statistics, trace the boundary.  The lp
  layer carries it; the kernel is idle.
- packets: packet-engine runs with the decodability audit, on random 1-4
  state channels (visible and hidden, delay 1-2, A2/A3/A5) and on the
  bursty channel (probabilistic and per_state).  apply_slot and the decide
  functions carry it; the kernel is idle.

Jobs call the library through module attributes (``harness.run``,
``regions.region_visible``...) so that the traced run sees them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from duocast import channel, harness, regions

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())

BURSTY = {
    "gilbert_elliot": {"kind": "visible", "eps1": 0.6, "g1": 0.1, "eps2": 0.5, "g2": 0.2}
}
NOISY = {
    "gilbert_elliot": {
        "kind": "hidden", "eps1": 0.6, "g1": 0.1, "eps2": 0.5, "g2": 0.2,
        "eps1_good": 0.2, "eps1_bad": 0.866, "eps2_good": 0.2, "eps2_bad": 0.8,
    }
}

# The `duocast region` default sweep.
DIRECTIONS = 129

# Counts-engine horizons.  The hidden belief fold runs about 2.5x slower per
# slot than the visible table lookup, so hidden runs are shorter; every
# frontier job then takes about the same time, and the job-time percentiles
# do not sit between two groups of job kinds.
HORIZON = 65_536
HIDDEN_HORIZON = 32_768

# Rate-point scales for the verdict checks.  Inside points sit at or below
# 0.6 of the region the policy reaches, outside points at 1.1 or more of an
# outer region.  Closer to the boundary a run this short can call either
# way: an A5 point inside 0.7 ended with 46 packets after 65536 slots, and
# the verdict's limit is 65.  Under A2 the overheard queue is never served
# and tracks the running maximum of the fresh queue, so A2 ends with a few
# dozen packets at any load; its inside points sit lower still.
INSIDE = (0.4, 0.6)
INSIDE_A2 = (0.25, 0.4)
OUTSIDE = (1.1, 1.3)
# Probabilistic policies get a target at 0.95 of the boundary and rates well
# below it.  They ignore queue lengths, so at loads near the target their
# backlog has a long tail (105 packets after 131072 slots at load 0.62); at
# these loads it stayed under 20.
TARGET_SCALE = 0.95
LOAD = (0.3, 0.45)
# Directions of the rate points, away from the axes.
ANGLES = (math.radians(20), math.radians(70))

PACKET_HORIZON = 5_000
PACKET_RATES = (0.1, 0.3)


@dataclass
class Job:
    kind: str
    args: dict
    expect: dict = field(default_factory=dict)
    # Counts-engine replay of a packets job, made once for all passes.
    replay: object = None


def ray_point(boundary, theta: float) -> tuple[float, float]:
    """Where the ray at angle ``theta`` from the origin leaves the region."""

    d1, d2 = math.cos(theta), math.sin(theta)
    for (a1, a2), (b1, b2) in zip(boundary, boundary[1:]):
        e1, e2 = b1 - a1, b2 - a2
        det = e1 * d2 - e2 * d1
        if abs(det) < 1e-15:
            continue
        t = (e1 * a2 - e2 * a1) / det
        u = (d1 * a2 - d2 * a1) / det
        if -1e-12 <= u <= 1 + 1e-12 and t > 0:
            return t * d1, t * d2
    raise ValueError(f"ray at {theta} misses the boundary")


def _random_chain(rng: np.random.Generator, n: int) -> dict:
    """A channel document like the randomized acceptance runs use."""

    return {
        "states": n,
        "transition": rng.dirichlet(np.ones(n) * 2.0, size=n).tolist(),
        "emission": rng.dirichlet(np.ones(4) * 2.0, size=n).tolist(),
    }


# -- frontier ------------------------------------------------------------------


def frontier_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    b = REFERENCES["boundaries"]

    def point(region: str, scale: tuple[float, float]) -> tuple[float, float]:
        r1, r2 = ray_point(b[region], rng.uniform(*ANGLES))
        s = rng.uniform(*scale)
        return s * r1, s * r2

    def maxweight(doc, visible, action_set, region, scale, stable):
        return Job(
            "counts",
            {
                "channel": doc,
                "rates": point(region, scale),
                "horizon": HORIZON if visible else HIDDEN_HORIZON,
                "seed": int(rng.integers(1 << 31)),
                "visible": visible,
                "policy": {"kind": "maxweight", "action_set": action_set},
            },
            {"stable": stable},
        )

    def probabilistic(doc, visible, region, policy):
        target = point(region, (TARGET_SCALE, TARGET_SCALE))
        load = rng.uniform(*LOAD)
        return Job(
            "counts",
            {
                "channel": doc,
                "rates": (load * target[0], load * target[1]),
                "horizon": HORIZON,
                "seed": int(rng.integers(1 << 31)),
                "visible": visible,
                "policy": dict(policy, target=list(target)),
            },
            {"stable": True},
        )

    return [
        maxweight(BURSTY, True, "A5", "bursty.visible", INSIDE, True),
        maxweight(BURSTY, True, "A3", "bursty.reactive", INSIDE, True),
        maxweight(BURSTY, True, "A2", "bursty.uncoded", INSIDE_A2, True),
        maxweight(NOISY, False, "A5", "noisy.hidden_L3", INSIDE, True),
        probabilistic(BURSTY, True, "bursty.visible", {"kind": "probabilistic"}),
        maxweight(BURSTY, True, "A5", "bursty.visible", OUTSIDE, False),
        maxweight(BURSTY, True, "A3", "bursty.reactive", OUTSIDE, False),
        maxweight(BURSTY, True, "A2", "bursty.uncoded", OUTSIDE, False),
        maxweight(NOISY, False, "A5", "noisy.visible", OUTSIDE, False),
        probabilistic(
            NOISY, False, "noisy.hidden_L2", {"kind": "probabilistic", "window_len": 2}
        ),
    ]


def run_counts_job(job: Job):
    trace = harness.run(harness.Scenario(**job.args))
    verdict = harness.stability_verdict(trace, min_horizon=HIDDEN_HORIZON)
    return trace, verdict


def check_frontier(job: Job, output) -> bool:
    _, verdict = output
    return verdict.stable == job.expect["stable"]


# -- regions -------------------------------------------------------------------

SWEEP_KINDS = ("visible", "reactive", "uncoded", "minkowski")


def regions_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    channels = [("bursty", BURSTY)] + [
        (f"chain{i}", _random_chain(rng, n)) for i, n in enumerate((2, 3, 4, 4))
    ]
    jobs = [
        Job("sweep", {"name": name, "doc": doc, "kind": kind})
        for name, doc in channels
        for kind in SWEEP_KINDS
    ]
    jobs += [
        Job("hidden", {"name": "noisy", "doc": NOISY, "kind": f"hidden_L{L}", "L": L})
        for L in (1, 2, 3)
    ]
    return jobs


def run_region_job(job: Job, directions: int = DIRECTIONS):
    model = channel.load_channel(job.args["doc"])
    if job.kind == "hidden":
        return regions.region_hidden_L(model, job.args["L"], directions=directions)
    pi = channel.stationary_distribution(model)
    stats = {s: channel.cond_erasure_visible(model, s) for s in range(model.num_states)}
    tracer = getattr(regions, f"region_{job.args['kind']}")
    return tracer(stats, pi, directions=directions)


def warm_regions(jobs: list[Job]) -> None:
    """Trace each region kind once, coarsely."""

    for job in jobs:
        if job.args["name"] == "bursty" or job.args.get("L") == 1:
            run_region_job(job, directions=5)


def _inside(inner, outer, tol: float = 1e-9) -> bool:
    return all(outer.contains(p, tol=tol) for p in inner.boundary)


# Each pair reads: the first region lies inside the second.
INCLUSIONS = (
    ("uncoded", "reactive"),
    ("reactive", "visible"),
    ("minkowski", "reactive"),
    ("hidden_L1", "hidden_L2"),
    ("hidden_L2", "hidden_L3"),
)


def check_regions(results) -> list[bool]:
    """Reference diagonals of the fixed channels, and the inclusion chains."""

    ok = []
    by_key = {}
    for job, region in results:
        key = (job.args["name"], job.args["kind"])
        by_key[key] = region
        reference = REFERENCES["diagonals"].get(f"{key[0]}.{key[1]}")
        good = region is not None
        if good and reference is not None:
            good = abs(regions.diagonal_rate(region) - reference) <= 1e-9
        ok.append(good)
    for i, (job, _) in enumerate(results):
        name, kind = job.args["name"], job.args["kind"]
        for inner, outer in INCLUSIONS:
            if kind not in (inner, outer):
                continue
            a, b = by_key.get((name, inner)), by_key.get((name, outer))
            if a is not None and b is not None and not _inside(a, b):
                ok[i] = False
    return ok


# -- packets -------------------------------------------------------------------


def packets_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)

    def job(doc, rates, replay, **args):
        return Job(
            "packets",
            {
                "channel": doc,
                "rates": rates,
                "horizon": PACKET_HORIZON,
                "seed": int(rng.integers(1 << 31)),
                "engine": "packets",
                **args,
            },
            {"replay": replay},
        )

    # Every (states, visibility, action set) cell once per pass, so the cost
    # of a pass depends little on which random channels the seed draws.
    jobs = []
    for n in (1, 2, 3, 4):
        for visible in (True, False):
            for action_set in ("A2", "A3", "A5"):
                jobs.append(job(
                    _random_chain(rng, n),
                    tuple(float(r) for r in rng.uniform(*PACKET_RATES, size=2)),
                    True,
                    visible=visible,
                    delay=1 + len(jobs) % 2,
                    policy={"kind": "maxweight", "action_set": action_set},
                ))
    b = REFERENCES["boundaries"]
    for _ in range(2):
        r1, r2 = ray_point(b["bursty.visible"], rng.uniform(*ANGLES))
        target = (TARGET_SCALE * r1, TARGET_SCALE * r2)
        load = rng.uniform(*LOAD)
        jobs.append(job(
            BURSTY, (load * target[0], load * target[1]), True,
            policy={"kind": "probabilistic", "target": list(target)},
        ))
        # per_state splits arrivals over per-state reactive subsystems, so
        # its rates come from the Minkowski sum of the per-state regions.
        r1, r2 = ray_point(b["bursty.minkowski"], rng.uniform(*ANGLES))
        load = rng.uniform(*LOAD)
        jobs.append(job(
            BURSTY, (load * r1, load * r2), False, policy={"kind": "per_state"},
        ))
    return jobs


def run_packets_job(job: Job):
    return harness.run(harness.Scenario(**job.args))


def check_packets(job: Job, trace) -> bool:
    """The audit passed, and the counts engine recorded the same run."""

    if trace.audit_passed is not True:
        return False
    if not job.expect["replay"]:
        return True
    if job.replay is None:
        job.replay = harness.run(replace(harness.Scenario(**job.args), engine="counts"))
    counts = job.replay
    return (
        np.array_equal(counts.record, trace.record)
        and np.array_equal(counts.times, trace.times)
        and np.array_equal(counts.final_queues, trace.final_queues)
    )


# -- warm-up and table ------------------------------------------------------------

WARM_SLOTS = 512


def warm_engine(jobs: list[Job]) -> None:
    """Run one short job per engine path: visibility and policy kind."""

    seen = set()
    for job in jobs:
        path = (job.args.get("visible", True), job.args["policy"]["kind"])
        if path not in seen:
            seen.add(path)
            harness.run(harness.Scenario(**dict(job.args, horizon=WARM_SLOTS)))


@dataclass(frozen=True)
class Workload:
    make_jobs: object  # seed -> list[Job]
    run_job: object  # Job -> output
    check: object  # list[(Job, output or None)] -> list[bool], one pass
    warm: object  # list[Job] -> None, runs each code path once on small inputs
    work: object  # Job -> units of work the job does
    work_unit: str


def _per_job(check):
    return lambda results: [
        out is not None and check(job, out) for job, out in results
    ]


WORKLOADS = {
    "frontier": Workload(
        frontier_jobs, run_counts_job, _per_job(check_frontier),
        warm_engine, lambda job: job.args["horizon"], "slots",
    ),
    "regions": Workload(
        regions_jobs, run_region_job, check_regions,
        warm_regions, lambda job: 1, "regions",
    ),
    "packets": Workload(
        packets_jobs, run_packets_job, _per_job(check_packets),
        warm_engine, lambda job: job.args["horizon"], "slots",
    ),
}
