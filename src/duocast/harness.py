"""Scenario-driven simulation: engines, stability diagnostics, sweeps.

A Scenario bundles a channel, arrival rates, a policy choice, and run
parameters.  Two engines execute it: a fast counts engine
(`kernel.run_counts`) that tracks queue lengths only, and the reference
packets engine `run_packets` (`queuenet` + `policies`), which moves
identified packets and runs the decodability audit.  Both take the same
keyword arguments, checked by `kernel.check_run`, and read the slot stream
it opens; each engine only decides and moves, so a scenario produces the
identical trace under either engine; what reads only the stream is done
once, in `kernel`.  `run` turns the scenario's policy into those arguments
once (the action set, the probabilistic tables or the per_state arrival
shares) and makes one engine call.  Both return a `kernel.SimTrace`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import kernel
# cond_erasure_visible and per_state_memoryless_decide are imported for
# perfbench/layers.py, which wraps them in this module's namespace to count
# their calls.
from .channel import (  # noqa: F401
    OUTCOMES,
    ChannelModel,
    check_window_len,
    cond_erasure_visible,
    load_channel,
    stationary_distribution,
    visible_stats,
    window_keys,
)
from .kernel import SimTrace
from .lp import LinearProgram, solve
from .policies import (  # noqa: F401
    ACTION_SETS,
    maxweight_decide,
    per_state_memoryless_decide,
    probabilistic_decide,
)
from .queuenet import LINK_NAMES, QueueNetwork, apply_slot, audit_decodability
from .regions import (
    RatePoint,
    hidden_window_stats,
    region_membership,
    region_memoryless_fb,
    synthesize_policy,
)

__all__ = [
    "Scenario",
    "SimTrace",
    "StabilityVerdict",
    "SplitAllocation",
    "run",
    "run_packets",
    "stability_verdict",
    "throughput_check",
    "sweep",
    "sweep_to_csv",
    "per_state_split",
]

# Each policy kind and the keys it reads besides "kind"; window_len only on
# a hidden model.
_POLICY_KEYS = {
    "maxweight": {"action_set"},
    "probabilistic": {"target", "window_len"},
    "per_state": set(),
}
_ENGINES = ("counts", "packets")
_MOVE_FIELDS = ("packet", "receiver", "from", "to")


def _default_policy() -> dict:
    return {"kind": "maxweight", "action_set": "A5"}


@dataclass
class Scenario:
    """One reproducible simulation setup.

    ``channel`` is a `load_channel` document.  ``policy`` is one of
    {"kind": "maxweight", "action_set": "A2"|"A3"|"A5"},
    {"kind": "probabilistic", "target": [r1, r2], "window_len": L} (L with
    hidden state only), or {"kind": "per_state"} (visible state only).  A
    policy key its kind never reads is rejected.  Every policy sees the
    feedback (and on a visible model the state) ``delay`` slots late, and
    the probabilistic tables and per-state split are made for that delay.
    ``movement_log`` is a JSONL file of each slot's moves, which only the
    packets engine writes.
    """

    channel: dict
    rates: tuple[float, float]
    horizon: int
    seed: int = 0
    visible: bool = True
    delay: int = 1
    policy: dict = field(default_factory=_default_policy)
    stride: int | None = None
    engine: str = "counts"
    movement_log: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        self.rates = kernel.rate_pair("rates", self.rates)
        self.seed = kernel.nonnegative_int("seed", self.seed)
        self.visible = kernel.flag("visible", self.visible)
        self.horizon = kernel.positive_int("horizon", self.horizon)
        self.delay = kernel.positive_int("delay", self.delay)
        if self.stride is not None:
            self.stride = kernel.positive_int("stride", self.stride)
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.movement_log is not None and not isinstance(
                self.movement_log, (str, os.PathLike)):
            raise ValueError(f"movement_log must be a file path, got "
                             f"{self.movement_log!r}")
        if self.movement_log is not None and self.engine != "packets":
            raise ValueError("movement_log is written only by the packets engine, "
                             f"got engine {self.engine!r}")
        if not isinstance(self.policy, dict):
            raise ValueError(f"policy must be an object with a kind, got {self.policy!r}")
        kind = self.policy.get("kind")
        if kind not in _POLICY_KEYS:
            raise ValueError(f"unknown policy kind {kind!r}")
        reads = _POLICY_KEYS[kind] - ({"window_len"} if self.visible else set())
        unread = self.policy.keys() - reads - {"kind"}
        if unread:
            key = min(unread, key=str)
            where = " on a visible model" if key in _POLICY_KEYS[kind] else ""
            raise ValueError(f"policy.{key} is not read by a {kind} policy{where}")
        if kind == "maxweight":
            action_set = self.policy.get("action_set", "A5")
            if not isinstance(action_set, str) or action_set not in ACTION_SETS:
                raise ValueError(f"policy.action_set must be A2, A3, or A5, "
                                 f"got {action_set!r}")
        elif kind == "probabilistic":
            if "target" in self.policy:
                kernel.rate_pair("policy.target", self.policy["target"])
            try:
                check_window_len(self.policy.get("window_len", 1))
            except ValueError as err:
                raise ValueError(f"policy.{err}") from None
        elif kind == "per_state" and not self.visible:
            raise ValueError("per_state policy needs a visible state")

    def model(self) -> ChannelModel:
        return load_channel(self.channel)

    @classmethod
    def from_json(cls, source: str | Path | dict, **overrides) -> "Scenario":
        """A Scenario from a JSON file or dict, with the overrides not None.

        A document that is not an object, or that lacks a field without a
        default or names one Scenario does not have, is a ValueError naming
        the field.
        """
        doc = json.loads(Path(source).read_text()) if isinstance(source, (str, Path)) else source
        if not isinstance(doc, dict):
            raise ValueError(f"scenario must be an object, got {doc!r}")
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
        known = {f.name: f for f in fields(cls)}
        for name in doc:
            if name not in known:
                raise ValueError(f"scenario has no field {name!r}")
        for name, f in known.items():
            if name not in doc and f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"scenario has no {name}")
        return cls(**doc)

    def to_json(self) -> str:
        doc = {
            "channel": self.channel,
            "rates": list(self.rates),
            "horizon": self.horizon,
            "seed": self.seed,
            "visible": self.visible,
            "delay": self.delay,
            "policy": self.policy,
            "engine": self.engine,
        }
        if self.stride is not None:
            doc["stride"] = self.stride
        if self.movement_log is not None:
            doc["movement_log"] = os.fspath(self.movement_log)
        return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    final_backlog_over_n: float
    tail_slope: float


def stability_verdict(
    trace: SimTrace,
    *,
    ratio_threshold: float = 1e-3,
    slope_threshold: float = 1e-3,
    min_horizon: int = 100_000,
) -> StabilityVerdict:
    """Empirical stability call from the backlog trajectory.

    Stable iff final backlog over n stays under ``ratio_threshold`` and the
    least-squares slope over the last half of the recorded points stays
    under ``slope_threshold`` packets/slot.
    """

    if trace.horizon < min_horizon:
        raise ValueError(
            f"horizon {trace.horizon} too short for a stability call "
            f"(need {min_horizon})"
        )
    backlog = trace.backlog
    if len(backlog) < 4:
        raise ValueError("need at least four recorded points")
    ratio = float(backlog[-1]) / trace.horizon
    half = len(backlog) // 2
    t = trace.times[half:].astype(float)
    y = backlog[half:].astype(float)
    slope = float(np.polyfit(t, y, 1)[0])
    return StabilityVerdict(
        stable=ratio < ratio_threshold and slope < slope_threshold,
        final_backlog_over_n=ratio,
        tail_slope=slope,
    )


def throughput_check(trace: SimTrace) -> tuple[float, float]:
    """Delivered packets per slot for each receiver."""

    return trace.delivered_rate(1), trace.delivered_rate(2)


# -- probabilistic-policy synthesis ------------------------------------------


def _probabilistic_tables(scenario: Scenario, model: ChannelModel) -> dict:
    """The engines' probabilistic policy fields for the scenario's target.

    Row k of ``action_table`` belongs to observation key k: the state for a
    visible model, else the window at code k in `window_keys` order, a NaN
    row for a window of zero mass.  ``ratio_table`` is receiver j's link
    ratios in row j - 1, in `LINK_NAMES` order.
    """
    policy = scenario.policy
    target = RatePoint(*policy.get("target", scenario.rates))
    if scenario.visible:
        stats = visible_stats(model, scenario.delay)
        weights = stationary_distribution(model)
        kind = "visible"
        window_len = 0
        keys = range(model.num_states)
    else:
        window_len = int(policy.get("window_len", 1))
        stats, weights = hidden_window_stats(model, window_len, scenario.delay)
        kind = "hidden_L"
        keys = window_keys(window_len)
    witness = region_membership(kind, stats, weights, target)
    if witness is None:
        raise ValueError(
            f"target ({target.r1}, {target.r2}) lies outside the {kind} region"
        )
    dist, ratios = synthesize_policy(witness, target, stats, weights)
    row_of = {key: k for k, key in enumerate(keys)}
    table = np.full((len(keys), 6), np.nan)
    for key, row in dist.probs.items():
        table[row_of[key]] = row
    ratio_table = np.array([[ratios[j][l] for l in LINK_NAMES] for j in (1, 2)])
    return dict(action_table=table, ratio_table=ratio_table, window_len=window_len)


# -- per-state dispatch -------------------------------------------------------


@dataclass(frozen=True)
class SplitAllocation:
    """Arrival shares routed to each state's subsystem, with the LP margin.

    margin > 0 certifies that every subsystem receives rates strictly
    inside its share of the corresponding single-state feedback region.
    """

    x: np.ndarray
    y: np.ndarray
    margin: float


def per_state_split(
    model: ChannelModel, rates: tuple[float, float], delay: int = 1
) -> SplitAllocation:
    """Split arrivals across per-state subsystems by a margin-maximizing LP.

    Subsystem s is served only when the delayed state reads s (a fraction
    pi_s of slots), so its allocation must sit inside pi_s times the
    single-state region built from that state's conditional erasure stats.
    """

    pi = stationary_distribution(model)
    n = model.num_states
    facets: list[list[tuple[float, float, float]]] = []
    for st in visible_stats(model, delay).values():
        region = region_memoryless_fb(st.eps1, st.eps2, st.eps12)
        rows = []
        boundary = region.boundary
        for p, q in zip(boundary, boundary[1:]):
            a, b = q.r2 - p.r2, p.r1 - q.r1
            if abs(a) < 1e-15 and abs(b) < 1e-15:
                continue
            rows.append((a, b, a * p.r1 + b * p.r2))
        if not rows:
            rows = [(1.0, 0.0, boundary[0].r1), (0.0, 1.0, boundary[-1].r2)]
        facets.append(rows)

    # Variables: x_0..x_{n-1}, y_0..y_{n-1}, margin.
    m = 2 * n + 1
    objective = np.zeros(m)
    objective[-1] = 1.0
    constraints = []
    row = np.zeros(m)
    row[:n] = 1.0
    row[-1] = -1.0
    constraints.append((row.copy(), "=", rates[0]))
    row = np.zeros(m)
    row[n : 2 * n] = 1.0
    row[-1] = -1.0
    constraints.append((row.copy(), "=", rates[1]))
    for s in range(n):
        for a, b, h in facets[s]:
            row = np.zeros(m)
            row[s] = a
            row[n + s] = b
            constraints.append((row, "<=", pi[s] * h))
    bounds = [(0.0, 1.0)] * (2 * n) + [(-2.0, 1.0)]
    sol = solve(LinearProgram(objective=objective, constraints=constraints, bounds=bounds))
    if sol.status != "optimal":
        raise RuntimeError(f"per-state split LP ended {sol.status}")
    x = np.asarray(sol.witness[:n])
    y = np.asarray(sol.witness[n : 2 * n])
    return SplitAllocation(x=x, y=y, margin=float(sol.value))


# -- engines -------------------------------------------------------------------


def _totals(nets: Sequence[QueueNetwork]) -> list[int]:
    """q1, q2, q3 of receiver 1 and 2, arrivals and exits of each, summed."""

    total = [0] * 10
    for nn in nets:
        (a1, a2, a3), (b1, b2, b3) = nn.queue_lengths()
        row = (a1, a2, a3, b1, b2, b3, nn.arrivals[1], nn.arrivals[2],
               nn.exit_counts[1], nn.exit_counts[2])
        for k in range(10):
            total[k] += row[k]
    return total


def run_packets(model: ChannelModel, *, movement_log: str | os.PathLike | None = None,
                **fields) -> SimTrace:
    """The packet engine: `kernel.run_counts`' run, moving identified packets.

    ``fields`` are `kernel.check_run`'s keyword arguments, as for
    `kernel.run_counts`, and the trace matches its trace slot for slot; this
    engine also runs the decodability audit, and writes each slot's moves as
    a JSON line to ``movement_log`` when given.  Each slot makes one decision
    call (`probabilistic_decide` with tables, else `maxweight_decide`) and
    one `apply_slot`, on one queue network; per_state keeps one per state
    and serves the observed state's by A3 max-weight.
    """

    run = kernel.check_run(model, **fields)
    if movement_log is not None and not isinstance(movement_log, (str, os.PathLike)):
        # open() would take an int as a file descriptor, and close it.
        raise ValueError(f"movement_log must be a file path, got {movement_log!r}")
    tables, per_state = run.action_cdf is not None, run.shares is not None
    nets = [QueueNetwork() for _ in range(model.num_states if per_state else 1)]

    horizon, stride, action_set = run.horizon, run.stride, run.action_set
    record = np.zeros((horizon // stride, 10), dtype=np.int64)
    rec_idx = 0
    log_fh = open(movement_log, "w") if movement_log else None

    try:
        for t0, rows, zis, keys, eps in run.stream():
            eps, at = eps[0].tolist(), eps[1].tolist()  # slot i's triple: eps[at[i]]
            arrivals = kernel.arrival_bits(rows, run.rates).tolist()
            # Each slot's subsystem and each arrival's: under per_state the
            # observed state and the coin's route, else the one network.
            if per_state:
                served = keys.tolist()
                routes = kernel.arrival_routes(rows, run.rates, run.shares).tolist()
            else:
                served, routes = repeat(0), repeat((0, 0))
            if tables:
                actions, coins = (draw.tolist() for draw in kernel.probabilistic_draws(
                    rows, keys, run.action_cdf, run.ratios))
            for i, (zi, arrived, s, (s1, s2)) in enumerate(
                    zip(zis.tolist(), arrivals, served, routes)):
                t = t0 + i
                z = OUTCOMES[zi]
                net = nets[s]
                if tables:
                    action, intents = probabilistic_decide(actions[i], coins[i])
                else:
                    action, intents = maxweight_decide(net, eps[at[i]], action_set)

                _, moves, slot_exits = apply_slot(net, action, z, intents)
                if log_fh is not None:
                    log_fh.write(json.dumps({
                        "t": t, "action": action, "z": list(z),
                        "moves": [dict(zip(_MOVE_FIELDS, m)) for m in moves],
                        "exits": [[p.pid, j] for p, j in slot_exits]}) + "\n")

                if arrived & 1:
                    nets[s1].new_arrival(1)
                if arrived & 2:
                    nets[s2].new_arrival(2)

                if (t + 1) % stride == 0:
                    record[rec_idx] = _totals(nets)
                    rec_idx += 1
    finally:
        if log_fh is not None:
            log_fh.close()

    for nn in nets:
        nn.check_invariants()
    audit = all(audit_decodability(nn) for nn in nets)

    return SimTrace.from_rows(horizon, stride, record[:rec_idx], _totals(nets),
                              audit_passed=audit)


def run(scenario: Scenario) -> SimTrace:
    """Execute a scenario with its configured engine and verify conservation."""

    model = scenario.model()
    kind = scenario.policy["kind"]
    if kind == "maxweight":
        fields = dict(action_set=scenario.policy.get("action_set", "A5"))
    elif kind == "probabilistic":
        fields = _probabilistic_tables(scenario, model)
    else:
        split = per_state_split(model, scenario.rates, scenario.delay)
        fields = dict(shares=(split.x, split.y))
    engine = (kernel.run_counts if scenario.engine == "counts"
              else partial(run_packets, movement_log=scenario.movement_log))
    trace = engine(model, rates=scenario.rates, horizon=scenario.horizon,
                   seed=scenario.seed, visible=scenario.visible, delay=scenario.delay,
                   stride=scenario.stride, policy=kind, **fields)
    trace.check_conservation()
    if trace.audit_passed is False:
        raise AssertionError("a delivered packet was not decodable")
    return trace


# -- sweeps --------------------------------------------------------------------


# Each sweep label and the policy it names; bare "maxweight" names A5 too.
POLICY_LABELS = {
    **{f"maxweight:{a}": {"kind": "maxweight", "action_set": a} for a in ACTION_SETS},
    "maxweight": {"kind": "maxweight", "action_set": "A5"},
    "probabilistic": {"kind": "probabilistic"},
    "per_state": {"kind": "per_state"},
}


def _policy_label(policy: dict) -> str:
    """The first label of `POLICY_LABELS` naming ``policy``'s kind and action set."""

    named = {"kind": policy["kind"]}
    if policy["kind"] == "maxweight":
        named["action_set"] = policy.get("action_set", "A5")
    return next(label for label, value in POLICY_LABELS.items() if value == named)


def _sweep_job(scenario: Scenario) -> dict:
    trace = run(scenario)
    verdict = stability_verdict(trace)
    return {
        "r1": scenario.rates[0],
        "r2": scenario.rates[1],
        "policy": _policy_label(scenario.policy),
        "stable": verdict.stable,
        "slope": verdict.tail_slope,
    }


def sweep(
    template: Scenario,
    points: Sequence[tuple[float, float]],
    policies: Sequence[dict] | None = None,
    workers: int = 1,
) -> list[dict]:
    """Stability map over a grid of rate points times policies.

    ``workers`` processes run the jobs, at most one per CPU; 1 runs them here.
    A template with a ``movement_log`` is rejected, as every job would write
    that one file.
    """

    workers = min(kernel.positive_int("workers", workers), os.cpu_count() or 1)
    if template.movement_log is not None:
        raise ValueError("sweep writes no movement_log: every job would write the "
                         f"template's one path {os.fspath(template.movement_log)!r}")
    policy_list = list(policies) if policies else [template.policy]
    jobs = [
        replace(template, rates=(float(r1), float(r2)), policy=policy)
        for policy in policy_list
        for r1, r2 in points
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_job, jobs))
    return [_sweep_job(job) for job in jobs]


def sweep_to_csv(rows: Sequence[dict]) -> str:
    lines = ["r1,r2,policy,stable,slope"]
    for row in rows:
        lines.append(
            f"{row['r1']:.12g},{row['r2']:.12g},{row['policy']},"
            f"{str(bool(row['stable'])).lower()},{row['slope']:.6g}"
        )
    return "\n".join(lines) + "\n"
