"""Scenario-driven simulation: engines, stability diagnostics, sweeps.

A Scenario bundles a channel, arrival rates, a policy choice, and run
parameters.  Two engines execute it: a fast counts engine (`kernel`) that
tracks queue lengths only, and a reference packets engine (`queuenet` +
`policies`) that moves identified packets and supports the decodability
audit.  Both read `kernel.slot_stream`, which simulates the channel and what
the transmitter observes; each engine only decides and moves, so a scenario
produces the identical trace under either engine.  The probabilistic
policy's tables are synthesized once per run here, and both engines read
its per-chunk draw, `kernel.probabilistic_draws`.  Both return a
`kernel.SimTrace`, re-exported here.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import kernel
# cond_erasure_visible is imported for perfbench/layers.py, which wraps it in
# this module's namespace to count its calls.
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
from .policies import (
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
    hidden state only), or {"kind": "per_state"} (visible state, packets
    engine only).  A policy key its kind never reads is rejected.  Every
    policy sees the feedback (and on a visible model the state) ``delay``
    slots late, and the probabilistic tables are synthesized for that
    delay.
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
        elif kind == "per_state":
            if self.engine != "packets":
                raise ValueError("per_state policy needs the packets engine")
            if not self.visible:
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


@dataclass(frozen=True)
class _ProbTables:
    action_table: np.ndarray
    ratio_table: np.ndarray
    window_len: int


def _probabilistic_tables(scenario: Scenario, model: ChannelModel) -> _ProbTables:
    """The kernel's tables of a probabilistic policy for the scenario's target.

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
    return _ProbTables(table, ratio_table, window_len)


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


def _arrival_bins(shares: np.ndarray, rate: float) -> np.ndarray:
    """Cumulative coin thresholds that route an arrival coin u < rate."""

    total = float(shares.sum())
    if total <= 1e-15 or rate <= 0.0:
        n = len(shares)
        return rate * np.arange(1, n + 1) / n
    return rate * np.cumsum(shares) / total


# -- engines -------------------------------------------------------------------


def _route(bins: list[float], u: float, n_states: int) -> int:
    """Subsystem of an arrival coin ``u``: ``searchsorted(bins, u, "right")``."""

    return min(bisect_right(bins, u), n_states - 1)


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


def _run_packets(scenario: Scenario, model: ChannelModel, stride: int,
                 tables: _ProbTables | None) -> SimTrace:
    horizon, delay, visible = scenario.horizon, scenario.delay, scenario.visible
    n_states = model.num_states
    policy = scenario.policy
    kind = policy["kind"]
    action_set = policy.get("action_set", "A5")
    maxweight = kind == "maxweight"
    per_state = kind == "per_state"
    probabilistic = kind == "probabilistic"
    if probabilistic:
        action_cdf, ratios = kernel.probabilistic_tables(
            model, visible, tables.window_len, tables.action_table, tables.ratio_table)

    nets: dict[int, QueueNetwork]
    if per_state:
        split = per_state_split(model, scenario.rates, delay)
        bins1 = _arrival_bins(split.x, scenario.rates[0]).tolist()
        bins2 = _arrival_bins(split.y, scenario.rates[1]).tolist()
        nets = {s: QueueNetwork() for s in range(n_states)}
    else:
        bins1 = bins2 = []
        nets = {0: QueueNetwork()}
    net = nets[0]
    net_list = list(nets.values())

    n_records = horizon // stride
    record = np.zeros((n_records, 10), dtype=np.int64)
    rec_idx = 0
    r1, r2 = scenario.rates
    log_fh = open(scenario.movement_log, "w") if scenario.movement_log else None

    try:
        for t0, rows, zis, keys, eps in kernel.slot_stream(
            model, seed=scenario.seed, horizon=horizon, visible=visible,
            delay=delay, window_len=tables.window_len if probabilistic else 0,
            predict=not probabilistic,
        ):
            eps, at = eps[0].tolist(), eps[1].tolist()  # slot i's triple: eps[at[i]]
            if probabilistic:
                actions, coins = (draw.tolist() for draw in kernel.probabilistic_draws(
                    rows, keys, action_cdf, ratios))
            for i, ((u1, u2), zi, obs_key) in enumerate(
                    zip(rows[:, :2].tolist(), zis.tolist(), keys.tolist())):
                t = t0 + i
                z = OUTCOMES[zi]
                serving = net
                if obs_key < 0:
                    action, intents = 0, 0
                elif maxweight:
                    action, intents = maxweight_decide(net, eps[at[i]], action_set)
                elif per_state:
                    serving = nets[obs_key]
                    action, intents = per_state_memoryless_decide(
                        nets, obs_key, eps[at[i]])
                else:
                    action, intents = probabilistic_decide(actions[i], coins[i])

                _, moves, slot_exits = apply_slot(serving, action, z, intents)
                if log_fh is not None:
                    log_fh.write(
                        json.dumps(
                            {
                                "t": t,
                                "action": action,
                                "z": list(z),
                                "moves": [dict(zip(_MOVE_FIELDS, m)) for m in moves],
                                "exits": [[p.pid, j] for p, j in slot_exits],
                            }
                        )
                        + "\n"
                    )

                if u1 < r1:
                    target = nets[_route(bins1, u1, n_states)] if per_state else net
                    target.new_arrival(1)
                if u2 < r2:
                    target = nets[_route(bins2, u2, n_states)] if per_state else net
                    target.new_arrival(2)

                if (t + 1) % stride == 0:
                    record[rec_idx] = _totals(net_list)
                    rec_idx += 1
    finally:
        if log_fh is not None:
            log_fh.close()

    for nn in net_list:
        nn.check_invariants()
    audit = all(audit_decodability(nn) for nn in net_list)

    return SimTrace.from_rows(horizon, stride, record[:rec_idx], _totals(net_list),
                              audit_passed=audit)


def run(scenario: Scenario) -> SimTrace:
    """Execute a scenario with its configured engine and verify conservation."""

    model = scenario.model()
    stride = kernel.record_stride(scenario.horizon, scenario.stride)
    kind = scenario.policy["kind"]
    tables = _probabilistic_tables(scenario, model) if kind == "probabilistic" else None
    if scenario.engine == "packets":
        trace = _run_packets(scenario, model, stride, tables)
    else:
        if tables is not None:
            policy_args = dict(action_table=tables.action_table,
                               ratio_table=tables.ratio_table,
                               window_len=tables.window_len)
        else:
            policy_args = dict(action_set=scenario.policy.get("action_set", "A5"))
        trace = kernel.run_counts(
            model,
            rates=scenario.rates,
            horizon=scenario.horizon,
            seed=scenario.seed,
            visible=scenario.visible,
            delay=scenario.delay,
            policy=kind,
            stride=stride,
            **policy_args,
        )
    trace.check_conservation()
    if trace.audit_passed is False:
        raise AssertionError("a delivered packet was not decodable")
    return trace


# -- sweeps --------------------------------------------------------------------


def _policy_label(policy: dict) -> str:
    kind = policy["kind"]
    if kind == "maxweight":
        return f"maxweight:{policy.get('action_set', 'A5')}"
    return kind


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
    """

    workers = min(kernel.positive_int("workers", workers), os.cpu_count() or 1)
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
