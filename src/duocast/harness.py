"""Scenario-driven simulation: engines, stability diagnostics, sweeps.

A Scenario bundles a channel, arrival rates, a policy choice, and run
parameters.  Two engines execute it: a fast counts engine (`kernel`) that
tracks queue lengths only, and a reference packets engine (`queuenet` +
`policies`) that moves identified packets and supports the decodability
audit.  Both read `kernel.slot_stream`, which simulates the channel and what
the transmitter observes; each engine only decides and moves, so a scenario
produces the identical trace under either engine.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import kernel
from .channel import (
    ChannelModel,
    ErasureStats,
    cond_erasure_visible,
    load_channel,
    stationary_distribution,
)
from .lp import LinearProgram, solve
from .policies import (
    ACTION_SETS,
    Observation,
    maxweight_decide,
    per_state_memoryless_decide,
    probabilistic_decide,
)
from .queuenet import QueueNetwork, apply_slot, audit_decodability
from .regions import (
    LINKS,
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

_POLICY_KINDS = ("maxweight", "probabilistic", "per_state")
_ENGINES = ("counts", "packets")


def _default_policy() -> dict:
    return {"kind": "maxweight", "action_set": "A5"}


@dataclass
class Scenario:
    """One reproducible simulation setup.

    ``channel`` is a `load_channel` document.  ``policy`` is one of
    {"kind": "maxweight", "action_set": "A2"|"A3"|"A5"},
    {"kind": "probabilistic", "target": [r1, r2], "window_len": L}, or
    {"kind": "per_state"} (visible state, packets engine only).
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
    movement_log: str | None = None

    def __post_init__(self) -> None:
        self.rates = (float(self.rates[0]), float(self.rates[1]))
        if not (0 <= self.rates[0] <= 1 and 0 <= self.rates[1] <= 1):
            raise ValueError("arrival rates must lie in [0, 1]")
        self.horizon = int(self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        self.delay = int(self.delay)
        if self.delay < 1:
            raise ValueError("delay must be at least 1")
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.stride is not None and int(self.stride) < 1:
            raise ValueError("stride must be positive")
        kind = self.policy.get("kind")
        if kind not in _POLICY_KINDS:
            raise ValueError(f"unknown policy kind {kind!r}")
        if kind == "maxweight":
            if self.policy.get("action_set", "A5") not in ACTION_SETS:
                raise ValueError("action_set must be A2, A3, or A5")
        elif kind == "probabilistic":
            if not self.visible and self.delay != 1:
                raise ValueError(
                    "probabilistic policy on a hidden model requires delay 1"
                )
        elif kind == "per_state":
            if self.engine != "packets":
                raise ValueError("per_state policy needs the packets engine")
            if not self.visible:
                raise ValueError("per_state policy needs a visible state")

    def model(self) -> ChannelModel:
        return load_channel(self.channel)

    @classmethod
    def from_json(cls, source: str | Path | dict, **overrides) -> "Scenario":
        doc = dict(
            json.loads(Path(source).read_text())
            if isinstance(source, (str, Path))
            else source
        )
        doc.update({k: v for k, v in overrides.items() if v is not None})
        doc["rates"] = tuple(doc["rates"])
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
            doc["movement_log"] = self.movement_log
        return json.dumps(doc, indent=2)


@dataclass
class SimTrace:
    """Recorded queue history of one run.

    ``record`` rows: q1/q2/q3 for receiver 1, q1/q2/q3 for receiver 2,
    cumulative arrivals (both receivers), cumulative exits (both),
    sampled every ``stride`` slots after arrivals join.
    """

    horizon: int
    stride: int
    times: np.ndarray
    record: np.ndarray
    final_queues: np.ndarray
    arrivals: np.ndarray
    exits: np.ndarray
    audit_passed: bool | None = None

    @property
    def backlog(self) -> np.ndarray:
        return self.record[:, :6].sum(axis=1)

    @property
    def cumulative_exits(self) -> np.ndarray:
        return self.record[:, 8:10]

    def delivered_rate(self, j: int) -> float:
        return float(self.exits[j - 1]) / self.horizon

    def check_conservation(self) -> None:
        backlog = self.backlog
        inflow = self.record[:, 6] + self.record[:, 7]
        outflow = self.record[:, 8] + self.record[:, 9]
        if not np.array_equal(inflow, backlog + outflow):
            raise AssertionError("arrivals != backlog + exits at a recorded slot")
        if int(self.arrivals.sum()) != int(self.final_queues.sum()) + int(
            self.exits.sum()
        ):
            raise AssertionError("final conservation identity violated")
        if (np.diff(self.record[:, 6:10], axis=0) < 0).any():
            raise AssertionError("cumulative counters must be nondecreasing")

    def to_csv(self) -> str:
        header = (
            "t,q1_rx1,q2_rx1,q3_rx1,q1_rx2,q2_rx2,q3_rx2,"
            "arrivals_rx1,arrivals_rx2,exits_rx1,exits_rx2"
        )
        lines = [header]
        for t, row in zip(self.times, self.record):
            lines.append(f"{int(t)}," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


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


def _window_code(window: tuple[tuple[int, int], ...]) -> int:
    code = 0
    for z1, z2 in window:
        code = code * 4 + 2 * z1 + z2
    return code


@dataclass(frozen=True)
class _ProbTables:
    action_table: np.ndarray
    ratio_table: np.ndarray
    dist_by_code: dict
    ratios: dict
    window_len: int


def _probabilistic_tables(scenario: Scenario, model: ChannelModel) -> _ProbTables:
    policy = scenario.policy
    target = RatePoint(*policy.get("target", scenario.rates))
    if scenario.visible:
        stats = {
            s: cond_erasure_visible(model, s, scenario.delay)
            for s in range(model.num_states)
        }
        weights = stationary_distribution(model)
        kind = "visible"
        window_len = 0
        n_rows = model.num_states
        code = int
    else:
        window_len = int(policy.get("window_len", 1))
        stats, weights = hidden_window_stats(model, window_len)
        kind = "hidden_L"
        n_rows = 4**window_len
        code = _window_code
    witness = region_membership(kind, stats, weights, target)
    if witness is None:
        raise ValueError(
            f"target ({target.r1}, {target.r2}) lies outside the {kind} region"
        )
    dist, ratios = synthesize_policy(witness, target, stats, weights)
    table = np.full((n_rows, 6), np.nan)
    dist_by_code = {}
    for key, row in dist.probs.items():
        table[code(key)] = row
        dist_by_code[code(key)] = row
    ratio_table = np.array([[ratios[j][l] for l in LINKS] for j in (1, 2)])
    return _ProbTables(table, ratio_table, dist_by_code, ratios, window_len)


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
    for s in range(n):
        st = cond_erasure_visible(model, s, delay)
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


class _RowCursor:
    """Serves one slot's policy randomness positionally: action, then coins."""

    __slots__ = ("row", "pos")

    def __init__(self, row: Sequence[float], pos: int) -> None:
        self.row = row
        self.pos = pos

    def random(self) -> float:
        value = float(self.row[self.pos])
        self.pos += 1
        return value


def _effective_stride(scenario: Scenario) -> int:
    if scenario.stride is not None:
        return int(scenario.stride)
    return max(1, scenario.horizon // 512)


def _run_counts(scenario: Scenario, model: ChannelModel, stride: int) -> SimTrace:
    kind = scenario.policy["kind"]
    if kind == "per_state":
        raise ValueError("per_state policy needs the packets engine")
    if kind == "probabilistic":
        tables = _probabilistic_tables(scenario, model)
        counts = kernel.run_counts(
            model,
            rates=scenario.rates,
            horizon=scenario.horizon,
            seed=scenario.seed,
            visible=scenario.visible,
            delay=scenario.delay,
            policy="probabilistic",
            action_table=tables.action_table,
            ratio_table=tables.ratio_table,
            window_len=tables.window_len,
            stride=stride,
        )
    else:
        counts = kernel.run_counts(
            model,
            rates=scenario.rates,
            horizon=scenario.horizon,
            seed=scenario.seed,
            visible=scenario.visible,
            delay=scenario.delay,
            policy="maxweight",
            action_set=scenario.policy.get("action_set", "A5"),
            stride=stride,
        )
    return SimTrace(
        horizon=counts.horizon,
        stride=counts.stride,
        times=counts.record_times,
        record=counts.record,
        final_queues=counts.queues,
        arrivals=counts.arrivals,
        exits=counts.exits,
    )


def _run_packets(scenario: Scenario, model: ChannelModel, stride: int) -> SimTrace:
    horizon, delay, visible = scenario.horizon, scenario.delay, scenario.visible
    n_states = model.num_states
    policy = scenario.policy
    kind = policy["kind"]
    action_set = policy.get("action_set", "A5")
    window_len = 0
    stats_tab: dict[int, ErasureStats] = {}
    dist_by_code: dict = {}
    ratios: dict = {}
    if visible and kind in ("maxweight", "per_state"):
        stats_tab = {
            s: cond_erasure_visible(model, s, delay) for s in range(n_states)
        }
    if kind == "probabilistic":
        tables = _probabilistic_tables(scenario, model)
        dist_by_code = tables.dist_by_code
        ratios = tables.ratios
        window_len = tables.window_len

    nets: dict[int, QueueNetwork]
    if kind == "per_state":
        split = per_state_split(model, scenario.rates, delay)
        bins1 = _arrival_bins(split.x, scenario.rates[0])
        bins2 = _arrival_bins(split.y, scenario.rates[1])
        nets = {s: QueueNetwork() for s in range(n_states)}
    else:
        bins1 = bins2 = np.zeros(0)
        nets = {0: QueueNetwork()}
    net = nets[0]

    n_records = horizon // stride
    record = np.zeros((n_records, 10), dtype=np.int64)
    rec_idx = 0
    r1, r2 = scenario.rates
    log_fh = open(scenario.movement_log, "w") if scenario.movement_log else None

    try:
        for t0, rows, zis, keys, eps in kernel.slot_stream(
            model, seed=scenario.seed, horizon=horizon, visible=visible,
            delay=delay, window_len=window_len, predict=kind == "maxweight",
        ):
            if not isinstance(zis, list):  # the compiled stream yields arrays
                zis, keys, eps = zis.tolist(), keys.tolist(), eps.tolist()
            for i, (row, zi, obs_key) in enumerate(zip(rows, zis, keys)):
                t = t0 + i
                z = (zi >> 1, zi & 1)
                serving = net
                if obs_key < 0:
                    action, intents = 0, {}
                elif kind == "maxweight":
                    if visible:
                        stats = stats_tab[obs_key]
                    else:
                        e1, e2, e12 = eps[i]
                        stats = ErasureStats(
                            e1, e2, e12, e1 - e12, e2 - e12, 1.0 - e1 - e2 + e12
                        )
                    decision = maxweight_decide(net, stats, action_set)
                    action, intents = decision.action, decision.intents
                elif kind == "probabilistic":
                    decision = probabilistic_decide(
                        dist_by_code, ratios, Observation(key=obs_key), _RowCursor(row, 4)
                    )
                    action, intents = decision.action, decision.intents
                else:
                    serving = nets[obs_key]
                    decision = per_state_memoryless_decide(
                        nets, stats_tab, Observation(key=obs_key)
                    )
                    action, intents = decision.action, decision.intents

                _, moves, slot_exits = apply_slot(serving, action, z, intents)
                if log_fh is not None:
                    log_fh.write(
                        json.dumps(
                            {
                                "t": t,
                                "action": action,
                                "z": list(z),
                                "moves": moves,
                                "exits": [[p.pid, j] for p, j in slot_exits],
                            }
                        )
                        + "\n"
                    )

                if row[0] < r1:
                    target = net
                    if kind == "per_state":
                        target = nets[
                            min(
                                int(np.searchsorted(bins1, row[0], side="right")),
                                n_states - 1,
                            )
                        ]
                    target.new_arrival(1)
                if row[1] < r2:
                    target = net
                    if kind == "per_state":
                        target = nets[
                            min(
                                int(np.searchsorted(bins2, row[1], side="right")),
                                n_states - 1,
                            )
                        ]
                    target.new_arrival(2)

                if (t + 1) % stride == 0:
                    for j in (1, 2):
                        base = 3 * (j - 1)
                        record[rec_idx, base] = sum(nn.q1_len(j) for nn in nets.values())
                        record[rec_idx, base + 1] = sum(
                            nn.q2_len(j) for nn in nets.values()
                        )
                        record[rec_idx, base + 2] = sum(
                            nn.q3_len(j) for nn in nets.values()
                        )
                        record[rec_idx, 5 + j] = sum(
                            nn.arrivals[j] for nn in nets.values()
                        )
                        record[rec_idx, 7 + j] = sum(
                            nn.exit_counts[j] for nn in nets.values()
                        )
                    rec_idx += 1
    finally:
        if log_fh is not None:
            log_fh.close()

    for nn in nets.values():
        nn.check_invariants()
    audit = all(audit_decodability(nn) for nn in nets.values())

    final_queues = np.zeros((2, 3), dtype=np.int64)
    arrivals = np.zeros(2, dtype=np.int64)
    exits = np.zeros(2, dtype=np.int64)
    for j in (1, 2):
        final_queues[j - 1] = (
            sum(nn.q1_len(j) for nn in nets.values()),
            sum(nn.q2_len(j) for nn in nets.values()),
            sum(nn.q3_len(j) for nn in nets.values()),
        )
        arrivals[j - 1] = sum(nn.arrivals[j] for nn in nets.values())
        exits[j - 1] = sum(nn.exit_counts[j] for nn in nets.values())

    times = stride * np.arange(1, rec_idx + 1, dtype=np.int64)
    return SimTrace(
        horizon=horizon,
        stride=stride,
        times=times,
        record=record[:rec_idx],
        final_queues=final_queues,
        arrivals=arrivals,
        exits=exits,
        audit_passed=audit,
    )


def run(scenario: Scenario) -> SimTrace:
    """Execute a scenario with its configured engine and verify conservation."""

    model = scenario.model()
    stride = _effective_stride(scenario)
    if scenario.engine == "counts":
        trace = _run_counts(scenario, model, stride)
    else:
        trace = _run_packets(scenario, model, stride)
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
    """Stability map over a grid of rate points times policies."""

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
