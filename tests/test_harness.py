"""Scenario plumbing, stability calls, sweeps, and per-state dispatch."""

import json
import re
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from channel_docs import alternating, bursty, noisy
from duocast import harness
from duocast.channel import (
    MAX_WINDOW_LEN,
    load_channel,
    stationary_distribution,
    visible_stats,
)
from duocast.harness import (
    Scenario,
    SimTrace,
    StabilityVerdict,
    per_state_split,
    run,
    stability_verdict,
    sweep,
    sweep_to_csv,
    throughput_check,
)
from duocast.kernel import _arrival_bins, arrival_routes, prediction_gap
from duocast.regions import diagonal_rate, region_hidden_L, region_minkowski
from window_fold import filter_bank_gap, stream_outcomes


def clean_channel() -> dict:
    return {"states": 1, "transition": [[1.0]], "emission": [[1.0, 0.0, 0.0, 0.0]]}


def blocked_channel() -> dict:
    return {"states": 1, "transition": [[1.0]], "emission": [[0.0, 0.0, 0.0, 1.0]]}


def fair_channel() -> dict:
    return {"states": 1, "transition": [[1.0]], "emission": [[0.25, 0.25, 0.25, 0.25]]}


def ge_delay_channel() -> dict:
    return {
        "gilbert_elliot": {
            "kind": "visible",
            "eps1": 0.6,
            "g1": 0.1,
            "eps2": 0.5,
            "g2": 0.1,
        }
    }


class TestScenario:
    def test_json_round_trip(self):
        scenario = Scenario(
            channel=fair_channel(),
            rates=(0.2, 0.3),
            horizon=1000,
            seed=5,
            delay=2,
            policy={"kind": "maxweight", "action_set": "A3"},
            stride=10,
        )
        again = Scenario.from_json(json.loads(scenario.to_json()))
        assert again == scenario

    def test_from_json_overrides(self):
        doc = {
            "channel": fair_channel(),
            "rates": [0.1, 0.1],
            "horizon": 100,
        }
        scenario = Scenario.from_json(doc, seed=9, horizon=500)
        assert scenario.seed == 9
        assert scenario.horizon == 500

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = Scenario(channel=fair_channel(), rates=(0.1, 0.2), horizon=64)
        path.write_text(scenario.to_json())
        assert Scenario.from_json(path) == scenario

    @pytest.mark.parametrize(
        "doc, overrides, field",
        [
            ({"horizn": 1000}, {}, "'horizn'"),
            ({"policy": {"kind": "maxweight"}, "Seed": 3}, {}, "'Seed'"),
            ({}, {"delays": 2}, "'delays'"),
            ({"horizon": None}, {}, "horizon"),
            ({"rates": None}, {"horizon": 10}, "rates"),
        ],
    )
    def test_from_json_names_an_unknown_or_missing_field(self, doc, overrides, field):
        # A None entry drops that field from the base document.
        base = {"channel": fair_channel(), "rates": [0.1, 0.1], "horizon": 100}
        base.update(doc)
        base = {k: v for k, v in base.items() if v is not None}
        with pytest.raises(ValueError, match=re.escape(field)):
            Scenario.from_json(base, **overrides)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"scenario"', "null"])
    def test_from_json_rejects_a_document_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="scenario must be an object"):
            Scenario.from_json(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rates": (1.2, 0.1)},
            {"horizon": 0},
            {"delay": 0},
            {"engine": "magic"},
            {"stride": 0},
            {"horizon": 10.7},
            {"horizon": 100.0},
            {"delay": 1.5},
            {"delay": 2.0},
            {"stride": 2.5},
            {"policy": {"kind": "greedy"}},
            {"policy": {"kind": "maxweight", "action_set": "A7"}},
            {"movement_log": "m.jsonl"},
            {"policy": {"kind": "per_state"}, "engine": "packets", "visible": False},
            {"policy": {"kind": "maxweight", "actionset": "A2"}},
            {"rates": (0.1, 0.1, 0.1)},
            {"rates": 0.1},
            {"rates": ("0.1", 0.1)},
            {"rates": (True, 0.1)},
            {"visible": "no"},
            {"visible": 1},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            *[
                {"policy": {"kind": "probabilistic", "window_len": value}, "visible": False}
                for value in (1.5, "2", True, -1, MAX_WINDOW_LEN + 1)
            ],
            {"policy": {"kind": "probabilistic", "target": [0.1]}},
            {"policy": {"kind": "probabilistic", "target": 0.1}},
            {"policy": {"kind": "probabilistic", "target": [0.1, 0.1, 0.1]}},
            {"policy": {"kind": "probabilistic", "target": [0.1, 1.5]}},
            {"policy": {"kind": "maxweight", "action_set": ["A5"]}},
            # Keys the policy's kind would never read.
            {"policy": {"kind": "probabilistic", "window_len": 5}},
            {"policy": {"kind": "probabilistic", "action_set": "A5"}},
            {"policy": {"kind": "probabilistic", "action_set": "A5"}, "visible": False},
            {"policy": {"kind": "maxweight", "window_len": 5}},
            {"policy": {"kind": "maxweight", "window_len": 5}, "visible": False},
            {"policy": {"kind": "maxweight", "target": [0.1, 0.1]}},
            {"policy": {"kind": "per_state", "window_len": 1}, "engine": "packets"},
            {"policy": {"kind": "per_state", "target": [0.1, 0.1]}, "engine": "packets"},
            {"policy": {"kind": "per_state", "action_set": "A3"}, "engine": "packets"},
            {"movement_log": 5},
            {"movement_log": True},
            {"movement_log": ["moves.jsonl"]},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(channel=fair_channel(), rates=(0.1, 0.1), horizon=100)
        base.update(kwargs)
        # The message names the first field given, and a policy's fields
        # other than its kind as policy.<field>.
        field = next(iter(kwargs))
        if field == "policy":
            field += "".join(f".{key}" for key in kwargs["policy"] if key != "kind")
        with pytest.raises(ValueError, match=re.escape(field)):
            Scenario(**base)

    @pytest.mark.parametrize("policy", ["maxweight", ["maxweight"], None])
    def test_rejects_a_policy_that_is_not_an_object(self, policy):
        with pytest.raises(ValueError, match="policy must be an object"):
            Scenario(channel=fair_channel(), rates=(0.1, 0.1), horizon=100, policy=policy)

    def test_movement_log_path_forms(self, tmp_path):
        path = tmp_path / "moves.jsonl"
        scenario = Scenario(channel=fair_channel(), rates=(0.1, 0.1), horizon=100,
                            engine="packets", movement_log=path)
        run(scenario)
        assert len(path.read_text().splitlines()) == 100
        assert json.loads(scenario.to_json())["movement_log"] == str(path)

    @pytest.mark.parametrize("log", [5, True, ["moves.jsonl"]])
    def test_run_packets_takes_only_a_log_path(self, log):
        # An int would be opened as a file descriptor, written and closed.
        with pytest.raises(ValueError, match="^movement_log must be a file path"):
            harness.run_packets(load_channel(fair_channel()), rates=(0.1, 0.1),
                                horizon=100, seed=0, movement_log=log)

    def test_channel_without_transition_names_it(self):
        channel = {"states": 1, "emission": [[1.0, 0.0, 0.0, 0.0]]}
        scenario = Scenario(channel=channel, rates=(0.1, 0.1), horizon=100)
        with pytest.raises(ValueError, match="transition"):
            run(scenario)

    def test_probabilistic_target_outside_region(self):
        scenario = Scenario(
            channel=fair_channel(),
            rates=(0.45, 0.45),
            horizon=1000,
            policy={"kind": "probabilistic"},
        )
        with pytest.raises(ValueError, match="outside"):
            run(scenario)

    def test_hidden_probabilistic_target_is_checked_at_the_delay(self):
        # A diagonal point between hidden_{2,2} and hidden_{2,1}: the tables
        # are synthesized at the scenario's delay, so only delay 1 admits it.
        model = load_channel(noisy())
        r = 0.5 * (diagonal_rate(region_hidden_L(model, 2, 1))
                   + diagonal_rate(region_hidden_L(model, 2, 2)))
        scenario = Scenario(channel=noisy(), rates=(r, r), horizon=1000, visible=False,
                            policy={"kind": "probabilistic", "window_len": 2})
        run(scenario)
        with pytest.raises(ValueError, match="outside the hidden_L region"):
            run(replace(scenario, delay=2))


class TestRunBasics:
    def test_zero_rates_zero_backlog(self):
        trace = run(
            Scenario(channel=fair_channel(), rates=(0.0, 0.0), horizon=100_000, seed=1)
        )
        assert trace.backlog.max() == 0
        assert throughput_check(trace) == (0.0, 0.0)
        assert stability_verdict(trace).stable

    def test_erasure_free_direct_service(self):
        # With no erasures and both queues loaded at 0.4, serving the longer
        # queue keeps the backlog tiny and delivers every arrival.
        scenario = Scenario(
            channel=clean_channel(),
            rates=(0.4, 0.4),
            horizon=200_000,
            seed=3,
            policy={"kind": "maxweight", "action_set": "A2"},
        )
        trace = run(scenario)
        verdict = stability_verdict(trace)
        assert verdict.stable
        assert trace.backlog.max() < 100
        d1, d2 = throughput_check(trace)
        assert abs(d1 - 0.4) < 0.008
        assert abs(d2 - 0.4) < 0.008

    def test_saturated_blocked_channel_slope_one(self):
        trace = run(
            Scenario(
                channel=blocked_channel(),
                rates=(1.0, 0.0),
                horizon=100_000,
                seed=2,
                policy={"kind": "maxweight", "action_set": "A2"},
            )
        )
        verdict = stability_verdict(trace)
        assert not verdict.stable
        assert abs(verdict.tail_slope - 1.0) < 0.05
        assert trace.exits.sum() == 0

    def test_counts_and_packets_deterministic(self):
        for engine in ("counts", "packets"):
            scenario = Scenario(
                channel=bursty(),
                rates=(0.3, 0.3),
                horizon=4000,
                seed=17,
                stride=7,
                engine=engine,
            )
            a, b = run(scenario), run(scenario)
            assert np.array_equal(a.record, b.record)
            assert np.array_equal(a.final_queues, b.final_queues)

    def test_trace_csv_shape(self):
        trace = run(
            Scenario(channel=fair_channel(), rates=(0.2, 0.2), horizon=1000, stride=100)
        )
        lines = trace.to_csv().strip().split("\n")
        assert lines[0].startswith("t,q1_rx1")
        assert len(lines) == 11
        assert lines[1].split(",")[0] == "100"


class TestStabilityVerdict:
    def _trace(self, backlog: np.ndarray, horizon: int, stride: int) -> SimTrace:
        n = len(backlog)
        record = np.zeros((n, 10), dtype=np.int64)
        record[:, 0] = backlog
        record[:, 6] = backlog  # arrivals = backlog, no exits
        times = stride * np.arange(1, n + 1)
        return SimTrace(
            horizon=horizon,
            stride=stride,
            times=times,
            record=record,
            final_queues=np.array([[backlog[-1], 0, 0], [0, 0, 0]]),
            arrivals=np.array([backlog[-1], 0]),
            exits=np.zeros(2, dtype=np.int64),
        )

    def test_short_horizon_rejected(self):
        trace = self._trace(np.zeros(10, dtype=np.int64), 1000, 100)
        with pytest.raises(ValueError, match="too short"):
            stability_verdict(trace)

    def test_too_few_points_rejected(self):
        trace = self._trace(np.zeros(3, dtype=np.int64), 300_000, 100_000)
        with pytest.raises(ValueError, match="four recorded"):
            stability_verdict(trace)

    def test_linear_growth_flagged(self):
        backlog = np.arange(1, 101) * 50
        trace = self._trace(backlog, 100_000, 1000)
        verdict = stability_verdict(trace)
        assert not verdict.stable
        assert abs(verdict.tail_slope - 0.05) < 1e-9
        assert verdict.final_backlog_over_n == pytest.approx(0.05)

    def test_flat_backlog_stable(self):
        backlog = np.full(100, 40)
        trace = self._trace(backlog, 100_000, 1000)
        verdict = stability_verdict(trace)
        assert verdict.stable
        assert verdict.tail_slope == pytest.approx(0.0, abs=1e-12)

    def test_thresholds_configurable(self):
        backlog = np.full(100, 40)
        trace = self._trace(backlog, 100_000, 1000)
        strict = stability_verdict(trace, ratio_threshold=1e-6)
        assert not strict.stable


class TestVerdictsOnRealRuns:
    def test_interior_point_stable_boundary_violation_unstable(self):
        stable = run(
            Scenario(
                channel=fair_channel(),
                rates=(0.1, 0.1),
                horizon=100_000,
                seed=5,
                policy={"kind": "maxweight", "action_set": "A3"},
            )
        )
        assert stability_verdict(stable).stable
        unstable = run(
            Scenario(
                channel=fair_channel(),
                rates=(0.45, 0.45),
                horizon=100_000,
                seed=5,
                policy={"kind": "maxweight", "action_set": "A3"},
            )
        )
        verdict = stability_verdict(unstable)
        assert not verdict.stable
        assert verdict.tail_slope > 0.01


class TestSweep:
    def test_sweep_rows_and_csv(self):
        template = Scenario(
            channel=fair_channel(), rates=(0.1, 0.1), horizon=100_000, seed=8
        )
        rows = sweep(
            template,
            [(0.1, 0.1), (0.45, 0.45)],
            policies=[{"kind": "maxweight", "action_set": "A3"}],
        )
        assert [row["stable"] for row in rows] == [True, False]
        csv = sweep_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "r1,r2,policy,stable,slope"
        assert lines[1].startswith("0.1,0.1,maxweight:A3,true,")
        assert lines[2].startswith("0.45,0.45,maxweight:A3,false,")

    def test_sweep_parallel_matches_serial(self):
        template = Scenario(
            channel=fair_channel(), rates=(0.1, 0.1), horizon=100_000, seed=8
        )
        points = [(0.1, 0.1), (0.45, 0.45)]
        serial = sweep(template, points)
        parallel = sweep(template, points, workers=2)
        assert serial == parallel

    def test_sweep_workers_are_capped_at_the_cpu_count(self, monkeypatch):
        pools = []

        class Recorder:
            """Runs the jobs here and records the pool size asked for."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        template = Scenario(
            channel=fair_channel(), rates=(0.1, 0.1), horizon=100_000, seed=8
        )
        serial = sweep(template, [(0.1, 0.1)])
        for workers, pool in ((2, 2), (3, 3), (64, 3)):
            assert sweep(template, [(0.1, 0.1)], workers=workers) == serial
            assert pools.pop() == pool
        assert sweep(template, [(0.1, 0.1)], workers=1) == serial
        assert pools == []

    def test_sweep_rejects_a_movement_log(self, tmp_path):
        # Every job would write the one path.
        path = tmp_path / "moves.jsonl"
        template = Scenario(channel=fair_channel(), rates=(0.1, 0.1), horizon=1000,
                            engine="packets", movement_log=path)
        with pytest.raises(ValueError, match="movement_log"):
            sweep(template, [(0.1, 0.1), (0.2, 0.2)])
        assert not path.exists()

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
    def test_sweep_rejects_bad_workers(self, workers):
        template = Scenario(channel=fair_channel(), rates=(0.1, 0.1), horizon=1000)
        with pytest.raises(ValueError, match="workers"):
            sweep(template, [(0.1, 0.1)], workers=workers)


class TestPerState:
    def test_split_interior_margin_positive(self):
        model = load_channel(bursty())
        split = per_state_split(model, (0.15, 0.15))
        assert split.margin > 0
        assert split.x.sum() == pytest.approx(0.15 + split.margin, abs=1e-9)
        assert split.y.sum() == pytest.approx(0.15 + split.margin, abs=1e-9)

    def test_split_shrinks_with_load(self):
        model = load_channel(bursty())
        low = per_state_split(model, (0.10, 0.10))
        high = per_state_split(model, (0.22, 0.22))
        assert high.margin < low.margin
        overload = per_state_split(model, (0.5, 0.5))
        assert overload.margin < 0

    def test_arrival_bins(self):
        bins = _arrival_bins(np.array([0.5, 0.5]), 0.4)
        np.testing.assert_allclose(bins, [0.2, 0.4])
        uniform = _arrival_bins(np.zeros(4), 0.4)
        np.testing.assert_allclose(uniform, [0.1, 0.2, 0.3, 0.4])

    def test_routing_matches_the_scalar_bisect(self):
        # The oracle: bisect_right over the bins as a list, capped at n - 1,
        # one coin at a time, for both receivers and split and even shares.
        model = load_channel(bursty())
        n = model.num_states
        split = per_state_split(model, (0.15, 0.15))
        rng = np.random.default_rng(4)
        for rates, shares in (((0.15, 0.15), (split.x, split.y)),
                              ((0.2, 0.1), (np.zeros(n), split.y))):
            bins = [_arrival_bins(share, rate) for share, rate in zip(shares, rates)]
            coins = np.concatenate([rng.random((10_000, 2)),
                                    np.transpose(bins),
                                    np.nextafter(np.transpose(bins), 0)])
            routes = arrival_routes(coins, rates, shares).tolist()
            for j in (0, 1):
                as_list = bins[j].tolist()
                for u, route in zip(coins[:, j].tolist(), routes):
                    assert route[j] == min(bisect_right(as_list, u), n - 1)

    def test_counts_run_of_a_million_slots_meets_the_minkowski_diagonal(self):
        # Each state's subsystem serves a share of the arrivals, so the
        # per-state scheme's region is the Minkowski sum of the per-state
        # regions; 1e6 slots on the counts engine tell 5% inside its diagonal
        # from 5% outside.
        model = load_channel(bursty())
        edge = diagonal_rate(region_minkowski(visible_stats(model, 1),
                                              stationary_distribution(model)))
        assert edge == pytest.approx(0.3236770, abs=1e-7)
        verdicts = [stability_verdict(run(Scenario(
            channel=bursty(), rates=(scale * edge, scale * edge), horizon=1_000_000,
            seed=4, policy={"kind": "per_state"}))) for scale in (0.95, 1.05)]
        assert verdicts[0].stable
        assert not verdicts[1].stable
        assert verdicts[1].final_backlog_over_n > 1e-2

    def test_per_state_run_is_stable_inside(self):
        scenario = Scenario(
            channel=bursty(),
            rates=(0.15, 0.15),
            horizon=100_000,
            seed=12,
            policy={"kind": "per_state"},
            engine="packets",
        )
        trace = run(scenario)
        assert trace.audit_passed is True
        assert stability_verdict(trace).stable
        d1, d2 = throughput_check(trace)
        assert abs(d1 - 0.15) < 0.01
        assert abs(d2 - 0.15) < 0.01


class TestMovementLog:
    def test_log_lines_match_trace(self, tmp_path):
        path = tmp_path / "moves.jsonl"
        scenario = Scenario(
            channel=bursty(),
            rates=(0.3, 0.3),
            horizon=500,
            seed=6,
            engine="packets",
            movement_log=str(path),
        )
        trace = run(scenario)
        lines = [json.loads(line) for line in path.read_text().strip().split("\n")]
        assert len(lines) == 500
        assert [line["t"] for line in lines] == list(range(500))
        exits = sum(len(line["exits"]) for line in lines)
        assert exits == int(trace.exits.sum())
        busy = [line for line in lines if line["action"] != 0]
        assert busy, "expected at least one transmission"
        sample = busy[0]
        assert set(sample) == {"t", "action", "z", "moves", "exits"}

    @pytest.mark.parametrize(
        "channel,visible,delay,policy,rates",
        [
            (noisy(), False, 2, {"kind": "maxweight", "action_set": "A5"}, (0.2, 0.2)),
            (bursty(), True, 1, {"kind": "per_state"}, (0.15, 0.15)),
        ],
    )
    def test_log_is_a_pure_side_output(self, tmp_path, channel, visible, delay, policy,
                                       rates):
        base = Scenario(
            channel=channel,
            rates=rates,
            horizon=3000,
            seed=21,
            visible=visible,
            delay=delay,
            policy=policy,
            engine="packets",
        )
        path = tmp_path / "moves.jsonl"
        logged = run(replace(base, movement_log=str(path)))
        plain = run(base)
        assert path.stat().st_size > 0
        for name in ("times", "record", "final_queues", "arrivals", "exits"):
            assert np.array_equal(getattr(logged, name), getattr(plain, name)), name
        assert (logged.horizon, logged.stride) == (plain.horizon, plain.stride)
        assert logged.audit_passed is plain.audit_passed is True


class TestDelayMonotonicity:
    def _frontier(self, delay: int, ray: tuple[float, float]) -> float:
        best = 0.0
        for scale in np.arange(0.5, 1.45, 0.1):
            rates = (scale * ray[0], scale * ray[1])
            trace = run(
                Scenario(
                    channel=ge_delay_channel(),
                    rates=rates,
                    horizon=200_000,
                    seed=10,
                    delay=delay,
                    policy={"kind": "maxweight", "action_set": "A5"},
                )
            )
            if stability_verdict(trace).stable:
                best = max(best, scale)
        return best

    def test_long_delay_frontier_inside_short_delay(self):
        for ray in ((0.30, 0.30), (0.36, 0.18)):
            near = self._frontier(1, ray)
            far = self._frontier(10, ray)
            assert far <= near
            assert far < near  # the gap is wide for this channel


    def test_hidden_probabilistic_run_delivers_a_delay_two_target(self):
        # Tables synthesized for the window fed back two slots late serve a
        # target near the diagonal of hidden_{2,2}, past that of hidden_{2,3}.
        model = load_channel(noisy())
        edge = diagonal_rate(region_hidden_L(model, 2, 2))
        assert diagonal_rate(region_hidden_L(model, 2, 3)) < 0.99 * edge
        rate = 0.92 * 0.99 * edge
        scenario = Scenario(channel=noisy(), rates=(rate, rate), horizon=400_000, seed=4,
                            visible=False, delay=2,
                            policy={"kind": "probabilistic", "target": [0.99 * edge] * 2,
                                    "window_len": 2})
        trace = run(scenario)
        assert stability_verdict(trace).stable
        for got in throughput_check(trace):
            assert abs(got - rate) / rate <= 0.02


class TestPredictionGap:
    def test_gap_small_for_forgetful_chain(self):
        model = load_channel(noisy())
        gap = prediction_gap(model, window_len=6, horizon=3000, seed=4)
        assert 0.0 <= gap < 0.05

    def test_longer_window_no_worse(self):
        model = load_channel(noisy())
        short = prediction_gap(model, window_len=1, horizon=2000, seed=4)
        long = prediction_gap(model, window_len=8, horizon=2000, seed=4)
        assert long <= short + 1e-9

    def test_zero_emissions_match_the_filter_bank(self):
        # A window that occurred has positive probability, zero emissions or
        # not; here one feedback pair names the state, so the gap is 0 up to
        # rounding.
        for doc in (alternating(), bursty()):
            model = load_channel(doc)
            assert (model.emission == 0).any()
            pairs = stream_outcomes(model, 400, 7)
            for L in (1, 3, 6):
                gap = prediction_gap(model, L, 400, 7)
                oracle = filter_bank_gap(model, L, pairs, model.emission)
                assert abs(gap - oracle) <= 1e-15

    def test_bad_args(self):
        model = load_channel(noisy())
        with pytest.raises(ValueError):
            prediction_gap(model, window_len=0, horizon=100, seed=0)
