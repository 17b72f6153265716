"""Counts kernel vs reference packet engine, plus kernel edge cases."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from duocast.channel import (
    OUTCOMES,
    Belief,
    belief_update,
    cond_erasure_hidden,
    ge_visible,
    load_channel,
    memoryless,
    stationary_distribution,
)
from duocast.harness import Scenario, _window_code, run
from duocast.kernel import CHUNK_SLOTS, SimCounts, jit_enabled, run_counts, slot_stream
from duocast.regions import diagonal_rate, region_hidden_L


def alternating_channel() -> dict:
    return {
        "states": 2,
        "transition": [[0.0, 1.0], [1.0, 0.0]],
        "emission": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]],
        "allow_periodic": True,
    }


def ge_fig_channel() -> dict:
    return {
        "gilbert_elliot": {
            "kind": "visible",
            "eps1": 0.6,
            "g1": 0.1,
            "eps2": 0.5,
            "g2": 0.2,
        }
    }


def ge_hmm_channel() -> dict:
    return {
        "gilbert_elliot": {
            "kind": "hidden",
            "eps1": 0.6,
            "g1": 0.1,
            "eps2": 0.5,
            "g2": 0.2,
            "eps1_good": 0.2,
            "eps1_bad": 0.866,
            "eps2_good": 0.2,
            "eps2_bad": 0.8,
        }
    }


def memoryless_channel() -> dict:
    return {
        "states": 1,
        "transition": [[1.0]],
        "emission": [[0.35, 0.2, 0.25, 0.2]],
    }


def assert_traces_identical(a, b):
    assert np.array_equal(a.record, b.record)
    assert np.array_equal(a.final_queues, b.final_queues)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.exits, b.exits)
    assert np.array_equal(a.times, b.times)


class TestEngineEquivalence:
    """Both engines consume the same randomness and must agree exactly."""

    @pytest.mark.parametrize(
        "channel,visible,delay,policy,rates",
        [
            (ge_fig_channel(), True, 1, {"kind": "maxweight", "action_set": "A5"}, (0.28, 0.30)),
            (ge_fig_channel(), True, 3, {"kind": "maxweight", "action_set": "A5"}, (0.25, 0.28)),
            (alternating_channel(), True, 1, {"kind": "maxweight", "action_set": "A3"}, (0.30, 0.30)),
            (memoryless_channel(), True, 1, {"kind": "maxweight", "action_set": "A2"}, (0.25, 0.25)),
            (ge_hmm_channel(), False, 1, {"kind": "maxweight", "action_set": "A5"}, (0.20, 0.20)),
            (ge_hmm_channel(), False, 2, {"kind": "maxweight", "action_set": "A5"}, (0.18, 0.18)),
            (ge_hmm_channel(), False, 2, {"kind": "maxweight", "action_set": "A3"}, (0.18, 0.18)),
        ],
    )
    def test_maxweight_counts_match_packets(self, channel, visible, delay, policy, rates):
        base = Scenario(
            channel=channel,
            rates=rates,
            horizon=2000,
            seed=99,
            visible=visible,
            delay=delay,
            policy=policy,
            stride=1,
            engine="counts",
        )
        counts = run(base)
        packets = run(replace(base, engine="packets"))
        assert_traces_identical(counts, packets)
        assert packets.audit_passed is True

    def test_probabilistic_visible_matches(self):
        scenario = Scenario(
            channel=ge_fig_channel(),
            rates=(0.25, 0.25),
            horizon=2000,
            seed=7,
            policy={"kind": "probabilistic", "target": [0.25, 0.25]},
            stride=1,
            engine="counts",
        )
        counts = run(scenario)
        packets = run(replace(scenario, engine="packets"))
        assert_traces_identical(counts, packets)

    def test_probabilistic_visible_delay_three_matches(self):
        scenario = Scenario(
            channel=ge_fig_channel(),
            rates=(0.2, 0.2),
            horizon=2000,
            seed=7,
            delay=3,
            policy={"kind": "probabilistic", "target": [0.2, 0.2]},
            stride=1,
            engine="counts",
        )
        counts = run(scenario)
        packets = run(replace(scenario, engine="packets"))
        assert_traces_identical(counts, packets)

    def test_probabilistic_hidden_window_matches(self):
        model = load_channel(ge_hmm_channel())
        r = 0.85 * diagonal_rate(region_hidden_L(model, 2))
        scenario = Scenario(
            channel=ge_hmm_channel(),
            rates=(r, r),
            horizon=3000,
            seed=13,
            visible=False,
            policy={"kind": "probabilistic", "window_len": 2},
            stride=1,
            engine="counts",
        )
        counts = run(scenario)
        packets = run(replace(scenario, engine="packets"))
        assert_traces_identical(counts, packets)

    def test_multiple_seeds_still_agree(self):
        for seed in (0, 1, 2):
            base = Scenario(
                channel=ge_fig_channel(),
                rates=(0.31, 0.33),
                horizon=1500,
                seed=seed,
                policy={"kind": "maxweight", "action_set": "A5"},
                stride=1,
                engine="counts",
            )
            counts = run(base)
            packets = run(replace(base, engine="packets"))
            assert_traces_identical(counts, packets)


class TestKernelBasics:
    def test_jit_flag_reports_a_bool(self):
        assert isinstance(jit_enabled(), bool)

    def test_determinism(self):
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        a = run_counts(model, rates=(0.3, 0.3), horizon=5000, seed=4, stride=10)
        b = run_counts(model, rates=(0.3, 0.3), horizon=5000, seed=4, stride=10)
        assert np.array_equal(a.record, b.record)
        assert np.array_equal(a.queues, b.queues)

    def test_conservation_and_throughput(self):
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        out = run_counts(model, rates=(0.2, 0.2), horizon=20000, seed=11)
        assert isinstance(out, SimCounts)
        assert out.arrivals.sum() == out.exits.sum() + out.queues.sum()
        assert abs(out.throughput(1) - 0.2) < 0.02
        assert abs(out.throughput(2) - 0.2) < 0.02

    def test_zero_rates_idle(self):
        model = memoryless(np.array([0.25, 0.25, 0.25, 0.25]))
        out = run_counts(model, rates=(0.0, 0.0), horizon=3000, seed=0, stride=1)
        assert out.record[:, :6].max() == 0
        assert out.exits.sum() == 0

    def test_chunk_boundaries_do_not_matter_for_state(self):
        # The RNG matrix is chunked identically regardless of horizon, so a
        # longer run extends a shorter one's prefix.
        model = ge_visible(0.5, 0.2, 0.4, 0.3)
        short = run_counts(model, rates=(0.2, 0.2), horizon=512, seed=3, stride=1)
        long = run_counts(model, rates=(0.2, 0.2), horizon=1024, seed=3, stride=1)
        assert np.array_equal(long.record[:512], short.record)

    def test_record_stride(self):
        model = memoryless(np.array([0.7, 0.1, 0.1, 0.1]))
        out = run_counts(model, rates=(0.1, 0.1), horizon=1000, seed=5, stride=100)
        assert list(out.record_times) == [100 * k for k in range(1, 11)]
        assert out.record.shape == (10, 10)


class TestKernelValidation:
    def setup_method(self):
        self.model = memoryless(np.array([0.7, 0.1, 0.1, 0.1]))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            run_counts(self.model, rates=(0.1, 0.1), horizon=0, seed=0)

    def test_bad_delay(self):
        with pytest.raises(ValueError):
            run_counts(self.model, rates=(0.1, 0.1), horizon=10, seed=0, delay=0)

    def test_bad_rates(self):
        with pytest.raises(ValueError):
            run_counts(self.model, rates=(1.2, 0.1), horizon=10, seed=0)

    def test_bad_policy_name(self):
        with pytest.raises(ValueError):
            run_counts(self.model, rates=(0.1, 0.1), horizon=10, seed=0, policy="greedy")

    def test_probabilistic_needs_table(self):
        with pytest.raises(ValueError):
            run_counts(
                self.model, rates=(0.1, 0.1), horizon=10, seed=0, policy="probabilistic"
            )

    def test_bad_table_shape(self):
        with pytest.raises(ValueError):
            run_counts(
                self.model,
                rates=(0.1, 0.1),
                horizon=10,
                seed=0,
                policy="probabilistic",
                action_table=np.ones((1, 5)),
            )

    def test_missing_observation_row_raises(self):
        table = np.full((1, 6), np.nan)
        with pytest.raises(ValueError, match="no action distribution"):
            run_counts(
                self.model,
                rates=(0.1, 0.1),
                horizon=10,
                seed=0,
                policy="probabilistic",
                action_table=table,
                ratio_table=np.zeros((2, 6)),
            )

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            run_counts(self.model, rates=(0.1, 0.1), horizon=10, seed=0, stride=0)


def _stream_arrays(model, horizon, seed, **kwargs):
    """The whole stream as arrays; its per-chunk buffers are reused, so copy."""

    chunks = [
        (matrix, zis.copy(), keys.copy(), eps.copy())
        for _, matrix, zis, keys, eps in slot_stream(
            model, seed=seed, horizon=horizon, **kwargs
        )
    ]
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _reference_path(model, matrix, seed):
    """Initial state, then each slot's state and outcome by inverse CDF."""

    n = model.num_states
    pi = stationary_distribution(model)
    u0 = np.random.default_rng(seed).random()
    state = s0 = min(int(np.searchsorted(np.cumsum(pi), u0)), n - 1)
    states, outcomes = [], []
    for u_state, u_emit in matrix[:, 2:4]:
        cdf = np.cumsum(model.transition[state])
        state = min(int(np.searchsorted(cdf, u_state, side="right")), n - 1)
        cdf = np.cumsum(model.emission[state])
        outcomes.append(min(int(np.searchsorted(cdf, u_emit, side="right")), 3))
        states.append(state)
    return s0, np.array(states), np.array(outcomes)


class TestSlotStreamOracle:
    """The stream's observations against independent references."""

    def test_visible_keys_are_the_delayed_states(self):
        model = load_channel(ge_fig_channel())
        horizon = CHUNK_SLOTS + 300  # crosses a chunk boundary
        for delay in (1, 3):
            matrix, zis, keys, eps = _stream_arrays(
                model, horizon, 8, visible=True, delay=delay
            )
            s0, states, outcomes = _reference_path(model, matrix, 8)
            assert np.array_equal(zis, outcomes)
            assert np.all(keys[:delay] == s0)
            assert np.array_equal(keys[delay:], states[:-delay])
            assert eps.shape == (0, 3)

    def test_window_keys_code_the_last_pairs(self):
        model = load_channel(ge_hmm_channel())
        for delay, window_len in ((1, 2), (2, 3)):
            matrix, zis, keys, _ = _stream_arrays(
                model, 3000, 5, visible=False, delay=delay, window_len=window_len
            )
            _, _, outcomes = _reference_path(model, matrix, 5)
            assert np.array_equal(zis, outcomes)
            pairs = [OUTCOMES[zi] for zi in outcomes]
            for t, key in enumerate(keys):
                newest = t - delay  # the latest pair fed back by slot t
                if newest - window_len + 1 < 0:
                    assert key == -1
                else:
                    window = tuple(pairs[newest - window_len + 1 : newest + 1])
                    assert key == _window_code(window)

    def test_predicted_stats_follow_belief_update(self):
        model = load_channel(ge_hmm_channel())
        for delay in (1, 2):
            matrix, zis, _, eps = _stream_arrays(
                model, 1500, 3, visible=False, delay=delay, predict=True
            )
            _, _, outcomes = _reference_path(model, matrix, 3)
            assert np.array_equal(zis, outcomes)
            ahead = np.linalg.matrix_power(model.transition, delay - 1)
            belief = Belief(stationary_distribution(model))
            for t in range(len(zis)):
                if t >= delay:
                    belief = belief_update(model, belief, OUTCOMES[outcomes[t - delay]])
                ref = cond_erasure_hidden(model, Belief(belief.probs @ ahead))
                np.testing.assert_allclose(
                    eps[t], (ref.eps1, ref.eps2, ref.eps12), rtol=0, atol=1e-12
                )


_FALLBACK_SNIPPET = """
import json
import numpy as np
from duocast.channel import ge_visible
from duocast.kernel import jit_enabled, run_counts

model = ge_visible(0.6, 0.1, 0.5, 0.2)
out = run_counts(model, rates=(0.3, 0.3), horizon=4000, seed=21, stride=50)
print(json.dumps({
    "jit": jit_enabled(),
    "queues": out.queues.tolist(),
    "exits": out.exits.tolist(),
    "record_tail": out.record[-1].tolist(),
}))
"""


class TestNumbaFallback:
    def test_pure_python_path_gives_identical_results(self):
        env = dict(os.environ)
        env["DUOCAST_NO_NUMBA"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", _FALLBACK_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        fallback = json.loads(proc.stdout)
        assert fallback["jit"] is False
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        out = run_counts(model, rates=(0.3, 0.3), horizon=4000, seed=21, stride=50)
        assert out.queues.tolist() == fallback["queues"]
        assert out.exits.tolist() == fallback["exits"]
        assert out.record[-1].tolist() == fallback["record_tail"]
