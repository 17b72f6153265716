"""Counts kernel vs reference packet engine, plus kernel edge cases."""

import json
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
from duocast import kernel
from duocast.harness import Scenario, _probabilistic_tables, _window_code, run
from duocast.kernel import SimCounts, jit_enabled, run_counts, slot_stream
from duocast.regions import diagonal_rate, region_hidden_L
import lp_corpus
import trace_corpus


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
            (ge_hmm_channel(), False, 3, {"kind": "maxweight", "action_set": "A5"}, (0.17, 0.17)),
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
        assert jit_enabled() is False

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

    def test_unknown_action_set_names_the_field(self):
        with pytest.raises(ValueError, match="action_set"):
            run_counts(self.model, rates=(0.1, 0.1), horizon=10, seed=0, action_set="A4")

    def test_negative_window_len_names_the_field(self):
        with pytest.raises(ValueError, match="window_len"):
            run_counts(
                self.model,
                rates=(0.1, 0.1),
                horizon=10,
                seed=0,
                visible=False,
                policy="probabilistic",
                action_table=np.full((1, 6), 1 / 6),
                window_len=-1,
            )

    def test_fractional_horizon_names_the_field(self):
        with pytest.raises(ValueError, match="horizon"):
            run_counts(self.model, rates=(0.1, 0.1), horizon=10.5, seed=0)

    @pytest.mark.parametrize("field,value", [
        ("delay", 1.5),
        ("delay", 2.0),
        ("stride", 2.5),
        ("stride", 2.0),
    ])
    def test_non_integer_field_names_the_field(self, field, value):
        kwargs = dict(rates=(0.1, 0.1), horizon=10, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            run_counts(self.model, **kwargs)

    @pytest.mark.parametrize("field,value", [
        ("horizon", 10.5),
        ("horizon", 0),
        ("delay", 1.5),
        ("delay", 0),
        ("window_len", -1),
        ("window_len", 1.5),
        ("window_len", 2.0),
        ("window_len", kernel.MAX_WINDOW + 1),
    ])
    def test_slot_stream_names_a_bad_field(self, field, value):
        kwargs = dict(seed=0, horizon=10, visible=True, delay=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            list(slot_stream(self.model, **kwargs))

    @pytest.mark.parametrize("visible,window_len,rows,needed", [
        (True, 0, 1, 4),     # the bursty channel has four states
        (False, 2, 4, 16),   # two feedback pairs have 16 window codes
    ])
    def test_short_action_table_names_the_field(self, visible, window_len, rows,
                                                needed):
        model = load_channel(ge_fig_channel() if visible else ge_hmm_channel())
        with pytest.raises(ValueError, match=f"action_table needs {needed} rows"):
            run_counts(
                model,
                rates=(0.1, 0.1),
                horizon=100,
                seed=0,
                visible=visible,
                policy="probabilistic",
                action_table=np.full((rows, 6), 1 / 6),
                window_len=window_len,
            )


def _stream_arrays(model, horizon, seed, **kwargs):
    """The whole stream as arrays."""

    chunks = [
        chunk[1:] for chunk in slot_stream(model, seed=seed, horizon=horizon, **kwargs)
    ]
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _inverse_cdf(probs, u):
    """The first index whose running sum exceeds ``u``, else the last index."""

    total = 0.0
    for k, p in enumerate(probs.tolist()):
        total += p
        if u < total:
            return k
    return len(probs) - 1


def _reference_path(model, matrix, seed):
    """Initial state, then each slot's state and outcome by inverse CDF."""

    n = model.num_states
    pi = stationary_distribution(model)
    u0 = np.random.default_rng(seed).random()
    state = s0 = min(int(np.searchsorted(np.cumsum(pi), u0)), n - 1)
    states, outcomes = [], []
    for u_state, u_emit in matrix[:, 2:4].tolist():
        state = _inverse_cdf(model.transition[state], u_state)
        outcomes.append(_inverse_cdf(model.emission[state], u_emit))
        states.append(state)
    return s0, np.array(states), np.array(outcomes)


def zero_rows_channel() -> dict:
    """Three states whose transition and emission rows hold zeros mid-row."""

    return {
        "states": 3,
        "transition": [[0.5, 0.0, 0.5], [0.0, 0.3, 0.7], [0.4, 0.6, 0.0]],
        "emission": [[0.5, 0.0, 0.0, 0.5], [0.0, 0.4, 0.0, 0.6],
                     [0.25, 0.0, 0.75, 0.0]],
    }


class TestSlotStreamOracle:
    """The stream's observations against independent references."""

    def test_visible_keys_are_the_delayed_states(self):
        model = load_channel(ge_fig_channel())
        horizon = 65836  # 64 chunks of 1024 slots and 300 more
        for delay in (1, 3):
            matrix, zis, keys, eps = _stream_arrays(
                model, horizon, 8, visible=True, delay=delay
            )
            s0, states, outcomes = _reference_path(model, matrix, 8)
            assert np.array_equal(zis, outcomes)
            assert np.all(keys[:delay] == s0)
            assert np.array_equal(keys[delay:], states[:-delay])
            assert eps.shape == (0, 3)

    # One state, and chains whose rows hold zeros: repeated cdf entries are
    # where a vectorized draw and a scalar scan could part.
    @pytest.mark.parametrize("doc", [memoryless_channel(), alternating_channel(),
                                     zero_rows_channel()],
                             ids=["memoryless", "alternating", "zero_rows"])
    def test_draws_match_the_scalar_inverse_cdf(self, doc, monkeypatch):
        model = load_channel(doc)
        monkeypatch.setattr(kernel, "CHUNK_SLOTS", 700)
        horizon = 2500  # four chunks, the last one short
        for visible, delay, window_len in ((True, 1, 0), (True, 3, 0),
                                           (False, 2, 2)):
            matrix, zis, keys, _ = _stream_arrays(
                model, horizon, 4, visible=visible, delay=delay,
                window_len=window_len,
            )
            s0, states, outcomes = _reference_path(model, matrix, 4)
            assert np.array_equal(zis, outcomes)
            if visible:
                assert np.all(keys[:delay] == s0)
                assert np.array_equal(keys[delay:], states[:-delay])
            else:
                lag = delay + window_len - 1  # slots before the first full window
                assert np.all(keys[:lag] == -1)
                codes = 4 * outcomes[: horizon - lag] + outcomes[1 : horizon - lag + 1]
                assert np.array_equal(keys[lag:], codes)

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


# Chunk lengths the stream is cut into: one slot, a prime, the default and
# one longer than every horizon below.
_CHUNK_LENGTHS = (1, 7, 1024, 65536)


def _chunked_runs(monkeypatch, simulate):
    runs = []
    for length in _CHUNK_LENGTHS:
        monkeypatch.setattr(kernel, "CHUNK_SLOTS", length)
        runs.append(simulate())
    return runs


def _counts_case(name, delay):
    """run_counts keyword arguments for one kernel path at ``delay``."""

    if name == "visible_mw":
        return dict(model=load_channel(ge_fig_channel()), rates=(0.28, 0.3))
    if name == "hidden_mw":
        return dict(model=load_channel(ge_hmm_channel()), rates=(0.18, 0.18),
                    visible=False)
    visible = name == "prob_visible"
    doc = ge_fig_channel() if visible else ge_hmm_channel()
    policy = {"kind": "probabilistic", "target": [0.2, 0.2]}
    if not visible:
        # The window tables do not depend on the delay; hidden scenarios only
        # admit delay 1, so build them there.
        policy["window_len"] = 2
    scenario = Scenario(channel=doc, rates=(0.15, 0.15), horizon=10,
                        seed=0, visible=visible, delay=delay if visible else 1,
                        policy=policy)
    model = scenario.model()
    tables = _probabilistic_tables(scenario, model)
    return dict(model=model, rates=(0.15, 0.15), visible=visible,
                policy="probabilistic", action_table=tables.action_table,
                ratio_table=tables.ratio_table, window_len=tables.window_len)


class TestChunkInvariance:
    """Where the stream cuts its chunks cannot change a trace."""

    @pytest.mark.parametrize("delay", (1, 3))
    @pytest.mark.parametrize(
        "name", ("visible_mw", "hidden_mw", "prob_visible", "prob_hidden")
    )
    def test_counts_equal_for_every_chunk_length(self, monkeypatch, name, delay):
        case = _counts_case(name, delay)
        model = case.pop("model")
        # stride 5 divides none of the chunk lengths but 1, so records fall
        # at every offset into a chunk.
        runs = _chunked_runs(monkeypatch, lambda: run_counts(
            model, horizon=3000, seed=17, delay=delay, stride=5, **case))
        first = runs[0]
        assert first.exits.sum() > 0
        for other in runs[1:]:
            assert np.array_equal(other.record, first.record)
            assert np.array_equal(other.record_times, first.record_times)
            assert np.array_equal(other.queues, first.queues)
            assert np.array_equal(other.arrivals, first.arrivals)
            assert np.array_equal(other.exits, first.exits)

    def test_packets_trace_equal_for_every_chunk_length(self, monkeypatch):
        scenario = Scenario(
            channel=ge_hmm_channel(),
            rates=(0.18, 0.18),
            horizon=1500,
            seed=5,
            visible=False,
            delay=2,
            policy={"kind": "maxweight", "action_set": "A5"},
            stride=3,
            engine="packets",
        )
        runs = _chunked_runs(monkeypatch, lambda: run(scenario))
        for other in runs[1:]:
            assert_traces_identical(other, runs[0])
            assert other.audit_passed is True


class TestTraceCorpus:
    """Both engines reproduce the recorded corpus of traces bit for bit."""

    def test_runs_reproduce_the_recorded_corpus(self):
        doc = json.loads(trace_corpus.CORPUS_PATH.read_text())
        groups = trace_corpus.corpus()
        assert {g: set(runs) for g, runs in groups.items()} == {
            g: set(entries) for g, entries in doc["groups"].items()}
        # Elsewhere each run must only complete.
        bitwise = lp_corpus.compares_bits(doc["environment"])
        for group, runs in groups.items():
            for name, scenario in runs.items():
                trace = run(scenario)
                trace.check_conservation()
                if bitwise:
                    assert trace_corpus.entry(trace) == doc["groups"][group][name], \
                        (group, name)
