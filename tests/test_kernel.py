"""Counts kernel vs reference packet engine, plus kernel edge cases."""

import json
from dataclasses import replace

import numpy as np
import pytest

from duocast.channel import (
    MAX_WINDOW_LEN,
    OUTCOMES,
    Belief,
    belief_update,
    cond_erasure_hidden,
    cond_erasure_visible,
    ge_visible,
    load_channel,
    memoryless,
    stationary_distribution,
    window_keys,
)
from duocast import harness, kernel
from duocast.harness import Scenario, _probabilistic_tables, run
from duocast.kernel import SimTrace, jit_enabled, run_counts, slot_stream
from duocast.policies import probabilistic_decide
from duocast.queuenet import ALLOWED_LINKS, LINK_BITS, LINK_NAMES
from duocast.regions import diagonal_rate, region_hidden_L
from channel_docs import alternating, bursty, memoryless_chain, noisy
import lp_corpus
import trace_corpus


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
            (bursty(), True, 1, {"kind": "maxweight", "action_set": "A5"}, (0.28, 0.30)),
            (bursty(), True, 3, {"kind": "maxweight", "action_set": "A5"}, (0.25, 0.28)),
            (alternating(), True, 1, {"kind": "maxweight", "action_set": "A3"}, (0.30, 0.30)),
            (memoryless_chain(), True, 1, {"kind": "maxweight", "action_set": "A2"}, (0.25, 0.25)),
            (noisy(), False, 1, {"kind": "maxweight", "action_set": "A5"}, (0.20, 0.20)),
            (noisy(), False, 2, {"kind": "maxweight", "action_set": "A5"}, (0.18, 0.18)),
            (noisy(), False, 2, {"kind": "maxweight", "action_set": "A3"}, (0.18, 0.18)),
            (noisy(), False, 3, {"kind": "maxweight", "action_set": "A5"}, (0.17, 0.17)),
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
            channel=bursty(),
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
            channel=bursty(),
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

    @pytest.mark.parametrize("delay", [1, 2])
    def test_probabilistic_hidden_window_matches(self, delay):
        model = load_channel(noisy())
        r = 0.85 * diagonal_rate(region_hidden_L(model, 2, delay))
        scenario = Scenario(
            channel=noisy(),
            rates=(r, r),
            horizon=3000,
            seed=13,
            visible=False,
            delay=delay,
            policy={"kind": "probabilistic", "window_len": 2},
            stride=1,
            engine="counts",
        )
        counts = run(scenario)
        packets = run(replace(scenario, engine="packets"))
        assert_traces_identical(counts, packets)
        assert packets.audit_passed is True

    def test_multiple_seeds_still_agree(self):
        for seed in (0, 1, 2):
            base = Scenario(
                channel=bursty(),
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
        assert np.array_equal(a.final_queues, b.final_queues)

    def test_conservation_and_throughput(self):
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        out = run_counts(model, rates=(0.2, 0.2), horizon=20000, seed=11)
        assert isinstance(out, SimTrace)
        assert out.arrivals.sum() == out.exits.sum() + out.final_queues.sum()
        assert abs(out.delivered_rate(1) - 0.2) < 0.02
        assert abs(out.delivered_rate(2) - 0.2) < 0.02

    @pytest.mark.parametrize(
        "name", ("visible_mw", "hidden_mw", "prob_visible", "prob_hidden")
    )
    def test_returns_a_conserving_sim_trace(self, name):
        case = _counts_case(name, 1)
        out = run_counts(case.pop("model"), horizon=3000, seed=2, stride=7, **case)
        assert isinstance(out, SimTrace)
        assert out.audit_passed is None
        assert len(out.times) == len(out.record) == 3000 // 7
        out.check_conservation()

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
        assert list(out.times) == [100 * k for k in range(1, 11)]
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

    @pytest.mark.parametrize("field,value", [
        ("rates", (0.1,)),
        ("rates", ("a", 0.1)),
        ("seed", 1.5),
        ("seed", -1),
        ("visible", "no"),
    ])
    def test_bad_field_is_named(self, field, value):
        kwargs = dict(rates=(0.1, 0.1), horizon=10, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            run_counts(self.model, **kwargs)

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

    def test_probabilistic_needs_ratio_table(self):
        # Without it no link would ever activate.
        with pytest.raises(ValueError, match="ratio_table"):
            run_counts(self.model, rates=(0.1, 0.1), horizon=10, seed=0,
                       policy="probabilistic", action_table=np.full((1, 6), 1 / 6))

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
        ("window_len", MAX_WINDOW_LEN + 1),
        ("seed", 1.5),
        ("seed", -1),
        ("visible", "no"),
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
        model = load_channel(bursty() if visible else noisy())
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
    """The whole stream as arrays, each slot's erasure triple as its own row."""

    chunks = [
        (rows, zis, keys, table[at]) for _, rows, zis, keys, (table, at)
        in slot_stream(model, seed=seed, horizon=horizon, **kwargs)
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
        model = load_channel(bursty())
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

    def test_visible_triples_are_the_per_state_rows(self):
        model = load_channel(bursty())
        horizon = 2500  # two full chunks of 1024 slots and a part
        for delay in (1, 2, 3):
            _, _, keys, eps = _stream_arrays(model, horizon, 6, visible=True,
                                             delay=delay, predict=True)
            stats = [cond_erasure_visible(model, s, delay)
                     for s in range(model.num_states)]
            expected = [(stats[k].eps1, stats[k].eps2, stats[k].eps12)
                        for k in keys.tolist()]
            assert np.array_equal(eps, np.array(expected))
            _, _, plain_keys, no_eps = _stream_arrays(model, horizon, 6, visible=True,
                                                      delay=delay)
            assert np.array_equal(plain_keys, keys)
            assert no_eps.shape == (0, 3)
            # One per-state table for the whole run, indexed by each slot's key.
            chunks = [chunk[3:] for chunk in slot_stream(
                model, seed=6, horizon=horizon, visible=True, delay=delay,
                predict=True)]
            first_table = chunks[0][1][0]
            assert np.array_equal(first_table, np.array(
                [(st.eps1, st.eps2, st.eps12) for st in stats]))
            for chunk_keys, (table, at) in chunks:
                assert table is first_table and at is chunk_keys

    # One state, and chains whose rows hold zeros: repeated cdf entries are
    # where a vectorized draw and a scalar scan could part.
    @pytest.mark.parametrize("doc", [memoryless_chain(), alternating(),
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
        model = load_channel(noisy())
        for delay, window_len in ((1, 2), (2, 3)):
            matrix, zis, keys, _ = _stream_arrays(
                model, 3000, 5, visible=False, delay=delay, window_len=window_len
            )
            _, _, outcomes = _reference_path(model, matrix, 5)
            assert np.array_equal(zis, outcomes)
            pairs = [OUTCOMES[zi] for zi in outcomes]
            windows = window_keys(window_len)
            for t, key in enumerate(keys):
                newest = t - delay  # the latest pair fed back by slot t
                if newest - window_len + 1 < 0:
                    assert key == -1
                else:
                    window = tuple(pairs[newest - window_len + 1 : newest + 1])
                    assert windows[key] == window

    def test_predicted_stats_follow_belief_update(self):
        model = load_channel(noisy())
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


def nested_loop_fold(pairs, belief, emis_t, trans_t):
    """The belief fold as a nested loop, the reference for `kernel._fold`."""

    num_states = len(belief)
    scratch = [0.0] * num_states
    flat = []
    for old in pairs:
        if old >= 0:
            col = emis_t[old]
            total = 0.0
            for k in range(num_states):
                v = belief[k] * col[k]
                scratch[k] = v
                total += v
            if total <= 0.0:
                raise ValueError("feedback pair has probability zero "
                                 "under the current belief")
            for k in range(num_states):
                col = trans_t[k]
                acc = 0.0
                for k2 in range(num_states):
                    acc += scratch[k2] * col[k2]
                belief[k] = acc / total
        flat.extend(belief)
    return flat


class TestFoldOracle:
    """The generated fold against the nested loop, bit for bit."""

    # A lone state cannot lose all its inflow, so n = 1 has no signed zeros.
    @pytest.mark.parametrize("n,signed_zero", [
        (n, signed_zero) for n in (1, 2, 3, 4, 5, 6, 40)
        for signed_zero in (False, True) if n > 1 or not signed_zero
    ])
    def test_rows_and_belief_equal_the_nested_loop(self, n, signed_zero):
        rng = np.random.default_rng(1400 + n)
        slots = 300 if n == 40 else 2000
        for _ in range(1 if n == 40 else 3):
            model = lp_corpus._random_chain(rng, n)
            transition = model.transition.copy()
            if signed_zero:
                # No state enters state 0, through -0.0 entries, which the
                # fold's leading 0.0 turns into a +0.0 belief.
                transition[:, 0] = -0.0
                transition[:, 1:] /= transition[:, 1:].sum(axis=1, keepdims=True)
            emis_t = tuple(map(tuple, model.emission.T.tolist()))
            trans_t = transition.T.tolist()
            pairs = rng.integers(-1, 4, slots).tolist()
            pairs[:3] = [-1, -1, -1]  # no pair fed back yet
            want_belief = stationary_distribution(model).tolist()
            want = nested_loop_fold(pairs, want_belief, emis_t, trans_t)
            # Several calls carry the belief across, as chunks do.
            belief = stationary_distribution(model).tolist()
            fold = kernel._fold(n)
            got = []
            for lo, hi in ((0, 1), (1, 8), (8, 261), (261, slots)):
                got += fold(pairs[lo:hi], belief, emis_t, trans_t)
            assert got == want
            assert belief == want_belief
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(np.signbit(belief), np.signbit(want_belief))
            if signed_zero:
                assert not np.signbit(belief[0]) and belief[0] == 0.0

    def test_a_pair_of_probability_zero_is_rejected(self):
        # Outcome 3 (both erased) never comes from state 0, and the belief
        # is sure of state 0.
        emis_t = ((0.5, 0.25), (0.25, 0.25), (0.25, 0.25), (0.0, 0.25))
        trans_t = [[0.9, 0.2], [0.1, 0.8]]
        for fold in (kernel._fold(2), nested_loop_fold):
            with pytest.raises(ValueError, match="feedback pair has probability "
                                                 "zero under the current belief"):
                fold([-1, 3], [1.0, 0.0], emis_t, trans_t)


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
        return dict(model=load_channel(bursty()), rates=(0.28, 0.3))
    if name == "hidden_mw":
        return dict(model=load_channel(noisy()), rates=(0.18, 0.18),
                    visible=False)
    if name == "hidden_mw_3_states":
        return dict(model=lp_corpus._random_chain(np.random.default_rng(3), 3),
                    rates=(0.15, 0.15), visible=False)
    visible = name == "prob_visible"
    doc = bursty() if visible else noisy()
    policy = {"kind": "probabilistic", "target": [0.2, 0.2]}
    if not visible:
        policy["window_len"] = 2
    scenario = Scenario(channel=doc, rates=(0.15, 0.15), horizon=10,
                        seed=0, visible=visible, delay=delay, policy=policy)
    model = scenario.model()
    tables = _probabilistic_tables(scenario, model)
    return dict(model=model, rates=(0.15, 0.15), visible=visible,
                policy="probabilistic", action_table=tables.action_table,
                ratio_table=tables.ratio_table, window_len=tables.window_len)


class TestChunkInvariance:
    """Where the stream cuts its chunks cannot change a trace."""

    # Each kernel path at delays 1 and 3, and the fold of a three-state chain
    # (noisy() has four states) at delay 2.
    @pytest.mark.parametrize("name,delay", [
        (name, delay)
        for name in ("visible_mw", "hidden_mw", "prob_visible", "prob_hidden")
        for delay in (1, 3)
    ] + [("hidden_mw_3_states", 2)])
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
            assert np.array_equal(other.times, first.times)
            assert np.array_equal(other.final_queues, first.final_queues)
            assert np.array_equal(other.arrivals, first.arrivals)
            assert np.array_equal(other.exits, first.exits)

    def test_packets_trace_equal_for_every_chunk_length(self, monkeypatch):
        scenario = Scenario(
            channel=noisy(),
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


def scalar_draw(action_rows, ratios, key, draws):
    """One slot's (action, coin mask) by a scalar loop over its 13 uniforms.

    The oracle of `kernel.probabilistic_draws`.  ``draws`` are the slot's
    columns 4-16: the action is the first whose running sum over
    ``action_rows[key]`` exceeds ``draws[0]``, 0 for key -1 (no observation
    yet), and bit b of the coin mask is set when ``draws[1 + b] < ratios[b]``.
    """

    action = 0
    if key >= 0:
        u = draws[0]
        acc = 0.0
        for action, p in enumerate(action_rows[key]):
            acc += p
            if u < acc:
                break
        else:
            # No running sum exceeds the draw: action 5, unless the last sum
            # is not >= 0 (a NaN row).
            if not acc >= 0.0:
                raise ValueError(f"no action distribution for observation {key}")
    coins = 0
    for b, ratio in enumerate(ratios):
        if draws[1 + b] < ratio:
            coins |= 1 << b
    return action, coins


class TestOneLinkLayout:
    """Link masks, kernel coins and ratio tables share one bit layout."""

    def test_each_bit_is_its_coin_column_and_ratio_index(self, monkeypatch):
        # Give every link a distinct ratio, so a permuted table would show.
        synthesize = harness.synthesize_policy

        def distinct(*args):
            dist, _ = synthesize(*args)
            return dist, {j: {link: (6 * (j - 1) + l + 1) / 16
                              for l, link in enumerate(LINK_NAMES)} for j in (1, 2)}

        monkeypatch.setattr(harness, "synthesize_policy", distinct)
        scenario = Scenario(channel=bursty(), rates=(0.2, 0.2), horizon=100,
                            policy={"kind": "probabilistic", "target": [0.2, 0.2]})
        tables = _probabilistic_tables(scenario, scenario.model())
        ratios = tables.ratio_table.ravel()
        for (j, link), bit in LINK_BITS.items():
            b = bit.bit_length() - 1
            assert ratios[b] == (6 * (j - 1) + LINK_NAMES.index(link) + 1) / 16
            # Only this link's coin, column 5 + b, falls below its ratio.
            row = np.ones((1, kernel.RNG_COLUMNS))
            row[0, 4] = 0.5  # the action draw
            row[0, 5 + b] = 0.0
            action = next(a for a, allowed in enumerate(ALLOWED_LINKS) if allowed & bit)
            onehot_cdf = np.cumsum([[float(a == action) for a in range(6)]], axis=1)
            actions, coins = kernel.probabilistic_draws(
                row, np.zeros(1, dtype=np.int64), onehot_cdf, ratios)
            assert coins[0] == bit
            assert probabilistic_decide(int(actions[0]), int(coins[0])) == (action, bit)

    @staticmethod
    def _check_stream(model, visible, window_len, action_table, ratio_table):
        """Each slot's kernel draw against the scalar oracle, with ``==``.

        Returns the chunks read, the keys seen and the distinct decisions of
        the observed slots.
        """
        action_cdf, ratios = kernel.probabilistic_tables(
            model, visible, window_len, action_table, ratio_table)
        rows_list, ratio_list = action_table.tolist(), ratios.tolist()
        chunks = 0
        keys_seen, decisions = set(), set()
        for _, rows, _, keys, _ in slot_stream(model, seed=3, horizon=1200,
                                               visible=visible, delay=1,
                                               window_len=window_len):
            chunks += 1
            actions, coins = kernel.probabilistic_draws(rows, keys, action_cdf, ratios)
            for draws, key, action, coin in zip(rows[:, 4:].tolist(), keys.tolist(),
                                                actions.tolist(), coins.tolist()):
                assert (action, coin) == scalar_draw(rows_list, ratio_list, key, draws)
                keys_seen.add(key)
                if key >= 0:
                    decisions.add(probabilistic_decide(action, coin))
        return chunks, keys_seen, decisions

    @pytest.mark.parametrize("visible", [True, False])
    def test_decisions_are_the_kernel_coins_under_each_action(self, monkeypatch, visible):
        # The kernel's draw equals the scalar oracle's, chunk after chunk.
        for chunk in (256, 1024):
            monkeypatch.setattr(kernel, "CHUNK_SLOTS", chunk)
            self._check_tables(visible, chunk)

    def _check_tables(self, visible, chunk):
        if visible:
            policy = {"kind": "probabilistic", "target": [0.2, 0.2]}
        else:
            policy = {"kind": "probabilistic", "target": [0.15, 0.15], "window_len": 2}
        scenario = Scenario(channel=bursty() if visible else noisy(), rates=(0.2, 0.2),
                            horizon=1200, visible=visible, policy=policy)
        model = scenario.model()
        tables = _probabilistic_tables(scenario, model)
        chunks, keys, decisions = self._check_stream(
            model, visible, tables.window_len, tables.action_table, tables.ratio_table)
        assert chunks == -(-1200 // chunk)
        # A hidden window is not observed in the first window_len slots.
        assert (-1 in keys) == (not visible)
        # Several actions come up, and the coins vary the intents of some.
        actions = {action for action, _ in decisions}
        assert len(actions) >= 3 and len(decisions) > len(actions)

        # Random tables, some entries zero, so that cdf entries repeat, and
        # every other row scaled down, so that its mass falls short of 1.  The
        # second channel never erases both receivers at once, so the windows
        # holding that outcome are never observed, and their rows are NaN, as
        # synthesized tables leave a window of zero mass.
        rng = np.random.default_rng(18)
        never_both = load_channel({
            "states": 2, "transition": [[0.8, 0.2], [0.3, 0.7]],
            "emission": [[0.5, 0.3, 0.2, 0.0], [0.1, 0.4, 0.5, 0.0]]})
        cases = [(model, visible, tables.window_len)] + [(never_both, False, 2)]
        for case_model, case_visible, window_len in cases:
            n_keys = case_model.num_states if case_visible else 4 ** window_len
            for _ in range(3):
                table = rng.dirichlet(np.ones(6), size=n_keys)
                table[rng.random(table.shape) < 0.3] = 0.0
                table[:, 5] += table.sum(axis=1) == 0.0  # no empty row
                table /= table.sum(axis=1, keepdims=True)
                table[::2] *= 0.9
                if case_model is never_both:
                    table[["3" in np.base_repr(k, 4) for k in range(n_keys)]] = np.nan
                chunks, keys, decisions = self._check_stream(
                    case_model, case_visible, window_len, table, rng.random((2, 6)))
                assert len(keys) >= min(n_keys, 4)
                assert len({action for action, _ in decisions}) >= 3

    def test_missing_row_names_the_key_on_both_engines(self, monkeypatch):
        build = harness._probabilistic_tables

        def without_state_1(scenario, model):
            tables = build(scenario, model)
            tables.action_table[1] = np.nan
            return tables

        monkeypatch.setattr(harness, "_probabilistic_tables", without_state_1)
        for engine in ("counts", "packets"):
            scenario = Scenario(channel=bursty(), rates=(0.2, 0.2), horizon=2000,
                                policy={"kind": "probabilistic", "target": [0.2, 0.2]},
                                engine=engine)
            with pytest.raises(ValueError,
                               match=r"^no action distribution for observation 1$"):
                run(scenario)


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

    def test_movement_logs_reproduce_the_recorded_digests(self, tmp_path):
        doc = json.loads(trace_corpus.CORPUS_PATH.read_text())
        scenarios = trace_corpus.movement_logs()
        assert set(scenarios) == set(doc["movement_logs"])
        bitwise = lp_corpus.compares_bits(doc["environment"])
        for name, scenario in scenarios.items():
            digest = trace_corpus.log_digest(scenario, tmp_path / f"{name}.jsonl")
            assert (tmp_path / f"{name}.jsonl").stat().st_size > 0
            if bitwise:
                assert digest == doc["movement_logs"][name], name
