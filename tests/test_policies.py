"""Tests for the action-selection policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import count_oracle
from channel_docs import noisy
from duocast.channel import load_channel
from duocast.kernel import probabilistic_draws, probabilistic_tables
from duocast.policies import (
    ACTION_SETS,
    action_weights,
    link_intents,
    maxweight_decide,
    per_state_memoryless_decide,
    probabilistic_decide,
)
from duocast.queuenet import (
    ACTION_LINKS,
    ALLOWED_LINKS,
    LINK_NAMES,
    QueueNetwork,
    link_flags,
    link_mask,
)


def triple(e1, e2, e12):
    """An (eps1, eps2, eps12) triple, checked as `ErasureStats` would be."""

    assert 0 <= e12 <= min(e1, e2) and e1 + e2 - e12 <= 1
    return (e1, e2, e12)


def ratio_list(ratios):
    """``{(j, link): ratio}`` as the list in link-bit order, 0.0 where absent."""

    return [ratios.get((j, link), 0.0) for j in (1, 2) for link in LINK_NAMES]


class TestMaxWeight:
    def test_all_empty_idles(self):
        queues = ((0, 0, 0), (0, 0, 0))
        assert maxweight_decide(queues, triple(0.3, 0.4, 0.1)) == (0, link_mask({}))

    def test_side_queues_trigger_reactive(self):
        queues = ((0, 5, 0), (0, 5, 0))
        stats = triple(0.5, 0.5, 0.25)
        weights = action_weights(queues, stats)
        assert weights[3] == 5.0
        assert max(weights[1], weights[2], weights[4], weights[5]) == 0.0
        assert maxweight_decide(queues, stats) == (
            3, link_mask({(1, "24"): 1, (2, "24"): 1}))

    @pytest.mark.parametrize("e1,e2", [(0.3, 0.6), (0.7, 0.2), (0.0, 0.0)])
    def test_fresh_backlog_prefers_proactive(self, e1, e2):
        queues = ((10, 0, 0), (10, 0, 0))
        stats = triple(e1, e2, 0.0)
        weights = action_weights(queues, stats)
        assert weights[4] == 20.0
        assert weights[1] == pytest.approx(10.0)
        assert weights[2] == pytest.approx(10.0)
        assert maxweight_decide(queues, stats)[0] == 4

    def test_coded_backlog_served_by_action_five(self):
        queues = ((0, 0, 8), (0, 0, 8))
        stats = triple(0.4, 0.4, 0.1)
        weights = action_weights(queues, stats)
        assert weights[5] == pytest.approx(14.4)
        assert maxweight_decide(queues, stats) == (5, link_mask({
            (1, "32"): 1, (1, "34"): 1, (2, "32"): 1, (2, "34"): 1,
        }))

    def test_reactive_set_cannot_see_coded_queues(self):
        queues = ((0, 0, 8), (0, 0, 8))
        stats = triple(0.4, 0.4, 0.1)
        assert maxweight_decide(queues, stats, "A3")[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        queues = ((3, 0, 0), (3, 0, 0))
        stats = triple(0.5, 0.5, 0.2)
        weights = action_weights(queues, stats)
        assert weights[1] == weights[2] == pytest.approx(2.4)
        assert maxweight_decide(queues, stats, "A2")[0] == 1

    def test_mixed_intents(self):
        queues = ((0, 2, 5), (0, 7, 3))
        intents = link_intents(5, queues)
        assert intents == link_mask({
            (1, "32"): 1, (1, "34"): 1, (2, "32"): 0, (2, "34"): 1,
        })

    def test_accepts_queue_network(self):
        net = QueueNetwork()
        net.new_arrival(1)
        net.new_arrival(1)
        stats = triple(0.2, 0.3, 0.1)
        from_net = maxweight_decide(net, stats)
        from_tuple = maxweight_decide(((2, 0, 0), (0, 0, 0)), stats)
        assert from_net == from_tuple

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        queues = tuple(tuple(int(v) for v in rng.integers(0, 30, size=3))
                       for _ in range(2))
        e12 = float(rng.uniform(0, 0.5))
        e1 = float(rng.uniform(e12, 1 - 1e-9))
        e2 = float(rng.uniform(e12, min(1.0, 1 + e12 - e1)))
        stats = triple(e1, e2, e12)
        # Power-of-two scale: every weight is multiplied by exactly 8, so
        # even near-ties resolve identically at both scales.
        scaled = tuple(tuple(8 * v for v in side) for side in queues)
        for action_set in ACTION_SETS:
            first, _ = maxweight_decide(queues, stats, action_set)
            second, _ = maxweight_decide(scaled, stats, action_set)
            assert first == second

    def test_weights_have_the_hand_formulas_bits(self):
        # Random queues with many ties and random outcome laws, the triple
        # as Python floats and as the numpy row the packet engine reads.
        rng = np.random.default_rng(11)
        for _ in range(2000):
            queues = tuple(tuple(int(v) for v in rng.integers(0, 12, size=3))
                           for _ in range(2))
            p = rng.dirichlet(np.ones(4))
            row = np.array([p[2] + p[3], p[1] + p[3], p[3]])
            for eps in (tuple(row.tolist()), row):
                got = action_weights(queues, eps)
                want = count_oracle.action_weights(queues, eps)
                assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_determinism(self):
        queues = ((4, 1, 2), (3, 5, 0))
        stats = triple(0.45, 0.3, 0.12)
        first = maxweight_decide(queues, stats)
        assert all(maxweight_decide(queues, stats) == first for _ in range(5))


def draw(action_rows, ratios, draws, keys=None):
    """Each slot's (actions, coins) from `kernel.probabilistic_draws`.

    ``draws`` holds one row of 13 uniforms per slot, the stream's columns
    4-16; every slot observes key 0 unless ``keys`` says otherwise.
    """

    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    rows = np.hstack((np.zeros((len(draws), 4)), draws))
    keys = np.zeros(len(draws), dtype=np.int64) if keys is None else np.asarray(keys)
    return probabilistic_draws(rows, keys, np.cumsum(action_rows, axis=1),
                               np.asarray(ratios, dtype=float))


def decide(action_rows, ratios, draws):
    """One slot's decision: its kernel draw, masked by `probabilistic_decide`."""

    (action,), (coins,) = draw(action_rows, ratios, draws)
    return probabilistic_decide(int(action), int(coins))


class TestProbabilistic:
    def test_deterministic_distribution(self):
        rows = [[0, 1, 0, 0, 0, 0]]
        ratios = [1.0] * 12
        rng = np.random.default_rng(3)
        actions, coins = draw(rows, ratios, rng.random((20, 13)))
        for action, coin in zip(actions.tolist(), coins.tolist()):
            decision = probabilistic_decide(action, coin)
            assert decision == (1, link_mask({(1, "14"): 1, (1, "12"): 1}))

    def test_missing_key_errors(self):
        # Key 1 has a NaN row, the table's mark of a key with no distribution,
        # and so has key 2, whose NaN is its last entry; the first observed
        # such key is named.  Key -1 is no observation yet, which idles.
        rows = [[1, 0, 0, 0, 0, 0], [float("nan")] * 6, [0.2] * 5 + [float("nan")]]
        for keys, named in (([0, -1, 1, 2], 1), ([0, -1, 2, 1], 2)):
            with pytest.raises(ValueError, match="no action distribution for "
                                                 f"observation {named}$"):
                draw(rows, [0.0] * 12, [[0.5] * 13] * 4, keys=keys)
        actions, _ = draw(rows, [0.0] * 12, [[0.5] * 13] * 2, keys=[-1, 0])
        assert actions.tolist() == [0, 0]
        # A key past the table's end is caught when the table is checked.
        model = load_channel(noisy())
        with pytest.raises(ValueError, match="action_table needs 16 rows"):
            probabilistic_tables(model, False, 2, rows, np.zeros((2, 6)))

    def test_consumes_thirteen_draws_regardless_of_action(self):
        # Each link's coin has its own column of the slot's 13 draws, so the
        # action that comes up moves no coin.
        coins = [0.05 * k for k in range(1, 13)]
        ratios = [0.33] * 12
        for action in range(1, 6):
            row = [0.0] * 6
            row[action] = 1.0
            got, intents = decide([row], ratios, [0.5] + coins)
            assert got == action
            assert intents & ~ALLOWED_LINKS[action] == 0
            flags = link_flags(intents)
            for j, link in ACTION_LINKS[action]:
                coin = coins[6 * (j - 1) + LINK_NAMES.index(link)]
                assert flags[j, link] == int(coin < 0.33)

    def test_coin_order_is_fixed(self):
        # Action coin first, then receiver-1 links 12,13,14,24,32,34, then
        # receiver 2.  Give only link 32 of receiver 2 a winning coin.
        values = [0.99] + [0.9] * 12
        values[1 + 6 + 4] = 0.1
        ratios = ratio_list({(2, "32"): 0.5})
        decision = decide([[0, 0, 0, 0, 0, 1]], ratios, values)
        assert decision == (5, link_mask({
            (1, "32"): 0, (1, "34"): 0, (2, "32"): 1, (2, "34"): 0,
        }))

    def test_action_frequencies_match_distribution(self):
        row = [0.1, 0.2, 0.3, 0.15, 0.15, 0.1]
        rng = np.random.default_rng(12345)
        n = 200_000
        actions, _ = draw([row], [0.0] * 12, rng.random((n, 13)))
        counts = np.bincount(actions, minlength=6)
        for a, p in enumerate(row):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[a] / n - p) < 3 * sigma + 1e-12

    def test_intent_frequencies_match_ratio(self):
        rows = [[0, 1, 0, 0, 0, 0]]
        ratios = ratio_list({(1, "14"): 0.3})
        rng = np.random.default_rng(99)
        n = 100_000
        actions, coins = draw(rows, ratios, rng.random((n, 13)))
        assert (actions == 1).all()
        hits = np.count_nonzero(coins & ALLOWED_LINKS[1] & link_mask({(1, "14"): 1}))
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) < 3 * sigma

    def test_row_shorter_probability_mass_falls_to_last_action(self):
        # Guard against drifting cumulative sums: mass exactly 1 picks within.
        action, _ = decide([[0.5, 0.5, 0, 0, 0, 0]], [0.0] * 12,
                           [0.999999] + [0.5] * 12)
        assert action == 1

    def test_draw_on_a_running_sum_takes_the_next_action(self):
        # An action is drawn when its running sum exceeds the draw, so a draw
        # equal to a running sum passes it, repeated sums included.
        rows = [[0.25, 0.25, 0, 0.25, 0.25, 0]]
        actions, _ = draw(rows, [0.0] * 12, [[u] + [0.5] * 12 for u in (0.25, 0.5, 0.75)])
        assert actions.tolist() == [1, 3, 4]


class TestPerState:
    def test_dispatch_by_observed_state(self):
        subsystems = {
            0: ((0, 4, 0), (0, 4, 0)),
            1: ((6, 0, 0), (0, 0, 0)),
        }
        stats = {0: triple(0.5, 0.5, 0.25), 1: triple(0.2, 0.9, 0.1)}
        assert per_state_memoryless_decide(subsystems, 0, stats[0])[0] == 3
        d1 = per_state_memoryless_decide(subsystems, 1, stats[1])
        assert d1 == maxweight_decide(subsystems[1], stats[1], "A3")
        assert d1[0] == 1

    def test_single_state_equals_reactive_maxweight(self):
        queues = ((2, 3, 0), (1, 0, 0))
        stats = {0: triple(0.3, 0.3, 0.1)}
        direct = maxweight_decide(queues, stats[0], "A3")
        dispatched = per_state_memoryless_decide({0: queues}, 0, stats[0])
        assert direct == dispatched

