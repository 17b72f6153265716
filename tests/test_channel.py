import re

import numpy as np
import pytest

from channel_docs import alternating, alternating_model, bursty, noisy
from duocast.channel import (
    Belief,
    ChannelModel,
    ErasureStats,
    OUTCOMES,
    _ge_user_chain,
    _outcome_index,
    belief_update,
    cond_erasure_hidden,
    cond_erasure_visible,
    ge_hidden,
    ge_visible,
    load_channel,
    memoryless,
    stationary_distribution,
    visible_stats,
    window_distribution,
)
from duocast.kernel import forgetting_check, prediction_gap
from duocast.regions import hidden_window_stats
from window_fold import filter_bank_gap, stream_outcomes

THREE_STATE_P = np.array(
    [[0.7, 0.2, 0.1], [0.2, 0.4, 0.4], [0.3, 0.01, 0.69]]
)
THREE_STATE_E = np.array(
    [[0.75, 0.1, 0.1, 0.05], [0.2, 0.2, 0.3, 0.3], [0.0, 0.1, 0.2, 0.7]]
)


def three_state_model() -> ChannelModel:
    return ChannelModel(THREE_STATE_P, THREE_STATE_E)


def random_model(rng: np.random.Generator, n: int = 3) -> ChannelModel:
    P = rng.dirichlet(np.ones(n) * 2.0, size=n)
    E = rng.dirichlet(np.ones(4) * 2.0, size=n)
    return ChannelModel(P, E)


def stationary_oracle(P: np.ndarray) -> np.ndarray:
    # Power iteration on the lazy chain (I+P)/2, which converges for any
    # irreducible chain, periodic or not.
    n = P.shape[0]
    lazy = 0.5 * (np.eye(n) + P)
    pi = np.full(n, 1.0 / n)
    for _ in range(200000):
        nxt = pi @ lazy
        if np.abs(nxt - pi).max() < 1e-15:
            return nxt
        pi = nxt
    return pi


class TestChannelModel:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ChannelModel(np.array([[0.5, 0.4], [0.5, 0.5]]), np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ChannelModel(np.array([[1.2, -0.2], [0.5, 0.5]]), np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_rejects_reducible_chain(self):
        P = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="irreducible"):
            ChannelModel(P, np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_rejects_periodic_chain_by_default(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="periodic"):
            ChannelModel(P, np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_periodic_admitted_behind_flag(self):
        model = alternating_model()
        assert model.num_states == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN passes every comparison the other checks make: a NaN emission
        # made a model, and a NaN transition was reported as periodic.
        with pytest.raises(ValueError, match="emission entries must be finite"):
            ChannelModel(np.array([[1.0]]), np.array([[bad, 0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="transition entries must be finite"):
            ChannelModel(np.array([[bad, 0.5], [0.5, 0.5]]), np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_arrays_frozen(self):
        model = three_state_model()
        with pytest.raises(ValueError):
            model.transition[0, 0] = 0.5


class TestErasureStats:
    def test_from_outcome_probs_wire_order(self):
        stats = ErasureStats.from_outcome_probs(np.array([0.4, 0.3, 0.2, 0.1]))
        assert stats.eps_not1_not2 == 0.4
        assert stats.eps_not1_2 == 0.3
        assert stats.eps1_not2 == 0.2
        assert stats.eps12 == 0.1
        assert stats.eps1 == pytest.approx(0.3, abs=1e-15)
        assert stats.eps2 == pytest.approx(0.4, abs=1e-15)

    def test_rejects_inconsistent_marginal(self):
        with pytest.raises(ValueError, match="eps1"):
            ErasureStats(0.5, 0.4, 0.1, 0.2, 0.3, 0.4)

    def test_identities_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_model(rng)
            for s in range(model.num_states):
                stats = cond_erasure_visible(model, s)
                assert stats.eps12 <= min(stats.eps1, stats.eps2) + 1e-15
                np.testing.assert_allclose(
                    stats.eps1, stats.eps12 + stats.eps1_not2, atol=1e-15
                )

    def test_roundtrip(self):
        p = np.array([0.25, 0.25, 0.3, 0.2])
        np.testing.assert_allclose(
            ErasureStats.from_outcome_probs(p).as_outcome_probs(), p
        )


class TestStationary:
    def test_symmetric_two_state(self):
        model = ChannelModel(
            np.array([[0.5, 0.5], [0.5, 0.5]]), np.tile([0.25] * 4, (2, 1))
        )
        np.testing.assert_allclose(stationary_distribution(model), [0.5, 0.5])

    def test_birth_death(self):
        # Good/bad chain, recovery rate g=0.3, failure rate b=0.2.
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        model = ChannelModel(P, np.tile([0.25] * 4, (2, 1)))
        np.testing.assert_allclose(
            stationary_distribution(model), [0.6, 0.4], atol=1e-12
        )

    def test_three_state_exact_fractions(self):
        # Solving pi P = pi by hand for the 3-state demo chain gives
        # pi = (5.2, 1.8, 4) / 11.
        pi = stationary_distribution(three_state_model())
        np.testing.assert_allclose(pi, np.array([5.2, 1.8, 4.0]) / 11.0, atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_model(rng, n=int(rng.integers(2, 6)))
            pi = stationary_distribution(model)
            np.testing.assert_allclose(
                pi, stationary_oracle(model.transition), atol=1e-10
            )
            assert abs(pi.sum() - 1.0) < 1e-12

    def test_periodic_cesaro_limit(self):
        np.testing.assert_allclose(
            stationary_distribution(alternating_model()), [0.5, 0.5], atol=1e-12
        )


class TestCondErasureVisible:
    def test_memoryless_is_state_independent(self):
        row = np.array([0.4, 0.2, 0.3, 0.1])
        P = np.tile([0.3, 0.7], (2, 1))
        model = ChannelModel(P, np.tile(row, (2, 1)))
        a = cond_erasure_visible(model, 0)
        b = cond_erasure_visible(model, 1)
        assert a == b
        np.testing.assert_allclose(a.as_outcome_probs(), row)

    def test_ge_visible_one_step(self):
        model = ge_visible(eps1=0.6, g1=0.1, eps2=0.4, g2=0.2)
        # From a state with user 1 good, user 1 is erased next slot iff the
        # chain moves bad-ward: probability b1 = g1*eps1/(1-eps1) = 0.15.
        good = cond_erasure_visible(model, 0)
        bad = cond_erasure_visible(model, 2)
        assert good.eps1 == pytest.approx(0.15, abs=1e-12)
        assert bad.eps1 == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("eps1,g1,eps2,g2", [
        (0.6, 0.1, 0.5, 0.2),
        (0.6, 0.1, 0.4, 0.2),
        (0.5, 0.5, 0.5, 0.5),
        (0.3, 0.7, 0.8, 0.05),
        (0.9, 0.05, 0.1, 0.9),
    ])
    def test_ge_visible_is_ge_hidden_with_certain_erasures(self, eps1, g1, eps2, g2):
        # The direct construction, the oracle: state 2*u1 + u2 emits outcome
        # (u1, u2) with probability 1.
        P = np.kron(_ge_user_chain(eps1, g1, 1), _ge_user_chain(eps2, g2, 2))
        E = np.zeros((4, 4))
        for u1 in (0, 1):
            for u2 in (0, 1):
                E[2 * u1 + u2, _outcome_index((u1, u2))] = 1.0
        model = ge_visible(eps1, g1, eps2, g2)
        assert model.transition.tobytes() == P.tobytes()
        assert model.emission.tobytes() == E.tobytes()

    def test_three_state_average_erasures(self):
        # Exact fractions: pi.(eps per state) = 5.46/11, 4.88/11, 3.6/11.
        model = three_state_model()
        pi = stationary_distribution(model)
        avg = np.zeros(3)
        for s in range(3):
            st = cond_erasure_visible(model, s)
            avg += pi[s] * np.array([st.eps1, st.eps2, st.eps12])
        np.testing.assert_allclose(
            avg, np.array([5.46, 4.88, 3.6]) / 11.0, atol=1e-12
        )

    def test_delay_converges_to_stationary_mix(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        target = ErasureStats.from_outcome_probs(pi @ model.emission)
        for s in range(3):
            far = cond_erasure_visible(model, s, delay=64)
            assert abs(far.eps1 - target.eps1) < 1e-6
            assert abs(far.eps12 - target.eps12) < 1e-6

    def test_delay_two_composes_transition(self):
        model = three_state_model()
        direct = cond_erasure_visible(model, 1, delay=2)
        two_step = np.linalg.matrix_power(model.transition, 2)
        expected = ErasureStats.from_outcome_probs(two_step[1] @ model.emission)
        assert direct == expected

    def test_rejects_bad_delay(self):
        with pytest.raises(ValueError):
            cond_erasure_visible(three_state_model(), 0, delay=0)

    @pytest.mark.parametrize("prev_state,delay,field", [
        (0, 2.5, "delay"),
        (0, True, "delay"),
        (1.5, 1, "prev_state"),
        (True, 1, "prev_state"),
        (3, 1, "prev_state"),
        (-1, 1, "prev_state"),
    ])
    def test_bad_state_or_delay_is_named(self, prev_state, delay, field):
        with pytest.raises(ValueError, match=field):
            cond_erasure_visible(three_state_model(), prev_state, delay=delay)

    @pytest.mark.parametrize("delay", [1, 3])
    def test_table_holds_each_state_law(self, delay):
        model = three_state_model()
        table = visible_stats(model, delay)
        assert list(table) == [0, 1, 2]
        for s, stats in table.items():
            assert stats == cond_erasure_visible(model, s, delay)


class TestBeliefUpdate:
    def test_uninformative_observation_is_pure_prediction(self):
        row = np.array([0.25, 0.25, 0.25, 0.25])
        model = ChannelModel(THREE_STATE_P, np.tile(row, (3, 1)))
        belief = Belief(np.array([0.2, 0.5, 0.3]))
        out = belief_update(model, belief, (0, 1))
        np.testing.assert_allclose(out.probs, belief.probs @ THREE_STATE_P)

    def test_deterministic_emissions_reveal_state(self):
        model = ge_visible(eps1=0.6, g1=0.1, eps2=0.4, g2=0.2)
        belief = Belief(np.full(4, 0.25))
        # Observing (1, 0) pins the state to index 2 (user 1 bad, user 2 good).
        out = belief_update(model, belief, (1, 0))
        np.testing.assert_allclose(out.probs, model.transition[2], atol=1e-15)

    def test_single_step_bayes_by_hand(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        E = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.4]])
        model = ChannelModel(P, E)
        out = belief_update(model, Belief(np.array([0.5, 0.5])), (1, 1))
        # Posterior over the current state: (0.1, 0.4)/0.5 = (0.2, 0.8);
        # prediction: (0.2, 0.8) @ P = (0.34, 0.66).
        np.testing.assert_allclose(out.probs, [0.34, 0.66], atol=1e-15)

    def test_zero_probability_observation_errors(self):
        model = alternating_model()
        sure_clean = Belief(np.array([0.0, 1.0]))
        # After the half-lossy state comes the clean one, so (1,1) is impossible.
        with pytest.raises(ValueError, match="probability 0"):
            belief_update(model, belief_update(model, sure_clean, (0, 1)), (1, 1))


class TestCondErasureHidden:
    def test_single_state_returns_emission_row(self):
        row = np.array([0.4, 0.2, 0.3, 0.1])
        model = memoryless(row)
        stats = cond_erasure_hidden(model, Belief(np.array([1.0])))
        np.testing.assert_allclose(stats.as_outcome_probs(), row)
        stats, _ = hidden_window_stats(model, 2)
        np.testing.assert_allclose(stats[((1, 1), (0, 0))].as_outcome_probs(), row)

    def test_empty_window_is_stationary_prediction(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        stats = hidden_window_stats(model, 0)[0][()]
        expected = ErasureStats.from_outcome_probs((pi @ model.transition) @ model.emission)
        np.testing.assert_allclose(stats.as_outcome_probs(), expected.as_outcome_probs(), atol=1e-12)

    def test_window_matches_belief_on_full_history(self):
        model = three_state_model()
        belief = Belief(stationary_distribution(model))
        history = [OUTCOMES[zi] for zi in stream_outcomes(model, 6, seed=3)]
        for z in history:
            belief = belief_update(model, belief, z)
        windowed = hidden_window_stats(model, len(history))[0][tuple(history)]
        direct = cond_erasure_hidden(model, belief)
        np.testing.assert_allclose(
            windowed.as_outcome_probs(), direct.as_outcome_probs(), atol=1e-12
        )


class TestWindowDistribution:
    def test_length_zero(self):
        assert window_distribution(three_state_model(), 0) == {(): 1.0}

    def test_length_one_single_state(self):
        row = np.array([0.4, 0.2, 0.3, 0.1])
        dist = window_distribution(memoryless(row), 1)
        for outcome, p in zip(OUTCOMES, row):
            assert dist[(outcome,)] == pytest.approx(p, abs=1e-15)

    def test_sums_to_one(self):
        model = three_state_model()
        for L in (1, 2, 3, 4):
            total = sum(window_distribution(model, L).values())
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_bruteforce_path_enumeration(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        dist = window_distribution(model, 2)
        for key, got in dist.items():
            ka = 2 * key[0][0] + key[0][1]
            kb = 2 * key[1][0] + key[1][1]
            want = 0.0
            for s0 in range(3):
                for s1 in range(3):
                    for s2 in range(3):
                        want += (
                            pi[s0]
                            * model.transition[s0, s1]
                            * model.emission[s1, ka]
                            * model.transition[s1, s2]
                            * model.emission[s2, kb]
                        )
            assert got == pytest.approx(want, abs=1e-12)

    def test_consistent_with_belief_filtering(self):
        # Chain rule: P(window) = prod_t P(z_t | window prefix).
        model = three_state_model()
        dist = window_distribution(model, 3)
        key = ((0, 1), (1, 1), (0, 0))
        prob = 1.0
        belief = Belief(stationary_distribution(model))
        for z in key:
            stats = cond_erasure_hidden(model, belief)
            prob *= stats.as_outcome_probs()[2 * z[0] + z[1]]
            belief = belief_update(model, belief, z)
        assert dist[key] == pytest.approx(prob, abs=1e-12)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError, match="maximum"):
            window_distribution(three_state_model(), 9)


class TestForgettingCheck:
    def hidden_ge(self) -> ChannelModel:
        return ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)

    def test_window_covering_trace_gives_zero(self):
        model = self.hidden_ge()
        assert forgetting_check(model, window_len=64, trace_len=50, seed=1) == 0.0

    def test_memoryless_forgets_instantly(self):
        P = np.tile([0.3, 0.7], (2, 1))
        E = np.array([[0.4, 0.2, 0.3, 0.1], [0.25, 0.25, 0.25, 0.25]])
        model = ChannelModel(P, E)
        assert forgetting_check(model, window_len=1, trace_len=200, seed=2) < 1e-12

    def test_monotone_in_window_length(self):
        model = self.hidden_ge()
        gaps = [
            forgetting_check(model, window_len=L, trace_len=2000, seed=5)
            for L in (1, 3, 6, 10)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_zero_emissions_match_the_filter_bank(self):
        # A window that occurred has positive probability, zero emissions or
        # not; here one feedback pair names the state, so the gap is 0 up to
        # rounding.  tests/test_harness.py checks prediction_gap the same way.
        for doc in (alternating(), bursty()):
            model = load_channel(doc)
            assert (model.emission == 0).any()
            pairs = stream_outcomes(model, 400, 7)
            for L in (1, 3, 6):
                gap = forgetting_check(model, L, 400, 7)
                assert abs(gap - filter_bank_gap(model, L, pairs, None)) <= 1e-15

    @pytest.mark.parametrize("L", [1, 3, 6, 10])
    def test_matches_the_filter_bank(self, L):
        rng = np.random.default_rng(L)
        models = [load_channel(noisy())] + [random_model(rng, n) for n in (2, 3, 5)]
        for seed, model in enumerate(models, start=1):
            assert (model.emission > 0).all()
            pairs = stream_outcomes(model, 400, seed)
            gaps = (forgetting_check(model, L, 400, seed),
                    prediction_gap(model, L, 400, seed))
            oracles = (filter_bank_gap(model, L, pairs, None),
                       filter_bank_gap(model, L, pairs, model.emission))
            for gap, oracle in zip(gaps, oracles):
                assert oracle > 0.0
                assert abs(gap - oracle) <= 1e-15

    @pytest.mark.parametrize(
        "fn, args, field",
        [
            (forgetting_check, {"window_len": 2.5}, "window_len"),
            (forgetting_check, {"window_len": True}, "window_len"),
            (forgetting_check, {"window_len": 0}, "window_len"),
            (forgetting_check, {"trace_len": 10.5}, "trace_len"),
            (forgetting_check, {"seed": 1.5}, "seed"),
            (forgetting_check, {"seed": -1}, "seed"),
            (prediction_gap, {"horizon": 10.5}, "horizon"),
            (prediction_gap, {"window_len": 2.5}, "window_len"),
            (prediction_gap, {"seed": 1.5}, "seed"),
        ],
    )
    def test_bad_input_is_named(self, fn, args, field):
        length = "trace_len" if fn is forgetting_check else "horizon"
        kwargs = {"window_len": 2, length: 10, "seed": 0, **args}
        with pytest.raises(ValueError, match=field):
            fn(self.hidden_ge(), **kwargs)

class TestGilbertElliot:
    def test_visible_average_erasure(self):
        model = ge_visible(eps1=0.6, g1=0.1, eps2=0.5, g2=0.2)
        pi = stationary_distribution(model)
        avg1 = sum(pi[s] * cond_erasure_visible(model, s).eps1 for s in range(4))
        avg2 = sum(pi[s] * cond_erasure_visible(model, s).eps2 for s in range(4))
        assert avg1 == pytest.approx(0.6, abs=1e-12)
        assert avg2 == pytest.approx(0.5, abs=1e-12)

    def test_visible_emissions_deterministic(self):
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        assert set(np.unique(model.emission)) == {0.0, 1.0}

    def test_hidden_average_erasure(self):
        # Section-style parameters: the per-state mix reproduces the average.
        model = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
        pi = stationary_distribution(model)
        stats = ErasureStats.from_outcome_probs(pi @ model.emission)
        assert stats.eps1 == pytest.approx(0.4 * 0.2 + 0.6 * 0.866, abs=1e-12)
        assert stats.eps2 == pytest.approx(0.5 * 0.2 + 0.5 * 0.8, abs=1e-12)

    def test_hidden_users_independent_given_state(self):
        model = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
        for s in range(4):
            stats = ErasureStats.from_outcome_probs(model.emission[s])
            assert stats.eps12 == pytest.approx(stats.eps1 * stats.eps2, abs=1e-12)

    def test_stationary_is_product_form(self):
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        pi = stationary_distribution(model)
        # Marginal bad-state mass per user equals eps_j.
        assert pi[2] + pi[3] == pytest.approx(0.6, abs=1e-12)
        assert pi[1] + pi[3] == pytest.approx(0.5, abs=1e-12)


class TestLoadChannel:
    def test_explicit_matrices(self, tmp_path):
        doc = {
            "states": 3,
            "transition": THREE_STATE_P.ravel().tolist(),
            "emission": THREE_STATE_E.ravel().tolist(),
        }
        model = load_channel(doc)
        np.testing.assert_allclose(model.transition, THREE_STATE_P)
        path = tmp_path / "chan.json"
        path.write_text(__import__("json").dumps(doc))
        model2 = load_channel(path)
        np.testing.assert_allclose(model2.emission, THREE_STATE_E)

    def test_gilbert_elliot_visible(self):
        model = load_channel(bursty())
        np.testing.assert_allclose(
            model.transition, ge_visible(0.6, 0.1, 0.5, 0.2).transition
        )

    def test_gilbert_elliot_hidden(self):
        model = load_channel(noisy())
        assert (model.emission > 0).all()

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"states": 1, "emission": [1.0, 0, 0, 0]}, "transition"),
            ({"transition": [1.0], "emission": [1.0, 0, 0, 0]}, "states"),
            ({"states": 1, "transition": [1.0]}, "emission"),
            ({"gilbert_elliot": {"eps1": 0.6, "g1": 0.1, "eps2": 0.5}}, "gilbert_elliot.g2"),
            ({"gilbert_elliot": {"kind": "hidden", "eps1": 0.6, "g1": 0.1, "eps2": 0.5,
                                 "g2": 0.2}}, "gilbert_elliot.eps1_good"),
            ({"gilbert_elliot": [0.6]}, "gilbert_elliot"),
            ([1.0], "channel"),
        ],
    )
    def test_missing_field_is_named(self, doc, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            load_channel(doc)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"states": "two"}, "states"),
            ({"states": 1.7}, "states"),
            ({"states": True}, "states"),
            ({"transition": [[0.5, 0.5]]}, "transition"),
            ({"transition": [[0.5, 0.5], [0.5]]}, "transition"),
            ({"emission": [[1.0, 0, 0, 0]] * 3}, "emission"),
            ({"emission": "none"}, "emission"),
            ({"allow_periodic": "no"}, "allow_periodic"),
            # A key the document's form does not read.
            ({"comment": "two states"}, "comment"),
            ({"gilbert_elliot": {}, "states": 4}, "states"),
            ({"gilbert_elliot": {}, "allow_periodic": True}, "allow_periodic"),
            ({"gilbert_elliot": {"eps1_good": 0.2}}, "gilbert_elliot.eps1_good"),
            ({"gilbert_elliot": {"kind": "hidden", "eps3": 0.2}}, "gilbert_elliot.eps3"),
            # A Gilbert-Elliott number outside its range.
            ({"gilbert_elliot": {"eps1": 1.5}}, "gilbert_elliot.eps1 must lie in (0, 1)"),
            ({"gilbert_elliot": {"g2": 1.2}}, "gilbert_elliot.g2 must lie in (0, 1)"),
            # b1 = g1 eps1 / (1 - eps1) = 4.5.
            ({"gilbert_elliot": {"eps1": 0.9, "g1": 0.5}}, "gilbert_elliot.g1 must be below"),
            ({"gilbert_elliot": {"kind": "hidden", "eps1_good": float("nan")}},
             "gilbert_elliot.eps1_good must lie in [0, 1]"),
        ],
    )
    def test_bad_field_is_named(self, change, field):
        # A change with a gilbert_elliot object edits the bursty or, for the
        # hidden kind, the noisy document; any other edits the matrix one.
        change = dict(change)
        ge = change.pop("gilbert_elliot", None)
        if ge is None:
            doc = {"states": 2, "transition": [[0.5, 0.5], [0.5, 0.5]],
                   "emission": [[1.0, 0, 0, 0]] * 2}
        else:
            doc = noisy() if ge.get("kind") == "hidden" else bursty()
            doc["gilbert_elliot"].update(ge)
        doc.update(change)
        with pytest.raises(ValueError, match=re.escape(field)):
            load_channel(doc)

    @pytest.mark.parametrize("value", ["a", None, [0.6], True])
    def test_non_numeric_gilbert_elliot_field_is_named(self, value):
        doc = {"gilbert_elliot": {"kind": "hidden", "eps1": 0.6, "g1": 0.1, "eps2": 0.5,
                                  "g2": 0.2, "eps1_good": 0.2, "eps1_bad": value,
                                  "eps2_good": 0.2, "eps2_bad": 0.8}}
        with pytest.raises(ValueError, match="gilbert_elliot.eps1_bad must be a number"):
            load_channel(doc)

    def test_allow_periodic_flag(self):
        doc = {
            "states": 2,
            "transition": [0.0, 1.0, 1.0, 0.0],
            "emission": [1.0, 0, 0, 0, 0, 0.5, 0.5, 0],
            "allow_periodic": True,
        }
        model = load_channel(doc)
        assert model.allow_periodic
