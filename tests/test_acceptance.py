"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test pins a headline behavior of the package at its stated tolerance
and (where relevant) wall-clock budget.  Run with -v to get one pass/fail
line per guarantee.
"""

import time

import numpy as np

from test_regions import (
    THREE_STATE_E,
    THREE_STATE_P,
    preconditioned_instance,
    random_dist,
    random_model,
    stats_for,
    three_state_model,
    vertices_inside,
)

from channel_docs import alternating, alternating_model, bursty
from duocast.channel import (
    ChannelModel,
    cond_erasure_visible,
    ge_hidden,
    ge_visible,
    stationary_distribution,
)
from duocast.harness import (
    Scenario,
    run,
    stability_verdict,
    throughput_check,
)
from duocast.kernel import prediction_gap
from duocast.regions import (
    RatePoint,
    cut_values,
    diagonal_rate,
    flow_optimum,
    hausdorff_distance,
    link_capacities,
    redundancy_transform,
    region_hidden_L,
    region_memoryless_fb,
    region_memoryless_nofb,
    region_minkowski,
    region_reactive,
    region_uncoded,
    region_visible,
)

def _mw_verdict(channel, rates, action_set, horizon, seed):
    scenario = Scenario(
        channel=channel,
        rates=rates,
        horizon=horizon,
        seed=seed,
        policy={"kind": "maxweight", "action_set": action_set},
    )
    return stability_verdict(run(scenario))


def test_01_alternating_chain_rates():
    """Reactive symmetric rate is exactly 7/16; the state-aware region
    reaches (1/2, 1/2).  Tolerance 1e-9, under one second."""
    t0 = time.perf_counter()
    model = alternating_model()
    pi = stationary_distribution(model)
    stats = stats_for(model)
    reactive = region_reactive(stats, pi)
    visible = region_visible(stats, pi)
    assert abs(diagonal_rate(reactive) - 7 / 16) <= 1e-9
    assert visible.contains(RatePoint(0.5, 0.5), tol=1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_02_reactive_matches_visible_when_states_are_iid():
    """On channels whose state process is iid (identical transition rows),
    the reactive and state-aware regions coincide: Hausdorff distance at
    most 1e-7 on 50 random channels with up to 4 states, under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        row = rng.dirichlet(np.ones(n) * 1.5)
        emission = rng.dirichlet(np.ones(4), size=n)
        model = ChannelModel(np.tile(row, (n, 1)), emission)
        pi = stationary_distribution(model)
        stats = stats_for(model)
        reactive = region_reactive(stats, pi)
        visible = region_visible(stats, pi)
        assert hausdorff_distance(reactive, visible) <= 1e-7
    assert time.perf_counter() - t0 < 30.0


def test_03_memoryless_feedback_kink():
    """The feedback region for erasure rates (0.6, 0.4, joint 0.24) has its
    boundary kink at (0.144076, 0.486256) within 1e-5, under one second."""
    t0 = time.perf_counter()
    region = region_memoryless_fb(0.6, 0.4, 0.24)
    kink = region.boundary[1]
    assert abs(kink.r1 - 0.144076) <= 1e-5
    assert abs(kink.r2 - 0.486256) <= 1e-5
    assert time.perf_counter() - t0 < 1.0


def test_04_flow_optimum_equals_min_cut():
    """On 200 random (channel, action distribution) instances the flow LP
    optimum equals the smallest of the four cuts, per receiver, to 1e-9."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        model = random_model(rng, n=n)
        pi = stationary_distribution(model)
        stats = stats_for(model)
        dist = random_dist(rng, list(range(n)))
        for j in (1, 2):
            caps = link_capacities(dist, stats, pi, j)
            cv = cut_values(dist, stats, pi, j)
            assert abs(flow_optimum(caps) - cv.minimum()) <= 1e-9


def test_05_redundancy_transform_preserves_the_bottleneck():
    """On 100 preconditioned instances the reallocation between stored-mix
    and remedy actions keeps the minimum cut within 1e-10 and leaves it on
    the two direct cuts; its fixed points are returned unchanged."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        stats, pi, dist = preconditioned_instance(rng)
        out = redundancy_transform(dist, stats, pi)
        for j in (1, 2):
            before = cut_values(dist, stats, pi, j)
            after = cut_values(out, stats, pi, j)
            assert abs(after.minimum() - before.minimum()) <= 1e-10
            assert abs(after.minimum() - min(after.a, after.d)) <= 1e-10
        again = redundancy_transform(out, stats, pi)
        for key in out.probs:
            np.testing.assert_array_equal(again.probs[key], out.probs[key])


def test_06_region_inclusion_chain():
    """uncoded inside reactive inside state-aware; the per-state Minkowski
    sum inside reactive; no-feedback inside feedback.  Boundary vertices
    placed with 1e-9 slack on every test channel."""
    rng = np.random.default_rng(6)
    models = [
        alternating_model(),
        three_state_model(),
        ge_visible(0.6, 0.1, 0.5, 0.2),
        ge_visible(0.6, 0.1, 0.5, 0.1),
        random_model(rng, n=2),
        random_model(rng, n=3),
    ]
    for model in models:
        pi = stationary_distribution(model)
        stats = stats_for(model)
        uncoded = region_uncoded(stats, pi)
        reactive = region_reactive(stats, pi)
        visible = region_visible(stats, pi)
        minkowski = region_minkowski(stats, pi)
        vertices_inside(uncoded, reactive)
        vertices_inside(reactive, visible)
        vertices_inside(minkowski, reactive)
    for _ in range(10):
        e1, e2 = rng.uniform(0.05, 0.9, size=2)
        e12 = min(e1, e2) * rng.uniform(0.2, 1.0)
        vertices_inside(
            region_memoryless_nofb(e1, e2), region_memoryless_fb(e1, e2, e12)
        )


def test_07_stability_frontier_on_the_two_user_bursty_channel():
    """Good/bad channel (erasure 0.6/0.5, recovery 0.1/0.2), 2e6 slots:
    max-weight with all five actions holds (0.31, 0.335) and (0.31, 0.35)
    but not (0.31, 0.36); the reactive-only set loses (0.31, 0.355).
    Under two minutes total."""
    t0 = time.perf_counter()
    n = 2_000_000
    assert _mw_verdict(bursty(), (0.31, 0.335), "A5", n, seed=0).stable
    assert _mw_verdict(bursty(), (0.31, 0.35), "A5", n, seed=0).stable
    assert not _mw_verdict(bursty(), (0.31, 0.36), "A5", n, seed=0).stable
    assert not _mw_verdict(bursty(), (0.31, 0.355), "A3", n, seed=0).stable
    assert time.perf_counter() - t0 < 120.0


def test_08_alternating_chain_near_the_half_rate_point():
    """At symmetric rate 0.499 over 1e6 slots the full action set is stable
    while the reactive-only and uncoded sets diverge at no less than 0.01
    packets per slot."""
    n = 1_000_000
    assert _mw_verdict(alternating(), (0.499, 0.499), "A5", n, seed=3).stable
    reactive = _mw_verdict(alternating(), (0.499, 0.499), "A3", n, seed=3)
    uncoded = _mw_verdict(alternating(), (0.499, 0.499), "A2", n, seed=3)
    assert not reactive.stable and reactive.tail_slope >= 0.01
    assert not uncoded.stable and uncoded.tail_slope >= 0.01


def test_09_three_state_hidden_chain_averages():
    """Long-run erasure averages of the three-state hidden chain equal the
    exact fractions (5.46, 4.88, 3.6)/11 within 1e-12."""
    # By hand: pi P = pi gives pi = (5.2, 1.8, 4)/11 (first column:
    # 5.2*0.7 + 1.8*0.2 + 4*0.3 = 5.2), and the per-state erasure
    # probabilities are eps1 = (0.15, 0.6, 0.9), eps2 = (0.15, 0.5, 0.8),
    # eps12 = (0.05, 0.3, 0.7), so
    #   e1  = (5.2*0.15 + 1.8*0.6 + 4*0.9) / 11 = 5.46 / 11,
    #   e2  = (5.2*0.15 + 1.8*0.5 + 4*0.8) / 11 = 4.88 / 11,
    #   e12 = (5.2*0.05 + 1.8*0.3 + 4*0.7) / 11 = 3.6 / 11.
    # An older reference (0.497, 0.445, 0.329) is the rounding of the
    # averages of a variant chain whose last row is (0.3, 0, 0.7); see
    # test_09_stale_reference_is_the_variant_chain.
    model = three_state_model()
    pi = stationary_distribution(model)
    e = model.emission
    e1 = float(pi @ (e[:, 2] + e[:, 3]))
    e2 = float(pi @ (e[:, 1] + e[:, 3]))
    e12 = float(pi @ e[:, 3])
    assert abs(e1 - 5.46 / 11) <= 1e-12
    assert abs(e2 - 4.88 / 11) <= 1e-12
    assert abs(e12 - 3.6 / 11) <= 1e-12


def test_09_stale_reference_is_the_variant_chain():
    """The old reference (0.497, 0.445, 0.329) matches, within its old 5e-4
    gate, the three-state chain with last row (0.3, 0, 0.7): pi = (9, 3, 7)/19
    and averages (189/380, 169/380, 25/76)."""
    transition = THREE_STATE_P.copy()
    transition[2] = (0.3, 0.0, 0.7)
    model = ChannelModel(transition, THREE_STATE_E)
    pi = stationary_distribution(model)
    np.testing.assert_allclose(pi, np.array([9.0, 3.0, 7.0]) / 19.0, atol=1e-12)
    e = model.emission
    e1 = float(pi @ (e[:, 2] + e[:, 3]))
    e2 = float(pi @ (e[:, 1] + e[:, 3]))
    e12 = float(pi @ e[:, 3])
    assert abs(e1 - 0.497) <= 5e-4
    assert abs(e2 - 0.445) <= 5e-4
    assert abs(e12 - 0.329) <= 5e-4


def test_09_three_state_hidden_windows_nest():
    """A one-outcome feedback window never beats a three-outcome window:
    the windowed region at L=1 sits inside the one at L=3."""
    model = three_state_model()
    short = region_hidden_L(model, 1)
    long = region_hidden_L(model, 3)
    vertices_inside(short, long)


def test_10_randomized_packet_runs_stay_decodable():
    """500 randomized packet-level runs (random channels, policies, rates,
    1e4 slots each): the decodability audit holds in every run and the
    arrivals = exits + backlog identity is exact at every recorded slot."""
    rng = np.random.default_rng(10)
    for k in range(500):
        n = int(rng.integers(1, 5))
        model = random_model(rng, n=n)
        doc = {
            "states": n,
            "transition": model.transition.tolist(),
            "emission": model.emission.tolist(),
        }
        visible = bool(rng.integers(2))
        scenario = Scenario(
            channel=doc,
            rates=(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4))),
            horizon=10_000,
            seed=int(rng.integers(1 << 31)),
            visible=visible,
            delay=int(rng.integers(1, 3)),
            policy={
                "kind": "maxweight",
                "action_set": ("A2", "A3", "A5")[int(rng.integers(3))],
            },
            engine="packets",
        )
        trace = run(scenario)  # raises if conservation ever breaks
        assert trace.audit_passed is True, f"audit failed on run {k}"


def test_11_windowed_predictions_track_the_full_filter():
    """On the noisy good/bad channel with strictly positive emissions, the
    10-outcome windowed predictor stays within total variation 1e-2 of the
    full filter along a 1e5-slot trace."""
    model = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
    gap = prediction_gap(model, window_len=10, horizon=100_000, seed=11)
    assert gap <= 1e-2


def test_12_probabilistic_policy_delivers_its_target():
    """A probabilistic policy synthesized for 95% of a boundary vertex of
    the state-aware region delivers both rates within 2% relative over
    5e6 slots."""
    model = ge_visible(0.6, 0.1, 0.5, 0.2)
    pi = stationary_distribution(model)
    stats = stats_for(model)
    region = region_visible(stats, pi)
    interior = [p for p in region.boundary if p.r1 > 1e-9 and p.r2 > 1e-9]
    vertex = min(interior, key=lambda p: abs(p.r1 - p.r2))
    target = (0.95 * vertex.r1, 0.95 * vertex.r2)
    scenario = Scenario(
        channel=bursty(),
        rates=target,
        horizon=5_000_000,
        seed=2,
        policy={"kind": "probabilistic"},
    )
    delivered = throughput_check(run(scenario))
    for got, want in zip(delivered, target):
        assert abs(got - want) / want <= 0.02
