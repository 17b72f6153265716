"""Region geometry, cut calculus, and policy synthesis tests."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_docs import alternating_model
from duocast import (
    ActionDistribution,
    ChannelModel,
    ErasureStats,
    RatePoint,
    RateRegion,
    RegionWitness,
    cond_erasure_visible,
    cut_values,
    diagonal_rate,
    flow_optimum,
    flow_solve,
    ge_hidden,
    ge_visible,
    hausdorff_distance,
    hidden_window_stats,
    link_capacities,
    memoryless,
    redundancy_transform,
    region_hidden_L,
    region_membership,
    region_memoryless_fb,
    region_memoryless_nofb,
    region_minkowski,
    region_reactive,
    region_to_csv,
    region_to_json,
    region_uncoded,
    region_visible,
    stationary_distribution,
    synthesize_policy,
    window_distribution,
    witness_to_distribution,
)
from duocast import lp as lp_module
from duocast import regions
from duocast.lp import _phase1, objective_path, solve
from duocast.regions import (
    _fraction_lp,
    _key_table,
    _key_to_str,
    iter_region_json,
)
from window_fold import per_window_stats

THREE_STATE_P = np.array(
    [[0.7, 0.2, 0.1], [0.2, 0.4, 0.4], [0.3, 0.01, 0.69]]
)
THREE_STATE_E = np.array(
    [
        [0.75, 0.1, 0.1, 0.05],
        [0.2, 0.2, 0.3, 0.3],
        [0.0, 0.1, 0.2, 0.7],
    ]
)


def three_state_model() -> ChannelModel:
    return ChannelModel(THREE_STATE_P, THREE_STATE_E)


def stats_for(model: ChannelModel, delay: int = 1) -> dict:
    return {
        s: cond_erasure_visible(model, s, delay) for s in range(model.num_states)
    }


def triple(eps1: float, eps2: float, eps12: float) -> ErasureStats:
    return ErasureStats(
        eps1=eps1,
        eps2=eps2,
        eps12=eps12,
        eps1_not2=eps1 - eps12,
        eps_not1_2=eps2 - eps12,
        eps_not1_not2=1.0 - eps1 - eps2 + eps12,
    )


def random_model(rng: np.random.Generator, n: int = 3) -> ChannelModel:
    P = rng.dirichlet(np.ones(n) * 2.0, size=n)
    E = rng.dirichlet(np.ones(4) * 2.0, size=n)
    return ChannelModel(P, E)


def random_dist(rng: np.random.Generator, keys) -> ActionDistribution:
    return ActionDistribution(
        probs={k: rng.dirichlet(np.ones(6)) for k in keys}
    )


def scalar_hausdorff(a: RateRegion, b: RateRegion) -> float:
    """Hausdorff distance by one scalar pass over every vertex-edge pair.

    The oracle of `hausdorff_distance`: O(Va * Vb) in plain floats.
    """

    def poly_distance(point, poly) -> float:
        x, y = point
        best = math.inf
        inside = True
        for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]):
            ex, ey = qx - px, qy - py
            length2 = ex * ex + ey * ey
            if length2 < 1e-24:
                best = min(best, math.hypot(x - px, y - py))
                continue
            if ex * (y - py) - ey * (x - px) < 0:
                inside = False
            t = min(max(((x - px) * ex + (y - py) * ey) / length2, 0.0), 1.0)
            best = min(best, math.hypot(x - (px + t * ex), y - (py + t * ey)))
        return 0.0 if inside else best

    pa, pb = a.polygon().tolist(), b.polygon().tolist()
    return max(max(poly_distance(p, pb) for p in pa), max(poly_distance(p, pa) for p in pb))


@pytest.fixture(autouse=True)
def hausdorff_against_the_oracle(monkeypatch):
    """Every Hausdorff distance a test here takes is checked against the oracle."""

    def checked(a: RateRegion, b: RateRegion) -> float:
        value = regions.hausdorff_distance(a, b)
        assert abs(value - scalar_hausdorff(a, b)) <= 1e-15
        return value

    monkeypatch.setitem(globals(), "hausdorff_distance", checked)


def vertices_inside(inner: RateRegion, outer: RateRegion, tol: float = 1e-9):
    for p in inner.boundary:
        assert outer.contains(p, tol=tol), f"{p} escapes {outer.kind}"


class TestClosedFormRegions:
    def test_memoryless_fb_kink_matches_line_intersection(self):
        region = region_memoryless_fb(0.6, 0.4, 0.24)
        A = np.array([[1 / 0.4, 1 / 0.76], [1 / 0.76, 1 / 0.6]])
        kink = np.linalg.solve(A, np.ones(2))
        assert len(region.boundary) == 3
        assert region.boundary[0] == RatePoint(0.4, 0.0)
        assert region.boundary[-1] == RatePoint(0.0, 0.6)
        assert abs(region.boundary[1].r1 - kink[0]) < 1e-12
        assert abs(region.boundary[1].r2 - kink[1]) < 1e-12
        # Frozen analytic values.
        assert abs(region.boundary[1].r1 - 0.144076) < 1e-5
        assert abs(region.boundary[1].r2 - 0.486256) < 1e-5

    def test_memoryless_fb_without_gain_collapses_to_nofb(self):
        # Fully correlated erasures: feedback cannot create side information.
        with_fb = region_memoryless_fb(0.5, 0.5, 0.5)
        without = region_memoryless_nofb(0.5, 0.5)
        assert len(with_fb.boundary) == 2
        assert hausdorff_distance(with_fb, without) < 1e-12

    def test_memoryless_nofb_is_single_segment(self):
        region = region_memoryless_nofb(0.3, 0.45)
        assert [(p.r1, p.r2) for p in region.boundary] == [(0.7, 0.0), (0.0, 0.55)]

    def test_memoryless_fb_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            region_memoryless_fb(0.3, 0.4, 0.35)


class TestVisibleRegion:
    def test_single_state_matches_memoryless_closed_form(self):
        st_ = triple(0.4, 0.3, 0.12)
        model = memoryless(st_.as_outcome_probs())
        region = region_visible(stats_for(model), stationary_distribution(model))
        closed = region_memoryless_fb(0.4, 0.3, 0.12)
        assert hausdorff_distance(region, closed) < 1e-9

    def test_axis_maxima_are_weighted_reception_rates(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        region = region_visible(stats, pi)
        r1_expect = sum(pi[s] * (1 - stats[s].eps1) for s in range(3))
        r2_expect = sum(pi[s] * (1 - stats[s].eps2) for s in range(3))
        assert abs(region.r1_max - r1_expect) < 1e-9
        assert abs(region.r2_max - r2_expect) < 1e-9

    def test_alternating_chain_against_vertex_enumeration(self):
        # Independent oracle: enumerate all basic feasible points of the
        # region polytope and compare support values along random directions.
        model = alternating_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        region = region_visible(stats, pi)

        a1 = np.array([pi[s] * (1 - stats[s].eps1) for s in range(2)])
        a2 = np.array([pi[s] * (1 - stats[s].eps2) for s in range(2)])
        g = np.array([pi[s] * (1 - stats[s].eps12) for s in range(2)])
        # Variables (R1, R2, x0, x1, y0, y1); rows as <= with box bounds.
        rows = [
            np.array([1.0, 0, -a1[0], -a1[1], 0, 0]),
            np.array([1.0, 0, 0, 0, g[0], g[1]]),
            np.array([0, 1.0, 0, 0, -a2[0], -a2[1]]),
            np.array([0, 1.0, g[0], g[1], 0, 0]),
        ]
        rhs = [0.0, g.sum(), 0.0, g.sum()]
        for i in range(6):
            for val in (0.0, 1.0):
                e = np.zeros(6)
                e[i] = 1.0
                rows.append(e.copy())
                rhs.append(val)
        A = np.array(rows)
        b = np.array(rhs)
        verts = []
        for subset in itertools.combinations(range(len(rows)), 6):
            M = A[list(subset)]
            if abs(np.linalg.det(M)) < 1e-9:
                continue
            v = np.linalg.solve(M, b[list(subset)])
            if np.all(A[:4] @ v <= b[:4] + 1e-9) and np.all(v >= -1e-9) and np.all(v[2:] <= 1 + 1e-9) and v[0] <= 1 + 1e-9 and v[1] <= 1 + 1e-9:
                verts.append(v[:2])
        verts = np.array(verts)
        rng = np.random.default_rng(7)
        for _ in range(40):
            theta = rng.uniform(0, math.pi / 2)
            d = np.array([math.cos(theta), math.sin(theta)])
            assert abs(region.support(*d) - (verts @ d).max()) < 1e-8

    def test_example_two_rates(self):
        model = alternating_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        reactive = region_reactive(stats, pi)
        visible = region_visible(stats, pi)
        assert abs(diagonal_rate(reactive) - 7 / 16) < 1e-9
        assert visible.contains(RatePoint(0.5, 0.5), tol=1e-9)
        assert not reactive.contains(RatePoint(0.5, 0.5), tol=1e-6)

    def test_delay_degrades_the_region(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        regions = {
            d: region_visible(stats_for(model, d), pi)
            for d in (1, 2, 5, 10)
        }
        vertices_inside(regions[2], regions[1])
        vertices_inside(regions[5], regions[2])
        vertices_inside(regions[10], regions[5])
        # Ignoring the state entirely is always possible, so the averaged
        # memoryless region sits inside every delayed region.
        avg = ErasureStats.from_outcome_probs(pi @ THREE_STATE_E)
        base = region_memoryless_fb(avg.eps1, avg.eps2, avg.eps12)
        vertices_inside(base, regions[10])


class TestRegionRelations:
    def test_inclusion_chain_three_state(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        visible = region_visible(stats, pi)
        reactive = region_reactive(stats, pi)
        uncoded = region_uncoded(stats, pi)
        mink = region_minkowski(stats, pi)
        vertices_inside(uncoded, reactive)
        vertices_inside(reactive, visible)
        vertices_inside(mink, reactive)

    def test_reactive_equals_visible_on_memoryless_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            row = rng.dirichlet(np.ones(n) * 1.5)
            E = rng.dirichlet(np.ones(4), size=n)
            model = ChannelModel(np.tile(row, (n, 1)), E)
            pi = stationary_distribution(model)
            stats = stats_for(model)
            reactive = region_reactive(stats, pi)
            visible = region_visible(stats, pi)
            assert hausdorff_distance(reactive, visible) < 1e-7

    def test_uncoded_alternating_diagonal(self):
        model = alternating_model()
        region = region_uncoded(stats_for(model), stationary_distribution(model))
        assert abs(diagonal_rate(region) - 0.375) < 1e-9

    def test_uncoded_single_state_is_time_sharing_triangle(self):
        st_ = triple(0.4, 0.3, 0.12)
        model = memoryless(st_.as_outcome_probs())
        region = region_uncoded(stats_for(model), stationary_distribution(model))
        assert hausdorff_distance(region, region_memoryless_nofb(0.4, 0.3)) < 1e-9


def noisy_model() -> ChannelModel:
    return ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)


class TestHiddenRegion:
    @pytest.fixture()
    def ge_model(self):
        return noisy_model()

    @pytest.fixture(scope="class")
    def ladder(self):
        model = noisy_model()
        return {L: region_hidden_L(model, L) for L in range(7)}

    def test_order_zero_is_averaged_memoryless(self, ge_model):
        pi = stationary_distribution(ge_model)
        avg = ErasureStats.from_outcome_probs(pi @ ge_model.emission)
        region = region_hidden_L(ge_model, 0)
        closed = region_memoryless_fb(avg.eps1, avg.eps2, avg.eps12)
        assert hausdorff_distance(region, closed) < 1e-9

    def test_longer_windows_grow_the_region(self, ladder):
        for L in range(6):
            vertices_inside(ladder[L], ladder[L + 1])
            assert diagonal_rate(ladder[L]) <= diagonal_rate(ladder[L + 1])
        # Vertex counts of the exact boundary on this channel.  L=4 has 225:
        # two of its corners lie within 1e-8 of a neighbour, and the old
        # collinearity test, which bounded the bare cross product, dropped
        # them (223); test_pruning_keeps_every_corner checks the support.
        # Pruning every candidate without the tracer's 1e-10 acceptance
        # would keep 899 and 3595 at L=5 and L=6.
        counts = [len(ladder[L].boundary) for L in (1, 2, 3, 4, 5, 6)]
        assert counts == [5, 17, 59, 225, 898, 3528]

    @pytest.mark.parametrize("L", (4, 5))
    def test_pruning_keeps_every_corner(self, ge_model, monkeypatch, L):
        # Pruning may drop only points on a chord of their neighbours, so the
        # pruned boundary has the support of every candidate _trace split a
        # chord at.
        pruned = region_hidden_L(ge_model, L)
        monkeypatch.setattr(regions, "_prune_collinear", lambda ordered: ordered)
        found = region_hidden_L(ge_model, L)
        assert len(found.boundary) >= len(pruned.boundary)
        theta = np.linspace(0.0, math.pi / 2, 20001)
        d1, d2 = np.cos(theta), np.sin(theta)

        def support(region):
            return np.max([d1 * p.r1 + d2 * p.r2 for p in region.boundary], axis=0)

        np.testing.assert_allclose(support(pruned), support(found), rtol=0, atol=1e-12)

    def test_window_stats_equal_the_per_window_filter(self, ge_model):
        # The joint table and the per-window fold round differently, so they
        # agree within 1e-15 rather than bit for bit.  The alternating chain
        # keeps 3/4/6/8 of its 4/16/64/256 windows: the rest have mass 0.
        rng = np.random.default_rng(41)
        cases = [(ge_model, range(8))]
        cases += [(random_model(rng, n), range(5)) for n in (2, 3, 5)]
        cases += [(alternating_model(), range(1, 5))]
        kept = []
        for model, lengths in cases:
            for L in lengths:
                stats, weights = hidden_window_stats(model, L)
                want_stats, want_weights = per_window_stats(model, L)
                dist = window_distribution(model, L)
                keys = [w for w, p in dist.items() if p > 0]
                assert list(weights) == list(stats) == list(want_stats) == keys
                laws = np.array([stats[w].as_outcome_probs() for w in keys])
                want = np.array([want_stats[w].as_outcome_probs() for w in keys])
                assert np.abs(laws - want).max() <= 1e-15, (model, L)
                gaps = [abs(weights[w] - want_weights[w]) for w in keys]
                assert max(gaps) <= 1e-15, (model, L)
                if model.allow_periodic:
                    kept.append(len(keys))
        assert kept == [3, 4, 6, 8]

    def test_hausdorff_to_shorter_windows(self, ladder):
        # Pairs of hundreds to thousands of vertices, checked against the
        # scalar oracle by the autouse fixture.
        assert hausdorff_distance(ladder[5], ladder[4]) > 1e-4
        assert hausdorff_distance(ladder[6], ladder[4]) > 1e-4

    def test_hidden_stays_inside_visible(self, ge_model, ladder):
        pi = stationary_distribution(ge_model)
        visible = region_visible(stats_for(ge_model), pi)
        for hidden in ladder.values():
            vertices_inside(hidden, visible)

    def test_window_length_guard(self, ge_model):
        with pytest.raises(ValueError, match="window length"):
            region_hidden_L(ge_model, 9)
        for bad in (2.5, "2", True):
            with pytest.raises(ValueError, match="window_len"):
                region_hidden_L(ge_model, bad)


def oracle_trace(kind: str, support) -> RateRegion:
    """The reference tracer: exact boundary of a convex region from its support oracle.

    support(d1, d2) returns (value, RatePoint, RegionWitness) for a maximizer
    of d1*R1 + d2*R2.  Starting from the two axis maximizers, each pair of
    neighbouring vertices is split by the maximizer along the normal of the
    edge between them, until every edge is certified by its own normal.  It
    splits with the tolerances of `regions._trace` and prunes the same way.
    """
    _, east, east_witness = support(1.0, 0.0)
    _, north, north_witness = support(0.0, 1.0)
    found = [(RatePoint(east.r1, 0.0), east_witness)]
    if east.r1 >= 1e-11 or north.r2 >= 1e-11:
        found.append((RatePoint(0.0, north.r2), north_witness))
    stack = [(found[0][0], found[-1][0])]
    while stack:
        pa, pb = stack.pop()
        d1, d2 = pb.r2 - pa.r2, pa.r1 - pb.r1
        norm = math.hypot(d1, d2)
        if norm < 1e-12 or d1 < -1e-12 or d2 < -1e-12:
            continue
        d1, d2 = max(d1, 0.0) / norm, max(d2, 0.0) / norm
        value, point, witness = support(d1, d2)
        if value <= d1 * pa.r1 + d2 * pa.r2 + 1e-10:
            continue
        found.append((point, witness))
        stack.append((pa, point))
        stack.append((point, pb))
    found.sort(key=lambda t: (-t[0].r1, t[0].r2))
    pruned = regions._prune_collinear(found)
    return RateRegion(
        kind=kind, boundary=[p for p, _ in pruned], witnesses=[w for _, w in pruned]
    )


def first_argmax(points: np.ndarray, witness):
    """Support oracle over every candidate: the first of largest value."""

    def support(d1: float, d2: float):
        values = points @ np.array([d1, d2])
        i = int(np.argmax(values))
        return float(values[i]), RatePoint(*points[i].tolist()), witness(i)

    return support


def lp_solution(kind, stats, weights, d):
    """The region's LP solved along d, without the tracer."""
    lp = _fraction_lp(_key_table(stats, weights), reactive=kind == "reactive",
                      uncoded=kind == "uncoded")
    lp.objective[:2] = d
    return solve(lp)


def lp_support(kind, stats, weights, d) -> float:
    """Support value straight from the region's LP, without the tracer."""
    return lp_solution(kind, stats, weights, d).value


def oracle_cases():
    rng = np.random.default_rng(19)
    tracers = {
        "visible": region_visible,
        "reactive": region_reactive,
        "uncoded": region_uncoded,
    }
    for n in (1, 2, 3, 4, 5) * 2:
        model = random_model(rng, n) if n > 1 else memoryless(rng.dirichlet(np.ones(4)))
        stats, pi = stats_for(model), stationary_distribution(model)
        for kind, tracer in tracers.items():
            yield f"{kind}-{n}state", kind, stats, pi, tracer(stats, pi)
    # Degenerate inputs: an i.i.d. chain, eps12 = eps1, eps1 = 1, two
    # identical states, and states that erase always or never.
    iid = ChannelModel(np.tile([0.5, 0.3, 0.2], (3, 1)), THREE_STATE_E)
    degenerate = {
        "iid": (stats_for(iid), stationary_distribution(iid)),
        "eps12=eps1": ({0: triple(0.3, 0.5, 0.3), 1: triple(0.6, 0.2, 0.2)}, [0.4, 0.6]),
        "eps1=1": ({0: triple(1.0, 0.4, 0.4), 1: triple(0.5, 0.5, 0.25)}, [0.5, 0.5]),
        "twins": ({0: triple(0.4, 0.3, 0.1), 1: triple(0.4, 0.3, 0.1)}, [0.3, 0.7]),
        "never-always": (
            {0: triple(0.0, 0.0, 0.0), 1: triple(1.0, 1.0, 1.0), 2: triple(0.5, 0.6, 0.3)},
            [0.2, 0.3, 0.5],
        ),
    }
    for name, (stats, pi) in degenerate.items():
        for kind, tracer in tracers.items():
            yield f"{kind}-{name}", kind, stats, pi, tracer(stats, pi)
    noisy = noisy_model()
    for L in (1, 2, 3):
        stats, weights = hidden_window_stats(noisy, L)
        yield f"hidden_L{L}", "hidden_L", stats, weights, region_hidden_L(noisy, L)
        yield f"reactive-L{L}", "reactive", stats, weights, region_reactive(stats, weights)


# Bases the bursty channel's reactive walk visits.
PINNED_STEPS = 12


class TestTracerAgainstLp:
    """The traced boundary against direct solves of the same LP."""

    @pytest.fixture(scope="class")
    def cases(self):
        return list(oracle_cases())

    def test_support_equals_the_lp_value(self, cases):
        rng = np.random.default_rng(31)
        for label, kind, stats, weights, region in cases:
            for theta in rng.uniform(0, math.pi / 2, size=32):
                d = (math.cos(theta), math.sin(theta))
                expect = lp_support(kind, stats, weights, d)
                assert abs(region.support(*d) - expect) < 1e-9, label

    def test_every_edge_is_certified_by_its_normal(self, cases):
        for label, kind, stats, weights, region in cases:
            for a, b in zip(region.boundary, region.boundary[1:]):
                d = np.array([b.r2 - a.r2, a.r1 - b.r1])
                d /= np.hypot(*d)
                gap = lp_support(kind, stats, weights, d) - (d[0] * a.r1 + d[1] * a.r2)
                assert abs(gap) < 1e-9, label

    def test_closed_forms_match_the_lp_traced_boundary(self, cases):
        # Cold per-direction LP solves are the oracle: the same tracer over
        # them must give the closed forms' vertices and those of the
        # reactive trace's parametric walk.
        for label, kind, stats, weights, region in cases:
            def support(d1, d2):
                sol = lp_solution(kind, stats, weights, (d1, d2))
                point = RatePoint(max(sol.witness[0], 0.0), max(sol.witness[1], 0.0))
                return sol.value, point, RegionWitness(kind=kind, parameters={})

            traced = oracle_trace(kind, support)
            assert len(traced.boundary) == len(region.boundary), label
            assert hausdorff_distance(traced, region) <= 1e-12, label
            assert abs(diagonal_rate(traced) - diagonal_rate(region)) <= 1e-12, label

    def test_closed_form_witnesses_support_their_vertices(self, cases):
        for label, kind, stats, weights, region in cases:
            for vertex, witness in zip(region.boundary, region.witnesses):
                assert set(witness.parameters) == set(stats), label
                for x, y in witness.parameters.values():
                    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0, label
                assert regions._witness_supports(witness, vertex, stats, weights), label

    @staticmethod
    def count_solves(monkeypatch) -> list:
        calls = []

        def counted(lp):
            calls.append(lp)
            return solve(lp)

        monkeypatch.setattr("duocast.regions.solve", counted)
        return calls

    def test_lp_solves_stay_within_two_per_vertex(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        phase1 = []

        def counted_phase1(form):
            phase1.append(form)
            return _phase1(form)

        monkeypatch.setattr(lp_module, "_phase1", counted_phase1)
        steps = []

        def walking(lp, c1, c2):
            steps.extend(objective_path(lp, c1, c2))
            return steps

        monkeypatch.setattr(regions, "objective_path", walking)
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        region = region_reactive(stats_for(model), stationary_distribution(model))
        assert calls == []
        assert len(phase1) == 1
        # One cold solve, then one pivot or flip per basis; the count
        # changes only if the walk's pivot rule does.
        assert len(steps) == PINNED_STEPS
        assert len(region.boundary) == 6
        assert len(steps) <= 2 * len(region.boundary) + 1

    def test_closed_forms_solve_no_lp(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        stats, pi = stats_for(model), stationary_distribution(model)
        region_visible(stats, pi)
        region_uncoded(stats, pi)
        for L in (1, 2, 3):
            region_hidden_L(noisy_model(), L)
        assert calls == []


def capture_traces(monkeypatch) -> list:
    """Record each `_trace` call's (kind, points, witness, region) from now on."""
    calls = []
    trace = regions._trace

    def capturing(kind, points, witness):
        region = trace(kind, points, witness)
        calls.append((kind, points, witness, region))
        return region

    monkeypatch.setattr(regions, "_trace", capturing)
    return calls


def oracle_retrace(call) -> RateRegion:
    """The oracle tracer over the candidates one `_trace` call searched."""
    kind, points, witness, _ = call
    return oracle_trace(kind, first_argmax(points, witness))


class TestOrderedTracer:
    """`_trace` searches a slice of the ordered candidates per chord; the
    oracle tracer, which searches them all, must find the same boundary."""

    @pytest.mark.parametrize("L", range(8))
    def test_noisy_hidden_vertices_match_the_oracle_bitwise(self, monkeypatch, L):
        calls = capture_traces(monkeypatch)
        region_hidden_L(noisy_model(), L)
        [call] = calls

        def bits(region):
            return np.array([(p.r1, p.r2) for p in region.boundary]).tobytes()

        assert bits(call[3]) == bits(oracle_retrace(call))

    def test_every_kind_matches_the_oracle_tracer(self, monkeypatch):
        # Each case traces one region; each visible case's inputs also trace
        # the Minkowski sum, whose candidates follow the merged edge slopes.
        calls = capture_traces(monkeypatch)
        for label, kind, stats, weights, _ in oracle_cases():
            if kind == "visible":
                region_minkowski(stats, weights)
            for call in calls:
                region, want = call[3], oracle_retrace(call)
                assert len(region.boundary) == len(want.boundary), (label, call[0])
                assert hausdorff_distance(region, want) <= 1e-12, (label, call[0])
            calls.clear()


class TestMinkowski:
    def test_support_matches_per_state_sum(self):
        chain = random_model(np.random.default_rng(13), n=3)
        inputs = [
            (
                {0: triple(0.5, 0.5, 0.25), 1: triple(0.2, 0.4, 0.08)},
                np.array([0.5, 0.5]),
            ),
            (stats_for(chain), stationary_distribution(chain)),
        ]
        rng = np.random.default_rng(3)
        for stats, pi in inputs:
            region = region_minkowski(stats, pi)
            # Oracle: per-state polygons built from the analytic kink.
            polys = []
            for s, w in zip(stats, pi):
                e = stats[s]
                r1m, r2m, g = 1 - e.eps1, 1 - e.eps2, 1 - e.eps12
                A = np.array([[1 / r1m, 1 / g], [1 / g, 1 / r2m]])
                kink = np.linalg.solve(A, np.ones(2))
                polys.append(w * np.array([[r1m, 0.0], kink, [0.0, r2m]]))
            for _ in range(500):
                theta = rng.uniform(0, math.pi / 2)
                d = np.array([math.cos(theta), math.sin(theta)])
                expect = sum((poly @ d).max() for poly in polys)
                assert abs(region.support(*d) - expect) < 1e-10

    def test_witness_shares_decompose_each_vertex(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        region = region_minkowski(stats_for(model), pi)
        for point, wit in zip(region.boundary, region.witnesses):
            assert wit.shares is not None
            total = np.sum([wit.shares[s] for s in wit.shares], axis=0)
            assert abs(total[0] - point.r1) < 1e-9 or point.r1 == 0.0
            assert abs(total[1] - point.r2) < 1e-9 or point.r2 == 0.0
            for s, (x, y) in wit.parameters.items():
                assert x + y >= 1 - 1e-9  # per-state schemes are reactive


class TestMembership:
    def test_lp_membership_agrees_with_polygon(self):
        model = three_state_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        region = region_visible(stats, pi)
        for p in region.boundary:
            inner = RatePoint(p.r1 * 0.98, p.r2 * 0.98)
            outer = RatePoint(p.r1 * 1.02 + 1e-6, p.r2 * 1.02 + 1e-6)
            assert region.contains(inner)
            wit = region_membership("visible", stats, pi, inner)
            assert wit is not None
            assert not region.contains(outer, tol=1e-9)
            assert region_membership("visible", stats, pi, outer) is None

    def test_witness_from_membership_supports_the_point(self):
        model = alternating_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        target = RatePoint(0.3, 0.3)
        wit = region_membership("reactive", stats, pi, target)
        assert wit is not None
        dist, ratios = synthesize_policy(wit, target, stats, pi)
        for row in dist.probs.values():
            assert row[4] == 0.0 and row[5] == 0.0  # reactive maps to 1/2/3
        for rec in (1, 2):
            for ratio in ratios[rec].values():
                assert -1e-9 <= ratio <= 1 + 1e-9


class TestCutsAndFlows:
    def test_cut_identities_and_mixing_balance(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        pi = stationary_distribution(model)
        stats = stats_for(model)
        dist = random_dist(rng, list(range(3)))
        for j in (1, 2):
            caps = link_capacities(dist, stats, pi, j)
            cv = cut_values(dist, stats, pi, j)
            assert abs(cv.a - (caps["12"] + caps["13"] + caps["14"])) < 1e-12
            assert abs(cv.b - (caps["13"] + caps["14"] + caps["24"])) < 1e-12
            assert abs(cv.c - (caps["12"] + caps["14"] + caps["32"] + caps["34"])) < 1e-12
            assert abs(cv.d - (caps["14"] + caps["24"] + caps["34"])) < 1e-12
        # The mixing outflow capacity does not depend on the receiver.
        c1 = link_capacities(dist, stats, pi, 1)
        c2 = link_capacities(dist, stats, pi, 2)
        assert abs((c1["32"] + c1["34"]) - (c2["32"] + c2["34"])) < 1e-12

    def test_flow_optimum_on_hand_network(self):
        caps = {"12": 0.2, "13": 0.1, "14": 0.3, "24": 0.25, "32": 0.05, "34": 0.1}
        assert abs(flow_optimum(caps) - 0.6) < 1e-9

    def test_flow_optimum_equals_min_cut(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            model = random_model(rng, n=int(rng.integers(1, 5)))
            pi = stationary_distribution(model)
            stats = stats_for(model)
            dist = random_dist(rng, list(range(model.num_states)))
            for j in (1, 2):
                caps = link_capacities(dist, stats, pi, j)
                cv = cut_values(dist, stats, pi, j)
                assert abs(flow_optimum(caps) - cv.minimum()) < 1e-9

    def test_flow_solve_prefers_direct_routes(self):
        caps = {"12": 0.5, "13": 0.5, "14": 0.5, "24": 1.0, "32": 0.5, "34": 0.5}
        flows = flow_solve(caps, 0.4)
        assert flows is not None
        assert flows["13"] < 1e-9
        flows = flow_solve(caps, 1.2)
        assert flows is not None
        assert abs(flows["13"] - 0.2) < 1e-9
        assert flow_solve(caps, 1.6) is None


def preconditioned_instance(rng: np.random.Generator):
    """Random (stats, weights, dist) whose min cut already sits on A or D."""
    while True:
        n = int(rng.integers(1, 4))
        model = random_model(rng, n=n) if n > 1 else memoryless(rng.dirichlet(np.ones(4)))
        pi = stationary_distribution(model)
        stats = stats_for(model)
        dist = random_dist(rng, list(range(n)))
        ok = True
        for j in (1, 2):
            cv = cut_values(dist, stats, pi, j)
            if cv.minimum() < min(cv.a, cv.d) - 1e-12:
                ok = False
                break
        if ok:
            return stats, pi, dist


class TestRedundancyTransform:
    def test_balanced_distributions_are_fixed_points(self):
        stats = {0: triple(0.5, 0.4, 0.2)}
        pi = np.array([1.0])
        dist = ActionDistribution(probs={0: np.array([0.1, 0.2, 0.2, 0.2, 0.15, 0.15])})
        out = redundancy_transform(dist, stats, pi)
        np.testing.assert_array_equal(out.probs[0], dist.probs[0])
        reactive = ActionDistribution(probs={0: np.array([0.0, 0.3, 0.3, 0.4, 0.0, 0.0])})
        out = redundancy_transform(reactive, stats, pi)
        np.testing.assert_array_equal(out.probs[0], reactive.probs[0])

    def test_example_two_policy(self):
        model = alternating_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        witness = RegionWitness(
            kind="visible", parameters={0: (0.0, 0.0), 1: (1.0, 1.0)}
        )
        dist = witness_to_distribution(witness)
        assert dist.probs[0][4] == 1.0
        assert dist.probs[1][3] == 1.0
        out = redundancy_transform(dist, stats, pi)
        assert abs(out.probs[1][5] - 1.0) < 1e-12
        assert abs(out.probs[1][3]) < 1e-12
        np.testing.assert_array_equal(out.probs[0], dist.probs[0])

    def test_min_cut_preserved_on_preconditioned_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            stats, pi, dist = preconditioned_instance(rng)
            out = redundancy_transform(dist, stats, pi)
            for key in dist.probs:
                before, after = dist.probs[key], out.probs[key]
                np.testing.assert_allclose(after[[0, 1, 2, 4]], before[[0, 1, 2, 4]], atol=0)
                assert abs((after[3] + after[5]) - (before[3] + before[5])) < 1e-12
            for j in (1, 2):
                cv0 = cut_values(dist, stats, pi, j)
                cv1 = cut_values(out, stats, pi, j)
                assert abs(cv0.a - cv1.a) < 1e-12
                assert abs(cv0.d - cv1.d) < 1e-12
                assert abs(cv0.minimum() - cv1.minimum()) < 1e-10
                assert abs(cv1.minimum() - min(cv1.a, cv1.d)) < 1e-10

    def test_min_only_grows_without_precondition(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            model = random_model(rng, n=n) if n > 1 else memoryless(rng.dirichlet(np.ones(4)))
            pi = stationary_distribution(model)
            stats = stats_for(model)
            dist = random_dist(rng, list(range(n)))
            out = redundancy_transform(dist, stats, pi)
            for j in (1, 2):
                cv0 = cut_values(dist, stats, pi, j)
                cv1 = cut_values(out, stats, pi, j)
                assert cv1.minimum() >= cv0.minimum() - 1e-10
                assert abs(cv1.minimum() - min(cv1.a, cv1.d)) < 1e-10

    def test_full_reallocation_when_exit_capacity_is_short(self):
        # One state, heavy proactive mass, weak receivers: every stored mix
        # must be remedied and the overheard relay empties out.
        stats = {0: triple(0.55, 0.55, 0.15)}
        pi = np.array([1.0])
        dist = ActionDistribution(
            probs={0: np.array([0.0, 0.05, 0.05, 0.05, 0.8, 0.05])}
        )
        out = redundancy_transform(dist, stats, pi)
        assert abs(out.probs[0][5] - 0.1) < 1e-12
        assert abs(out.probs[0][3]) < 1e-12
        for j in (1, 2):
            caps = link_capacities(out, stats, pi, j)
            assert abs(caps["24"]) < 1e-12

    def test_partial_reallocation_stops_at_the_binding_receiver(self):
        stats = {
            0: triple(0.0, 0.0, 0.0),
            1: triple(0.5, 0.5, 0.0),
            2: triple(0.0, 0.9, 0.0),
        }
        pi = np.array([0.2, 0.5, 0.3])
        dist = ActionDistribution(
            probs={
                0: np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
                1: np.array([0.0, 0.5, 0.5, 0.0, 0.0, 0.0]),
                2: np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
            }
        )
        out = redundancy_transform(dist, stats, pi)
        assert abs(out.probs[2][5] - 2 / 3) < 1e-12
        assert abs(out.probs[2][3] - 1 / 3) < 1e-12
        c13 = link_capacities(out, stats, pi, 1)["13"]
        c34_max = max(
            link_capacities(out, stats, pi, j)["34"] for j in (1, 2)
        )
        assert abs(c34_max - c13) < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_arbitrary_seeds(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        stats = {0: ErasureStats.from_outcome_probs(p)}
        pi = np.array([1.0])
        dist = random_dist(rng, [0])
        out = redundancy_transform(dist, stats, pi)
        row0, row1 = dist.probs[0], out.probs[0]
        np.testing.assert_allclose(row1[[0, 1, 2, 4]], row0[[0, 1, 2, 4]], atol=0)
        assert abs(row1[3:].sum() - row0[3:].sum()) < 1e-12
        for j in (1, 2):
            cv = cut_values(out, stats, pi, j)
            assert abs(cv.minimum() - min(cv.a, cv.d)) < 1e-10


class TestSynthesizePolicy:
    def test_example_two_target(self):
        model = alternating_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        witness = RegionWitness(
            kind="visible", parameters={0: (0.0, 0.0), 1: (1.0, 1.0)}
        )
        dist, ratios = synthesize_policy(witness, RatePoint(0.5, 0.5), stats, pi)
        assert abs(dist.probs[0][4] - 1.0) < 1e-12
        assert abs(dist.probs[1][5] - 1.0) < 1e-12
        for j in (1, 2):
            assert abs(ratios[j]["13"] - 1.0) < 1e-9
            assert abs(ratios[j]["34"] - 1.0) < 1e-9

    def test_rejects_targets_outside_the_witness(self):
        witness = RegionWitness(
            kind="visible", parameters={0: (0.0, 0.0), 1: (1.0, 1.0)}
        )
        model = alternating_model()
        pi = stationary_distribution(model)
        stats = stats_for(model)
        with pytest.raises(ValueError):
            synthesize_policy(witness, RatePoint(0.6, 0.5), stats, pi)

    def test_reactive_witness_maps_uniquely(self):
        wit = RegionWitness(kind="reactive", parameters={0: (0.7, 0.8)})
        dist = witness_to_distribution(wit)
        row = dist.probs[0]
        np.testing.assert_allclose(row, [0.0, 0.2, 0.3, 0.5, 0.0, 0.0], atol=1e-12)

    def test_canonical_visible_mapping_minimizes_shared_mass(self):
        wit = RegionWitness(kind="visible", parameters={0: (0.3, 0.4)})
        row = witness_to_distribution(wit).probs[0]
        np.testing.assert_allclose(row, [0.0, 0.3, 0.4, 0.0, 0.3, 0.0], atol=1e-12)
        wit = RegionWitness(kind="visible", parameters={0: (0.9, 0.8)})
        row = witness_to_distribution(wit).probs[0]
        np.testing.assert_allclose(row, [0.0, 0.2, 0.1, 0.7, 0.0, 0.0], atol=1e-12)

    def test_boundary_vertices_synthesize_across_channels(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            model = random_model(rng, n=int(rng.integers(1, 4)))
            pi = stationary_distribution(model)
            stats = stats_for(model)
            region = region_visible(stats, pi)
            idx = len(region.boundary) // 2
            vertex, witness = region.boundary[idx], region.witnesses[idx]
            target = RatePoint(vertex.r1 * 0.95, vertex.r2 * 0.95)
            dist, ratios = synthesize_policy(witness, target, stats, pi)
            for j in (1, 2):
                caps = link_capacities(dist, stats, pi, j)
                for link, ratio in ratios[j].items():
                    assert -1e-9 <= ratio <= 1 + 1e-9
                    if caps[link] <= 1e-15:
                        assert ratio == 0.0


class TestSerialization:
    def test_csv_polyline(self):
        region = region_memoryless_fb(0.6, 0.4, 0.24)
        text = region_to_csv(region)
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2"
        parsed = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert parsed[0] == (0.4, 0.0)
        assert len(parsed) == len(region.boundary)

    def test_json_documents_witnesses(self):
        model = alternating_model()
        pi = stationary_distribution(model)
        region = region_reactive(stats_for(model), pi)
        doc = json.loads(region_to_json(region))
        assert doc["kind"] == "reactive"
        assert len(doc["boundary"]) == len(doc["witnesses"])
        for wit in doc["witnesses"]:
            assert set(wit["parameters"]) == {"0", "1"}

    @staticmethod
    def whole_document(region):
        """The document as one json.dumps call over the whole dict."""

        def keyed(mapping):
            return {_key_to_str(k): list(v) for k, v in mapping.items()}

        witnesses = []
        for wit in region.witnesses:
            item = {"parameters": keyed(wit.parameters)}
            if wit.shares:
                item["shares"] = keyed(wit.shares)
            witnesses.append(item)
        doc = {
            "kind": region.kind,
            "boundary": [[p.r1, p.r2] for p in region.boundary],
            "witnesses": witnesses,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def test_json_streams_one_witness_per_piece(self):
        model = ge_visible(0.6, 0.1, 0.5, 0.2)
        pi = stationary_distribution(model)
        stats = stats_for(model)
        noisy = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
        cases = [
            region_visible(stats, pi),
            region_minkowski(stats, pi),  # witnesses with shares
            region_hidden_L(noisy, 0),
            region_hidden_L(noisy, 2),  # witnesses read from greedy fills
            region_memoryless_nofb(0.6, 0.4),
        ]
        for region in cases:
            pieces = list(iter_region_json(region))
            assert len(pieces) == len(region.witnesses) + 2
            assert "".join(pieces) == region_to_json(region) == self.whole_document(region)

    def test_json_window_keys_are_readable(self):
        model = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
        region = region_hidden_L(model, 1)
        doc = json.loads(region_to_json(region))
        keys = set()
        for wit in doc["witnesses"]:
            keys.update(wit["parameters"])
        assert keys == {"00", "01", "10", "11"}


class TestRegionTypes:
    def test_rate_point_rejects_negative(self):
        with pytest.raises(ValueError):
            RatePoint(-0.2, 0.1)

    def test_region_rejects_non_monotone_boundary(self):
        pts = [RatePoint(0.5, 0.0), RatePoint(0.6, 0.2), RatePoint(0.0, 0.4)]
        wits = [RegionWitness(kind="visible", parameters={})] * 3
        with pytest.raises(ValueError):
            RateRegion(kind="visible", boundary=pts, witnesses=wits)

    def test_region_requires_witness_per_vertex(self):
        pts = [RatePoint(0.5, 0.0), RatePoint(0.0, 0.4)]
        with pytest.raises(ValueError):
            RateRegion(
                kind="visible",
                boundary=pts,
                witnesses=[RegionWitness(kind="visible", parameters={})],
            )

    def test_reactive_witness_validation(self):
        with pytest.raises(ValueError):
            RegionWitness(kind="reactive", parameters={0: (0.2, 0.3)})
