import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from duocast import regions
from duocast.channel import (
    ChannelModel,
    cond_erasure_visible,
    ge_hidden,
    ge_visible,
    stationary_distribution,
)
from duocast.lp import LinearProgram, LpSolution, feasible, objective_path, solve
import lp_corpus
from lp_corpus import box_lp, random_mixed_lp


def vertex_enumeration_oracle(lp: LinearProgram) -> float:
    """Best objective over all basic feasible points of a <=-only boxed LP."""
    n = len(lp.bounds)
    rows = []
    rhs = []
    for a, rel, b in lp.constraints:
        assert rel == "<="
        rows.append(np.asarray(a, dtype=float))
        rhs.append(b)
    for i, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(hi)
        rows.append(-e)
        rhs.append(-lo)
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = -np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        G = rows[list(combo)]
        if abs(np.linalg.det(G)) < 1e-9:
            continue
        x = np.linalg.solve(G, rhs[list(combo)])
        if (rows @ x <= rhs + 1e-9).all():
            best = max(best, float(lp.objective @ x))
    return best


def random_feasible_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 7))
    G = rng.normal(size=(m, n))
    bounds = [(0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)]
    interior = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    h = G @ interior + rng.uniform(0.05, 1.0, size=m)
    c = rng.normal(size=n)
    return box_lp(c, [(G[i], "<=", h[i]) for i in range(m)], bounds)


class TestSolveBasics:
    def test_single_variable(self):
        sol = solve(box_lp([1.0], [([1.0], "<=", 1.0)], [(0, 1)]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_facet(self):
        sol = solve(
            box_lp([1.0, 1.0], [([1.0, 1.0], "<=", 1.0)], [(0, 1), (0, 1)])
        )
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.witness.sum() == pytest.approx(1.0, abs=1e-9)

    def test_equality_constraint(self):
        sol = solve(
            box_lp(
                [3.0, -1.0],
                [([1.0, 1.0], "=", 0.8), ([1.0, 0.0], "<=", 0.5)],
                [(0, 1), (0, 1)],
            )
        )
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.witness, [0.5, 0.3], atol=1e-9)

    def test_geq_constraint(self):
        sol = solve(
            box_lp([-1.0, -2.0], [([1.0, 1.0], ">=", 0.6)], [(0, 1), (0, 1)])
        )
        assert sol.status == "optimal"
        # Cheapest way to meet the covering row puts everything on x1.
        np.testing.assert_allclose(sol.witness, [0.6, 0.0], atol=1e-9)

    def test_negative_lower_bounds(self):
        sol = solve(box_lp([-1.0], [], [(-2.0, 3.0)]))
        assert sol.value == pytest.approx(2.0, abs=1e-12)

    def test_pinned_variable(self):
        sol = solve(
            box_lp([1.0, 1.0], [([1.0, 1.0], "<=", 5.0)], [(0.3, 0.3), (0, 1)])
        )
        np.testing.assert_allclose(sol.witness, [0.3, 1.0], atol=1e-9)

    def test_no_constraints(self):
        sol = solve(box_lp([2.0, -1.0], [], [(0, 1), (0, 1)]))
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(sol.witness, [1.0, 0.0], atol=1e-12)

    def test_infeasible_status(self):
        sol = solve(box_lp([1.0], [([1.0], ">=", 2.0)], [(0, 1)]))
        assert sol.status == "infeasible"
        assert sol.witness is None

    def test_redundant_equalities(self):
        sol = solve(
            box_lp(
                [1.0, 1.0],
                [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0)],
                [(0, 1), (0, 1)],
            )
        )
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-9)


class TestSolveAgainstOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            lp = random_feasible_lp(rng)
            sol = solve(lp)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(
                vertex_enumeration_oracle(lp), abs=1e-7
            )

    def test_twenty_variable_instance(self):
        rng = np.random.default_rng(99)
        n = 20
        G = rng.normal(size=(6, n))
        interior = rng.uniform(0.1, 0.9, size=n)
        h = G @ interior + 0.25
        lp = box_lp(
            rng.normal(size=n),
            [(G[i], "<=", h[i]) for i in range(6)],
            [(0.0, 1.0)] * n,
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        for a, _, b in lp.constraints:
            assert a @ sol.witness <= b + 1e-9


def scipy_reference(lp: LinearProgram) -> tuple[str, float | None]:
    """Status and optimal value of ``lp`` from scipy's HiGHS."""
    from scipy.optimize import linprog

    rows = {rel: ([], []) for rel in ("<=", "=", ">=")}
    for a, rel, b in lp.constraints:
        rows[rel][0].append(np.asarray(a, dtype=float))
        rows[rel][1].append(float(b))
    a_ub = rows["<="][0] + [-a for a in rows[">="][0]]
    b_ub = rows["<="][1] + [-b for b in rows[">="][1]]
    res = linprog(
        -np.asarray(lp.objective, dtype=float),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(rows["="][0]) if rows["="][0] else None,
        b_eq=np.array(rows["="][1]) if rows["="][1] else None,
        bounds=lp.bounds,
        method="highs",
    )
    if res.status == 0:
        return "optimal", -float(res.fun)
    assert res.status == 2, res.message
    return "infeasible", None


def directed(lp: LinearProgram, c1, c2, d) -> LinearProgram:
    """lp with the objective d[0] c1 + d[1] c2."""
    return replace(lp, objective=d[0] * np.asarray(c1) + d[1] * np.asarray(c2))


def region_lps(monkeypatch) -> list[tuple[LinearProgram, LpSolution]]:
    """The LPs regions solves, each with the solution regions got: cold
    membership LPs, and each reactive path solution with the LP of its
    direction."""
    seen = []

    def recording(lp):
        sol = solve(lp)
        seen.append((lp, sol))
        return sol

    def walking(lp, c1, c2):
        path = objective_path(lp, c1, c2)
        seen.extend((directed(lp, c1, c2, d), sol) for d, sol in path)
        return path

    monkeypatch.setattr(regions, "solve", recording)
    monkeypatch.setattr(regions, "objective_path", walking)
    rng = np.random.default_rng(2024)
    cases = []
    for model in [ge_visible(0.6, 0.1, 0.5, 0.2)] + [
        ChannelModel(rng.dirichlet(np.full(n, 2.0), size=n),
                     rng.dirichlet(np.full(4, 2.0), size=n))
        for n in (2, 3, 4)
    ]:
        stats = {s: cond_erasure_visible(model, s) for s in range(model.num_states)}
        cases.append(("visible", stats, stationary_distribution(model)))
    noisy = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
    cases.append(("hidden_L", *regions.hidden_window_stats(noisy, 2)))
    for kind, stats, weights in cases:
        region = regions.region_reactive(stats, weights)
        for vertex in region.boundary[:: max(1, len(region.boundary) // 3)]:
            for scale in (0.6, 1.15):
                point = regions.RatePoint(scale * vertex.r1, scale * vertex.r2)
                for member_kind in (kind, "reactive", "uncoded"):
                    regions.region_membership(member_kind, stats, weights, point)
    return seen


def assert_matches_scipy(pairs) -> None:
    """Each (lp, solution) pair's status and value against HiGHS on lp."""
    statuses = set()
    for lp, sol in pairs:
        status, value = scipy_reference(lp)
        assert sol.status == status
        if status == "optimal":
            assert sol.value == pytest.approx(value, abs=1e-7)
        statuses.add(status)
    assert statuses == {"optimal", "infeasible"}


class TestSolveAgainstScipy:
    def test_random_mixed_rows(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(4321)
        lps = [random_mixed_lp(rng, infeasible=i % 3 == 0) for i in range(120)]
        assert_matches_scipy((lp, solve(lp)) for lp in lps)

    def test_region_lps(self, monkeypatch):
        pytest.importorskip("scipy")
        pairs = region_lps(monkeypatch)
        walked = sum(lp.objective[:2].any() for lp, _ in pairs)
        assert walked > 50
        assert_matches_scipy(pairs)

    def test_seeded_random_rows(self):
        # Every basis of a path is seeded by the one before it; each is
        # checked against HiGHS on the LP of its direction.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2718)
        lp = box_lp([0.0], [([1.0], ">=", 2.0)], [(0, 1)])
        pairs = [(lp, solve(lp))]
        for _ in range(30):
            lp = random_mixed_lp(rng, infeasible=False)
            c1, c2 = rng.normal(size=(2, len(lp.bounds)))
            path = objective_path(lp, c1, c2)
            pairs.extend((directed(lp, c1, c2, d), sol) for d, sol in path)
        assert len(pairs) > 1 + 2 * 30  # most paths step past their first basis
        assert_matches_scipy(pairs)


class TestFeasible:
    def test_out_of_box(self):
        assert not feasible(box_lp([0.0], [([1.0], ">=", 2.0)], [(0, 1)]))

    def test_empty_constraints(self):
        assert feasible(box_lp([0.0, 0.0], [], [(0, 1), (0, 1)]))

    def test_consistent_with_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lp = random_feasible_lp(rng)
            assert feasible(lp)
            # Tightening with a contradictory covering row flips the verdict.
            lp.constraints.append(
                (np.zeros(len(lp.bounds)), ">=", 1.0)
            )
            assert not feasible(lp)
            assert solve(lp).status == "infeasible"

    def test_alternating_chain_reactive_rates(self):
        # Reactive-coding feasibility for the two-state alternating chain:
        # variables (x1, y1, x2, y2), per-state transmit fractions.
        def reactive_lp(rate: float) -> LinearProgram:
            rows = [
                ([-0.25, 0.0, -0.5, 0.0], "<=", -rate),
                ([0.0, -0.25, 0.0, -0.5], "<=", -rate),
                ([0.0, 0.5, 0.0, 0.5], "<=", 1.0 - rate),
                ([0.5, 0.0, 0.5, 0.0], "<=", 1.0 - rate),
                ([1.0, 1.0, 0.0, 0.0], ">=", 1.0),
                ([0.0, 0.0, 1.0, 1.0], ">=", 1.0),
            ]
            return box_lp(np.zeros(4), rows, [(0, 1)] * 4)

        assert feasible(reactive_lp(7 / 16))
        assert not feasible(reactive_lp(0.47))


class TestDeterminism:
    def test_bit_identical_witness(self):
        rng = np.random.default_rng(77)
        lp = random_feasible_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert np.array_equal(a.witness, b.witness)
        assert a.value == b.value

    def test_solution_type(self):
        sol = solve(box_lp([1.0], [], [(0, 1)]))
        assert isinstance(sol, LpSolution)


def sparse_objectives(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Random objectives, about half their entries zero, so that many optima
    are degenerate or tie along a face."""
    return rng.normal(size=(count, n)) * (rng.random((count, n)) < 0.5)


def highs_value(lp: LinearProgram) -> float | None:
    """HiGHS's optimal value of lp, or None without scipy."""
    try:
        import scipy  # noqa: F401
    except ImportError:
        return None
    status, value = scipy_reference(lp)
    assert status == "optimal"
    return value


class TestObjectivePath:
    """objective_path(lp, c1, c2) against cold solves and HiGHS."""

    def test_every_basis_is_optimal_at_its_direction(self):
        rng = np.random.default_rng(8080)
        lengths = []
        for i in range(60):
            lp = random_mixed_lp(rng, infeasible=False)
            n = len(lp.bounds)
            make = rng.normal if i % 2 else (lambda size: sparse_objectives(rng, n, 2))
            c1, c2 = make(size=(2, n))
            path = objective_path(lp, c1, c2)
            lengths.append(len(path))
            angles = [math.atan2(d[1], d[0]) for d, _ in path]
            assert angles[0] == 0.0
            assert all(a <= b for a, b in zip(angles, angles[1:]))
            for d, sol in path:
                assert abs(math.hypot(*d) - 1.0) <= 1e-15
                at_d = directed(lp, c1, c2, d)
                assert sol.status == "optimal"
                assert abs(sol.value - solve(at_d).value) <= 1e-9
                highs = highs_value(at_d)
                if highs is not None:
                    assert sol.value == pytest.approx(highs, abs=1e-7)
            # Both ends: the first basis is the cold solve's at c1, the last
            # is optimal at c2.
            assert np.array_equal(path[0][1].witness, solve(replace(lp, objective=c1)).witness)
            for c, (_, sol) in ((c1, path[0]), (c2, path[-1])):
                assert abs(c @ sol.witness - solve(replace(lp, objective=c)).value) <= 1e-9
        assert max(lengths) > 3

    def test_a_redundant_row_lp(self):
        # Phase 1 drops the redundant equality before the walk starts.
        lp = box_lp(
            [0.0, 0.0],
            [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0)],
            [(0, 1), (0, 1)],
        )
        path = objective_path(lp, np.array([1.0, -1.0]), np.array([-1.0, 1.0]))
        np.testing.assert_allclose(path[0][1].witness, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(path[-1][1].witness, [0.0, 1.0], atol=1e-12)

    def test_an_infeasible_lp_is_rejected(self):
        lp = box_lp([1.0], [([1.0], ">=", 2.0)], [(0, 1)])
        with pytest.raises(ValueError, match="feasible"):
            objective_path(lp, np.ones(1), -np.ones(1))


# Pivots and flips of the cold solve of TestTelemetry's fixed LP.  They
# change only if the pivot sequence changes, which would also break the
# corpus of TestColdPathCorpus.
PINNED_COUNTS = (22, 38, 9)


class TestTelemetry:
    def test_counts_on_a_fixed_lp(self):
        # The twenty-variable instance of TestSolveAgainstOracle.
        rng = np.random.default_rng(99)
        n = 20
        G = rng.normal(size=(6, n))
        h = G @ rng.uniform(0.1, 0.9, size=n) + 0.25
        lp = box_lp(
            rng.normal(size=n), [(G[i], "<=", h[i]) for i in range(6)], [(0.0, 1.0)] * n
        )
        sol = solve(lp)
        counts = (sol.phase1_pivots, sol.phase2_pivots, sol.bound_flips)
        assert counts == PINNED_COUNTS
        assert all(type(c) is int for c in counts)

    def test_seeded_solve_skips_phase_one(self):
        # Each basis of a path after the first is seeded by the one before
        # it: only the cold solve at c1 runs phase 1.
        rows = [([1.0, 1.0, 1.0], ">=", 1.2), ([1.0, -1.0, 0.0], "=", 0.1)]
        lp = box_lp([0.0, 0.0, 0.0], rows, [(0, 1)] * 3)
        c1, c2 = np.array([1.0, 0.0, -1.0]), np.array([-1.0, 0.5, 1.0])
        first, *steps = [sol for _, sol in objective_path(lp, c1, c2)]
        cold = solve(replace(lp, objective=c1))
        assert cold.phase1_pivots > 0
        counts = (first.phase1_pivots, first.phase2_pivots, first.bound_flips)
        assert counts == (cold.phase1_pivots, cold.phase2_pivots, cold.bound_flips)
        assert steps
        for sol in steps:
            assert sol.phase1_pivots == 0
            assert sol.phase2_pivots + sol.bound_flips == 1


class TestColdPathCorpus:
    """solve(lp) without a seed reproduces the recorded corpus bit for bit."""

    def test_another_environment_warns_and_names_both(self):
        other = {"numpy": "1.0.0", "machine": "vax"}
        with pytest.warns(UserWarning, match="1.0.0.*vax.*not compared"):
            assert lp_corpus.compares_bits(other) is False
        assert lp_corpus.compares_bits(lp_corpus.environment()) is True

    def test_cold_solves_reproduce_the_recorded_corpus(self):
        doc = json.loads(lp_corpus.CORPUS_PATH.read_text())
        groups = lp_corpus.corpus()
        assert set(groups) == set(doc["groups"])
        # Elsewhere only status and value are held.
        bitwise = lp_corpus.compares_bits(doc["environment"])
        for name, lps in groups.items():
            expected = doc["groups"][name]
            assert len(lps) == len(expected), name
            for i, (lp, want) in enumerate(zip(lps, expected)):
                sol = solve(lp)
                if bitwise:
                    got = lp_corpus.entry(lp, sol)
                    assert got[0] == want[0], (
                        f"{name}[{i}]: the input LP changed, in the region or "
                        "corpus-builder code, not in the solver")
                    assert got[1:] == want[1:], (
                        f"{name}[{i}]: the solver's output (status, value or "
                        "witness) changed")
                else:
                    assert sol.status == want[1], (name, i)
                    if sol.status == "optimal":
                        assert abs(sol.value - float.fromhex(want[2])) <= 1e-9, (name, i)
