"""Rate regions, cut calculus, and policy synthesis for the broadcast channel.

Every region is a convex polygon in the (R1, R2) quadrant, produced as an
explicit boundary polyline from (R1max, 0) to (0, R2max) with a witness per
vertex.  Each traced kind lists candidate points that include every vertex,
in boundary order, and one exact vertex tracer, `_trace`, picks the
vertices out of them.  Only the reactive region's candidates come from an
LP over the per-conditioning transmit fractions (x_k, y_k): its
x_k + y_k >= 1 couples the two receivers.  Its constraints do not depend on
the direction, so one parametric simplex walk from (1, 0) to (0, 1) visits
an optimal basic solution for every direction, in boundary order.  The
visible and hidden_L LP separates into two fractional knapsacks, each
solved by a greedy fill after one sort; their candidates are the
breakpoints and crossings of the two frontiers' lower envelope.  The
uncoded and Minkowski regions are sums of per-key convex pieces, and one
greedy fill over the pieces' edges, `_edge_fill`, lists both's candidates:
an uncoded piece is one edge, from all at receiver 1 to all at receiver 2;
a Minkowski piece is the key's memoryless feedback region.  That region is
one closed form, `_memoryless_piece`, which `region_memoryless_fb` returns
as it is and `memoryless_facets` writes as LP rows.  The memoryless region
without feedback is the one-key uncoded region.  Membership and policy
synthesis always solve the LP cold.  Every evaluator reads the per-key
gains a1 = w(1 - eps1), a2 = w(1 - eps2) and g = w(1 - eps12) from one
`_key_table`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

# cond_erasure_hidden is imported for perfbench/layers.py, which wraps it in
# this module's namespace to count its calls.
from duocast.channel import (  # noqa: F401
    ChannelModel,
    ErasureStats,
    cond_erasure_hidden,
    positive_int,
    window_joint,
    window_keys,
)
from duocast.lp import LinearProgram, objective_path, solve
from duocast.queuenet import LINK_NAMES

REGION_KINDS = (
    "visible",
    "reactive",
    "hidden_L",
    "memoryless_fb",
    "minkowski",
    "uncoded",
)

# Action indices: 0 idle, 1/2 uncoded to receiver j, 3 coded retransmission,
# 4 proactive mix of two fresh packets, 5 remedy for a stored mix.
N_ACTIONS = 6

_GEOM_TOL = 1e-9


@dataclass(frozen=True)
class RatePoint:
    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise ValueError("rates must be finite")
        if self.r1 < -_GEOM_TOL or self.r2 < -_GEOM_TOL:
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class RegionWitness:
    """Per-conditioning transmit fractions certifying one boundary point.

    parameters maps each conditioning key (state index or feedback window)
    to its (x, y) pair.  For the Minkowski region, shares additionally maps
    each state to its contributed rate pair.
    """

    kind: str
    parameters: Mapping
    shares: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if isinstance(self.parameters, _FillView):
            return  # every value is 0, 1 or a share clipped to [0, 1]
        for key, (x, y) in self.parameters.items():
            if not (-_GEOM_TOL <= x <= 1 + _GEOM_TOL and -_GEOM_TOL <= y <= 1 + _GEOM_TOL):
                raise ValueError(f"witness parameters for {key!r} outside [0,1]")
            if self.kind == "reactive" and x + y < 1 - _GEOM_TOL:
                raise ValueError(f"reactive witness needs x+y >= 1 at {key!r}")


@dataclass
class RateRegion:
    """Convex rate region: boundary polyline plus a witness per vertex."""

    kind: str
    boundary: list[RatePoint]
    witnesses: list[RegionWitness]

    def __post_init__(self) -> None:
        if not self.boundary:
            raise ValueError("boundary must contain at least one point")
        if len(self.witnesses) != len(self.boundary):
            raise ValueError("need exactly one witness per boundary vertex")
        pts = self.boundary
        if abs(pts[0].r2) > _GEOM_TOL or abs(pts[-1].r1) > _GEOM_TOL:
            raise ValueError("boundary must run from (R1max, 0) to (0, R2max)")
        for a, b in zip(pts, pts[1:]):
            if b.r1 > a.r1 + _GEOM_TOL:
                raise ValueError("boundary must be nonincreasing in r1")
            if b.r2 < a.r2 - _GEOM_TOL:
                raise ValueError("boundary must be nondecreasing in r2")
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            cross = (b.r1 - a.r1) * (c.r2 - a.r2) - (b.r2 - a.r2) * (c.r1 - a.r1)
            if cross < -1e-7:
                raise ValueError("boundary polyline is not convex")

    @property
    def r1_max(self) -> float:
        return self.boundary[0].r1

    @property
    def r2_max(self) -> float:
        return self.boundary[-1].r2

    def polygon(self) -> np.ndarray:
        """Closed counterclockwise polygon including the axis corner."""
        pts = [(0.0, 0.0)] + [(p.r1, p.r2) for p in self.boundary]
        return np.array(pts)

    def contains(self, point: RatePoint, tol: float = _GEOM_TOL) -> bool:
        poly = self.polygon()
        edge = np.vstack([poly[1:], poly[:1]]) - poly
        cross = edge[:, 0] * (point.r2 - poly[:, 1]) - edge[:, 1] * (point.r1 - poly[:, 0])
        length = np.hypot(edge[:, 0], edge[:, 1])
        outside = (cross < -tol * np.maximum(length, 1.0)) & (length * length >= 1e-24)
        return not outside.any()

    def support(self, d1: float, d2: float) -> float:
        vals = [d1 * p.r1 + d2 * p.r2 for p in self.boundary]
        return max(vals + [0.0])


@dataclass
class ActionDistribution:
    """Per-conditioning action probabilities, rows ordered idle,1,2,3,4,5."""

    probs: dict

    def __post_init__(self) -> None:
        cleaned = {}
        for key, row in self.probs.items():
            row = np.asarray(row, dtype=float)
            if row.shape != (N_ACTIONS,):
                raise ValueError(f"row for {key!r} must have {N_ACTIONS} entries")
            if not np.isfinite(row).all():
                raise ValueError(f"row for {key!r} must be finite")
            if row.min() < -1e-12:
                raise ValueError(f"negative probability for {key!r}")
            if abs(row.sum() - 1.0) > 1e-12:
                raise ValueError(f"row for {key!r} must sum to 1")
            cleaned[key] = row
        self.probs = cleaned


@dataclass(frozen=True)
class CutValues:
    """The four queue-network cut capacities for one receiver."""

    a: float
    b: float
    c: float
    d: float

    def minimum(self) -> float:
        return min(self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class _KeyTable:
    """Each key's weight, erasure probabilities and gains, in the stats' order.

    a1 = w(1 - eps1) and a2 = w(1 - eps2) are what a slot of key k sent to
    receiver 1 or 2 alone delivers per unit of time share, g = w(1 - eps12)
    what a coded slot delivers to at least one receiver, and G = sum(g).
    """

    keys: list
    w: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    eps12: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    g: np.ndarray
    G: float


def _key_table(stats_by_key: dict, weights: dict | np.ndarray) -> _KeyTable:
    keys = list(stats_by_key.keys())
    if isinstance(weights, dict):
        w = np.array([weights[k] for k in keys], dtype=float)
    else:
        w = np.asarray(weights, dtype=float)
        if w.size != len(keys):
            raise ValueError("weights length must match the number of keys")
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must form a probability vector")
    eps1 = np.array([stats_by_key[k].eps1 for k in keys])
    eps2 = np.array([stats_by_key[k].eps2 for k in keys])
    eps12 = np.array([stats_by_key[k].eps12 for k in keys])
    g = w * (1.0 - eps12)
    return _KeyTable(keys, w, eps1, eps2, eps12, a1=w * (1.0 - eps1),
                     a2=w * (1.0 - eps2), g=g, G=float(g.sum()))


def _trace(kind: str, points: np.ndarray, witness) -> RateRegion:
    """Exact boundary of a convex region from candidates in boundary order.

    points holds one (R1, R2) row per candidate, every vertex among them,
    ordered from the (R1max, 0) end to the (0, R2max) end; witness(i) is the
    witness of candidate i.  Each end takes the witness of the first
    candidate that reaches it.  Each chord between neighbouring vertices is
    split at the first candidate farthest along its normal, until every edge
    is certified by its own normal.  A maximizer along a direction between
    those of a chord's two ends lies between them in boundary order, so each
    split searches only the candidates from one end to the other.
    """
    east, north = int(np.argmax(points[:, 0])), int(np.argmax(points[:, 1]))
    found = [(RatePoint(float(points[east, 0]), 0.0), witness(east))]
    if points[east, 0] >= 1e-11 or points[north, 1] >= 1e-11:
        found.append((RatePoint(0.0, float(points[north, 1])), witness(north)))
    stack = [(found[0][0], east, found[-1][0], north)]
    while stack:
        pa, ia, pb, ib = stack.pop()
        d1, d2 = pb.r2 - pa.r2, pa.r1 - pb.r1
        norm = math.hypot(d1, d2)
        if norm < 1e-12 or d1 < -1e-12 or d2 < -1e-12:
            continue
        d1, d2 = max(d1, 0.0) / norm, max(d2, 0.0) / norm
        values = points[ia : ib + 1] @ np.array([d1, d2])
        i = int(np.argmax(values))
        if values[i] <= d1 * pa.r1 + d2 * pa.r2 + 1e-10:
            continue
        i += ia
        point = RatePoint(*points[i].tolist())
        found.append((point, witness(i)))
        stack.append((pa, ia, point, i))
        stack.append((point, i, pb, ib))
    found.sort(key=lambda t: (-t[0].r1, t[0].r2))
    pruned = _prune_collinear(found)
    return RateRegion(
        kind=kind, boundary=[p for p, _ in pruned], witnesses=[w for _, w in pruned]
    )


def _prune_collinear(ordered):
    if len(ordered) <= 2:
        return ordered
    kept = [ordered[0]]
    for cand in ordered[1:-1]:
        a, b = kept[-1][0], cand[0]
        if abs(a.r1 - b.r1) < 1e-11 and abs(a.r2 - b.r2) < 1e-11:
            continue
        kept.append(cand)
    kept.append(ordered[-1])
    # Drop interior vertices that lie on the segment of their neighbours,
    # the first such vertex first.  A drop changes only the two triples
    # around it, so the scan resumes one vertex back, not from the start.
    # The test is b's distance from the chord a-c, cross / |c - a|: the bare
    # cross product scales with both edge lengths, so between close corners
    # it would drop real ones.
    i = 1
    while i < len(kept) - 1:
        a, b, c = kept[i - 1][0], kept[i][0], kept[i + 1][0]
        cross = (b.r1 - a.r1) * (c.r2 - a.r2) - (b.r2 - a.r2) * (c.r1 - a.r1)
        if abs(cross) < 1e-12 * math.hypot(c.r1 - a.r1, c.r2 - a.r2):
            kept.pop(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return kept


def _fraction_lp(table: _KeyTable, *, reactive: bool, uncoded: bool) -> LinearProgram:
    """The region's LP over [R1, R2, x_0.., y_0..], all in [0, 1], zero objective.

    Rows in order: R1 <= a1.x and R2 <= a2.y; then x_k + y_k <= 1 per key
    (uncoded), or R1 + g.y <= G and R2 + g.x <= G, then x_k + y_k >= 1 per
    key if reactive.
    """
    K = len(table.keys)
    n = 2 + 2 * K
    zero = np.zeros(K)
    rows = [(np.concatenate(([1.0, 0.0], -table.a1, zero)), "<=", 0.0),
            (np.concatenate(([0.0, 1.0], zero, -table.a2)), "<=", 0.0)]
    if not uncoded:
        rows += [(np.concatenate(([1.0, 0.0], zero, table.g)), "<=", table.G),
                 (np.concatenate(([0.0, 1.0], table.g, zero)), "<=", table.G)]
    if uncoded or reactive:
        pairs = np.zeros((K, n))
        k = np.arange(K)
        pairs[k, 2 + k] = pairs[k, 2 + K + k] = 1.0
        rows += [(row, "<=" if uncoded else ">=", 1.0) for row in pairs]
    return LinearProgram(objective=np.zeros(n), constraints=rows, bounds=[(0.0, 1.0)] * n)


class _FillView(Mapping):
    """One vertex's (x, y) per key, read on demand from two greedy fills.

    A fill is (rank of each key in the fill order, whole keys taken, share of
    the next key): x_k is 1 below the cut, the share at it and 0 past it.
    Holding the fills instead of a dict keeps a trace at O(1) memory per
    vertex, which matters at window lengths with thousands of keys.  The
    share is clipped to [0, 1], so every value lies in [0, 1].
    """

    __slots__ = ("_keys", "_index", "_x", "_y")

    def __init__(self, keys, index, fill_x, fill_y):
        self._keys, self._index, self._x, self._y = keys, index, fill_x, fill_y

    @staticmethod
    def _value(fill, k: int) -> float:
        rank, whole, share = fill
        r = rank[k]
        return 1.0 if r < whole else (share if r == whole else 0.0)

    def __getitem__(self, key):
        k = self._index[key]
        return (self._value(self._x, k), self._value(self._y, k))

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _greedy_fill(a: np.ndarray, g: np.ndarray):
    """Dantzig's fractional knapsack: least g spent per unit of a gained.

    Returns the keys in fill order (keys with a = 0 last, never filled), the
    running gain of a and the running spend of g over the usable prefix.
    """
    usable = np.flatnonzero(a > 0)
    order = np.concatenate(
        [usable[np.argsort(g[usable] / a[usable], kind="stable")],
         np.flatnonzero(a <= 0)]
    )
    head = order[: usable.size]
    gain = np.concatenate([[0.0], np.cumsum(a[head])])
    spent = np.concatenate([[0.0], np.cumsum(g[head])])
    return order, gain, spent


def _fill_cuts(order, gain, a, targets: np.ndarray):
    """Whole keys taken and share of the next so that a.x reaches each target."""
    n = gain.size - 1
    whole = np.clip(np.searchsorted(gain, targets, side="right") - 1, 0, n)
    share = np.zeros(targets.size)
    part = whole < n
    share[part] = (targets[part] - gain[whole[part]]) / a[order[whole[part]]]
    return whole, np.clip(share, 0.0, 1.0)


def _knapsack_region(kind: str, stats_by_key: dict, weights) -> RateRegion:
    """Exact visible/hidden_L region, P_x ∩ P_y, without an LP.

    x appears only in R1 <= a1.x, R2 <= G - g.x and y only in R2 <= a2.y,
    R1 <= G - g.y.  So the region is P_x ∩ P_y, and each P is bounded by a
    greedy fill: P_x by R2 <= f_x(R1) = G - (least g.x with a1.x = R1), P_y
    likewise with the axes swapped.  Both frontiers take one sort, O(K log K).
    The boundary is min(f_x, f_y) over R1 in [0, sum a1]; its vertices are
    among the breakpoints of both frontiers and their crossings, and `_trace`
    picks them out of those candidates sorted by R1 descending.  Each
    vertex's witness is the x fill that reaches R1 and the y fill that
    reaches R2, so it supports the vertex by construction.
    """
    table = _key_table(stats_by_key, weights)
    keys, a1, a2, g, G = table.keys, table.a1, table.a2, table.g, table.G
    order_x, gain_x, spent_x = _greedy_fill(a1, g)
    order_y, gain_y, spent_y = _greedy_fill(a2, g)
    # f_x over R1 ascending; f_y as the inverse of P_y's frontier, also over
    # R1 ascending (np.interp holds its value sum a2 left of the last fill).
    fx_t, fx_v = gain_x, G - spent_x
    fy_t, fy_v = (G - spent_y)[::-1], gain_y[::-1]
    r1_max = float(gain_x[-1])

    t = np.sort(np.concatenate([fx_t, fy_t[(fy_t > 0.0) & (fy_t < r1_max)]]))
    fx, fy = np.interp(t, fx_t, fx_v), np.interp(t, fy_t, fy_v)
    d = fx - fy
    cross = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    tc = t[cross] + d[cross] / (d[cross] - d[cross + 1]) * (t[cross + 1] - t[cross])
    points = np.maximum(
        np.column_stack([
            np.concatenate([t, tc]),
            np.concatenate([np.minimum(fx, fy), np.interp(tc, fx_t, fx_v)]),
        ]),
        0.0,
    )
    points = points[np.lexsort((points[:, 1], -points[:, 0]))]

    index = {key: k for k, key in enumerate(keys)}
    fills = []
    for order, gain, a, target in (
        (order_x, gain_x, a1, points[:, 0]), (order_y, gain_y, a2, points[:, 1])
    ):
        rank = np.empty(len(keys), dtype=np.int64)
        rank[order] = np.arange(len(keys))
        whole, share = _fill_cuts(order, gain, a, target)
        fills.append((rank.tolist(), whole.tolist(), share.tolist()))

    def witness(i: int) -> RegionWitness:
        fill_x, fill_y = ((rank, whole[i], share[i]) for rank, whole, share in fills)
        return RegionWitness(kind=kind, parameters=_FillView(keys, index, fill_x, fill_y))

    return _trace(kind, points, witness)


# The five traced regions (visible, reactive, uncoded, hidden_L, minkowski)
# accept `directions` and ignore it: the boundary is exact without a
# direction fan, and older callers still pass the argument.


def region_visible(stats_by_state: dict, pi, directions=None) -> RateRegion:
    """Rates supportable when the previous channel state is observed."""
    return _knapsack_region("visible", stats_by_state, pi)


def region_reactive(stats_by_state: dict, pi, directions=None) -> RateRegion:
    """Visible-state region restricted to reactive coding (x_s + y_s >= 1).

    x + y >= 1 couples x and y per state, so this region is traced from its
    support LP.  Only the objective changes between directions, so one
    `objective_path` walk from (1, 0) to (0, 1) visits an optimal basic
    solution for every direction, and its steps are the candidates in the
    order it visits them.
    """
    table = _key_table(stats_by_state, pi)
    keys, K = table.keys, len(table.keys)
    east, north = np.zeros(2 + 2 * K), np.zeros(2 + 2 * K)
    east[0] = north[1] = 1.0
    points, witnesses = [], []
    lp = _fraction_lp(table, reactive=True, uncoded=False)
    for _, sol in objective_path(lp, east, north):
        x = np.clip(sol.witness[2 : 2 + K], 0, 1).tolist()
        y = np.clip(sol.witness[2 + K :], 0, 1).tolist()
        points.append(np.maximum(sol.witness[:2], 0.0))
        params = dict(zip(keys, zip(x, y)))
        witnesses.append(RegionWitness(kind="reactive", parameters=params))
    return _trace("reactive", np.array(points), witnesses.__getitem__)


def _edge_fill(key_of: np.ndarray, cost: np.ndarray, gain: np.ndarray):
    """Candidates of a sum of convex pieces, one per key, by one greedy fill.

    Each key's piece is a polyline from its (R1max, 0) end to its (0, R2max)
    end.  Edge e, of key key_of[e], gives up cost[e] of R1 for gain[e] of R2;
    each key's edges are listed in boundary order, and every key has one.  So
    the sum starts at R1 = sum(cost), and its boundary takes the edges least
    cost per unit of gain first: the greedy fill of the knapsack with the
    roles of a and g taken by gain and cost.  Candidate i has taken the first
    i edges, and reached(i) lists the vertex each key stands at in it: a
    convex piece's edges cost no less per unit of gain as they go, so the
    stable fill takes each key's edges in order.  An edge without gain is
    never taken; `_trace` places the (0, R2max) end itself.
    """
    order, gained, spent = _greedy_fill(gain, cost)
    points = np.maximum(np.column_stack([cost.sum() - spent, gained]), 0.0)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    n_keys = int(key_of[-1]) + 1

    def reached(i: int) -> list[int]:
        return np.bincount(key_of[rank < i], minlength=n_keys).tolist()

    return points, reached


def region_uncoded(stats_by_state: dict, pi, directions=None) -> RateRegion:
    """Plain per-state time sharing between the two uncoded transmissions.

    The region is the sum of per-state triangles with legs w(1 - eps1) and
    w(1 - eps2): each state's piece is one edge from all at receiver 1 to all
    at receiver 2, giving up a1 of R1 for a2 of R2.
    """
    table = _key_table(stats_by_state, pi)
    keys = table.keys
    points, reached = _edge_fill(np.arange(len(keys)), table.a1, table.a2)

    def witness(i: int) -> RegionWitness:
        params = {key: ((1.0, 0.0), (0.0, 1.0))[v] for key, v in zip(keys, reached(i))}
        return RegionWitness(kind="uncoded", parameters=params)

    return _trace("uncoded", points, witness)


def hidden_window_stats(
    model: ChannelModel, window_len: int, delay: int = 1
) -> tuple[dict, dict]:
    """Per-window erasure stats and window probabilities, zero-mass dropped.

    The window holds the last ``window_len`` feedback pairs, fed back
    ``delay`` slots late.  Both come from the joint table alpha[w, s] =
    P(window w, next state s): a window's law is
    (alpha[w] / P(w)) @ T^(delay - 1) @ emission, the state after the
    window predicted delay - 1 steps ahead by the transition T, as
    `kernel.slot_stream` predicts it.  At delay 1 the power is skipped.
    """
    delay = positive_int("delay", delay)
    alpha = window_joint(model, window_len)
    mass = alpha.sum(axis=1)
    kept = np.flatnonzero(mass > 0.0)
    beliefs = alpha[kept] / mass[kept, np.newaxis]
    if delay > 1:
        beliefs = beliefs @ np.linalg.matrix_power(model.transition, delay - 1)
    laws = beliefs @ model.emission
    keys = window_keys(window_len)
    stats = {keys[w]: ErasureStats.from_outcome_probs(law)
             for w, law in zip(kept.tolist(), laws)}
    weights = dict(zip(stats, (mass[kept] / mass[kept].sum()).tolist()))
    return stats, weights


def region_hidden_L(
    model: ChannelModel, window_len: int, delay: int = 1, *, directions=None
) -> RateRegion:
    """Rates supportable with policies conditioned on the last L feedback
    pairs, fed back ``delay`` slots late."""
    stats, weights = hidden_window_stats(model, window_len, delay)
    return _knapsack_region("hidden_L", stats, weights)


def _memoryless_piece(eps1: float, eps2: float, eps12: float) -> list:
    """Vertices of one law's feedback region, each with its (x, y), east first.

    The region is R1/(1-e1) + R2/(1-e12) <= 1 and R1/(1-e12) + R2/(1-e2) <= 1
    in the quadrant.  The lines' crossing is a vertex when it lies strictly
    inside the quadrant.
    """
    r1m, r2m = 1.0 - eps1, 1.0 - eps2
    g = 1.0 - eps12
    piece = [((r1m, 0.0), (1.0, 0.0))]
    if g > 0:
        det = 1.0 - (r1m / g) * (r2m / g)
        if det > 1e-12:
            k1 = r1m * (1.0 - r2m / g) / det
            k2 = r2m * (1.0 - r1m / g) / det
            if k1 > 1e-12 and k2 > 1e-12:
                piece.append(((k1, k2), (k1 / r1m if r1m else 0.0, k2 / r2m if r2m else 0.0)))
    piece.append(((0.0, r2m), (0.0, 1.0)))
    return piece


def memoryless_facets(stats: ErasureStats) -> list[tuple[float, float, float]]:
    """Rows (a, b, h), a R1 + b R2 <= h, one per edge of the law's feedback region.

    A region without an edge longer than 1e-15 is the box R1 <= R1max,
    R2 <= R2max.
    """
    pts = [p for p, _ in _memoryless_piece(stats.eps1, stats.eps2, stats.eps12)]
    rows = []
    for (p1, p2), (q1, q2) in zip(pts, pts[1:]):
        a, b = q2 - p2, p1 - q1
        if abs(a) >= 1e-15 or abs(b) >= 1e-15:
            rows.append((a, b, a * p1 + b * p2))
    return rows or [(1.0, 0.0, pts[0][0]), (0.0, 1.0, pts[-1][1])]


def region_memoryless_fb(eps1: float, eps2: float, eps12: float) -> RateRegion:
    """Closed-form two-segment feedback region of a memoryless channel."""
    if not 0 <= eps12 <= min(eps1, eps2) <= 1:
        raise ValueError("need 0 <= eps12 <= min(eps1, eps2) <= 1")
    if 1.0 - eps1 - eps2 + eps12 < -1e-12:
        raise ValueError("need eps1 + eps2 - eps12 <= 1: P(both received) = "
                         f"1 - eps1 - eps2 + eps12 = {1.0 - eps1 - eps2 + eps12:.4g} < 0")
    piece = _memoryless_piece(eps1, eps2, eps12)
    return RateRegion(
        kind="memoryless_fb",
        boundary=[RatePoint(*p) for p, _ in piece],
        witnesses=[RegionWitness(kind="memoryless_fb", parameters={0: xy}) for _, xy in piece],
    )


def region_minkowski(stats_by_state: dict, pi, directions=None) -> RateRegion:
    """Weighted sum of per-state memoryless feedback regions.

    Each state's piece is its `_memoryless_piece` scaled by its weight, and
    `_edge_fill` merges the pieces' edges.  Each witness maps every state to
    its own (x, y) in parameters and to its contributed rate pair in shares.
    """
    table = _key_table(stats_by_state, pi)
    keys = table.keys
    pieces = [_memoryless_piece(st.eps1, st.eps2, st.eps12) for st in stats_by_state.values()]
    scaled = [w * np.array([p for p, _ in piece]) for w, piece in zip(table.w, pieces)]
    edges = np.concatenate([np.diff(pts, axis=0) for pts in scaled])
    key_of = np.repeat(np.arange(len(keys)), [len(pts) - 1 for pts in scaled])
    points, reached = _edge_fill(key_of, -edges[:, 0], edges[:, 1])

    def witness(i: int) -> RegionWitness:
        params, shares = {}, {}
        for key, piece, pts, v in zip(keys, pieces, scaled, reached(i)):
            params[key] = piece[v][1]
            shares[key] = (float(pts[v, 0]), float(pts[v, 1]))
        return RegionWitness(kind="minkowski", parameters=params, shares=shares)

    return _trace("minkowski", points, witness)


def region_membership(
    kind: str, stats_by_key: dict, weights, point: RatePoint
) -> RegionWitness | None:
    """Feasibility-LP membership test returning a witness when inside."""
    if kind not in ("visible", "reactive", "uncoded", "hidden_L"):
        raise ValueError(f"membership LP not defined for kind {kind!r}")
    table = _key_table(stats_by_key, weights)
    keys, K = table.keys, len(table.keys)
    lp = _fraction_lp(table, reactive=kind == "reactive", uncoded=kind == "uncoded")
    lp.bounds[0] = (point.r1, point.r1)
    lp.bounds[1] = (point.r2, point.r2)
    sol = solve(lp)
    if sol.status != "optimal":
        return None
    vars_ = sol.witness[2:]
    params = {
        keys[k]: (float(np.clip(vars_[k], 0, 1)), float(np.clip(vars_[K + k], 0, 1)))
        for k in range(K)
    }
    return RegionWitness(kind=kind, parameters=params)


def diagonal_rate(region: RateRegion) -> float:
    """Largest r with (r, r) inside the region (boundary-diagonal crossing)."""
    pts = region.boundary
    if pts[-1].r2 <= 1e-15:
        return 0.0
    prev = pts[0]
    if prev.r2 >= prev.r1:
        return min(prev.r1, prev.r2) if len(pts) == 1 else prev.r1
    for cur in pts[1:]:
        f_prev, f_cur = prev.r2 - prev.r1, cur.r2 - cur.r1
        if f_cur >= 0.0:
            t = f_prev / (f_prev - f_cur)
            return prev.r1 + t * (cur.r1 - prev.r1)
        prev = cur
    return 0.0


def hausdorff_distance(a: RateRegion, b: RateRegion) -> float:
    """Exact Hausdorff distance between two convex rate regions."""
    pa, pb = a.polygon(), b.polygon()
    return max(_farthest_point(pa, pb), _farthest_point(pb, pa))


def _farthest_point(points: np.ndarray, poly: np.ndarray) -> float:
    """Largest distance from a row of points to the convex polygon poly.

    A point on the inner side of every edge is inside, at distance 0.  The
    points go in blocks of about 2**18 point-edge pairs, to bound memory.
    """
    edge = np.roll(poly, -1, axis=0) - poly
    length2 = (edge * edge).sum(axis=1)
    real = length2 >= 1e-24  # a shorter edge counts as its start vertex
    worst = 0.0
    for block in np.array_split(points, 1 + points.size * poly.size // 2**20):
        rel = block[:, None, :] - poly
        cross = edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0]
        along = (rel * edge).sum(axis=2) / np.where(real, length2, 1.0)
        t = np.where(real, np.clip(along, 0.0, 1.0), 0.0)
        gap = rel - t[..., None] * edge
        dist = np.hypot(gap[..., 0], gap[..., 1]).min(axis=1)
        outside = ((cross < 0) & real).any(axis=1)
        worst = max(worst, float(np.max(dist, where=outside, initial=0.0)))
    return worst


def link_capacities(
    dist: ActionDistribution, stats_by_key: dict, weights, receiver: int
) -> dict[str, float]:
    """Average per-slot link capacities of the virtual queue network."""
    if receiver not in (1, 2):
        raise ValueError("receiver must be 1 or 2")
    t = _key_table(stats_by_key, weights)
    own, a = (t.eps1, t.a1) if receiver == 1 else (t.eps2, t.a2)
    p = np.array([dist.probs[k] for k in t.keys])
    return {
        "12": float(np.sum(t.w * (own - t.eps12) * p[:, receiver])),
        "13": float(np.sum(t.g * p[:, 4])),
        "14": float(np.sum(a * p[:, receiver])),
        "24": float(np.sum(a * p[:, 3])),
        "32": float(np.sum(t.w * (own - t.eps12) * p[:, 5])),
        "34": float(np.sum(a * p[:, 5])),
    }


def cut_values(
    dist: ActionDistribution, stats_by_key: dict, weights, receiver: int
) -> CutValues:
    """The four cut capacities bounding one receiver's flow."""
    c = link_capacities(dist, stats_by_key, weights, receiver)
    return CutValues(
        a=c["12"] + c["13"] + c["14"],
        b=c["13"] + c["14"] + c["24"],
        c=c["12"] + c["14"] + c["32"] + c["34"],
        d=c["14"] + c["24"] + c["34"],
    )


def _flow_lp(caps: dict[str, float], objective: np.ndarray) -> LinearProgram:
    # Variables f12, f13, f14, f24, f32, f34 with queue-balance rows:
    # fresh packets leave on 12/13/14, the overheard queue balances
    # 12+32 <= 24, the mixed queue balances 13 <= 32+34.
    rows = [
        (np.array([1.0, 0, 0, -1.0, 1.0, 0]), "<=", 0.0),
        (np.array([0, 1.0, 0, 0, -1.0, -1.0]), "<=", 0.0),
    ]
    bounds = [(0.0, max(caps[link], 0.0)) for link in LINK_NAMES]
    return LinearProgram(objective=objective, constraints=rows, bounds=bounds)


def flow_optimum(caps: dict[str, float]) -> float:
    """Max supportable rate through the queue network per the flow LP."""
    lp = _flow_lp(caps, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    sol = solve(lp)
    if sol.status != "optimal":
        raise ArithmeticError(f"flow LP ended {sol.status}")
    return sol.value


def flow_solve(caps: dict[str, float], rate: float) -> dict[str, float] | None:
    """A feasible flow carrying `rate`, preferring the least mixing traffic."""
    lp = _flow_lp(caps, np.array([0.0, -1.0, 0.0, 0.0, 0.0, 0.0]))
    lp.constraints.append((np.array([1.0, 1.0, 1.0, 0, 0, 0]), ">=", float(rate)))
    sol = solve(lp)
    if sol.status != "optimal":
        return None
    return {link: float(max(v, 0.0)) for link, v in zip(LINK_NAMES, sol.witness)}


def redundancy_transform(
    dist: ActionDistribution, stats_by_key: dict, weights
) -> ActionDistribution:
    """Reallocate mass between actions 3 and 5 to make two cuts redundant.

    Holds p(0), p(1), p(2), p(4) fixed per conditioning.  Afterwards
    min(A_j, B_j, C_j, D_j) = min(A_j, D_j) for both receivers, with A_j and
    D_j unchanged.  Distributions already balancing the mixing flows
    (c13 = c32 + c34) are returned unchanged.
    """
    table = _key_table(stats_by_key, weights)
    keys, g = table.keys, table.g
    p = np.array([dist.probs[k] for k in keys])
    c13 = float(g @ p[:, 4])
    k5 = float(g @ p[:, 5])
    if abs(k5 - c13) <= 1e-12:
        return ActionDistribution(probs={k: dist.probs[k].copy() for k in keys})
    m = p[:, 3] + p[:, 5]
    cuts = [cut_values(dist, stats_by_key, weights, j) for j in (1, 2)]
    case_one = any(cv.a <= cv.d + 1e-12 for cv in cuts)
    p5 = np.zeros(len(keys))
    if case_one:
        # Fill p5 until the mixing inflow and outflow balance exactly.
        remaining = c13
        for i in range(len(keys)):
            if g[i] <= 0 or remaining <= 0:
                continue
            take = min(m[i], remaining / g[i])
            p5[i] = take
            remaining -= g[i] * take
        if remaining > 1e-9:
            raise ArithmeticError("balance fill ran out of reallocatable mass")
    else:
        # Grow the remedy exit capacity until one receiver's c34 hits c13.
        gains = (table.a1, table.a2)
        c34 = [0.0, 0.0]
        for i in range(len(keys)):
            room = m[i]
            for j in (0, 1):
                coef = gains[j][i]
                if coef > 0:
                    room = min(room, (c13 - c34[j]) / coef)
            take = max(min(room, m[i]), 0.0)
            p5[i] = take
            for j in (0, 1):
                c34[j] += gains[j][i] * take
            if take < m[i] - 1e-15:
                break
    out = {}
    for i, k in enumerate(keys):
        row = dist.probs[k].copy()
        row[5] = p5[i]
        row[3] = max(m[i] - p5[i], 0.0)
        out[k] = row
    return ActionDistribution(probs=out)


def witness_to_distribution(witness: RegionWitness) -> ActionDistribution:
    """Canonical action distribution realizing a witness's transmit fractions.

    For reactive witnesses the mapping is forced; otherwise the shared mass
    of actions 3/5 is set to its minimum, which maximizes proactive mixing.
    """
    probs = {}
    for key, (x, y) in witness.parameters.items():
        if witness.kind == "uncoded":
            row = np.array([max(1.0 - x - y, 0.0), x, y, 0.0, 0.0, 0.0])
        elif witness.kind == "reactive":
            row = np.array(
                [0.0, 1.0 - y, 1.0 - x, max(x + y - 1.0, 0.0), 0.0, 0.0]
            )
        elif witness.kind in ("visible", "hidden_L", "memoryless_fb"):
            shared = max(0.0, x + y - 1.0)
            row = np.array(
                [0.0, x - shared, y - shared, shared, 1.0 - x - y + shared, 0.0]
            )
        else:
            raise ValueError(
                f"no action mapping for witness kind {witness.kind!r}"
            )
        row = np.clip(row, 0.0, None)
        row[0] = max(1.0 - row[1:].sum(), 0.0)
        row /= row.sum()
        probs[key] = row
    return ActionDistribution(probs=probs)


def _witness_supports(
    witness: RegionWitness, target: RatePoint, stats_by_key, weights
) -> bool:
    t = _key_table(stats_by_key, weights)
    x = np.array([witness.parameters[k][0] for k in t.keys])
    y = np.array([witness.parameters[k][1] for k in t.keys])
    r1 = float(np.sum(t.a1 * x))
    r2 = float(np.sum(t.a2 * y))
    if witness.kind != "uncoded":
        r1 = min(r1, float(np.sum(t.g * (1 - y))))
        r2 = min(r2, float(np.sum(t.g * (1 - x))))
    return target.r1 <= r1 + _GEOM_TOL and target.r2 <= r2 + _GEOM_TOL


def synthesize_policy(
    witness: RegionWitness, target: RatePoint, stats_by_key: dict, weights
) -> tuple[ActionDistribution, dict[int, dict[str, float]]]:
    """Action distribution plus per-receiver link activation ratios for target.

    Maps the witness to actions, rebalances mixing mass, then sizes each
    queue-network link by a flow LP at the target rates.  Ratios are
    f_lm / c_lm with zero-capacity links pinned to zero.
    """
    if not _witness_supports(witness, target, stats_by_key, weights):
        raise ValueError(f"target {target} is outside the witness's region")
    dist = witness_to_distribution(witness)
    dist = redundancy_transform(dist, stats_by_key, weights)
    ratios: dict[int, dict[str, float]] = {}
    for receiver, rate in ((1, target.r1), (2, target.r2)):
        caps = link_capacities(dist, stats_by_key, weights, receiver)
        flows = flow_solve(caps, rate)
        if flows is None:
            raise RuntimeError(
                "internal error: flow LP infeasible after the redundancy "
                f"transform at rate {rate} for receiver {receiver}"
            )
        ratios[receiver] = {
            link: (flows[link] / caps[link] if caps[link] > 1e-15 else 0.0)
            for link in LINK_NAMES
        }
    return dist, ratios


def _key_to_str(key) -> str:
    if isinstance(key, tuple):
        return ",".join(f"{z1}{z2}" for z1, z2 in key) if key else "-"
    return str(key)


def region_to_csv(region: RateRegion) -> str:
    lines = ["r1,r2"]
    for p in region.boundary:
        lines.append(f"{p.r1:.12g},{p.r2:.12g}")
    return "\n".join(lines) + "\n"


def iter_region_json(region: RateRegion) -> Iterator[str]:
    """Yield the region's JSON document in pieces.

    Joined, the pieces are the document (kind, boundary, each vertex's
    witness) as ``json.dumps(doc, indent=2, sort_keys=True)`` writes it.
    ``"witnesses"`` sorts after ``"boundary"`` and ``"kind"``, so the head is
    one piece and each witness follows as its own piece: a hidden_L region
    at large L has thousands of witnesses over thousands of windows, far
    too much text to hold at once.
    """

    head = json.dumps(
        {"boundary": [[p.r1, p.r2] for p in region.boundary], "kind": region.kind},
        indent=2,
        sort_keys=True,
    )
    # A region has one witness per vertex, so the list is never empty.
    yield head[:-2] + ',\n  "witnesses": ['
    for k, wit in enumerate(region.witnesses):
        doc = {
            "parameters": {_key_to_str(key): list(v) for key, v in wit.parameters.items()}
        }
        if wit.shares:
            doc["shares"] = {_key_to_str(key): list(v) for key, v in wit.shares.items()}
        # A list item sits two levels deep, so each of its lines gets four
        # more spaces; json.dumps escapes newlines inside strings.
        text = json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n    ")
        yield ("\n    " if k == 0 else ",\n    ") + text
    yield "\n  ]\n}"


def region_to_json(region: RateRegion) -> str:
    return "".join(iter_region_json(region))
