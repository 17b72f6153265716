"""Rate regions, cut calculus, and policy synthesis for the broadcast channel.

Every region is a convex polygon in the (R1, R2) quadrant, produced as an
explicit boundary polyline from (R1max, 0) to (0, R2max) with an LP witness
per vertex.  Regions parameterized by per-conditioning transmit fractions
(x_k, y_k) share one support-sweep tracer; the memoryless and Minkowski
regions use closed forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from duocast.channel import (
    ChannelModel,
    FeedbackWindow,
    cond_erasure_hidden,
    window_distribution,
)
from duocast.lp import LinearProgram, solve

REGION_KINDS = (
    "visible",
    "reactive",
    "hidden_L",
    "memoryless_fb",
    "memoryless_nofb",
    "minkowski",
    "uncoded",
)

# Action indices: 0 idle, 1/2 uncoded to receiver j, 3 coded retransmission,
# 4 proactive mix of two fresh packets, 5 remedy for a stored mix.
N_ACTIONS = 6
LINKS = ("12", "13", "14", "24", "32", "34")

_GEOM_TOL = 1e-9
_DEFAULT_DIRECTIONS = 257
_MAX_HIDDEN_REGION_L = 5


@dataclass(frozen=True)
class RatePoint:
    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise ValueError("rates must be finite")
        if self.r1 < -_GEOM_TOL or self.r2 < -_GEOM_TOL:
            raise ValueError("rates must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2])


@dataclass(frozen=True)
class RegionWitness:
    """Per-conditioning transmit fractions certifying one boundary point.

    parameters maps each conditioning key (state index or feedback window)
    to its (x, y) pair.  For the Minkowski region, shares additionally maps
    each state to its contributed rate pair.
    """

    kind: str
    parameters: dict
    shares: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
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
        p = point.as_array()
        for a, b in zip(poly, np.vstack([poly[1:], poly[:1]])):
            edge = b - a
            if edge @ edge < 1e-24:
                continue
            cross = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
            if cross < -tol * max(1.0, float(np.hypot(*edge))):
                return False
        return True

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
            if row.min() < -1e-12:
                raise ValueError(f"negative probability for {key!r}")
            if abs(row.sum() - 1.0) > 1e-12:
                raise ValueError(f"row for {key!r} must sum to 1")
            cleaned[key] = row
        self.probs = cleaned

    def keys(self) -> list:
        return list(self.probs.keys())


@dataclass(frozen=True)
class CutValues:
    """The four queue-network cut capacities for one receiver."""

    a: float
    b: float
    c: float
    d: float

    def minimum(self) -> float:
        return min(self.a, self.b, self.c, self.d)


def _stats_arrays(stats_by_key: dict, weights: dict | np.ndarray):
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
    return keys, w, eps1, eps2, eps12


class _SweepRegion:
    """Support-sweep boundary tracer for LP-defined regions."""

    def __init__(self, kind: str, keys, lp_builder, witness_of):
        self.kind = kind
        self.keys = keys
        self.lp_builder = lp_builder
        self.witness_of = witness_of

    def support(self, d1: float, d2: float):
        lp = self.lp_builder(np.array([d1, d2]))
        sol = solve(lp)
        if sol.status != "optimal":
            raise ArithmeticError(f"region support LP ended {sol.status}")
        r1, r2 = max(sol.witness[0], 0.0), max(sol.witness[1], 0.0)
        return sol.value, RatePoint(r1, r2), sol.witness[2:]

    def trace(self, directions: int = _DEFAULT_DIRECTIONS) -> RateRegion:
        found: list[tuple[RatePoint, np.ndarray]] = []

        def add(point, vars_):
            for q, _ in found:
                if abs(q.r1 - point.r1) < 1e-11 and abs(q.r2 - point.r2) < 1e-11:
                    return
            found.append((point, vars_))

        _, east, east_vars = self.support(1.0, 0.0)
        _, north, north_vars = self.support(0.0, 1.0)
        add(RatePoint(east.r1, 0.0), east_vars)
        add(RatePoint(0.0, north.r2), north_vars)
        for i in range(1, max(directions, 2) - 1):
            theta = 0.5 * math.pi * i / (max(directions, 2) - 1)
            _, point, vars_ = self.support(math.cos(theta), math.sin(theta))
            add(point, vars_)
        # Refine between neighbouring maximizers until every edge is certified
        # by its own normal direction.
        ordered = sorted(found, key=lambda t: (-t[0].r1, t[0].r2))
        stack = [
            (ordered[i][0], ordered[i + 1][0]) for i in range(len(ordered) - 1)
        ]
        depth = 0
        while stack and depth < 10000:
            depth += 1
            pa, pb = stack.pop()
            d1, d2 = pb.r2 - pa.r2, pa.r1 - pb.r1
            norm = math.hypot(d1, d2)
            if norm < 1e-12 or d1 < -1e-12 or d2 < -1e-12:
                continue
            d1, d2 = max(d1, 0.0) / norm, max(d2, 0.0) / norm
            value, point, vars_ = self.support(d1, d2)
            if value <= d1 * pa.r1 + d2 * pa.r2 + 1e-10:
                continue
            add(point, vars_)
            stack.append((pa, point))
            stack.append((point, pb))
        ordered = sorted(found, key=lambda t: (-t[0].r1, t[0].r2))
        pruned = _prune_collinear(ordered)
        boundary = [p for p, _ in pruned]
        witnesses = [
            RegionWitness(kind=self.kind, parameters=self.witness_of(v))
            for _, v in pruned
        ]
        return RateRegion(kind=self.kind, boundary=boundary, witnesses=witnesses)


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
    # Drop interior vertices that lie on the segment of their neighbours.
    changed = True
    while changed and len(kept) > 2:
        changed = False
        for i in range(1, len(kept) - 1):
            a, b, c = kept[i - 1][0], kept[i][0], kept[i + 1][0]
            cross = (b.r1 - a.r1) * (c.r2 - a.r2) - (b.r2 - a.r2) * (c.r1 - a.r1)
            if abs(cross) < 1e-10:
                kept.pop(i)
                changed = True
                break
    return kept


def _fraction_lp_builder(
    w, eps1, eps2, eps12, *, reactive: bool, uncoded: bool
):
    """LP over [R1, R2, x_0.., y_0..] for one weighted-objective solve."""
    K = w.size
    a1 = w * (1.0 - eps1)
    a2 = w * (1.0 - eps2)
    g = w * (1.0 - eps12)
    G = float(g.sum())

    def build(direction: np.ndarray) -> LinearProgram:
        n = 2 + 2 * K
        rows = []

        def row(r_coeff, x_coeff, y_coeff, rel, rhs):
            vec = np.zeros(n)
            vec[0], vec[1] = r_coeff
            vec[2 : 2 + K] = x_coeff
            vec[2 + K :] = y_coeff
            rows.append((vec, rel, float(rhs)))

        row((1.0, 0.0), -a1, np.zeros(K), "<=", 0.0)
        row((0.0, 1.0), np.zeros(K), -a2, "<=", 0.0)
        if uncoded:
            for k in range(K):
                ex, ey = np.zeros(K), np.zeros(K)
                ex[k] = ey[k] = 1.0
                row((0.0, 0.0), ex, ey, "<=", 1.0)
        else:
            row((1.0, 0.0), np.zeros(K), g, "<=", G)
            row((0.0, 1.0), g, np.zeros(K), "<=", G)
            if reactive:
                for k in range(K):
                    ex, ey = np.zeros(K), np.zeros(K)
                    ex[k] = ey[k] = 1.0
                    row((0.0, 0.0), ex, ey, ">=", 1.0)
        objective = np.zeros(n)
        objective[0], objective[1] = direction
        bounds = [(0.0, 1.0)] * n
        return LinearProgram(objective=objective, constraints=rows, bounds=bounds)

    return build


def _fraction_region(kind, stats_by_key, weights, *, reactive, uncoded, directions):
    keys, w, eps1, eps2, eps12 = _stats_arrays(stats_by_key, weights)
    K = len(keys)
    builder = _fraction_lp_builder(
        w, eps1, eps2, eps12, reactive=reactive, uncoded=uncoded
    )

    def witness_of(vars_):
        return {
            keys[k]: (float(np.clip(vars_[k], 0, 1)), float(np.clip(vars_[K + k], 0, 1)))
            for k in range(K)
        }

    sweep = _SweepRegion(kind, keys, builder, witness_of)
    return sweep.trace(directions)


def region_visible(
    stats_by_state: dict, pi, directions: int = _DEFAULT_DIRECTIONS
) -> RateRegion:
    """Rates supportable when the previous channel state is observed."""
    return _fraction_region(
        "visible", stats_by_state, pi, reactive=False, uncoded=False, directions=directions
    )


def region_reactive(
    stats_by_state: dict, pi, directions: int = _DEFAULT_DIRECTIONS
) -> RateRegion:
    """Visible-state region restricted to reactive coding (x_s + y_s >= 1)."""
    return _fraction_region(
        "reactive", stats_by_state, pi, reactive=True, uncoded=False, directions=directions
    )


def region_uncoded(
    stats_by_state: dict, pi, directions: int = _DEFAULT_DIRECTIONS
) -> RateRegion:
    """Plain per-state time sharing between the two uncoded transmissions."""
    return _fraction_region(
        "uncoded", stats_by_state, pi, reactive=False, uncoded=True, directions=directions
    )


def hidden_window_stats(
    model: ChannelModel, window_len: int
) -> tuple[dict, dict]:
    """Per-window erasure stats and window probabilities, zero-mass dropped."""
    dist = window_distribution(model, window_len)
    stats = {}
    weights = {}
    for window, p in dist.items():
        if p <= 0.0:
            continue
        stats[window] = cond_erasure_hidden(model, FeedbackWindow(window))
        weights[window] = p
    total = sum(weights.values())
    weights = {k: v / total for k, v in weights.items()}
    return stats, weights


def region_hidden_L(
    model: ChannelModel, window_len: int, directions: int = _DEFAULT_DIRECTIONS
) -> RateRegion:
    """Rates supportable with policies conditioned on the last L feedback pairs."""
    if window_len > _MAX_HIDDEN_REGION_L:
        raise ValueError(
            f"window length {window_len} exceeds the region guard "
            f"{_MAX_HIDDEN_REGION_L}"
        )
    stats, weights = hidden_window_stats(model, window_len)
    return _fraction_region(
        "hidden_L", stats, weights, reactive=False, uncoded=False, directions=directions
    )


def region_memoryless_fb(eps1: float, eps2: float, eps12: float) -> RateRegion:
    """Closed-form two-segment feedback region of a memoryless channel."""
    if not 0 <= eps12 <= min(eps1, eps2) <= 1:
        raise ValueError("need 0 <= eps12 <= min(eps1, eps2) <= 1")
    r1m, r2m = 1.0 - eps1, 1.0 - eps2
    g = 1.0 - eps12
    points = [RatePoint(r1m, 0.0)]
    params = [{0: (1.0, 0.0)}]
    if g > 0:
        # Intersection of R1/(1-e1) + R2/(1-e12) = 1 and R1/(1-e12) + R2/(1-e2) = 1.
        det = 1.0 - (r1m / g) * (r2m / g)
        if det > 1e-12:
            k1 = r1m * (1.0 - r2m / g) / det
            k2 = r2m * (1.0 - r1m / g) / det
            if k1 > 1e-12 and k2 > 1e-12:
                points.append(RatePoint(k1, k2))
                params.append({0: (k1 / r1m if r1m else 0.0, k2 / r2m if r2m else 0.0)})
    points.append(RatePoint(0.0, r2m))
    params.append({0: (0.0, 1.0)})
    witnesses = [RegionWitness(kind="memoryless_fb", parameters=p) for p in params]
    return RateRegion(kind="memoryless_fb", boundary=points, witnesses=witnesses)


def region_memoryless_nofb(eps1: float, eps2: float) -> RateRegion:
    """Single-segment no-feedback region of a memoryless channel."""
    if not (0 <= eps1 <= 1 and 0 <= eps2 <= 1):
        raise ValueError("erasure probabilities must be in [0,1]")
    points = [RatePoint(1.0 - eps1, 0.0), RatePoint(0.0, 1.0 - eps2)]
    witnesses = [
        RegionWitness(kind="memoryless_nofb", parameters={0: (1.0, 0.0)}),
        RegionWitness(kind="memoryless_nofb", parameters={0: (0.0, 1.0)}),
    ]
    return RateRegion(kind="memoryless_nofb", boundary=points, witnesses=witnesses)


def region_minkowski(
    stats_by_state: dict, pi, directions: int = 720
) -> RateRegion:
    """Weighted sum of per-state memoryless feedback regions.

    Support functions add under Minkowski sums, so the boundary is traced by
    sweeping directions; every summand edge normal is included in the sweep,
    making the reconstruction exact.
    """
    keys, w, _, _, _ = _stats_arrays(stats_by_state, pi)
    summands = []
    for k, key in enumerate(keys):
        st = stats_by_state[key]
        sub = region_memoryless_fb(st.eps1, st.eps2, st.eps12)
        pts = np.array([[p.r1 * w[k], p.r2 * w[k]] for p in sub.boundary])
        summands.append((key, pts, sub))
    angles = {0.5 * math.pi * i / (max(directions, 2) - 1) for i in range(max(directions, 2))}
    for _, pts, _ in summands:
        for a, b in zip(pts, pts[1:]):
            # Edge normal: rotate the edge direction by -90 degrees.
            nx, ny = b[1] - a[1], a[0] - b[0]
            if nx < -1e-15 or ny < -1e-15 or (nx == 0 and ny == 0):
                continue
            angles.add(math.atan2(ny, nx))
    # Midpoints between neighbouring directions pin down the vertex selected
    # strictly between two summand edge normals.
    base = sorted(angles)
    angles.update(0.5 * (t1 + t2) for t1, t2 in zip(base, base[1:]))
    vertices = []
    for theta in sorted(angles):
        d = np.array([math.cos(theta), math.sin(theta)])
        total = np.zeros(2)
        decomposition = {}
        share = {}
        for key, pts, sub in summands:
            scores = pts @ d
            best = int(np.argmax(scores))
            total += pts[best]
            decomposition[key] = sub.witnesses[best].parameters[0]
            share[key] = (float(pts[best][0]), float(pts[best][1]))
        vertices.append((RatePoint(max(total[0], 0.0), max(total[1], 0.0)), decomposition, share))
    unique = []
    for point, params, share in vertices:
        if any(
            abs(point.r1 - q.r1) < 1e-11 and abs(point.r2 - q.r2) < 1e-11
            for q, _, _ in unique
        ):
            continue
        unique.append((point, params, share))
    unique.sort(key=lambda t: (-t[0].r1, t[0].r2))
    trimmed = _prune_collinear([(p, (params, share)) for p, params, share in unique])
    boundary = []
    witnesses = []
    for point, (params, share) in trimmed:
        boundary.append(point)
        witnesses.append(
            RegionWitness(kind="minkowski", parameters=params, shares=share)
        )
    # Force exact axis endpoints; supports at the axes have zero coordinates.
    first, last = boundary[0], boundary[-1]
    boundary[0] = RatePoint(first.r1, 0.0)
    boundary[-1] = RatePoint(0.0, last.r2)
    return RateRegion(kind="minkowski", boundary=boundary, witnesses=witnesses)


def region_membership(
    kind: str, stats_by_key: dict, weights, point: RatePoint
) -> RegionWitness | None:
    """Feasibility-LP membership test returning a witness when inside."""
    if kind not in ("visible", "reactive", "uncoded", "hidden_L"):
        raise ValueError(f"membership LP not defined for kind {kind!r}")
    keys, w, eps1, eps2, eps12 = _stats_arrays(stats_by_key, weights)
    K = len(keys)
    builder = _fraction_lp_builder(
        w, eps1, eps2, eps12, reactive=kind == "reactive", uncoded=kind == "uncoded"
    )
    lp = builder(np.zeros(2))
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

    def poly_distance(point: np.ndarray, poly: np.ndarray) -> float:
        best = math.inf
        m = len(poly)
        inside = True
        for i in range(m):
            p, q = poly[i], poly[(i + 1) % m]
            edge = q - p
            L2 = float(edge @ edge)
            if L2 < 1e-24:
                best = min(best, float(np.hypot(*(point - p))))
                continue
            cross = edge[0] * (point[1] - p[1]) - edge[1] * (point[0] - p[0])
            if cross < 0:
                inside = False
            t = float(np.clip((point - p) @ edge / L2, 0.0, 1.0))
            best = min(best, float(np.hypot(*(point - (p + t * edge)))))
        return 0.0 if inside else best

    pa, pb = a.polygon(), b.polygon()
    d_ab = max(poly_distance(p, pb) for p in pa)
    d_ba = max(poly_distance(p, pa) for p in pb)
    return max(d_ab, d_ba)


def link_capacities(
    dist: ActionDistribution, stats_by_key: dict, weights, receiver: int
) -> dict[str, float]:
    """Average per-slot link capacities of the virtual queue network."""
    if receiver not in (1, 2):
        raise ValueError("receiver must be 1 or 2")
    keys, w, eps1, eps2, eps12 = _stats_arrays(stats_by_key, weights)
    own = eps1 if receiver == 1 else eps2
    p = np.array([dist.probs[k] for k in keys])
    caps = {
        "12": float(np.sum(w * (own - eps12) * p[:, receiver])),
        "13": float(np.sum(w * (1.0 - eps12) * p[:, 4])),
        "14": float(np.sum(w * (1.0 - own) * p[:, receiver])),
        "24": float(np.sum(w * (1.0 - own) * p[:, 3])),
        "32": float(np.sum(w * (own - eps12) * p[:, 5])),
        "34": float(np.sum(w * (1.0 - own) * p[:, 5])),
    }
    return caps


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
    bounds = [(0.0, max(caps[link], 0.0)) for link in LINKS]
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
    return {link: float(max(v, 0.0)) for link, v in zip(LINKS, sol.witness)}


def redundancy_transform(
    dist: ActionDistribution, stats_by_key: dict, weights
) -> ActionDistribution:
    """Reallocate mass between actions 3 and 5 to make two cuts redundant.

    Holds p(0), p(1), p(2), p(4) fixed per conditioning.  Afterwards
    min(A_j, B_j, C_j, D_j) = min(A_j, D_j) for both receivers, with A_j and
    D_j unchanged.  Distributions already balancing the mixing flows
    (c13 = c32 + c34) are returned unchanged.
    """
    keys, w, eps1, eps2, eps12 = _stats_arrays(stats_by_key, weights)
    p = np.array([dist.probs[k] for k in keys])
    g = w * (1.0 - eps12)
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
        e_own = (1.0 - eps1, 1.0 - eps2)
        c34 = [0.0, 0.0]
        for i in range(len(keys)):
            room = m[i]
            for j in (0, 1):
                coef = w[i] * e_own[j][i]
                if coef > 0:
                    room = min(room, (c13 - c34[j]) / coef)
            take = max(min(room, m[i]), 0.0)
            p5[i] = take
            for j in (0, 1):
                c34[j] += w[i] * e_own[j][i] * take
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
    keys, w, eps1, eps2, eps12 = _stats_arrays(stats_by_key, weights)
    x = np.array([witness.parameters[k][0] for k in keys])
    y = np.array([witness.parameters[k][1] for k in keys])
    if witness.kind == "uncoded":
        r1 = float(np.sum(w * (1 - eps1) * x))
        r2 = float(np.sum(w * (1 - eps2) * y))
    else:
        r1 = min(
            float(np.sum(w * (1 - eps1) * x)),
            float(np.sum(w * (1 - eps12) * (1 - y))),
        )
        r2 = min(
            float(np.sum(w * (1 - eps2) * y)),
            float(np.sum(w * (1 - eps12) * (1 - x))),
        )
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
            for link in LINKS
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


def region_to_json(region: RateRegion) -> str:
    doc = {
        "kind": region.kind,
        "boundary": [[p.r1, p.r2] for p in region.boundary],
        "witnesses": [
            {
                "parameters": {
                    _key_to_str(k): list(v) for k, v in wit.parameters.items()
                },
                **(
                    {
                        "shares": {
                            _key_to_str(k): list(v) for k, v in wit.shares.items()
                        }
                    }
                    if wit.shares
                    else {}
                ),
            }
            for wit in region.witnesses
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
