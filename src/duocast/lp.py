"""Small dense linear-program solver (maximization, finite box bounds).

Two-phase revised simplex over bounded variables with Bland's anti-cycling
rule.  Problems here are tiny (a handful of rows, up to a few thousand
columns), so every pivot refactorizes the basis for numerical hygiene and
determinism instead of maintaining an incremental inverse.  A bound flip
leaves the basis, and so the duals, unchanged: the next column of the same
improving list enters without solving for the duals again.

``solve`` runs both phases from the all-artificial basis.
``objective_path(lp, c1, c2)`` solves once at c1 and then walks the optimal
bases as the objective turns towards c2 (a parametric, shadow-vertex walk),
one pivot or bound flip per basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RELATIONS = ("<=", "=", ">=")

_RCOST_TOL = 1e-9
_PIVOT_TOL = 1e-12
_FEAS_TOL = 1e-9
_DUALITY_TOL = 1e-7


@dataclass
class LinearProgram:
    """maximize objective . x subject to rows (a, rel, rhs) and box bounds."""

    objective: np.ndarray
    constraints: list[tuple[np.ndarray, str, float]]
    bounds: list[tuple[float, float]]

    def dimensions(self) -> tuple[int, int]:
        return len(self.bounds), len(self.constraints)


@dataclass(frozen=True)
class _StandardForm:
    """An LP's objective, bounds and rows as arrays, validated once."""

    c0: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    slack_sign: np.ndarray  # +1 for <=, 0 for =, -1 for >=


@dataclass(frozen=True)
class LpSolution:
    """Status, value and witness, plus the simplex's work as plain counts.

    phase1_pivots and phase2_pivots count basis changes in each phase (the
    swaps that drive zero artificials out of the basis are not counted);
    bound_flips counts entering columns that ran to their opposite bound
    without a basis change, over both phases.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float
    witness: np.ndarray | None
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    bound_flips: int = 0


class _Tableau:
    """Equality-form system A z = b with z in [0, ub] and basis bookkeeping."""

    def __init__(self, A: np.ndarray, b: np.ndarray, ub: np.ndarray, basis: list[int]):
        self.A = A
        self.b = b
        self.ub = ub
        self.basis = basis
        self.at_upper = np.zeros(A.shape[1], dtype=bool)

    def basic_values(self, B: np.ndarray | None = None) -> np.ndarray:
        """Basic variables' values; B is A[:, basis] when the caller has it."""
        upper = self.at_upper.copy()
        upper[self.basis] = False
        z = self.b - self.A[:, upper] @ self.ub[upper]
        if B is None:
            B = self.A[:, self.basis]
        return np.linalg.solve(B, z) if self.basis else np.zeros(0)

    def duals(self, c: np.ndarray) -> np.ndarray:
        if not self.basis:
            return np.zeros(0)
        return np.linalg.solve(self.A[:, self.basis].T, c[self.basis])

    def values(self) -> np.ndarray:
        z = np.where(self.at_upper, self.ub, 0.0)
        z[self.basis] = 0.0
        xb = self.basic_values()
        z[self.basis] = xb
        return z


def _simplex_core(tab: _Tableau, c: np.ndarray) -> tuple[str, int, int]:
    """Optimize c.z over the tableau in place.

    Returns the status ('optimal' or 'unbounded'), the pivots made and the
    bound flips made.  The ratio test runs on Python floats, which round
    exactly as numpy's float64 scalars do.
    """
    n = tab.A.shape[1]
    is_basic = np.zeros(n, dtype=bool)
    is_basic[tab.basis] = True
    fixed = tab.ub <= _PIVOT_TOL
    ub = tab.ub.tolist()
    pivots = flips = 0
    while True:
        basis = tab.basis
        B = tab.A[:, basis]
        y = np.linalg.solve(B.T, c[basis]) if basis else np.zeros(0)
        reduced = c - tab.A.T @ y
        improving = np.where(
            ~is_basic
            & ~fixed
            & (
                (~tab.at_upper & (reduced > _RCOST_TOL))
                | (tab.at_upper & (reduced < -_RCOST_TOL))
            )
        )[0]
        # Bland: the smallest improving index enters.  A flip changes
        # neither the basis nor the reduced costs, and the flipped column
        # stops improving, so the next candidate is the list's next entry.
        for j in improving.tolist():
            if not _enter(tab, B, is_basic, ub, j):
                return "unbounded", pivots, flips
            if not is_basic[j]:
                flips += 1
                continue
            pivots += 1
            break
        else:
            return "optimal", pivots, flips


def _enter(tab: _Tableau, B: np.ndarray, is_basic: np.ndarray, ub: list, j: int) -> bool:
    """Move column j off its bound as far as the ratio test allows.

    Either a basic variable leaves (a pivot, with Bland's smallest basic index
    on ties) or x_j runs to its opposite bound (a flip).  B is A[:, basis] and
    ub the bounds as Python floats.  Returns False, changing nothing, when no
    bound stops x_j.
    """
    basis = tab.basis
    sigma = -1.0 if tab.at_upper[j] else 1.0
    w = np.linalg.solve(B, tab.A[:, j]).tolist() if basis else []
    xb = tab.basic_values(B).tolist()
    # x_j moves by sigma * t >= 0; basic variables move by -sigma * t * w.
    best_t = ub[j]
    leave_row = -1
    leave_to_upper = False
    for i, (w_i, x_i) in enumerate(zip(w, xb)):
        ub_i = ub[basis[i]]
        delta = -sigma * w_i
        if delta < -_PIVOT_TOL:
            t_i = max(x_i, 0.0) / -delta
            hits_upper = False
        elif delta > _PIVOT_TOL and math.isfinite(ub_i):
            t_i = max(ub_i - x_i, 0.0) / delta
            hits_upper = True
        else:
            continue
        # Bland tie-break: strictly smaller t, or equal t with a smaller
        # basic variable index.
        if t_i < best_t - _PIVOT_TOL or (
            t_i < best_t + _PIVOT_TOL
            and leave_row >= 0
            and basis[i] < basis[leave_row]
        ):
            best_t = t_i
            leave_row = i
            leave_to_upper = hits_upper
    if not math.isfinite(best_t):
        return False
    if leave_row < 0:
        # Entering variable runs to its opposite bound: a pure flip.
        tab.at_upper[j] = not tab.at_upper[j]
        return True
    leaving = basis[leave_row]
    basis[leave_row] = j
    is_basic[leaving] = False
    is_basic[j] = True
    tab.at_upper[leaving] = leave_to_upper
    tab.at_upper[j] = False
    return True


def _standard_form(lp: LinearProgram) -> _StandardForm:
    """Validate the LP and hold its data as arrays."""
    c0 = np.asarray(lp.objective, dtype=float)
    n = c0.size
    if len(lp.bounds) != n:
        raise ValueError("bounds length must match objective length")
    lo = np.array([bound[0] for bound in lp.bounds], dtype=float)
    hi = np.array([bound[1] for bound in lp.bounds], dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("all variable bounds must be finite")
    if (hi < lo - _PIVOT_TOL).any():
        raise ValueError("upper bound below lower bound")
    m = len(lp.constraints)
    rows = np.zeros((m, n))
    rhs = np.zeros(m)
    slack_sign = np.zeros(m)
    for i, (a, rel, b) in enumerate(lp.constraints):
        a = np.asarray(a, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"constraint {i} has wrong dimension")
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        rows[i] = a
        rhs[i] = b
        slack_sign[i] = {"<=": 1.0, "=": 0.0, ">=": -1.0}[rel]
    return _StandardForm(c0, lo, hi, rows, rhs, slack_sign)


def _build_tableau(form: _StandardForm) -> _Tableau:
    """Shift bounds to zero, add slacks and artificials, return phase-1 state."""
    rows, slack_sign = form.rows, form.slack_sign
    m, n = rows.shape
    shifted_rhs = form.rhs - rows @ form.lo
    slack_cols = np.flatnonzero(slack_sign)
    k = slack_cols.size
    A = np.zeros((m, n + k + m))
    A[:, :n] = rows
    for pos, i in enumerate(slack_cols):
        A[i, n + pos] = slack_sign[i]
    for i in range(m):
        A[i, n + k + i] = 1.0
    b_vec = shifted_rhs.copy()
    flip = b_vec < 0
    A[flip] *= -1.0
    # Keep the artificial coefficient at +1 so the start basis is feasible.
    for i in np.flatnonzero(flip):
        A[i, n + k + i] = 1.0
    b_vec[flip] *= -1.0
    ub = np.concatenate([form.hi - form.lo, np.full(k + m, np.inf)])
    return _Tableau(A, b_vec, ub, [n + k + i for i in range(m)])


def _drive_out_artificials(tab: _Tableau, first_artificial: int) -> None:
    """Pivot zero-valued basic artificials out; drop rows that are redundant."""
    keep = np.ones(tab.A.shape[0], dtype=bool)
    for row, col in enumerate(list(tab.basis)):
        if col < first_artificial:
            continue
        pivoted = False
        B = tab.A[:, tab.basis]
        e = np.zeros(len(tab.basis))
        e[row] = 1.0
        brow = np.linalg.solve(B.T, e)
        for j in range(first_artificial):
            if j in tab.basis:
                continue
            if abs(brow @ tab.A[:, j]) > 1e-9:
                tab.basis[row] = j
                tab.at_upper[j] = False
                pivoted = True
                break
        if not pivoted:
            keep[row] = False
    if not keep.all():
        tab.A = tab.A[keep]
        tab.b = tab.b[keep]
        tab.basis = [tab.basis[i] for i in np.flatnonzero(keep)]


def _phase1(form: _StandardForm) -> tuple[_Tableau | None, int, int]:
    """A feasible basis with the artificials fixed at 0, or None if infeasible.

    Also returns phase 1's pivots and bound flips.
    """
    tab = _build_tableau(form)
    total = tab.A.shape[1]
    first_artificial = total - form.rows.shape[0]
    phase1_c = np.zeros(total)
    phase1_c[first_artificial:] = -1.0
    status, pivots, flips = _simplex_core(tab, phase1_c)
    if status != "optimal":
        raise ArithmeticError("phase 1 cannot be unbounded")
    infeasibility = -float(phase1_c @ tab.values())
    if infeasibility > _FEAS_TOL:
        return None, pivots, flips
    _drive_out_artificials(tab, first_artificial)
    tab.ub[first_artificial:] = 0.0
    tab.at_upper[first_artificial:] = False
    return tab, pivots, flips


def _check_optimal(
    form: _StandardForm, tab: _Tableau, c_full: np.ndarray, value: float,
    witness: np.ndarray, z: np.ndarray, y: np.ndarray,
) -> None:
    """Primal feasibility, objective consistency, and strong duality.

    z is the tableau's point, of which witness is the unshifted head, and y
    the basis's duals for the objective c_full.
    """
    residual = form.rows @ witness - form.rhs
    # Positive where a row is violated: lhs - rhs for <=, rhs - lhs for >=.
    excess = np.where(form.slack_sign == 0, np.abs(residual), residual * form.slack_sign)
    bad = np.flatnonzero(excess > _FEAS_TOL)
    if bad.size:
        rel = RELATIONS[1 - int(form.slack_sign[bad[0]])]
        raise ArithmeticError(f"optimal witness violates a {rel} constraint")
    if ((witness < form.lo - _FEAS_TOL) | (witness > form.hi + _FEAS_TOL)).any():
        raise ArithmeticError("optimal witness violates a bound")
    if abs(value - float(c_full[: witness.size] @ witness)) > _FEAS_TOL:
        raise ArithmeticError("objective value inconsistent with witness")
    reduced = c_full - tab.A.T @ y
    active_upper = tab.at_upper & (tab.ub > 0)
    dual_value = float(y @ tab.b + reduced[active_upper] @ tab.ub[active_upper])
    shifted_value = float(c_full @ z)
    if abs(dual_value - shifted_value) > _DUALITY_TOL:
        raise ArithmeticError(
            f"duality gap {abs(dual_value - shifted_value):.2e} exceeds tolerance"
        )
    basic = np.zeros(c_full.size, dtype=bool)
    basic[tab.basis] = True
    movable = ~basic & (tab.ub > _PIVOT_TOL)
    bad_lower = (movable & ~tab.at_upper & (reduced > _DUALITY_TOL)).any()
    bad_upper = (movable & tab.at_upper & (reduced < -_DUALITY_TOL)).any()
    if bad_lower or bad_upper:
        raise ArithmeticError("dual certificate is not feasible")


def solve(lp: LinearProgram) -> LpSolution:
    """Optimal basic solution, deterministic across runs."""
    form = _standard_form(lp)
    tab, phase1_pivots, phase1_flips = _phase1(form)
    if tab is None:
        return LpSolution(
            status="infeasible", value=np.nan, witness=None,
            phase1_pivots=phase1_pivots, bound_flips=phase1_flips,
        )
    n = form.c0.size
    c_full = np.zeros(tab.A.shape[1])
    c_full[:n] = form.c0
    status, phase2_pivots, phase2_flips = _simplex_core(tab, c_full)
    counts = dict(
        phase1_pivots=phase1_pivots,
        phase2_pivots=phase2_pivots,
        bound_flips=phase1_flips + phase2_flips,
    )
    if status == "unbounded":
        return LpSolution(status="unbounded", value=np.inf, witness=None, **counts)
    z = tab.values()
    witness = form.lo + z[:n]
    value = float(form.c0 @ witness)
    _check_optimal(form, tab, c_full, value, witness, z, tab.duals(c_full))
    return LpSolution(status="optimal", value=value, witness=witness, **counts)


def objective_path(
    lp: LinearProgram, c1: np.ndarray, c2: np.ndarray
) -> list[tuple[tuple[float, float], LpSolution]]:
    """Optimal basic solutions of lp as its objective turns from c1 to c2.

    lp's own objective is ignored; the objective is (1 - s) c1 + s c2 for s
    in [0, 1].  A cold solve at c1 gives the first basis.  Each later one is
    a pivot or bound flip at the smallest s where a nonbasic reduced cost
    changes sign (Bland's smallest index on ties, solve's ratio test).  Each
    entry is (d, solution): at the unit direction d, proportional to
    (1 - s, s), the basis becomes optimal, the value is (d[0] c1 + d[1] c2)
    . witness, and the certificate is checked as solve checks its own.  The
    last basis stays optimal up to c2.  The LP must be feasible and bounded.
    """
    form = _standard_form(lp)
    n = form.c0.size
    tab, phase1_pivots, phase1_flips = _phase1(form)
    if tab is None:
        raise ValueError("objective_path needs a feasible LP")
    cs = np.zeros((2, tab.A.shape[1]))
    cs[0, :n], cs[1, :n] = c1, c2
    status, pivots, flips = _simplex_core(tab, cs[0])
    if status != "optimal":
        raise ValueError("objective_path needs a bounded LP")
    counts = (phase1_pivots, pivots, phase1_flips + flips)
    is_basic = np.zeros(cs.shape[1], dtype=bool)
    is_basic[tab.basis] = True
    movable = tab.ub > _PIVOT_TOL
    ub = tab.ub.tolist()
    path = []
    s = 0.0
    while True:
        B = tab.A[:, tab.basis]
        ys = np.linalg.solve(B.T, cs[:, tab.basis].T)
        r1, r2 = cs - (tab.A.T @ ys).T
        d = (1.0 - s) / math.hypot(1.0 - s, s), s / math.hypot(1.0 - s, s)
        c = d[0] * cs[0] + d[1] * cs[1]
        z = tab.values()
        witness = form.lo + z[:n]
        value = float(c[:n] @ witness)
        _check_optimal(form, tab, c, value, witness, z, ys @ d)
        path.append((d, LpSolution("optimal", value, witness, *counts)))
        # r1 + s * slope must stay <= 0 at a lower bound and >= 0 at an upper.
        slope = r2 - r1
        turning = np.where(tab.at_upper, -slope, slope) > _RCOST_TOL
        cols = np.flatnonzero(~is_basic & movable & turning)
        crit = np.maximum(-r1[cols] / slope[cols], s)
        if not cols.size or crit.min() >= 1.0:
            return path
        k = int(np.argmin(crit))  # the smallest index among exact ties
        s, j = float(crit[k]), int(cols[k])
        if not _enter(tab, B, is_basic, ub, j):
            raise ValueError("objective_path needs a bounded LP")
        counts = (0, 1, 0) if is_basic[j] else (0, 0, 1)


def feasible(lp: LinearProgram) -> bool:
    """Phase-1 feasibility, consistent with solve."""
    tab, _, _ = _phase1(_standard_form(lp))
    return tab is not None
