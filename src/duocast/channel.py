"""Finite-state Markov erasure channels for a two-receiver broadcast setting.

A channel is a Markov chain over hidden or visible states together with a
per-state joint erasure law for the two receivers.  Erasure outcomes are
pairs (z1, z2) with z_j = 1 meaning the packet was erased at receiver j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixed wire order for joint erasure outcomes; index = 2*z1 + z2.
OUTCOMES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

_ROW_SUM_TOL = 1e-12

# The longest feedback window tabulated; L pairs make 4**L windows.
MAX_WINDOW_LEN = 8


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""

    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def positive_int(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless an int >= 1."""

    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def nonnegative_int(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless an int >= 0."""

    if not is_int(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def flag(name: str, value) -> bool:
    """``value`` as a bool; a ValueError naming ``name`` unless a bool."""

    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def check_window_len(value) -> int:
    """``value`` as an int; a ValueError naming window_len unless 0..MAX_WINDOW_LEN."""

    if not is_int(value) or not 0 <= value <= MAX_WINDOW_LEN:
        raise ValueError(f"window_len must be an integer from 0 to {MAX_WINDOW_LEN} "
                         f"(the maximum window length), got {value!r}")
    return int(value)


def _outcome_index(z: tuple[int, int]) -> int:
    z1, z2 = z
    if z1 not in (0, 1) or z2 not in (0, 1):
        raise ValueError(f"erasure outcome must be a 0/1 pair, got {z!r}")
    return 2 * z1 + z2


@dataclass(frozen=True)
class ErasureStats:
    """Conditional erasure probabilities for one conditioning event.

    eps1/eps2 are the marginal erasure probabilities; eps12 both erased;
    eps1_not2 erased at 1 only; eps_not1_2 erased at 2 only; eps_not1_not2
    received by both.
    """

    eps1: float
    eps2: float
    eps12: float
    eps1_not2: float
    eps_not1_2: float
    eps_not1_not2: float

    def __post_init__(self) -> None:
        parts = (self.eps12, self.eps1_not2, self.eps_not1_2, self.eps_not1_not2)
        if min(parts) < -_ROW_SUM_TOL:
            raise ValueError("erasure probabilities must be nonnegative")
        if abs(sum(parts) - 1.0) > _ROW_SUM_TOL:
            raise ValueError("joint erasure probabilities must sum to 1")
        if abs(self.eps1 - (self.eps12 + self.eps1_not2)) > _ROW_SUM_TOL:
            raise ValueError("eps1 must equal eps12 + eps1_not2")
        if abs(self.eps2 - (self.eps12 + self.eps_not1_2)) > _ROW_SUM_TOL:
            raise ValueError("eps2 must equal eps12 + eps_not1_2")

    @classmethod
    def from_outcome_probs(cls, probs: np.ndarray) -> "ErasureStats":
        """Build stats from a length-4 vector in wire order (0,0),(0,1),(1,0),(1,1)."""
        p = np.asarray(probs, dtype=float)
        if p.shape != (4,):
            raise ValueError("expected a length-4 outcome probability vector")
        both_ok, only2_erased, only1_erased, both_erased = p
        return cls(
            eps1=float(only1_erased + both_erased),
            eps2=float(only2_erased + both_erased),
            eps12=float(both_erased),
            eps1_not2=float(only1_erased),
            eps_not1_2=float(only2_erased),
            eps_not1_not2=float(both_ok),
        )

    def as_outcome_probs(self) -> np.ndarray:
        """Inverse of from_outcome_probs."""
        return np.array(
            [self.eps_not1_not2, self.eps_not1_2, self.eps1_not2, self.eps12]
        )


@dataclass(frozen=True)
class Belief:
    """Predictive state distribution P(S_next | observations so far)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("belief must be a vector")
        if p.min() < -_ROW_SUM_TOL or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("belief must lie in the probability simplex")
        object.__setattr__(self, "probs", p)


def _bool_power_all_positive(mask: np.ndarray, exponent: int) -> bool:
    """Whether every entry of mask^exponent (boolean semiring) is reachable."""
    acc = np.eye(mask.shape[0], dtype=bool)
    step = mask.copy()
    e = exponent
    while e:
        if e & 1:
            acc = (acc.astype(np.uint8) @ step.astype(np.uint8)) > 0
        step = (step.astype(np.uint8) @ step.astype(np.uint8)) > 0
        e >>= 1
    return bool(acc.all())


class ChannelModel:
    """Markov chain over channel states plus per-state erasure law.

    transition[s, s'] is P(S_t = s' | S_{t-1} = s); emission[s, k] is the
    probability of outcome OUTCOMES[k] while the chain sits in state s.
    Periodic chains are rejected unless allow_periodic is set; they keep a
    unique stationary distribution (Cesaro limit) but no mixing guarantees.
    """

    def __init__(
        self,
        transition: np.ndarray,
        emission: np.ndarray,
        *,
        allow_periodic: bool = False,
    ) -> None:
        allow_periodic = flag("allow_periodic", allow_periodic)
        P = np.array(transition, dtype=float)
        E = np.array(emission, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition must be a square matrix")
        n = P.shape[0]
        if n < 1:
            raise ValueError("need at least one state")
        if E.shape != (n, 4):
            raise ValueError("emission must have shape (num_states, 4)")
        for name, M in (("transition", P), ("emission", E)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} entries must be finite")
            if M.min() < 0:
                raise ValueError(f"{name} entries must be nonnegative")
            if np.abs(M.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
                raise ValueError(f"{name} rows must sum to 1")
        reach = (P > 0) | np.eye(n, dtype=bool)
        if not _bool_power_all_positive(reach, n):
            raise ValueError("chain is not irreducible: (I+P)^n has zero entries")
        # Wielandt's bound: an irreducible chain is aperiodic iff P^k is
        # entrywise positive at k = (n-1)^2 + 1.
        if not allow_periodic:
            if not _bool_power_all_positive(P > 0, (n - 1) ** 2 + 1):
                raise ValueError(
                    "chain is periodic; pass allow_periodic=True to admit it"
                )
        P.setflags(write=False)
        E.setflags(write=False)
        self.num_states = n
        self.transition = P
        self.emission = E
        self.allow_periodic = allow_periodic

    def __repr__(self) -> str:
        return f"ChannelModel(num_states={self.num_states}, allow_periodic={self.allow_periodic})"


def stationary_distribution(model: ChannelModel) -> np.ndarray:
    """Unique pi with pi P = pi, found by a direct linear solve."""
    n = model.num_states
    A = model.transition.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    residual = np.abs(pi @ model.transition - pi).max()
    if pi.min() <= 0 or residual > _ROW_SUM_TOL:
        raise ArithmeticError(f"stationary solve failed, residual={residual:.2e}")
    return pi


def cond_erasure_visible(
    model: ChannelModel, prev_state: int, delay: int = 1
) -> ErasureStats:
    """Erasure law of the current slot given the state observed `delay` slots ago."""
    delay = positive_int("delay", delay)
    if not is_int(prev_state) or not 0 <= prev_state < model.num_states:
        raise ValueError(f"prev_state must be a state from 0 to {model.num_states - 1}, "
                         f"got {prev_state!r}")
    step = np.linalg.matrix_power(model.transition, delay)
    return ErasureStats.from_outcome_probs(step[prev_state] @ model.emission)


def visible_stats(model: ChannelModel, delay: int = 1) -> dict[int, ErasureStats]:
    """Each state's `cond_erasure_visible` law, keyed by the observed state."""

    return {s: cond_erasure_visible(model, s, delay) for s in range(model.num_states)}


def belief_update(
    model: ChannelModel, belief: Belief, observed: tuple[int, int]
) -> Belief:
    """One correct-then-predict filter step on an observed feedback pair."""
    k = _outcome_index(observed)
    likelihood = model.emission[:, k]
    weighted = belief.probs * likelihood
    total = weighted.sum()
    if total <= 0:
        raise ValueError(
            f"observation {observed!r} has probability 0 under the current belief"
        )
    return Belief(probs=(weighted / total) @ model.transition)


def cond_erasure_hidden(model: ChannelModel, belief: Belief) -> ErasureStats:
    """Predicted erasure law under a belief over the next state."""
    if belief.probs.shape != (model.num_states,):
        raise ValueError("belief dimension does not match the model")
    return ErasureStats.from_outcome_probs(belief.probs @ model.emission)


def window_keys(window_len: int) -> list[tuple[tuple[int, int], ...]]:
    """Every window of ``window_len`` pairs, oldest first, in base-4 code order."""
    keys: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(check_window_len(window_len)):
        keys = [key + (outcome,) for key in keys for outcome in OUTCOMES]
    return keys


def window_joint(model: ChannelModel, window_len: int) -> np.ndarray:
    """alpha[w, s] = P(window w, next state s) for the stationary chain.

    Row w is the window's base-4 code, oldest pair in the highest digit: the
    forward recursion corrects every row by each outcome's emission column
    and predicts by the transition, one level per pair.
    """
    window_len = check_window_len(window_len)
    alpha = stationary_distribution(model)[np.newaxis, :]
    for _ in range(window_len):
        corrected = alpha[:, np.newaxis, :] * model.emission.T[np.newaxis, :, :]
        alpha = corrected.reshape(-1, model.num_states) @ model.transition
    total = alpha.sum()
    if abs(total - 1.0) > 1e-10:
        raise ArithmeticError(f"window probabilities sum to {total!r}")
    return alpha


def window_distribution(
    model: ChannelModel, window_len: int
) -> dict[tuple[tuple[int, int], ...], float]:
    """Stationary probability of every feedback window of the given length."""
    probs = window_joint(model, window_len).sum(axis=1)
    return dict(zip(window_keys(window_len), probs.tolist()))


def _ge_user_chain(eps: float, g: float) -> np.ndarray:
    """Two-state good/bad chain with recovery rate g and average erasure eps."""
    if not 0 < eps < 1 or not 0 < g < 1:
        raise ValueError("need 0 < eps < 1 and 0 < g < 1")
    b = g * eps / (1.0 - eps)
    if b >= 1:
        raise ValueError(f"derived bad-ward rate b={b:.4f} is not a probability")
    return np.array([[1.0 - b, b], [g, 1.0 - g]])


def _tensor_two_users(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """Joint chain over (user1 state, user2 state), index = 2*u1 + u2."""
    return np.kron(P1, P2)


def ge_visible(eps1: float, g1: float, eps2: float, g2: float) -> ChannelModel:
    """Gilbert-Elliot channel whose state reveals the erasures deterministically.

    Per-user chains over good/bad; a user in the bad state is erased: the
    `ge_hidden` channel that erases with probability 0 when good and 1 when
    bad.  State index 2*u1 + u2 with u_j = 0 for good.
    """
    return ge_hidden(eps1, g1, eps2, g2, 0.0, 1.0, 0.0, 1.0)


def ge_hidden(
    eps1: float,
    g1: float,
    eps2: float,
    g2: float,
    eps1_good: float,
    eps1_bad: float,
    eps2_good: float,
    eps2_bad: float,
) -> ChannelModel:
    """Gilbert-Elliot channel with noisy per-state erasure probabilities.

    Each user erases with probability eps_good in the good state and
    eps_bad in the bad state, independently across users.
    """
    P = _tensor_two_users(_ge_user_chain(eps1, g1), _ge_user_chain(eps2, g2))
    per_user = (
        np.array([eps1_good, eps1_bad]),
        np.array([eps2_good, eps2_bad]),
    )
    for e in per_user:
        if e.min() < 0 or e.max() > 1:
            raise ValueError("per-state erasure probabilities must be in [0,1]")
    E = np.zeros((4, 4))
    for u1 in (0, 1):
        for u2 in (0, 1):
            p1, p2 = per_user[0][u1], per_user[1][u2]
            for z1 in (0, 1):
                for z2 in (0, 1):
                    pz1 = p1 if z1 else 1.0 - p1
                    pz2 = p2 if z2 else 1.0 - p2
                    E[2 * u1 + u2, _outcome_index((z1, z2))] = pz1 * pz2
    return ChannelModel(P, E)


def memoryless(outcome_probs: np.ndarray) -> ChannelModel:
    """Single-state channel with the given joint erasure law."""
    p = np.asarray(outcome_probs, dtype=float).reshape(1, 4)
    return ChannelModel(np.array([[1.0]]), p)


def _field(doc: dict, name: str, prefix: str = ""):
    """``doc[name]``; a ValueError naming the field when it is missing."""

    if name not in doc:
        raise ValueError(f"channel document has no {prefix}{name}")
    return doc[name]


def _number(doc: dict, name: str, prefix: str) -> float:
    """``doc[name]`` as a float; a ValueError naming the field unless a number."""

    value = _field(doc, name, prefix)
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                         np.floating)):
        raise ValueError(f"{prefix}{name} must be a number, got {value!r}")
    return float(value)


def _matrix(doc: dict, name: str, rows: int, cols: int) -> np.ndarray:
    """``doc[name]`` as a rows x cols float matrix, row-major; a ValueError
    naming the field unless it holds rows * cols numbers."""

    value = _field(doc, name)
    try:
        matrix = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a matrix of numbers, got {value!r}") from None
    if matrix.size != rows * cols:
        raise ValueError(f"{name} must hold {rows} x {cols} numbers, got {matrix.size}")
    return matrix.reshape(rows, cols)


def load_channel(source: str | Path | dict) -> ChannelModel:
    """Build a ChannelModel from a JSON document or an equivalent dict.

    Either {"states": n, "transition": [...], "emission": [...]} with
    row-major matrices, or {"gilbert_elliot": {"kind": "visible"|"hidden",
    "eps1", "g1", "eps2", "g2"[, "eps1_good", "eps1_bad", "eps2_good",
    "eps2_bad"]}}.  An optional top-level "allow_periodic" admits periodic
    chains.
    """
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError(f"channel must be an object, got {doc!r}")
    if "gilbert_elliot" in doc:
        ge = doc["gilbert_elliot"]
        if not isinstance(ge, dict):
            raise ValueError(f"gilbert_elliot must be an object, got {ge!r}")
        kind = ge.get("kind", "visible")
        names = ("eps1", "g1", "eps2", "g2")
        if kind == "hidden":
            names += ("eps1_good", "eps1_bad", "eps2_good", "eps2_bad")
        args = [_number(ge, name, "gilbert_elliot.") for name in names]
        if kind == "visible":
            return ge_visible(*args)
        if kind == "hidden":
            return ge_hidden(*args)
        raise ValueError(f"unknown gilbert_elliot kind {kind!r}")
    n = positive_int("states", _field(doc, "states"))
    return ChannelModel(_matrix(doc, "transition", n, n), _matrix(doc, "emission", n, 4),
                        allow_periodic=doc.get("allow_periodic", False))
