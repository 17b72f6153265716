"""The slot stream both engines consume, and the counts-level kernel.

`slot_stream` is the one place that simulates what a slot shows the
transmitter.  It draws the initial state and the per-slot random matrix,
advances the channel, delays the feedback, and folds the delayed feedback
into a belief or a window code.  None of this depends on the queues, so both
engines read the same stream and differ only in how they decide and move:
`run_counts` below tracks queue lengths only, for long stability runs, and
the packets engine in `harness` moves identified packets through `queuenet`.
Their traces match slot for slot, which is tested.  The loops are compiled
with numba when it is installed (the ``jit`` extra); setting the environment
variable DUOCAST_NO_NUMBA=1 selects the pure-Python fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, cond_erasure_visible, stationary_distribution

__all__ = [
    "RNG_COLUMNS",
    "CHUNK_SLOTS",
    "SimCounts",
    "jit_enabled",
    "run_counts",
    "slot_stream",
]

# Per-slot random matrix layout.  Positional columns keep the stream aligned
# between engines no matter which action a policy picks: 0 and 1 arrivals at
# receivers 1 and 2, 2 state step, 3 emission, 4 action, 5..10 coins of
# receiver 1's links 12,13,14,24,32,34, and 11..16 those of receiver 2.
RNG_COLUMNS = 17

CHUNK_SLOTS = 65536

_DISABLED = os.environ.get("DUOCAST_NO_NUMBA", "") == "1"
if not _DISABLED:
    try:
        from numba import njit as _njit
    except ImportError:  # pragma: no cover - exercised via the env flag
        _DISABLED = True
if _DISABLED:
    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def jit_enabled() -> bool:
    return not _DISABLED


@_njit(cache=True)
def _observe(rng, t0, p_cdf, e_cdf, visible, delay, wlen, four_l,
             trans, emis, pd1, evecs, ring, belief, scratch, predicted,
             ostate, zis, keys, eps):
    m = rng.shape[0]
    num_states = p_cdf.shape[0]
    fold = eps.shape[0] > 0
    # The chain state, window code and fold count live in locals during the
    # chunk, which the pure-Python fallback reads much faster than arrays.
    s = ostate[0]
    code = ostate[1]
    folds = ostate[2]
    for i in range(m):
        # Channel: advance the state, then emit an erasure pair from it.
        u = rng[i, 2]
        ns = 0
        while ns < num_states - 1 and u >= p_cdf[s, ns]:
            ns += 1
        s = ns
        u = rng[i, 3]
        zi = 0
        while zi < 3 and u >= e_cdf[s, zi]:
            zi += 1
        zis[i] = zi

        # Feedback delay: the slot sees what the channel did `delay` slots ago.
        pos = (t0 + i) % delay
        if visible == 1:
            keys[i] = ring[pos]
            ring[pos] = s
            continue
        old = ring[pos]
        ring[pos] = zi
        if old >= 0:
            if fold:
                total = 0.0
                for k in range(num_states):
                    scratch[k] = belief[k] * emis[k, old]
                    total += scratch[k]
                if total <= 0.0:
                    ostate[3] = 1
                    return
                for k in range(num_states):
                    acc = 0.0
                    for k2 in range(num_states):
                        acc += scratch[k2] * trans[k2, k]
                    predicted[k] = acc / total
                for k in range(num_states):
                    belief[k] = predicted[k]
            else:
                code = (code * 4 + old) % four_l
            folds += 1
        keys[i] = code if folds >= wlen else -1
        if fold:
            # Erasure statistics of the current slot given the belief.
            for k in range(num_states):
                acc = 0.0
                for k2 in range(num_states):
                    acc += belief[k2] * pd1[k2, k]
                predicted[k] = acc
            e1 = 0.0
            e2 = 0.0
            e12 = 0.0
            for k in range(num_states):
                e1 += predicted[k] * evecs[0, k]
                e2 += predicted[k] * evecs[1, k]
                e12 += predicted[k] * evecs[2, k]
            eps[i, 0] = e1
            eps[i, 1] = e2
            eps[i, 2] = e12
    ostate[0] = s
    ostate[1] = code
    ostate[2] = folds


def slot_stream(model: ChannelModel, *, seed: int, horizon: int, visible: bool,
                delay: int, window_len: int = 0, predict: bool = False):
    """Yield ``(t0, matrix, zi, key, eps)`` for each chunk of slots from t0.

    ``matrix`` is the chunk's random matrix, ``zi`` each slot's erasure
    outcome index 2*z1 + z2, and ``key`` what the transmitter observes in
    that slot: the state ``delay`` slots back for a visible model (the
    initial state before then); for a hidden one the base-4 code of the last ``window_len`` delayed feedback
    pairs (oldest pair in the highest digit), or -1 until that many have
    arrived.  With ``predict`` (hidden model), the feedback is instead
    folded into a belief and ``eps`` holds each slot's predicted
    (eps1, eps2, eps12); otherwise ``eps`` has no rows.  The arrays are
    reused from chunk to chunk.
    """

    num_states = model.num_states
    fold = predict and not visible
    pi = stationary_distribution(model)
    rng = np.random.default_rng(seed)
    s0 = min(int(np.searchsorted(np.cumsum(pi), rng.random())), num_states - 1)
    p_cdf = np.cumsum(model.transition, axis=1)
    e_cdf = np.cumsum(model.emission, axis=1)
    pd1 = np.linalg.matrix_power(model.transition, delay - 1)
    evecs = np.empty((3, num_states))
    evecs[0] = model.emission[:, 2] + model.emission[:, 3]
    evecs[1] = model.emission[:, 1] + model.emission[:, 3]
    evecs[2] = model.emission[:, 3]
    ring = np.full(delay, s0 if visible else -1, dtype=np.int64)
    belief = pi.copy()
    scratch = np.empty(num_states)
    predicted = np.empty(num_states)
    ostate = np.array([s0, 0, 0, 0], dtype=np.int64)  # state, code, folds, error
    size = min(CHUNK_SLOTS, horizon)
    zis = np.empty(size, dtype=np.int64)
    keys = np.empty(size, dtype=np.int64)
    eps = np.empty((size if fold else 0, 3))

    t0 = 0
    while t0 < horizon:
        m = min(CHUNK_SLOTS, horizon - t0)
        matrix = rng.random((m, RNG_COLUMNS))
        _observe(matrix, t0, p_cdf, e_cdf, 1 if visible else 0, delay,
                 window_len, 4 ** window_len, model.transition, model.emission,
                 pd1, evecs, ring, belief, scratch, predicted,
                 ostate, zis, keys, eps)
        if ostate[3] != 0:
            raise ValueError(
                "feedback pair has probability zero under the current belief")
        yield t0, matrix, zis[:m], keys[:m], eps[:m]
        t0 += m


@_njit(cache=True)
def _chunk(rng, t0, zis, keys, eps,
           mode, amax, action_cdf, ratios, eps_tab,
           rates, q, tot, intents,
           stride, record, meta):
    m = rng.shape[0]
    predicted = eps.shape[0] > 0
    for i in range(m):
        t = t0 + i
        zi = zis[i]
        z1 = zi >> 1
        z2 = zi & 1
        key = keys[i]

        # Decide.
        action = 0
        if key >= 0:
            if mode == 0:
                if not (action_cdf[key, 5] >= 0.0):
                    meta[1] = 1
                    return
                u = rng[i, 4]
                action = 0
                while action < 5 and u >= action_cdf[key, action]:
                    action += 1
                for j in range(2):
                    for l in range(6):
                        intents[j, l] = 1 if rng[i, 5 + 6 * j + l] < ratios[j, l] else 0
            else:
                if predicted:
                    e1 = eps[i, 0]
                    e2 = eps[i, 1]
                    e12 = eps[i, 2]
                else:
                    e1 = eps_tab[key, 0]
                    e2 = eps_tab[key, 1]
                    e12 = eps_tab[key, 2]
                q11 = q[0, 0]
                q21 = q[0, 1]
                q31 = q[0, 2]
                q12 = q[1, 0]
                q22 = q[1, 1]
                q32 = q[1, 2]
                d1 = q11 - q21
                if d1 < 0:
                    d1 = 0
                d2 = q12 - q22
                if d2 < 0:
                    d2 = 0
                w1 = (1.0 - e1) * q11 + (e1 - e12) * d1
                w2 = (1.0 - e2) * q12 + (e2 - e12) * d2
                w3 = (1.0 - e1) * q21 + (1.0 - e2) * q22
                d1 = q11 - q31
                if d1 < 0:
                    d1 = 0
                d2 = q12 - q32
                if d2 < 0:
                    d2 = 0
                w4 = (1.0 - e12) * (d1 + d2)
                d1 = q31 - q21
                if d1 < 0:
                    d1 = 0
                d2 = q32 - q22
                if d2 < 0:
                    d2 = 0
                w5 = ((e1 - e12) * d1 + (1.0 - e1) * q31
                      + (e2 - e12) * d2 + (1.0 - e2) * q32)
                action = 0
                best = 0.0
                if w1 > best:
                    best = w1
                    action = 1
                if w2 > best:
                    best = w2
                    action = 2
                if amax >= 3 and w3 > best:
                    best = w3
                    action = 3
                if amax >= 5:
                    if w4 > best:
                        best = w4
                        action = 4
                    if w5 > best:
                        best = w5
                        action = 5
                for j in range(2):
                    intents[j, 0] = 1 if q[j, 0] > q[j, 1] else 0
                    intents[j, 1] = 1 if q[j, 0] > q[j, 2] else 0
                    intents[j, 2] = 1 if q[j, 0] > 0 else 0
                    intents[j, 3] = 1 if q[j, 1] > 0 else 0
                    intents[j, 4] = 1 if q[j, 2] > q[j, 1] else 0
                    intents[j, 5] = 1 if q[j, 2] > 0 else 0

        # Move counts along the activated admissible links.
        if action == 1 or action == 2:
            j = action - 1
            own = z1 if action == 1 else z2
            oth = z2 if action == 1 else z1
            if q[j, 0] > 0:
                if own == 0:
                    if intents[j, 2] == 1:
                        q[j, 0] -= 1
                        tot[j, 1] += 1
                elif oth == 0 and intents[j, 0] == 1:
                    q[j, 0] -= 1
                    q[j, 1] += 1
        elif action == 3:
            if z1 == 0 and intents[0, 3] == 1 and q[0, 1] > 0:
                q[0, 1] -= 1
                tot[0, 1] += 1
            if z2 == 0 and intents[1, 3] == 1 and q[1, 1] > 0:
                q[1, 1] -= 1
                tot[1, 1] += 1
        elif action == 4:
            if z1 == 0 or z2 == 0:
                if intents[0, 1] == 1 and q[0, 0] > 0:
                    q[0, 0] -= 1
                    q[0, 2] += 1
                if intents[1, 1] == 1 and q[1, 0] > 0:
                    q[1, 0] -= 1
                    q[1, 2] += 1
        elif action == 5:
            if q[0, 2] > 0:
                if z1 == 0:
                    if intents[0, 5] == 1:
                        q[0, 2] -= 1
                        tot[0, 1] += 1
                elif z2 == 0 and intents[0, 4] == 1:
                    q[0, 2] -= 1
                    q[0, 1] += 1
            if q[1, 2] > 0:
                if z2 == 0:
                    if intents[1, 5] == 1:
                        q[1, 2] -= 1
                        tot[1, 1] += 1
                elif z1 == 0 and intents[1, 4] == 1:
                    q[1, 2] -= 1
                    q[1, 1] += 1

        # Arrivals join at the end of the slot.
        if rng[i, 0] < rates[0]:
            q[0, 0] += 1
            tot[0, 0] += 1
        if rng[i, 1] < rates[1]:
            q[1, 0] += 1
            tot[1, 0] += 1

        if (t + 1) % stride == 0:
            idx = meta[0]
            for j in range(2):
                for l in range(3):
                    record[idx, 3 * j + l] = q[j, l]
            record[idx, 6] = tot[0, 0]
            record[idx, 7] = tot[1, 0]
            record[idx, 8] = tot[0, 1]
            record[idx, 9] = tot[1, 1]
            meta[0] = idx + 1


@dataclass
class SimCounts:
    """Result of a counts-level run.

    ``record`` has one row per recorded slot with columns q1/q2/q3 for
    receiver 1, q1/q2/q3 for receiver 2, cumulative arrivals (both
    receivers), cumulative exits (both receivers).
    """

    horizon: int
    stride: int
    queues: np.ndarray          # (2, 3) final queue lengths
    arrivals: np.ndarray        # (2,)
    exits: np.ndarray           # (2,)
    record_times: np.ndarray
    record: np.ndarray          # (len(record_times), 10)

    @property
    def backlog(self) -> int:
        return int(self.queues.sum())

    def throughput(self, j: int) -> float:
        return float(self.exits[j - 1]) / self.horizon


def run_counts(
    model: ChannelModel,
    *,
    rates: tuple[float, float],
    horizon: int,
    seed: int,
    visible: bool = True,
    delay: int = 1,
    policy: str = "maxweight",
    action_set: str = "A5",
    action_table: np.ndarray | None = None,
    ratio_table: np.ndarray | None = None,
    window_len: int = 0,
    stride: int | None = None,
) -> SimCounts:
    """Simulate the queue counts of a coding scheme over `horizon` slots.

    ``policy`` is "maxweight" (with ``action_set``) or "probabilistic" (with
    ``action_table`` rows indexed by observation key and ``ratio_table`` of
    per-link activation probabilities).  For a hidden model, the observation
    key of the probabilistic policy is the base-4 code of the last
    ``window_len`` feedback pairs, oldest pair in the highest digit.
    """

    if horizon < 1:
        raise ValueError("horizon must be positive")
    if delay < 1:
        raise ValueError("delay must be at least 1")
    if not (0 <= rates[0] <= 1 and 0 <= rates[1] <= 1):
        raise ValueError("arrival rates must lie in [0, 1]")
    if policy not in ("maxweight", "probabilistic"):
        raise ValueError(f"unknown policy {policy!r}")

    num_states = model.num_states
    mode = 0 if policy == "probabilistic" else 1
    amax = {"A2": 2, "A3": 3, "A5": 5}[action_set]

    if mode == 0:
        if action_table is None:
            raise ValueError("probabilistic policy needs an action table")
        table = np.asarray(action_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 6:
            raise ValueError("action table must have six columns")
        action_cdf = np.cumsum(table, axis=1)
        ratios = np.zeros((2, 6)) if ratio_table is None else \
            np.asarray(ratio_table, dtype=float)
        if ratios.shape != (2, 6):
            raise ValueError("ratio table must be 2x6")
    else:
        action_cdf = np.full((1, 6), np.nan)
        ratios = np.zeros((2, 6))
        window_len = 0  # max-weight decides on the belief, never a window

    if visible and mode == 1:
        eps_tab = np.empty((num_states, 3))
        for s in range(num_states):
            st = cond_erasure_visible(model, s, delay)
            eps_tab[s] = (st.eps1, st.eps2, st.eps12)
    else:
        eps_tab = np.zeros((1, 3))

    if stride is None:
        stride = max(1, horizon // 512)
    if stride < 1:
        raise ValueError("stride must be positive")

    q = np.zeros((2, 3), dtype=np.int64)
    tot = np.zeros((2, 2), dtype=np.int64)
    intents = np.zeros((2, 6), dtype=np.int64)
    record = np.zeros((horizon // stride, 10), dtype=np.int64)
    meta = np.zeros(2, dtype=np.int64)  # records written, error
    rates_arr = np.array(rates, dtype=float)

    for t0, matrix, zis, keys, eps in slot_stream(
        model, seed=seed, horizon=horizon, visible=visible, delay=delay,
        window_len=window_len, predict=mode == 1,
    ):
        _chunk(matrix, t0, zis, keys, eps,
               mode, amax, action_cdf, ratios, eps_tab,
               rates_arr, q, tot, intents,
               stride, record, meta)
        if meta[1] != 0:
            raise ValueError("no action distribution for an observed key")

    stored = int(q.sum())
    if int(tot[:, 0].sum()) != stored + int(tot[:, 1].sum()):
        raise AssertionError("conservation violated in counts kernel")

    times = stride * np.arange(1, meta[0] + 1, dtype=np.int64)
    return SimCounts(
        horizon=horizon,
        stride=stride,
        queues=q,
        arrivals=tot[:, 0].copy(),
        exits=tot[:, 1].copy(),
        record_times=times,
        record=record[: int(meta[0])].copy(),
    )
