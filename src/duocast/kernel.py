"""The slot stream both engines consume, and the counts-level kernel.

`slot_stream` is the one place that simulates what a slot shows the
transmitter.  It draws the initial state and the per-slot random matrix,
advances the channel, delays the feedback, and folds the delayed feedback
into a belief or a window code.  None of this depends on the queues, so both
engines read the same stream and differ only in how they decide and move:
`run_counts` below tracks queue lengths only, for long stability runs, and
the packets engine in `harness` moves identified packets through `queuenet`.
Their traces match slot for slot, which is tested.

The two loops, `_observe` and `_chunk`, have one source.  It is compiled
with numba when numba is installed (the ``jit`` extra) and runs as plain
Python otherwise; setting the environment variable DUOCAST_NO_NUMBA=1
selects the plain-Python fallback.  The source is written for speed on the
fallback, using only constructs numba also compiles:

- per-chunk state (the chain state, window code and fold count; the six
  queues, the totals and the record index) lives in locals.  It is loaded
  with ``int()``/``float()`` at chunk entry and stored back at exit.  The
  conversion matters: a numpy scalar such as ``np.int64`` left in a local
  sends every mixed ``float * int`` through numpy's slow scalar path.
- each slot reads its random row once (``row = rows[i]``) and each table
  row once (``cdf = p_cdf[s]``), so no two-index array access is left in
  the inner loop.
- on the fallback, `slot_stream` hands the loops Python lists: the random
  rows come from ``matrix.tolist()``, the tables and the belief are lists,
  and ``zi``/``key``/``eps`` are fresh lists for each chunk.  Python reads a
  list element several times faster than a numpy element.  Lists of floats
  take far more memory than arrays, so the fallback draws chunks of
  FALLBACK_CHUNK_SLOTS slots, not CHUNK_SLOTS.

The chunk length cannot change a trace: ``Generator.random`` fills the
matrix row by row, so stacked small draws equal one large draw, and every
piece of state crosses chunk boundaries through the stored locals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, cond_erasure_visible, stationary_distribution

__all__ = [
    "RNG_COLUMNS",
    "CHUNK_SLOTS",
    "FALLBACK_CHUNK_SLOTS",
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

# Each max-weight action set by its highest action.
_ACTION_SETS = {"A2": 2, "A3": 3, "A5": 5}

CHUNK_SLOTS = 65536          # slots per chunk for the compiled loops
FALLBACK_CHUNK_SLOTS = 1024  # slots per chunk for the plain-Python loops

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


# The chunk length `slot_stream` draws; the tests patch it.
_STREAM_CHUNK = FALLBACK_CHUNK_SLOTS if _DISABLED else CHUNK_SLOTS


def jit_enabled() -> bool:
    return not _DISABLED


def _native(array: np.ndarray):
    """An input of the loops as they read it fastest: nested lists on the fallback."""

    return array.tolist() if _DISABLED else array


@_njit(cache=True)
def _observe(rows, t0, p_cdf, e_cdf, visible, delay, wlen, four_l,
             trans_t, emis_t, pd1_t, evecs, ring, belief, scratch,
             ostate, zis, keys, eps):
    num_states = len(p_cdf)
    last = num_states - 1
    fold = len(eps) > 0
    ev1 = evecs[0]
    ev2 = evecs[1]
    ev12 = evecs[2]
    s = int(ostate[0])
    code = int(ostate[1])
    folds = int(ostate[2])
    pos = t0 % delay
    for i in range(len(zis)):
        row = rows[i]
        # Channel: advance the state, then emit an erasure pair from it.
        u = row[2]
        cdf = p_cdf[s]
        ns = 0
        while ns < last and u >= cdf[ns]:
            ns += 1
        s = ns
        u = row[3]
        cdf = e_cdf[s]
        zi = 0
        while zi < 3 and u >= cdf[zi]:
            zi += 1
        zis[i] = zi

        # Feedback delay: the slot sees what the channel did `delay` slots ago.
        old = ring[pos]
        ring[pos] = s if visible == 1 else zi
        pos = pos + 1 if pos + 1 < delay else 0
        if visible == 1:
            keys[i] = old
            continue
        if old >= 0:
            if fold:
                col = emis_t[old]
                total = 0.0
                for k in range(num_states):
                    v = belief[k] * col[k]
                    scratch[k] = v
                    total += v
                if total <= 0.0:
                    ostate[3] = 1
                    return
                for k in range(num_states):
                    col = trans_t[k]
                    acc = 0.0
                    for k2 in range(num_states):
                        acc += scratch[k2] * col[k2]
                    belief[k] = acc / total
            else:
                code = (code * 4 + old) % four_l
            folds += 1
        keys[i] = code if folds >= wlen else -1
        if fold:
            # Erasure statistics of the current slot given the belief.
            e1 = 0.0
            e2 = 0.0
            e12 = 0.0
            for k in range(num_states):
                col = pd1_t[k]
                acc = 0.0
                for k2 in range(num_states):
                    acc += belief[k2] * col[k2]
                e1 += acc * ev1[k]
                e2 += acc * ev2[k]
                e12 += acc * ev12[k]
            out = eps[i]
            out[0] = e1
            out[1] = e2
            out[2] = e12
    ostate[0] = s
    ostate[1] = code
    ostate[2] = folds


def slot_stream(model: ChannelModel, *, seed: int, horizon: int, visible: bool,
                delay: int, window_len: int = 0, predict: bool = False):
    """Yield ``(t0, rows, zi, key, eps)`` for each chunk of slots from t0.

    ``rows`` is the chunk's random matrix, ``zi`` each slot's erasure
    outcome index 2*z1 + z2, and ``key`` what the transmitter observes in
    that slot: the state ``delay`` slots back for a visible model (the
    initial state before then); for a hidden one the base-4 code of the
    last ``window_len`` delayed feedback pairs (oldest pair in the highest
    digit), or -1 until that many have arrived.  With ``predict`` (hidden
    model), the feedback is instead folded into a belief and ``eps`` holds
    each slot's predicted (eps1, eps2, eps12); otherwise ``eps`` is an empty
    (0, 3) array.  Each chunk comes in fresh containers: numpy arrays when
    the loops are compiled, nested Python lists on the fallback.
    """

    num_states = model.num_states
    fold = predict and not visible
    pi = stationary_distribution(model)
    rng = np.random.default_rng(seed)
    s0 = min(int(np.searchsorted(np.cumsum(pi), rng.random())), num_states - 1)
    p_cdf = _native(np.cumsum(model.transition, axis=1))
    e_cdf = _native(np.cumsum(model.emission, axis=1))
    # Transposed, so that each inner sum runs along one row.
    trans_t = _native(model.transition.T.copy())
    emis_t = _native(model.emission.T.copy())
    pd1_t = _native(np.linalg.matrix_power(model.transition, delay - 1).T.copy())
    evecs = np.empty((3, num_states))
    evecs[0] = model.emission[:, 2] + model.emission[:, 3]
    evecs[1] = model.emission[:, 1] + model.emission[:, 3]
    evecs[2] = model.emission[:, 3]
    evecs = _native(evecs)
    ring = _native(np.full(delay, s0 if visible else -1, dtype=np.int64))
    belief = _native(pi.copy())
    scratch = _native(np.empty(num_states))
    ostate = np.array([s0, 0, 0, 0], dtype=np.int64)  # state, code, folds, error
    no_eps = np.empty((0, 3))
    step = _STREAM_CHUNK

    t0 = 0
    while t0 < horizon:
        m = min(step, horizon - t0)
        rows = _native(rng.random((m, RNG_COLUMNS)))
        if _DISABLED:
            zis = [0] * m
            keys = [0] * m
            eps = [[0.0, 0.0, 0.0] for _ in range(m)] if fold else no_eps
        else:
            zis = np.empty(m, dtype=np.int64)
            keys = np.empty(m, dtype=np.int64)
            eps = np.empty((m, 3)) if fold else no_eps
        _observe(rows, t0, p_cdf, e_cdf, 1 if visible else 0, delay,
                 window_len, 4 ** window_len, trans_t, emis_t, pd1_t, evecs,
                 ring, belief, scratch, ostate, zis, keys, eps)
        if ostate[3] != 0:
            raise ValueError(
                "feedback pair has probability zero under the current belief")
        yield t0, rows, zis, keys, eps
        t0 += m


@_njit(cache=True)
def _chunk(rows, t0, zis, keys, eps, mode, amax, action_cdf, ratios, eps_tab,
           rates, q, tot, stride, record, meta):
    predicted = len(eps) > 0
    r1 = float(rates[0])
    r2 = float(rates[1])
    # Queues q1, q2, q3 of receiver 1 (a) and receiver 2 (b), arrivals and
    # exits, as Python scalars for the chunk; see the module docstring.
    a1 = int(q[0, 0])
    a2 = int(q[0, 1])
    a3 = int(q[0, 2])
    b1 = int(q[1, 0])
    b2 = int(q[1, 1])
    b3 = int(q[1, 2])
    in1 = int(tot[0, 0])
    in2 = int(tot[1, 0])
    out1 = int(tot[0, 1])
    out2 = int(tot[1, 1])
    idx = int(meta[0])
    left = stride - t0 % stride  # slots up to and including the next record
    for i in range(len(zis)):
        row = rows[i]
        key = keys[i]

        # Decide.
        action = 0
        if key >= 0:
            if mode == 0:
                cdf = action_cdf[key]
                if not (cdf[5] >= 0.0):
                    meta[1] = 1
                    return
                u = row[4]
                while action < 5 and u >= cdf[action]:
                    action += 1
            else:
                if predicted:
                    e = eps[i]
                else:
                    e = eps_tab[key]
                e1 = e[0]
                e2 = e[1]
                e12 = e[2]
                d1 = a1 - a2 if a1 > a2 else 0
                d2 = b1 - b2 if b1 > b2 else 0
                w1 = (1.0 - e1) * a1 + (e1 - e12) * d1
                w2 = (1.0 - e2) * b1 + (e2 - e12) * d2
                w3 = (1.0 - e1) * a2 + (1.0 - e2) * b2
                d1 = a1 - a3 if a1 > a3 else 0
                d2 = b1 - b3 if b1 > b3 else 0
                w4 = (1.0 - e12) * (d1 + d2)
                d1 = a3 - a2 if a3 > a2 else 0
                d2 = b3 - b2 if b3 > b2 else 0
                w5 = ((e1 - e12) * d1 + (1.0 - e1) * a3
                      + (e2 - e12) * d2 + (1.0 - e2) * b3)
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

        # Move counts along the activated admissible links.  A link's intent
        # is read only when the move needs it: under the probabilistic policy
        # it is the coin in column 5 + 6*j + l (receiver j, link
        # 12,13,14,24,32,34 = l 0..5) against ratios[6*j + l]; under
        # max-weight it is the backpressure test on the pre-move queues.
        if action != 0:
            zi = zis[i]
            z1 = zi >> 1
            z2 = zi & 1
            if action == 1:
                if a1 > 0:
                    if z1 == 0:
                        if mode == 1 or row[7] < ratios[2]:
                            a1 -= 1
                            out1 += 1
                    elif z2 == 0 and ((row[5] < ratios[0]) if mode == 0
                                      else a1 > a2):
                        a1 -= 1
                        a2 += 1
            elif action == 2:
                if b1 > 0:
                    if z2 == 0:
                        if mode == 1 or row[13] < ratios[8]:
                            b1 -= 1
                            out2 += 1
                    elif z1 == 0 and ((row[11] < ratios[6]) if mode == 0
                                      else b1 > b2):
                        b1 -= 1
                        b2 += 1
            elif action == 3:
                if z1 == 0 and a2 > 0 and (mode == 1 or row[8] < ratios[3]):
                    a2 -= 1
                    out1 += 1
                if z2 == 0 and b2 > 0 and (mode == 1 or row[14] < ratios[9]):
                    b2 -= 1
                    out2 += 1
            elif action == 4:
                if z1 == 0 or z2 == 0:
                    if a1 > 0 and ((row[6] < ratios[1]) if mode == 0
                                   else a1 > a3):
                        a1 -= 1
                        a3 += 1
                    if b1 > 0 and ((row[12] < ratios[7]) if mode == 0
                                   else b1 > b3):
                        b1 -= 1
                        b3 += 1
            else:
                if a3 > 0:
                    if z1 == 0:
                        if mode == 1 or row[10] < ratios[5]:
                            a3 -= 1
                            out1 += 1
                    elif z2 == 0 and ((row[9] < ratios[4]) if mode == 0
                                      else a3 > a2):
                        a3 -= 1
                        a2 += 1
                if b3 > 0:
                    if z2 == 0:
                        if mode == 1 or row[16] < ratios[11]:
                            b3 -= 1
                            out2 += 1
                    elif z1 == 0 and ((row[15] < ratios[10]) if mode == 0
                                      else b3 > b2):
                        b3 -= 1
                        b2 += 1

        # Arrivals join at the end of the slot.
        if row[0] < r1:
            a1 += 1
            in1 += 1
        if row[1] < r2:
            b1 += 1
            in2 += 1

        left -= 1
        if left == 0:
            left = stride
            rec = record[idx]
            rec[0] = a1
            rec[1] = a2
            rec[2] = a3
            rec[3] = b1
            rec[4] = b2
            rec[5] = b3
            rec[6] = in1
            rec[7] = in2
            rec[8] = out1
            rec[9] = out2
            idx += 1
    q[0, 0] = a1
    q[0, 1] = a2
    q[0, 2] = a3
    q[1, 0] = b1
    q[1, 1] = b2
    q[1, 2] = b3
    tot[0, 0] = in1
    tot[1, 0] = in2
    tot[0, 1] = out1
    tot[1, 1] = out2
    meta[0] = idx



def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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

    if not _is_int(horizon) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon!r}")
    horizon = int(horizon)
    if delay < 1:
        raise ValueError("delay must be at least 1")
    if not (0 <= rates[0] <= 1 and 0 <= rates[1] <= 1):
        raise ValueError("arrival rates must lie in [0, 1]")
    if policy not in ("maxweight", "probabilistic"):
        raise ValueError(f"unknown policy {policy!r}")
    if action_set not in _ACTION_SETS:
        raise ValueError(
            f"action_set must be one of {', '.join(_ACTION_SETS)}, got {action_set!r}")
    if not _is_int(window_len) or window_len < 0:
        raise ValueError(
            f"window_len must be a non-negative integer, got {window_len!r}")

    num_states = model.num_states
    mode = 0 if policy == "probabilistic" else 1
    amax = _ACTION_SETS[action_set]

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
    stride = int(stride)

    q = np.zeros((2, 3), dtype=np.int64)
    tot = np.zeros((2, 2), dtype=np.int64)
    record = np.zeros((horizon // stride, 10), dtype=np.int64)
    meta = np.zeros(2, dtype=np.int64)  # records written, error
    action_cdf = _native(action_cdf)
    ratios = _native(ratios.ravel())  # receiver j's link l at 6*j + l
    eps_tab = _native(eps_tab)
    rates_arr = _native(np.array(rates, dtype=float))

    for t0, rows, zis, keys, eps in slot_stream(
        model, seed=seed, horizon=horizon, visible=visible, delay=delay,
        window_len=int(window_len), predict=mode == 1,
    ):
        _chunk(rows, t0, zis, keys, eps,
               mode, amax, action_cdf, ratios, eps_tab,
               rates_arr, q, tot, stride, record, meta)
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
