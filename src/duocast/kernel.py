"""The slot stream both engines consume, and the counts-level kernel.

`slot_stream` is the one place that simulates what a slot shows the
transmitter.  It draws the initial state and the per-slot random matrix,
advances the channel, delays the feedback, and folds the delayed feedback
into a belief or a window code.  None of this depends on the queues, so both
engines read the same stream and differ only in how they decide and move:
`run_counts` below tracks queue lengths only, for long stability runs, and
the packets engine in `harness` moves identified packets through `queuenet`.
Their traces match slot for slot, which is tested.

The two loops, the slot loop of `slot_stream` and the counts loop `_count`,
are plain Python written for speed:

- each loop keeps its state in locals for the whole run, from the first
  slot to the last: the chain state, ring position, window code, fold count
  and belief in the stream; the six queues, the four totals, the record
  index and the slots left to the next record in the counts loop.  Every local is a Python int
  or float: a numpy scalar such as ``np.int64`` in a local sends every mixed
  ``float * int`` through numpy's slow scalar path.
- each slot reads its random row once (``row = rows[i]``) and each table
  row once (``cdf = p_cdf[s]``), so no two-index access is left in the
  inner loop.
- the loops read Python lists, not numpy arrays: the random rows come from
  ``matrix.tolist()``, the tables and the belief are lists, and
  ``zi``/``key``/``eps`` are fresh lists for each chunk.  Python reads a
  list element several times faster than a numpy element.  Lists of floats
  take far more memory than arrays, so the stream draws chunks of
  CHUNK_SLOTS slots.

The chunk length cannot change a trace: ``Generator.random`` fills the
matrix row by row, so stacked small draws equal one large draw, and no loop
keeps any state per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, cond_erasure_visible, stationary_distribution
from .policies import ACTION_SETS

__all__ = [
    "RNG_COLUMNS",
    "CHUNK_SLOTS",
    "SimCounts",
    "jit_enabled",
    "positive_int",
    "record_stride",
    "run_counts",
    "slot_stream",
]

# Per-slot random matrix layout.  Positional columns keep the stream aligned
# between engines no matter which action a policy picks: 0 and 1 arrivals at
# receivers 1 and 2, 2 state step, 3 emission, 4 action, 5..10 coins of
# receiver 1's links 12,13,14,24,32,34, and 11..16 those of receiver 2.
RNG_COLUMNS = 17

# Slots per chunk of the stream, read for each chunk; the tests patch it.
CHUNK_SLOTS = 1024


def jit_enabled() -> bool:
    """False: the loops always run as plain Python (for backend stamps)."""

    return False


def positive_int(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless an int >= 1."""

    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def record_stride(horizon: int, stride: int | None) -> int:
    """Slots between recorded rows: ``stride``, or about 512 rows per run."""

    if stride is None:
        return max(1, horizon // 512)
    return positive_int("stride", stride)


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
    (0, 3) array.  Each chunk comes in fresh Python lists, CHUNK_SLOTS slots
    long but for the last.
    """

    horizon = positive_int("horizon", horizon)
    delay = positive_int("delay", delay)
    num_states = model.num_states
    last = num_states - 1
    fold = predict and not visible
    pi = stationary_distribution(model)
    rng = np.random.default_rng(seed)
    s = min(int(np.searchsorted(np.cumsum(pi), rng.random())), last)
    p_cdf = np.cumsum(model.transition, axis=1).tolist()
    e_cdf = np.cumsum(model.emission, axis=1).tolist()
    # Transposed, so that each inner sum runs along one row.
    trans_t = model.transition.T.tolist()
    emis_t = model.emission.T.tolist()
    pd1_t = np.linalg.matrix_power(model.transition, delay - 1).T.tolist()
    ev1 = (model.emission[:, 2] + model.emission[:, 3]).tolist()
    ev2 = (model.emission[:, 1] + model.emission[:, 3]).tolist()
    ev12 = model.emission[:, 3].tolist()
    four_l = 4 ** window_len
    ring = [s if visible else -1] * delay
    belief = pi.tolist()
    scratch = [0.0] * num_states
    pos = code = folds = 0  # ring position, window code, pairs folded
    no_eps = np.empty((0, 3))

    t0 = 0
    while t0 < horizon:
        m = min(CHUNK_SLOTS, horizon - t0)
        rows = rng.random((m, RNG_COLUMNS)).tolist()
        zis = [0] * m
        keys = [0] * m
        eps = [[0.0, 0.0, 0.0] for _ in range(m)] if fold else no_eps
        for i in range(m):
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

            # Feedback delay: the slot sees the channel of `delay` slots ago.
            old = ring[pos]
            ring[pos] = s if visible else zi
            pos = pos + 1 if pos + 1 < delay else 0
            if visible:
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
                        raise ValueError("feedback pair has probability zero "
                                         "under the current belief")
                    for k in range(num_states):
                        col = trans_t[k]
                        acc = 0.0
                        for k2 in range(num_states):
                            acc += scratch[k2] * col[k2]
                        belief[k] = acc / total
                else:
                    code = (code * 4 + old) % four_l
                folds += 1
            keys[i] = code if folds >= window_len else -1
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
        yield t0, rows, zis, keys, eps
        t0 += m


def _count(stream, amax, action_cdf, ratios, eps_tab, rates, stride, record):
    """Run the counts loop over ``stream``; return the end state and rows filled.

    ``action_cdf`` is None under max-weight, which reads each slot's
    erasure statistics from ``eps_tab`` by key, or from the stream when
    ``eps_tab`` is None too.  Every ``stride``-th slot fills the next row
    of ``record``; the end state is laid out as a row.
    """

    maxweight = action_cdf is None
    r1, r2 = rates
    # Queues q1, q2, q3 of receiver 1 (a) and receiver 2 (b), arrivals, exits.
    a1 = a2 = a3 = b1 = b2 = b3 = 0
    in1 = in2 = out1 = out2 = 0
    idx = 0
    left = stride  # slots up to and including the next record
    for _, rows, zis, keys, eps in stream:
        for i in range(len(zis)):
            row = rows[i]
            key = keys[i]

            # Decide.
            action = 0
            if key >= 0:
                if not maxweight:
                    cdf = action_cdf[key]
                    if not (cdf[5] >= 0.0):
                        raise ValueError("no action distribution for an observed key")
                    u = row[4]
                    while action < 5 and u >= cdf[action]:
                        action += 1
                else:
                    e = eps[i] if eps_tab is None else eps_tab[key]
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

            # Move counts along the activated admissible links.  A link's
            # intent is read only when the move needs it: under the
            # probabilistic policy it is the coin in column 5 + 6*j + l
            # (receiver j, link 12,13,14,24,32,34 = l 0..5) against
            # ratios[6*j + l]; under max-weight it is the backpressure test on
            # the pre-move queues.
            if action != 0:
                zi = zis[i]
                z1 = zi >> 1
                z2 = zi & 1
                if action == 1:
                    if a1 > 0:
                        if z1 == 0:
                            if maxweight or row[7] < ratios[2]:
                                a1 -= 1
                                out1 += 1
                        elif z2 == 0 and (a1 > a2 if maxweight
                                          else row[5] < ratios[0]):
                            a1 -= 1
                            a2 += 1
                elif action == 2:
                    if b1 > 0:
                        if z2 == 0:
                            if maxweight or row[13] < ratios[8]:
                                b1 -= 1
                                out2 += 1
                        elif z1 == 0 and (b1 > b2 if maxweight
                                          else row[11] < ratios[6]):
                            b1 -= 1
                            b2 += 1
                elif action == 3:
                    if z1 == 0 and a2 > 0 and (maxweight or row[8] < ratios[3]):
                        a2 -= 1
                        out1 += 1
                    if z2 == 0 and b2 > 0 and (maxweight or row[14] < ratios[9]):
                        b2 -= 1
                        out2 += 1
                elif action == 4:
                    if z1 == 0 or z2 == 0:
                        if a1 > 0 and (a1 > a3 if maxweight
                                       else row[6] < ratios[1]):
                            a1 -= 1
                            a3 += 1
                        if b1 > 0 and (b1 > b3 if maxweight
                                       else row[12] < ratios[7]):
                            b1 -= 1
                            b3 += 1
                else:
                    if a3 > 0:
                        if z1 == 0:
                            if maxweight or row[10] < ratios[5]:
                                a3 -= 1
                                out1 += 1
                        elif z2 == 0 and (a3 > a2 if maxweight
                                          else row[9] < ratios[4]):
                            a3 -= 1
                            a2 += 1
                    if b3 > 0:
                        if z2 == 0:
                            if maxweight or row[16] < ratios[11]:
                                b3 -= 1
                                out2 += 1
                        elif z1 == 0 and (b3 > b2 if maxweight
                                          else row[15] < ratios[10]):
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
                record[idx] = (a1, a2, a3, b1, b2, b3, in1, in2, out1, out2)
                idx += 1
    return (a1, a2, a3, b1, b2, b3, in1, in2, out1, out2), idx


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

    horizon = positive_int("horizon", horizon)
    delay = positive_int("delay", delay)
    if not (0 <= rates[0] <= 1 and 0 <= rates[1] <= 1):
        raise ValueError("arrival rates must lie in [0, 1]")
    if policy not in ("maxweight", "probabilistic"):
        raise ValueError(f"unknown policy {policy!r}")
    if action_set not in ACTION_SETS:
        raise ValueError(
            f"action_set must be one of {', '.join(ACTION_SETS)}, got {action_set!r}")
    if not _is_int(window_len) or window_len < 0:
        raise ValueError(
            f"window_len must be a non-negative integer, got {window_len!r}")
    stride = record_stride(horizon, stride)

    num_states = model.num_states
    maxweight = policy == "maxweight"
    action_cdf = ratios = eps_tab = None
    if maxweight:
        window_len = 0  # max-weight decides on the belief, never a window
        if visible:
            stats = [cond_erasure_visible(model, s, delay) for s in range(num_states)]
            eps_tab = [[st.eps1, st.eps2, st.eps12] for st in stats]
    else:
        if action_table is None:
            raise ValueError("probabilistic policy needs an action table")
        table = np.asarray(action_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 6:
            raise ValueError("action table must have six columns")
        keys = num_states if visible else 4 ** int(window_len)  # observation keys
        if len(table) < keys:
            raise ValueError(f"action_table needs {keys} rows, one per observation "
                             f"key, got {len(table)}")
        action_cdf = np.cumsum(table, axis=1).tolist()
        ratio_arr = np.zeros((2, 6)) if ratio_table is None else \
            np.asarray(ratio_table, dtype=float)
        if ratio_arr.shape != (2, 6):
            raise ValueError("ratio table must be 2x6")
        ratios = ratio_arr.ravel().tolist()  # receiver j's link l at 6*j + l

    record = np.zeros((horizon // stride, 10), dtype=np.int64)
    stream = slot_stream(model, seed=seed, horizon=horizon, visible=visible,
                         delay=delay, window_len=int(window_len), predict=maxweight)
    end, rows = _count(
        stream, max(ACTION_SETS[action_set]), action_cdf, ratios, eps_tab,
        (float(rates[0]), float(rates[1])), stride, record)
    end = np.array(end, dtype=np.int64)

    if int(end[6:8].sum()) != int(end[:6].sum()) + int(end[8:].sum()):
        raise AssertionError("conservation violated in counts kernel")

    return SimCounts(
        horizon=horizon,
        stride=stride,
        queues=end[:6].reshape(2, 3),
        arrivals=end[6:8],
        exits=end[8:],
        record_times=stride * np.arange(1, rows + 1, dtype=np.int64),
        record=record[:rows].copy(),
    )
