"""The slot stream both engines consume, and the counts-level kernel.

`slot_stream` is the one place that simulates what a slot shows the
transmitter.  It draws the initial state and the per-slot random matrix,
advances the channel, delays the feedback, and folds the delayed feedback
into a belief or a window code.  None of this depends on the queues, so both
engines read the same stream and differ only in how they decide and move:
`run_counts` below tracks queue lengths only, for long stability runs, and
the packets engine in `harness` moves identified packets through `queuenet`.
Their traces match slot for slot, which is tested.

Both the stream and the counts loop `_count` work a chunk of CHUNK_SLOTS
slots at a time.  Whatever does not depend on the queues is done per chunk
in numpy, with the same float operations in the same order as a per-slot
loop, so every step is exact:

- the channel step: for each state, searchsorted(..., "right") of the
  chunk's draws in that state's cdf.  A cdf row is nondecreasing (the
  tables hold no negative entry), so this is where `while u >= cdf[k]`
  stops, repeated entries included.  Only the walk from state to state is a
  Python loop; the emission is then read off the chain's states;
- the delayed keys: a visible key is the state `delay` slots back, read
  from the previous chunk's last states followed by this chunk's; a window
  code is built digit by digit from shifted slices of the delayed
  outcomes, in int64 (hence at most MAX_WINDOW pairs);
- the predicted (eps1, eps2, eps12) of a hidden slot, from the belief that
  the Python fold stores for each slot: elementwise products and sums, each
  starting at 0.0 and adding its terms in index order, as a per-slot loop
  does (no `@` or `.sum`, whose summation order differs);
- in the counts loop, the arrival bits; under max-weight the five factors
  of each slot's weights (1 - eps1, eps1 - eps12, ...), one subtraction
  each; under the probabilistic policy each slot's action (the leading run
  of cdf entries the action draw reaches) and its twelve link coins as a
  bit mask, all comparisons of draws with tables.

What stays serial is plain Python: the chain's state walk and the belief
fold in the stream; the max-weight weights and the moves in the counts
loop, which keeps the six queues, four totals, record index and record
countdown in Python int locals for the whole run (a numpy scalar in a local
sends each mixed ``float * int`` through numpy's slow scalar path).  The
per-slot loop reads Python lists made per chunk with ``tolist()``.  A slot
with every queue empty skips the decision and the moves: each max-weight
weight is 0.0 there, and each move is guarded by its queue.

The chunk length cannot change a trace: ``Generator.random`` fills the
matrix row by row, so stacked small draws equal one large draw, and what
carries over from one chunk to the next (chain state, delayed history,
belief, queues) is exactly what a per-slot loop would carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import ChannelModel, cond_erasure_visible, stationary_distribution
from .policies import ACTION_SETS

__all__ = [
    "RNG_COLUMNS",
    "CHUNK_SLOTS",
    "MAX_WINDOW",
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

# The longest feedback window whose base-4 code fits an int64.
MAX_WINDOW = 31

# Bit of each coin column 5..16 in a slot's coin mask.
_COIN_SHIFTS = np.arange(RNG_COLUMNS - 5)


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
    model), the feedback is instead folded into a belief, the key is 0 (or
    -1 until ``window_len`` pairs have arrived) and ``eps`` holds each
    slot's predicted (eps1, eps2, eps12); otherwise ``eps`` is an empty
    (0, 3) array.  All four are numpy arrays, CHUNK_SLOTS slots long but
    for the last chunk.
    """

    horizon = positive_int("horizon", horizon)
    delay = positive_int("delay", delay)
    window_len = _window_len(window_len)
    num_states = model.num_states
    last = num_states - 1
    fold = predict and not visible
    pi = stationary_distribution(model)
    rng = np.random.default_rng(seed)
    s = min(int(np.searchsorted(np.cumsum(pi), rng.random())), last)
    # Each state's cdf without its last entry: the step takes the first
    # index whose cdf entry exceeds u, or the last index.
    p_cut = np.cumsum(model.transition, axis=1)[:, :last]
    e_cut = np.cumsum(model.emission, axis=1)[:, :3]
    # Transposed, so that each inner sum of the fold runs along one row.
    emis_t = model.emission.T.tolist()
    trans_t = model.transition.T.tolist()
    pd1 = np.linalg.matrix_power(model.transition, delay - 1)
    ev = (model.emission[:, 2] + model.emission[:, 3],   # P(z1 = 1 | state)
          model.emission[:, 1] + model.emission[:, 3],   # P(z2 = 1 | state)
          model.emission[:, 3])                          # P(both erased)
    span = max(window_len, 1)
    # The delayed history the chunk's keys are read from: the last `delay`
    # states (visible), or the last delay + span - 1 outcomes, -1 for a
    # slot before the run (hidden).
    tail = np.full(delay if visible else delay + span - 1, s if visible else -1,
                   dtype=np.int64)
    belief = pi.tolist()
    no_eps = np.empty((0, 3))

    t0 = 0
    while t0 < horizon:
        m = min(CHUNK_SLOTS, horizon - t0)
        rows = rng.random((m, RNG_COLUMNS))

        # Channel: advance the state, then emit an erasure pair from it.
        # Each cdf row is nondecreasing (the tables hold no negative entry),
        # so a scalar scan `while u >= cdf[k]: k += 1` stops where
        # searchsorted(..., "right") lands.  Only the state walk is serial.
        u = rows[:, 2]
        steps = [np.searchsorted(cut, u, "right").tolist() for cut in p_cut]
        states = [0] * m
        if last:  # one state has no walk
            for i in range(m):
                s = steps[s][i]
                states[i] = s
        states = np.array(states, dtype=np.int64)
        u = rows[:, 3]
        emits = np.stack([np.searchsorted(cut, u, "right") for cut in e_cut])
        zis = emits[states, np.arange(m)]

        # Feedback delay: slot i sees the history `delay` slots back.
        ext = np.concatenate((tail, states if visible else zis))
        tail = ext[m:]
        eps = no_eps
        if visible:
            keys = ext[:m]
        elif window_len:
            # ext[i + span - 1] is the pair fed back at slot i and ext[i] the
            # oldest pair of its window, which is full once that is >= 0.
            code = 0
            if not fold:
                for j in range(window_len):
                    code = code * 4 + ext[j : j + m]
            keys = np.where(ext[:m] >= 0, code, -1)
        else:
            keys = np.zeros(m, dtype=np.int64)
        if fold:
            eps = _predict(ext[span - 1 : span - 1 + m].tolist(), belief,
                           emis_t, trans_t, pd1, ev)
        yield t0, rows, zis, keys, eps
        t0 += m


def _predict(pairs, belief, emis_t, trans_t, pd1, ev):
    """Fold each slot's delayed pair into ``belief``; return (eps1, eps2, eps12).

    ``pairs`` holds the outcome index fed back at each slot, -1 for none
    yet.  The fold is serial, so it runs in Python and updates ``belief`` in
    place.  The statistics are then computed for all slots at once, with
    elementwise products and sums that start at 0.0 and add their terms in
    index order, the order of a per-slot loop (no ``@`` or ``.sum``, whose
    summation order differs).
    """

    num_states = len(belief)
    scratch = [0.0] * num_states
    flat = []
    for old in pairs:
        if old >= 0:
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
        flat.extend(belief)
    beliefs = np.array(flat).reshape(len(pairs), num_states)

    # The belief `delay` - 1 slots ahead, then the erasure statistics.
    eps = np.zeros((3, len(pairs)))
    for k in range(num_states):
        ahead = np.zeros(len(pairs))
        for k2 in range(num_states):
            ahead += beliefs[:, k2] * pd1[k2, k]
        for e, col in zip(eps, ev):
            e += ahead * col[k]
    return eps.T


def _count(stream, amax, action_cdf, ratios, eps_tab, rates, stride, record):
    """Run the counts loop over ``stream``; return the end state and rows filled.

    ``action_cdf`` (an array, one cdf row per observation key) is None under
    max-weight, which reads each slot's erasure statistics from the (states,
    3) array ``eps_tab`` by key, or from the stream when ``eps_tab`` is None
    too.  ``ratios`` holds the 12 link activation probabilities.  Each chunk
    first does in numpy what does not depend on the queues; the slot loop
    then decides and moves.  Every ``stride``-th slot fills the next row of
    ``record``; the end state is laid out as a row.
    """

    maxweight = action_cdf is None
    r1, r2 = rates
    if maxweight:
        actions = coins = repeat(0)
        term_tab = None if eps_tab is None else _weight_terms(eps_tab)
    else:
        weights = repeat(None)
        # A row whose last cdf entry is not >= 0 (NaN) has no distribution.
        missing = ~(action_cdf[:, 5] >= 0.0)
        heads = action_cdf[:, :5]
    # Queues q1, q2, q3 of receiver 1 (a) and receiver 2 (b), arrivals, exits.
    a1 = a2 = a3 = b1 = b2 = b3 = 0
    in1 = in2 = out1 = out2 = 0
    idx = 0
    left = stride  # slots up to and including the next record
    for _, rows, zis, keys, eps in stream:
        # Queue-independent work, per chunk: arrival bits (1 receiver 1,
        # 2 receiver 2); under max-weight the factors of the slot's weights;
        # under the probabilistic policy the action, the first index whose
        # cdf entry exceeds u (a leading run, so nothing is assumed of the
        # table; 0 before a key is observed), and the link coins as a
        # 12-bit mask, bit 6*j + l for receiver j's link 12,13,14,24,32,34
        # (l 0..5) from column 5 + 6*j + l against ratios[6*j + l].
        arrivals = ((rows[:, 0] < r1) + 2 * (rows[:, 1] < r2)).tolist()
        if maxweight:
            # Max-weight always observes: a visible key is a state, and the
            # hidden belief waits for no window.
            weights = (_weight_terms(eps) if term_tab is None
                       else term_tab[keys]).tolist()
        else:
            seen = keys >= 0
            if missing[keys[seen]].any():
                raise ValueError("no action distribution for an observed key")
            run = np.cumprod(rows[:, 4:5] >= heads[keys], axis=1).sum(axis=1)
            actions = np.where(seen, run, 0).tolist()
            coins = ((rows[:, 5:] < ratios) << _COIN_SHIFTS).sum(axis=1).tolist()
        for zi, arrived, action, coin, terms in zip(zis.tolist(), arrivals,
                                                    actions, coins, weights):
            # A slot with every queue empty moves nothing: every max-weight
            # weight is 0.0 and every move below is guarded by its queue.
            if a1 or a2 or a3 or b1 or b2 or b3:
                if maxweight:
                    # The first action of largest positive weight.
                    c1, g1, c2, g2, c12 = terms
                    best = 0.0
                    w = c1 * a1 + g1 * (a1 - a2 if a1 > a2 else 0)
                    if w > best:
                        best = w
                        action = 1
                    w = c2 * b1 + g2 * (b1 - b2 if b1 > b2 else 0)
                    if w > best:
                        best = w
                        action = 2
                    if amax >= 3:
                        w = c1 * a2 + c2 * b2
                        if w > best:
                            best = w
                            action = 3
                        if amax >= 5:
                            w = c12 * ((a1 - a3 if a1 > a3 else 0)
                                       + (b1 - b3 if b1 > b3 else 0))
                            if w > best:
                                best = w
                                action = 4
                            w = (g1 * (a3 - a2 if a3 > a2 else 0) + c1 * a3
                                 + g2 * (b3 - b2 if b3 > b2 else 0) + c2 * b3)
                            if w > best:
                                action = 5

                # Move counts along the activated admissible links.  A
                # link's intent is read only when the move needs it: under
                # the probabilistic policy it is the link's coin; under
                # max-weight it is the backpressure test on the pre-move
                # queues.
                if action != 0:
                    z1 = zi >> 1
                    z2 = zi & 1
                    if action == 1:
                        if a1 > 0:
                            if z1 == 0:
                                if maxweight or coin & 4:
                                    a1 -= 1
                                    out1 += 1
                            elif z2 == 0 and (a1 > a2 if maxweight else coin & 1):
                                a1 -= 1
                                a2 += 1
                    elif action == 2:
                        if b1 > 0:
                            if z2 == 0:
                                if maxweight or coin & 256:
                                    b1 -= 1
                                    out2 += 1
                            elif z1 == 0 and (b1 > b2 if maxweight else coin & 64):
                                b1 -= 1
                                b2 += 1
                    elif action == 3:
                        if z1 == 0 and a2 > 0 and (maxweight or coin & 8):
                            a2 -= 1
                            out1 += 1
                        if z2 == 0 and b2 > 0 and (maxweight or coin & 512):
                            b2 -= 1
                            out2 += 1
                    elif action == 4:
                        if z1 == 0 or z2 == 0:
                            if a1 > 0 and (a1 > a3 if maxweight else coin & 2):
                                a1 -= 1
                                a3 += 1
                            if b1 > 0 and (b1 > b3 if maxweight else coin & 128):
                                b1 -= 1
                                b3 += 1
                    else:
                        if a3 > 0:
                            if z1 == 0:
                                if maxweight or coin & 32:
                                    a3 -= 1
                                    out1 += 1
                            elif z2 == 0 and (a3 > a2 if maxweight else coin & 16):
                                a3 -= 1
                                a2 += 1
                        if b3 > 0:
                            if z2 == 0:
                                if maxweight or coin & 2048:
                                    b3 -= 1
                                    out2 += 1
                            elif z1 == 0 and (b3 > b2 if maxweight else coin & 1024):
                                b3 -= 1
                                b2 += 1

            # Arrivals join at the end of the slot.
            if arrived:
                if arrived & 1:
                    a1 += 1
                    in1 += 1
                if arrived & 2:
                    b1 += 1
                    in2 += 1

            left -= 1
            if left == 0:
                left = stride
                record[idx] = (a1, a2, a3, b1, b2, b3, in1, in2, out1, out2)
                idx += 1
    return (a1, a2, a3, b1, b2, b3, in1, in2, out1, out2), idx


def _weight_terms(eps: np.ndarray) -> np.ndarray:
    """Each (eps1, eps2, eps12) row's max-weight factors, as the weights use them.

    The columns are 1 - eps1, eps1 - eps12, 1 - eps2, eps2 - eps12 and
    1 - eps12; numpy subtracts as Python floats do, so the weights are exact.
    """

    e1, e2, e12 = eps[:, 0], eps[:, 1], eps[:, 2]
    return np.stack((1.0 - e1, e1 - e12, 1.0 - e2, e2 - e12, 1.0 - e12), axis=1)


def _window_len(value) -> int:
    """``value`` as an int; a ValueError naming window_len unless 0..MAX_WINDOW."""

    if not _is_int(value) or not 0 <= value <= MAX_WINDOW:
        raise ValueError(f"window_len must be an integer from 0 to {MAX_WINDOW}, "
                         f"got {value!r}")
    return int(value)


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
    window_len = _window_len(window_len)
    stride = record_stride(horizon, stride)

    num_states = model.num_states
    maxweight = policy == "maxweight"
    action_cdf = ratios = eps_tab = None
    if maxweight:
        window_len = 0  # max-weight decides on the belief, never a window
        if visible:
            stats = [cond_erasure_visible(model, s, delay) for s in range(num_states)]
            eps_tab = np.array([[st.eps1, st.eps2, st.eps12] for st in stats])
    else:
        if action_table is None:
            raise ValueError("probabilistic policy needs an action table")
        table = np.asarray(action_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 6:
            raise ValueError("action table must have six columns")
        keys = num_states if visible else 4 ** window_len  # observation keys
        if len(table) < keys:
            raise ValueError(f"action_table needs {keys} rows, one per observation "
                             f"key, got {len(table)}")
        action_cdf = np.cumsum(table, axis=1)
        ratio_arr = np.zeros((2, 6)) if ratio_table is None else \
            np.asarray(ratio_table, dtype=float)
        if ratio_arr.shape != (2, 6):
            raise ValueError("ratio table must be 2x6")
        ratios = ratio_arr.ravel()  # receiver j's link l at 6*j + l

    record = np.zeros((horizon // stride, 10), dtype=np.int64)
    stream = slot_stream(model, seed=seed, horizon=horizon, visible=visible,
                         delay=delay, window_len=window_len, predict=maxweight)
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
