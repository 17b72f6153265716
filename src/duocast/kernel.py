"""The slot stream, the counts-level kernel, `SimTrace`, the forgetting checks.

`slot_stream` is the one place that simulates what a slot shows the
transmitter.  It draws the initial state and the per-slot random matrix,
advances the channel, delays the feedback, folds the delayed feedback into a
belief or a window code, and gives max-weight its erasure triple for every
slot.  None of this depends on the queues, so both engines read the same
stream and differ only in how they decide and move: `run_counts` below
tracks queue lengths only, for long stability runs, and the packets engine
`harness.run_packets` moves identified packets through `queuenet`.  Both
take the same keyword arguments, checked by `check_run`, which alone says
which fields each policy reads (`POLICY_FIELDS`) and opens the run's
stream.  Both return a `SimTrace`, built by `SimTrace.from_rows`, and
their traces match slot for slot, which is tested.  The probabilistic
draw, the arrival bits and the per_state routing read the stream alone, so
both engines read one of each: `probabilistic_draws`, `arrival_bits` and
`arrival_routes`.  The counts loop runs per_state as one max-weight pass
per state, each over its own copy of the stream in which the other states'
slots and arrivals are masked out (`_served`).  The windowed-prediction
diagnostics `forgetting_check` and `prediction_gap` read the same stream
and fold its outcomes with the same `_fold`, so the channel is sampled and
filtered only here.

Both the stream and the counts loop work a chunk of CHUNK_SLOTS
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
  outcomes, in int64 (at most MAX_WINDOW_LEN pairs, so 16 bits);
- max-weight's (eps1, eps2, eps12), as a table and each slot's row in it:
  for a visible slot its key's row of the per-state `cond_erasure_visible`
  table, built once per run; for a hidden slot its own row of predictions
  from the beliefs the fold stores for each slot: elementwise products and
  sums, each starting at 0.0 and adding its terms in index order, as a
  per-slot loop does (no `@` or `.sum`, whose summation order differs);
- the probabilistic draw (`probabilistic_draws`): each slot's action (the
  leading run of cdf entries the action draw reaches) and its twelve link
  coins as a bit mask, all comparisons of draws with tables;
- the arrival bits (`arrival_bits`), and the per_state routing
  (`arrival_routes`): each arrival coin's state, a searchsorted in its
  receiver's bins;
- in the counts loop, under max-weight the five `policies.weight_factors`
  of each table row (1 - eps1, eps1 - eps12, ...), one subtraction each.

What stays serial is plain Python: the chain's state walk and the belief
fold (unrolled by `_fold`) in the stream; the decision and the moves in the
counts loop.  Neither is written here: `_count_loop` compiles one loop per
policy and largest action from the tables the packet engine reads, the
max-weight weights of `policies.WEIGHTS` and the links of
`queuenet.ACTION_LINKS`, `_CAPACITY_TABLE`, `LINK_ENDS` and `LINK_BITS`.
The loop keeps the six queues, four totals, record index and record
countdown in Python int locals for the whole run (a numpy scalar in a local
sends each mixed ``float * int`` through numpy's slow scalar path), and
reads lists made per chunk by ``tolist()``.  A slot with every queue empty
skips the decision and the moves: each max-weight weight is 0.0 there, and
each move is guarded by its queue.

The chunk length cannot change a trace: ``Generator.random`` fills the
matrix row by row, so stacked small draws equal one large draw, and what
carries over from one chunk to the next (chain state, delayed history,
belief, queues) is exactly what a per-slot loop would carry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

# cond_erasure_visible is imported for perfbench/layers.py, which wraps it in
# this module's namespace to count its calls.
from .channel import (  # noqa: F401
    ChannelModel,
    check_window_len,
    cond_erasure_visible,
    flag,
    nonnegative_int,
    positive_int,
    stationary_distribution,
    visible_stats,
)
from .policies import ACTION_SETS, WEIGHTS, weight_factors
from .queuenet import _CAPACITY_TABLE, ACTION_LINKS, LINK_BITS, LINK_ENDS

__all__ = [
    "RNG_COLUMNS",
    "CHUNK_SLOTS",
    "SimTrace",
    "arrival_bits",
    "arrival_routes",
    "check_run",
    "flag",
    "forgetting_check",
    "jit_enabled",
    "nonnegative_int",
    "positive_int",
    "prediction_gap",
    "probabilistic_draws",
    "probabilistic_tables",
    "rate_pair",
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

# Bit of each coin column 5..16 in a slot's coin mask.
_COIN_SHIFTS = np.arange(RNG_COLUMNS - 5)


def jit_enabled() -> bool:
    """False: the loops always run as plain Python (for backend stamps)."""

    return False


def rate_pair(name: str, value) -> tuple[float, float]:
    """``value`` as two floats in [0, 1]; a ValueError naming ``name`` otherwise."""

    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2
            and all(isinstance(v, (int, float, np.integer, np.floating))
                    and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{name} must be a pair of numbers [r1, r2], got {value!r}")
    r1, r2 = float(value[0]), float(value[1])
    if not (0 <= r1 <= 1 and 0 <= r2 <= 1):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return r1, r2


def slot_stream(model: ChannelModel, *, seed: int, horizon: int, visible: bool,
                delay: int, window_len: int = 0, predict: bool = False):
    """Yield ``(t0, rows, zi, key, eps)`` for each chunk of slots from t0.

    ``rows`` is the chunk's random matrix, ``zi`` each slot's erasure
    outcome index 2*z1 + z2, and ``key`` what the transmitter observes in
    that slot: the state ``delay`` slots back for a visible model (the
    initial state before then); for a hidden one the base-4 code of the
    last ``window_len`` delayed feedback pairs (oldest pair in the highest
    digit), or -1 until that many have arrived.  With ``predict``, slot i's
    (eps1, eps2, eps12) is ``table[at[i]]`` of ``eps = (table, at)``: for a
    visible model ``table`` holds each state's ``cond_erasure_visible`` row
    and ``at`` is ``key``; for a hidden one the feedback is instead folded
    into a belief, the key is 0 (or -1 until ``window_len`` pairs have
    arrived), ``table`` holds each slot's triple predicted from its belief
    and ``at`` is ``arange``; without ``predict`` both are empty.  Arrays
    per slot are CHUNK_SLOTS long but for the last chunk.
    """

    seed = nonnegative_int("seed", seed)
    horizon = positive_int("horizon", horizon)
    visible = flag("visible", visible)
    delay = positive_int("delay", delay)
    window_len = check_window_len(window_len)
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
    emis_t = tuple(map(tuple, model.emission.T.tolist()))
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
    no_eps = (np.empty((0, 3)), np.empty(0, dtype=np.int64))
    if visible and predict:
        eps_tab = np.array([(st.eps1, st.eps2, st.eps12)
                            for st in visible_stats(model, delay).values()])

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
            if predict:
                eps = (eps_tab, keys)
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
            eps = (_predict(ext[span - 1 : span - 1 + m].tolist(), belief,
                            emis_t, trans_t, pd1, ev), np.arange(m))
        yield t0, rows, zis, keys, eps
        t0 += m


def _predict(pairs, belief, emis_t, trans_t, pd1, ev):
    """Fold each slot's delayed pair into ``belief``; return (eps1, eps2, eps12).

    ``pairs`` holds the outcome index fed back at each slot, -1 for none
    yet.  The fold is serial; `_fold` runs it and updates ``belief`` in
    place.  The statistics are then computed for all slots at once, with
    elementwise products and sums that start at 0.0 and add their terms in
    index order, the order of a per-slot loop (no ``@`` or ``.sum``, whose
    summation order differs).
    """

    num_states = len(belief)
    beliefs = np.reshape(_fold(num_states)(pairs, belief, emis_t, trans_t),
                         (len(pairs), num_states))

    # The belief `delay` - 1 slots ahead, then the erasure statistics.
    eps = np.zeros((3, len(pairs)))
    for k in range(num_states):
        ahead = np.zeros(len(pairs))
        for k2 in range(num_states):
            ahead += beliefs[:, k2] * pd1[k2, k]
        for e, col in zip(eps, ev):
            e += ahead * col[k]
    return eps.T


@cache
def _fold(n: int):
    """The belief fold over ``n`` states as straight-line code, compiled once.

    ``fold(pairs, belief, emis_t, trans_t)`` folds each pair into ``belief``
    in place and returns each slot's belief, flat: a nested loop's float
    operations in its order, each sum from 0.0 (so -0.0 entries add alike).
    """

    ks = range(n)
    b = ", ".join(f"b{k}" for k in ks)
    src = "\n".join([
        "def fold(pairs, belief, emis_t, trans_t):",
        f"    {b}, = belief",
        "    " + ", ".join("(" + ", ".join(f"t{k}_{j}" for j in ks) + ",)" for k in ks)
        + ", = trans_t",
        "    flat = []",
        "    for old in pairs:",
        "        if old >= 0:",
        "            " + ", ".join(f"e{k}" for k in ks) + ", = emis_t[old]",
        *(f"            v{k} = b{k} * e{k}" for k in ks),
        "            total = 0.0 + " + " + ".join(f"v{k}" for k in ks),
        "            if total <= 0.0:",
        "                raise ValueError('feedback pair has probability zero '",
        "                                 'under the current belief')",
        *(f"            b{k} = (0.0 + " + " + ".join(f"v{j} * t{k}_{j}" for j in ks)
          + ") / total" for k in ks),
        f"        flat += {b},",
        f"    belief[:] = {b},",
        "    return flat",
    ])
    scope = {}
    exec(compile(src, f"<belief fold over {n} states>", "exec"), scope)
    return scope["fold"]


def forgetting_check(
    model: ChannelModel, window_len: int, trace_len: int, seed: int
) -> float:
    """Max total-variation gap between full-history and windowed predictions.

    Draws one trace from `slot_stream` and compares, at every slot, the
    filter run from the start against the filter restarted from the
    stationary distribution window_len slots back.  The gap is taken between
    the predicted states.
    """
    trace_len = positive_int("trace_len", trace_len)
    return _window_gap(model, window_len, trace_len, seed, None)


def prediction_gap(
    model: ChannelModel, window_len: int, horizon: int, seed: int
) -> float:
    """Max total-variation gap between erasure-pattern predictions.

    The same comparison as `forgetting_check`, with the gap taken between
    the predicted distributions of the next erasure outcome.
    """
    horizon = positive_int("horizon", horizon)
    return _window_gap(model, window_len, horizon, seed, model.emission)


def _window_gap(model, window_len, trace_len, seed, project):
    """Both diagnostics: the stream's outcomes folded by `_fold`, whole and windowed.

    The belief after slot t restarted ``window_len`` slots back is the fold
    of pairs[t + 1 - window_len : t + 1] from the stationary law; the gap is
    half the L1 norm of its difference from the full-history belief,
    projected by ``project`` when given.
    """
    window_len = positive_int("window_len", window_len)
    n = model.num_states
    stream = slot_stream(model, seed=seed, horizon=trace_len, visible=False, delay=1)
    pairs = [zi for _, _, zis, _, _ in stream for zi in zis.tolist()]
    pi = stationary_distribution(model).tolist()
    emis_t = tuple(map(tuple, model.emission.T.tolist()))
    trans_t = model.transition.T.tolist()
    fold = _fold(n)
    full = fold(pairs, list(pi), emis_t, trans_t)
    windowed = []
    for t in range(1, len(pairs) + 1):
        windowed += fold(pairs[max(0, t - window_len) : t], list(pi), emis_t,
                         trans_t)[-n:]
    diff = np.subtract(full, windowed).reshape(-1, n)
    if project is not None:
        diff = diff @ project
    return float(0.5 * np.abs(diff).sum(axis=1).max())


def probabilistic_tables(model: ChannelModel, visible: bool, window_len: int,
                         action_table, ratio_table) -> tuple[np.ndarray, np.ndarray]:
    """The probabilistic policy's tables, checked: each key's action cdf and the ratios.

    ``action_table`` needs six columns and exactly one row per observation
    key (a state of a visible ``model``, else a code of ``window_len``
    feedback pairs); a NaN row marks a key with no distribution, which
    `probabilistic_draws` rejects once the key is observed.  ``ratio_table``
    is 2x6, receiver j's link ratios in row j - 1; they come back flat, the
    ratio of link bit b at index b.
    """

    if action_table is None:
        raise ValueError("probabilistic policy needs an action_table")
    table = np.asarray(action_table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 6:
        raise ValueError("action table must have six columns")
    keys = model.num_states if visible else 4 ** window_len
    if len(table) != keys:
        raise ValueError(f"action_table needs {keys} rows, one per observation "
                         f"key, got {len(table)}")
    if ratio_table is None:
        raise ValueError("probabilistic policy needs a ratio_table")
    ratio_arr = np.asarray(ratio_table, dtype=float)
    if ratio_arr.shape != (2, 6):
        raise ValueError("ratio table must be 2x6")
    return np.cumsum(table, axis=1), ratio_arr.ravel()


def probabilistic_draws(rows: np.ndarray, keys: np.ndarray, action_cdf: np.ndarray,
                        ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's probabilistic action and 12-bit link coin mask, for one chunk.

    The draw reads the slot stream only, never the queues.  A slot's action
    is the first whose cdf entry in its key's row exceeds the action draw
    (column 4 of ``rows``): the leading run of entries the draw reaches, so
    nothing is assumed of the table; it is 0 before a key is observed (key
    -1).  Bit b of the coin mask, for receiver j's link
    12,13,14,24,32,34 at b = 6*j + l, is set when column 5 + b falls below
    ``ratios[b]``.  ``action_cdf`` and ``ratios`` are `probabilistic_tables`'.
    """

    seen = keys >= 0
    cdf = action_cdf[keys]
    # A row whose last cdf entry is not >= 0 (NaN) has no distribution.
    missing = seen & ~(cdf[:, 5] >= 0.0)
    if missing.any():
        raise ValueError(f"no action distribution for observation {keys[missing.argmax()]}")
    run = np.cumprod(rows[:, 4:5] >= cdf[:, :5], axis=1).sum(axis=1)
    coins = ((rows[:, 5:] < ratios) << _COIN_SHIFTS).sum(axis=1)
    return np.where(seen, run, 0), coins


def arrival_bits(rows: np.ndarray, rates: tuple[float, float]) -> np.ndarray:
    """Each slot's arrivals in a chunk: bit j when coin ``rows[:, j - 1]`` < its rate."""

    return (rows[:, 0] < rates[0]) + 2 * (rows[:, 1] < rates[1])


def _arrival_bins(shares: np.ndarray, rate: float) -> np.ndarray:
    """Cumulative coin thresholds that route an arrival coin u < rate."""

    total = float(shares.sum())
    if total <= 1e-15 or rate <= 0.0:
        n = len(shares)
        return rate * np.arange(1, n + 1) / n
    return rate * np.cumsum(shares) / total


def arrival_routes(rows: np.ndarray, rates: tuple[float, float],
                   shares: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each slot's per-state subsystem for both arrival coins, for one chunk.

    Column j - 1 routes receiver j's coin, ``rows[:, j - 1]``, to
    ``min(searchsorted(bins, u, "right"), n - 1)``, the bins cutting
    [0, rates[j - 1]) in proportion to the n entries of ``shares[j - 1]``.
    Only a coin below its rate is an arrival, so only its route counts.
    """

    return np.minimum(np.stack(
        [np.searchsorted(_arrival_bins(share, rate), rows[:, j], "right")
         for j, (share, rate) in enumerate(zip(shares, rates))], axis=1),
        len(shares[0]) - 1)


def _served(stream, s, rates, shares):
    """``stream`` as per-state subsystem ``s`` sees it, for a max-weight pass.

    A slot whose observed state is not ``s`` reads an appended all-erased
    row (1, 1, 1): its max-weight factors are all 0.0, so every weight is
    0.0 and the subsystem idles.  An arrival coin routed to another state
    becomes 1.0, which no rate exceeds.
    """

    for t0, rows, zis, keys, (table, at) in stream:
        mine = arrival_routes(rows, rates, shares) == s
        rows[:, :2] = np.where(mine, rows[:, :2], 1.0)
        yield t0, rows, zis, keys, (np.vstack((table, np.ones(3))),
                                    np.where(keys == s, at, len(table)))


@cache
def _count_loop(maxweight: bool, amax: int):
    """The counts loop of one policy up to action ``amax``, compiled once.

    ``count(stream, action_cdf, ratios, rates, stride, record)`` runs it over
    ``stream`` and returns the end state, laid out as a row, and the number
    of rows of ``record`` it filled, one every ``stride``-th slot.  Each
    chunk first does in numpy what does not depend on the queues; the slot
    loop then decides and moves.  Under max-weight (``action_cdf`` None) a
    slot's (eps1, eps2, eps12) is row ``at[i]`` of the stream's ``(table,
    at)``, visible or hidden alike, and its action the first of largest
    positive `WEIGHTS` entry; otherwise ``action_cdf`` and ``ratios`` are
    `probabilistic_tables`', and the action is drawn.

    An action moves a count over each of its `ACTION_LINKS` that
    `_CAPACITY_TABLE` admits under the slot's outcome and that the policy
    activates from a nonempty source: under max-weight when the source
    exceeds the destination (`LINK_ENDS`, the exit counting 0), otherwise
    when the link's coin bit is set.  The links of one receiver admit
    disjoint outcomes (tested), so at most one of them moves, and one `if`
    per link reads the queues as they were before the slot's moves.  The
    loop names receiver 1's queues q1, q2, q3 a1, a2, a3 and receiver 2's
    b1, b2, b3, as `WEIGHTS` does; arrivals join at the end of the slot.
    """

    def move(action, j, link):
        q = [f"{'ab'[j - 1]}{i}" for i in (1, 2, 3)]
        src, dst = LINK_ENDS[link]
        bit = LINK_BITS[j, link]
        admits = tuple(zi for zi in range(4) if _CAPACITY_TABLE[action][zi] & bit)
        intent = (f"{q[src]} > {0 if dst is None else q[dst]}" if maxweight
                  else f"{q[src]} > 0 and coin & {bit}")
        return [f"if zi in {admits} and {intent}:", f"    {q[src]} -= 1",
                f"    {f'out{j}' if dst is None else q[dst]} += 1"]

    if maxweight:
        draw = ("weights = map(np.stack(weight_factors(*eps[0].T), axis=1).tolist()"
                ".__getitem__, eps[1].tolist())")
        slot = "zi, arrived, terms in zip(zis.tolist(), arrivals, weights)"
        body = ["c1, g1, c2, g2, c12 = terms", "action = 0", "best = 0.0"]
        for action in range(1, amax + 1):
            body += [f"w = {WEIGHTS[action]}", "if w > best:", "    best = w",
                     f"    action = {action}"]
    else:
        draw = ("actions, coins = (draw.tolist() for draw in "
                "probabilistic_draws(rows, keys, action_cdf, ratios))")
        slot = "zi, arrived, action, coin in zip(zis.tolist(), arrivals, actions, coins)"
        body = []
    for action in range(1, amax + 1):
        body.append(f"{'el' if action > 1 else ''}if action == {action}:")
        body += ["    " + line for j, link in ACTION_LINKS[action]
                 for line in move(action, j, link)]
    src = "\n".join([
        "def count(stream, action_cdf, ratios, rates, stride, record):",
        "    a1 = a2 = a3 = b1 = b2 = b3 = 0",
        "    in1 = in2 = out1 = out2 = 0",
        "    idx = 0",
        "    left = stride",
        "    for _, rows, zis, keys, eps in stream:",
        "        arrivals = arrival_bits(rows, rates).tolist()",
        f"        {draw}",
        f"        for {slot}:",
        "            if a1 or a2 or a3 or b1 or b2 or b3:",
        *("                " + line for line in body),
        "            if arrived:",
        "                if arrived & 1:",
        "                    a1 += 1",
        "                    in1 += 1",
        "                if arrived & 2:",
        "                    b1 += 1",
        "                    in2 += 1",
        "            left -= 1",
        "            if left == 0:",
        "                left = stride",
        "                record[idx] = (a1, a2, a3, b1, b2, b3, in1, in2, out1, out2)",
        "                idx += 1",
        "    return (a1, a2, a3, b1, b2, b3, in1, in2, out1, out2), idx",
    ])
    scope = dict(np=np, weight_factors=weight_factors, arrival_bits=arrival_bits,
                 probabilistic_draws=probabilistic_draws)
    policy = "max-weight" if maxweight else "probabilistic"
    exec(compile(src, f"<{policy} counts loop up to action {amax}>", "exec"), scope)
    return scope["count"]


@dataclass
class SimTrace:
    """Recorded queue history of one run, from either engine.

    ``record`` rows: q1/q2/q3 for receiver 1, q1/q2/q3 for receiver 2,
    cumulative arrivals (both receivers), cumulative exits (both),
    sampled every ``stride`` slots after arrivals join.
    """

    horizon: int
    stride: int
    times: np.ndarray
    record: np.ndarray
    final_queues: np.ndarray
    arrivals: np.ndarray
    exits: np.ndarray
    audit_passed: bool | None = None

    @classmethod
    def from_rows(cls, horizon: int, stride: int, record: np.ndarray, end,
                  audit_passed: bool | None = None) -> "SimTrace":
        """The trace of a run's ``record`` rows and its end row, laid out alike."""

        end = np.array(end, dtype=np.int64)
        return cls(
            horizon=horizon,
            stride=stride,
            times=stride * np.arange(1, len(record) + 1, dtype=np.int64),
            record=record,
            final_queues=end[:6].reshape(2, 3),
            arrivals=end[6:8],
            exits=end[8:],
            audit_passed=audit_passed,
        )

    @property
    def backlog(self) -> np.ndarray:
        return self.record[:, :6].sum(axis=1)

    def delivered_rate(self, j: int) -> float:
        return float(self.exits[j - 1]) / self.horizon

    def check_conservation(self) -> None:
        backlog = self.backlog
        inflow = self.record[:, 6] + self.record[:, 7]
        outflow = self.record[:, 8] + self.record[:, 9]
        if not np.array_equal(inflow, backlog + outflow):
            raise AssertionError("arrivals != backlog + exits at a recorded slot")
        if int(self.arrivals.sum()) != int(self.final_queues.sum()) + int(
            self.exits.sum()
        ):
            raise AssertionError("final conservation identity violated")
        if (np.diff(self.record[:, 6:10], axis=0) < 0).any():
            raise AssertionError("cumulative counters must be nondecreasing")

    def to_csv(self) -> str:
        header = (
            "t,q1_rx1,q2_rx1,q3_rx1,q1_rx2,q2_rx2,q3_rx2,"
            "arrivals_rx1,arrivals_rx2,exits_rx1,exits_rx2"
        )
        lines = [header]
        for t, row in zip(self.times, self.record):
            lines.append(f"{int(t)}," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


# The fields each policy reads.  Both engines take `check_run`'s keyword
# arguments, and a policy given a field it does not read rejects it.
POLICY_FIELDS = {
    "maxweight": ("action_set",),
    "probabilistic": ("action_table", "ratio_table", "window_len"),
    "per_state": ("shares",),
}


@dataclass(frozen=True)
class CheckedRun:
    """What an engine reads of its keyword arguments, checked by `check_run`.

    ``stream()`` opens the run's `slot_stream`, which codes the window the
    policy reads and predicts max-weight's triples for every other policy.
    """

    rates: tuple[float, float]
    horizon: int
    stride: int
    action_set: str
    action_cdf: np.ndarray | None
    ratios: np.ndarray | None
    shares: np.ndarray | None
    stream: Callable


def check_run(model: ChannelModel, *, rates: tuple[float, float], horizon: int, seed: int,
              visible: bool = True, delay: int = 1, policy: str = "maxweight",
              action_set: str | None = None, action_table: np.ndarray | None = None,
              ratio_table: np.ndarray | None = None, window_len: int | None = None,
              shares: tuple[np.ndarray, np.ndarray] | None = None,
              stride: int | None = None) -> CheckedRun:
    """Both engines' keyword arguments, checked; a ValueError names a bad field.

    ``policy`` is "maxweight" (with ``action_set``, A5 by default),
    "probabilistic" (with ``action_table`` rows indexed by observation key
    and ``ratio_table`` of per-link activation probabilities) or
    "per_state" (with ``shares``).  For a hidden model, the probabilistic
    policy's observation key is the base-4 code of the last ``window_len``
    feedback pairs, oldest pair in the highest digit; a visible model
    observes its state and takes no window.  per_state needs a visible
    model: it runs one A3 max-weight subsystem per state, served when the
    observed state is its own, and ``shares`` holds each state's share of
    receiver 1's and 2's arrivals, routed by `arrival_routes`.  A record
    is kept every ``stride`` slots, by default about 512 per run.
    """

    rates = rate_pair("rates", rates)
    seed = nonnegative_int("seed", seed)
    horizon = positive_int("horizon", horizon)
    visible = flag("visible", visible)
    delay = positive_int("delay", delay)
    stride = max(1, horizon // 512) if stride is None else positive_int("stride", stride)
    if policy not in POLICY_FIELDS:
        raise ValueError(f"unknown policy {policy!r}")
    given = dict(action_set=action_set, action_table=action_table,
                 ratio_table=ratio_table, window_len=window_len, shares=shares)
    for name, value in given.items():
        if value is not None and name not in POLICY_FIELDS[policy]:
            raise ValueError(f"{name} is not read by the {policy} policy")
    window_len = check_window_len(0 if window_len is None else window_len)
    action_set = "A5" if action_set is None else action_set
    action_cdf = ratios = None
    if policy == "maxweight":
        if action_set not in ACTION_SETS:
            raise ValueError(
                f"action_set must be one of {', '.join(ACTION_SETS)}, got {action_set!r}")
    elif policy == "per_state":
        if not visible:
            raise ValueError("per_state policy needs a visible model, got visible=False")
        if shares is None:
            raise ValueError("per_state policy needs shares, one row per receiver")
        try:
            arr = np.asarray(shares, dtype=float)
        except (TypeError, ValueError):
            arr = np.empty(0)
        n = model.num_states
        if arr.shape != (2, n) or not (np.isfinite(arr) & (arr >= 0.0)).all():
            raise ValueError(f"shares must be two rows of {n} nonnegative numbers, "
                             f"one per state, got {shares!r}")
        action_set, shares = "A3", arr
    else:
        if visible and window_len:
            raise ValueError("window_len is not read on a visible model")
        action_cdf, ratios = probabilistic_tables(model, visible, window_len,
                                                  action_table, ratio_table)
    stream = partial(slot_stream, model, seed=seed, horizon=horizon, visible=visible,
                     delay=delay, window_len=window_len, predict=action_cdf is None)
    return CheckedRun(rates, horizon, stride, action_set, action_cdf, ratios, shares,
                      stream)


def run_counts(model: ChannelModel, **fields) -> SimTrace:
    """Simulate the queue counts of a coding scheme over ``horizon`` slots.

    ``fields`` are `check_run`'s keyword arguments, which `harness.run_packets`
    takes too.  per_state runs one pass of the counts loop per state, each
    over its own copy of the stream, drawn from the same seed, and the
    passes' counts are summed.
    """

    run = check_run(model, **fields)
    passes = ([_served(run.stream(), s, run.rates, run.shares)
               for s in range(model.num_states)]
              if run.shares is not None else [run.stream()])
    record = np.zeros((run.horizon // run.stride, 10), dtype=np.int64)
    end = np.zeros(10, dtype=np.int64)
    count = _count_loop(run.action_cdf is None, max(ACTION_SETS[run.action_set]))
    for part in passes:
        counts = np.zeros_like(record)
        part_end, rows = count(part, run.action_cdf, run.ratios, run.rates, run.stride,
                               counts)
        record += counts
        end += part_end
    if sum(end[6:8]) != sum(end[:6]) + sum(end[8:]):
        raise AssertionError("conservation violated in counts kernel")
    return SimTrace.from_rows(run.horizon, run.stride, record[:rows], end)
