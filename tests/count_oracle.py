"""The hand-written counts loop and max-weight weights the compiled ones are tested against.

`_count` and `_weight_terms` are the counts loop as it was before
`kernel._count_loop` generated it from the policy and link tables, and
`action_weights` is the hand formula that `policies.WEIGHTS` replaced.
Their text is kept as it was, so the tests compare the generated code
with an independent copy of each rule, float for float.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from duocast.kernel import arrival_bits, probabilistic_draws


def _count(stream, amax, action_cdf, ratios, rates, stride, record):
    """Run the counts loop over ``stream``; return the end state and rows filled.

    ``action_cdf`` is None under max-weight, which reads each slot's (eps1,
    eps2, eps12) from the stream's ``(table, at)``, visible or hidden alike;
    otherwise it and ``ratios`` are the probabilistic policy's tables, as
    `probabilistic_tables` gives them.  Each chunk first does in numpy what
    does not depend on the queues; the slot loop then decides and moves.
    Every ``stride``-th slot fills the next row of ``record``; the end state
    is laid out as a row.
    """

    maxweight = action_cdf is None
    if maxweight:
        actions = coins = repeat(0)
    else:
        weights = repeat(None)
    # Queues q1, q2, q3 of receiver 1 (a) and receiver 2 (b), arrivals, exits.
    a1 = a2 = a3 = b1 = b2 = b3 = 0
    in1 = in2 = out1 = out2 = 0
    idx = 0
    left = stride  # slots up to and including the next record
    for _, rows, zis, keys, eps in stream:
        # Queue-independent work, per chunk: arrival bits (1 receiver 1,
        # 2 receiver 2); under max-weight the factors of each table row's
        # weights; under the probabilistic policy each slot's action and coin
        # mask.
        arrivals = arrival_bits(rows, rates).tolist()
        if maxweight:
            # Max-weight always observes (a visible key is a state, the hidden
            # belief waits for no window); slot i weighs row at[i] of the table.
            weights = map(_weight_terms(eps[0]).tolist().__getitem__, eps[1].tolist())
        else:
            actions, coins = (draw.tolist() for draw in
                              probabilistic_draws(rows, keys, action_cdf, ratios))
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


def action_weights(queues: QueueLengths, eps: ErasureTriple) -> list[float]:
    """Expected backlog relief of each action, indexed 0..5.

    ``eps`` is the slot's (eps1, eps2, eps12).  Each bracket
    ``(a - b if a > b else 0)`` is the positive part of ``a - b``.
    """

    (q11, q21, q31), (q12, q22, q32) = queues
    e1, e2, e12 = eps
    w1 = (1 - e1) * q11 + (e1 - e12) * (q11 - q21 if q11 > q21 else 0)
    w2 = (1 - e2) * q12 + (e2 - e12) * (q12 - q22 if q12 > q22 else 0)
    w3 = (1 - e1) * q21 + (1 - e2) * q22
    w4 = (1 - e12) * (
        (q11 - q31 if q11 > q31 else 0) + (q12 - q32 if q12 > q32 else 0)
    )
    w5 = (
        (e1 - e12) * (q31 - q21 if q31 > q21 else 0)
        + (1 - e1) * q31
        + (e2 - e12) * (q32 - q22 if q32 > q22 else 0)
        + (1 - e2) * q32
    )
    return [0.0, w1, w2, w3, w4, w5]
