"""Packet-level queue network for the two-receiver broadcast coding schemes.

The network tracks actual packet identities and XOR combinations so that a
run can be audited: every packet counted as delivered must be decodable from
the raw receptions of its receiver.  Queue movements follow the link/flow
model exactly: a packet moves over link (l, m) for receiver j in a slot iff
the link is admissible under the chosen action and erasure pattern (C), the
policy activated it (E), and the source queue is nonempty.

Every per-slot set of links (the admissible, the intended and the moved) is
a 12-bit int, with bit ``6*(j-1) + l`` for receiver j's link
``LINK_NAMES[l]``: the layout of the counts kernel's coin mask, whose coin
for that bit is random-matrix column ``5 + bit`` and whose ratio is
``ratio_table.ravel()[bit]``.  `link_mask` and `link_flags` convert such a
mask from and to a ``{(j, link): flag}`` dict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "LINK_NAMES",
    "LINK_ENDS",
    "LINK_BITS",
    "ACTION_LINKS",
    "ALLOWED_LINKS",
    "Packet",
    "RelayEntry",
    "DegEntry",
    "ReceiverKnowledge",
    "QueueNetwork",
    "SlotFlows",
    "link_mask",
    "link_flags",
    "compute_capacities",
    "apply_slot",
    "flow_divergence",
    "audit_decodability",
]

# Each link's (source, destination) as indices into one receiver's
# (q1, q2, q3); None stands for the exit q4.  The order is the bit order.
LINK_ENDS: dict[str, tuple[int, int | None]] = {
    "12": (0, 1),
    "13": (0, 2),
    "14": (0, None),
    "24": (1, None),
    "32": (2, 1),
    "34": (2, None),
}

LINK_NAMES = tuple(LINK_ENDS)

# Each (receiver, link) key's bit in a link mask.
LINK_BITS: dict[tuple[int, str], int] = {
    (j, link): 1 << (6 * (j - 1) + l) for j in (1, 2) for l, link in enumerate(LINK_NAMES)
}

# Each receiver's link bits by link name, for the moves of one side.
_BITS: dict[int, dict[str, int]] = {
    j: {link: LINK_BITS[j, link] for link in LINK_NAMES} for j in (1, 2)
}


def link_mask(flags: Mapping[tuple[int, str], int]) -> int:
    """The mask of the (receiver, link) keys whose flag is nonzero."""

    mask = 0
    for key, flag in flags.items():
        if key not in LINK_BITS:
            raise ValueError(f"unknown link {key!r}")
        if flag:
            mask |= LINK_BITS[key]
    return mask


def link_flags(mask: int) -> dict[tuple[int, str], int]:
    """Every (receiver, link) key with its bit of ``mask``, 0 or 1."""

    return {key: 1 if mask & bit else 0 for key, bit in LINK_BITS.items()}


def _describe(mask: int) -> str:
    """The lowest set bit of a nonzero ``mask``, as receiver and link."""

    bit = (mask & -mask).bit_length() - 1
    if bit >= len(LINK_BITS):
        return f"bit {bit} (no link)"
    j, l = divmod(bit, len(LINK_NAMES))
    return f"link {LINK_NAMES[l]} for receiver {j + 1}"


# Links that may carry an activation intent under each action.
ACTION_LINKS: dict[int, tuple[tuple[int, str], ...]] = {
    0: (),
    1: ((1, "14"), (1, "12")),
    2: ((2, "14"), (2, "12")),
    3: ((1, "24"), (2, "24")),
    4: ((1, "13"), (2, "13")),
    5: ((1, "32"), (1, "34"), (2, "32"), (2, "34")),
}

# The same links as one mask per action, for the per-slot intent checks.
ALLOWED_LINKS: tuple[int, ...] = tuple(
    link_mask(dict.fromkeys(ACTION_LINKS[action], 1)) for action in range(6)
)


@dataclass(frozen=True)
class Packet:
    """An original information packet destined for one receiver."""

    pid: int
    session: int

    def __post_init__(self) -> None:
        if self.session not in (1, 2):
            raise ValueError("session must be 1 or 2")

    @property
    def content(self) -> int:
        # GF(2) combination encoded as a bitmask over packet ids.
        return 1 << self.pid


@dataclass(frozen=True)
class RelayEntry:
    """Entry of a side queue q2: overheard by the other receiver.

    ``content`` is what a retransmission of this entry puts on the wire.  For
    an original entry it equals ``packet.content``; a replacement carries a
    different combination that the destination can convert into the packet.
    """

    packet: Packet
    content: int
    replacement: bool = False


@dataclass(frozen=True)
class DegEntry:
    """Entry of a degenerate coding queue q3: a packet without a partner."""

    packet: Packet
    content: int


class ReceiverKnowledge:
    """Everything one receiver has heard, with GF(2) span queries."""

    def __init__(self) -> None:
        self.combos: list[int] = []
        self._basis: dict[int, int] = {}

    def _reduce(self, combo: int) -> int:
        while combo:
            top = combo.bit_length() - 1
            row = self._basis.get(top)
            if row is None:
                return combo
            combo ^= row
        return 0

    def add(self, combo: int) -> None:
        self.combos.append(combo)
        residue = self._reduce(combo)
        if residue:
            self._basis[residue.bit_length() - 1] = residue

    def knows(self, combo: int) -> bool:
        return self._reduce(combo) == 0


class QueueNetwork:
    """Per-receiver queues q1 (fresh), q2 (overheard), q3 (coded), q4 (done)."""

    def __init__(self) -> None:
        self.q1: dict[int, deque[Packet]] = {1: deque(), 2: deque()}
        self.q2: dict[int, deque[RelayEntry]] = {1: deque(), 2: deque()}
        self.q3_pairs: deque[tuple[Packet, Packet]] = deque()
        self.q3_deg: dict[int, deque[DegEntry]] = {1: deque(), 2: deque()}
        self.exits: list[tuple[Packet, int]] = []
        self.knowledge: dict[int, ReceiverKnowledge] = {
            1: ReceiverKnowledge(),
            2: ReceiverKnowledge(),
        }
        self.arrivals: dict[int, int] = {1: 0, 2: 0}
        self.exit_counts: dict[int, int] = {1: 0, 2: 0}
        self._next_pid = 0

    def new_arrival(self, session: int) -> Packet:
        packet = Packet(self._next_pid, session)
        self._next_pid += 1
        self.q1[session].append(packet)
        self.arrivals[session] += 1
        return packet

    def q1_len(self, j: int) -> int:
        return len(self.q1[j])

    def q2_len(self, j: int) -> int:
        return len(self.q2[j])

    def q3_len(self, j: int) -> int:
        return len(self.q3_pairs) + len(self.q3_deg[j])

    def queue_lengths(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        # Read once per slot by max-weight, so the lengths are read inline.
        pairs = len(self.q3_pairs)
        q1, q2, deg = self.q1, self.q2, self.q3_deg
        return (
            (len(q1[1]), len(q2[1]), pairs + len(deg[1])),
            (len(q1[2]), len(q2[2]), pairs + len(deg[2])),
        )

    def backlog(self) -> int:
        return sum(self.q1_len(j) + self.q2_len(j) + self.q3_len(j) for j in (1, 2))

    def check_invariants(self, deep: bool = False) -> None:
        for j in (1, 2):
            stored = self.q1_len(j) + self.q2_len(j) + self.q3_len(j)
            if stored + self.exit_counts[j] != self.arrivals[j]:
                raise AssertionError(f"conservation violated for receiver {j}")
        seen: set[int] = set()
        for j in (1, 2):
            for packet in self.q1[j]:
                if packet.session != j or packet.pid in seen:
                    raise AssertionError("bad q1 entry")
                seen.add(packet.pid)
            for entry in self.q2[j]:
                if entry.packet.session != j or entry.packet.pid in seen:
                    raise AssertionError("bad q2 entry")
                seen.add(entry.packet.pid)
            for entry in self.q3_deg[j]:
                if entry.packet.session != j or entry.packet.pid in seen:
                    raise AssertionError("bad q3 entry")
                seen.add(entry.packet.pid)
        for first, second in self.q3_pairs:
            if first.session != 1 or second.session != 2:
                raise AssertionError("pair sides swapped")
            if first.pid in seen or second.pid in seen:
                raise AssertionError("packet in two queues")
            seen.add(first.pid)
            seen.add(second.pid)
        for packet, _ in self.exits:
            if packet.pid in seen:
                raise AssertionError("exited packet still queued")
        if deep:
            for j in (1, 2):
                other = self.knowledge[2 if j == 1 else 1]
                for entry in self.q2[j]:
                    if not other.knows(entry.content):
                        raise AssertionError("q2 content unknown at other receiver")


@dataclass(slots=True)
class SlotFlows:
    """Per-slot link masks: admissible (C), intended (E) and moved links."""

    capacities: int
    intents: int
    effective: int = 0

    def cap(self, j: int, link: str) -> int:
        return 1 if self.capacities & LINK_BITS[j, link] else 0

    def flow(self, j: int, link: str) -> int:
        return 1 if self.capacities & self.intents & LINK_BITS[j, link] else 0

    def moved(self, j: int, link: str) -> int:
        return 1 if self.effective & LINK_BITS[j, link] else 0


def _capacity_formula(action: int, z1: int, z2: int) -> dict[tuple[int, str], int]:
    caps: dict[tuple[int, str], int] = {}
    for j, own, othr in ((1, z1, z2), (2, z2, z1)):
        caps[(j, "12")] = 1 if action == j and own == 1 and othr == 0 else 0
        caps[(j, "13")] = 1 if action == 4 and not (z1 == 1 and z2 == 1) else 0
        caps[(j, "14")] = 1 if action == j and own == 0 else 0
        caps[(j, "24")] = 1 if action == 3 and own == 0 else 0
        caps[(j, "32")] = 1 if action == 5 and own == 1 and othr == 0 else 0
        caps[(j, "34")] = 1 if action == 5 and own == 0 else 0
    return caps


# The formula's mask for each action and outcome index 2*z1 + z2, built once.
_CAPACITY_TABLE: tuple[tuple[int, ...], ...] = tuple(
    tuple(link_mask(_capacity_formula(action, z1, z2)) for z1 in (0, 1) for z2 in (0, 1))
    for action in range(6)
)


def _capacity_mask(action: int, z: tuple[int, int]) -> int:
    if action not in range(6):
        raise ValueError(f"unknown action {action}")
    z1, z2 = z
    if z1 not in (0, 1) or z2 not in (0, 1):
        raise ValueError("erasure flags must be 0 or 1")
    return _CAPACITY_TABLE[action][2 * int(z1) + int(z2)]


def compute_capacities(action: int, z: tuple[int, int]) -> dict[tuple[int, str], int]:
    """Which links the channel admits this slot, given action and erasures."""

    return link_flags(_capacity_mask(action, z))


def _other(j: int) -> int:
    return 2 if j == 1 else 1


# Remedy content for serving two unpaired coded-queue entries, keyed by which
# receivers currently know each entry's content.  Values name the combination
# to send: side-1 content, side-2 content, or their XOR.
_DEG_REMEDY: dict[tuple[frozenset[int], frozenset[int]], str] = {
    (frozenset({1}), frozenset({1})): "c2",
    (frozenset({1}), frozenset({2})): "c2",
    (frozenset({1}), frozenset({1, 2})): "c1",
    (frozenset({2}), frozenset({1})): "xor",
    (frozenset({2}), frozenset({2})): "c1",
    (frozenset({2}), frozenset({1, 2})): "c1",
    (frozenset({1, 2}), frozenset({1})): "c2",
    (frozenset({1, 2}), frozenset({2})): "c2",
    (frozenset({1, 2}), frozenset({1, 2})): "c1",
}


class _SlotContext:
    """One slot's state: ``active`` is the admissible intended links, ``moved``
    the links a packet moved over, both as link masks."""

    __slots__ = ("net", "z", "caps", "intents", "active", "moved", "moves", "exits")

    def __init__(self, net: QueueNetwork, z: tuple[int, int], caps: int,
                 intents: int) -> None:
        self.net = net
        self.z = z
        self.caps = caps
        self.intents = intents
        self.active = caps & intents
        self.moved = 0
        self.moves: list[tuple[int, int, str, str]] = []
        self.exits: list[tuple[Packet, int]] = []

    def broadcast(self, content: int | None) -> None:
        if content is None:
            return
        for j in (1, 2):
            if self.z[j - 1] == 0:
                self.net.knowledge[j].add(content)

    def record(self, packet: Packet, j: int, src: str, dst: str) -> None:
        self.moves.append((packet.pid, j, src, dst))

    def exit_packet(self, packet: Packet, src: str) -> None:
        j = packet.session
        if not self.net.knowledge[j].knows(packet.content):
            raise RuntimeError(
                f"internal error: packet {packet.pid} exited at receiver {j} "
                "without being decodable there"
            )
        self.net.exits.append((packet, j))
        self.net.exit_counts[j] += 1
        self.exits.append((packet, j))
        self.record(packet, j, src, "q4")

    def relay(self, packet: Packet, wire: int, src: str) -> None:
        """Move a packet into q2 after its slot content reached the other side."""

        net = self.net
        j = packet.session
        if net.knowledge[_other(j)].knows(packet.content):
            entry = RelayEntry(packet, packet.content, replacement=False)
        else:
            # The destination must be able to turn the carried combination
            # into the packet on delivery, unless it already holds the packet
            # and the entry is a pure accounting token.
            convertible = net.knowledge[j].knows(packet.content ^ wire)
            released = net.knowledge[j].knows(packet.content)
            if not (convertible or released):
                raise RuntimeError(
                    "internal error: replacement entry would not be decodable "
                    f"for packet {packet.pid}"
                )
            entry = RelayEntry(packet, wire, replacement=True)
        net.q2[j].append(entry)
        self.record(packet, j, src, "q2")


def _knowers(net: QueueNetwork, combo: int) -> frozenset[int]:
    return frozenset(j for j in (1, 2) if net.knowledge[j].knows(combo))


def _apply_uncoded(ctx: _SlotContext, j: int) -> None:
    net = ctx.net
    packet = net.q1[j][0] if net.q1[j] else None
    ctx.broadcast(packet.content if packet else None)
    if packet is None:
        return
    bits = _BITS[j]
    if ctx.active & bits["14"]:
        net.q1[j].popleft()
        ctx.exit_packet(packet, "q1")
        ctx.moved |= bits["14"]
    elif ctx.active & bits["12"]:
        net.q1[j].popleft()
        ctx.relay(packet, packet.content, "q1")
        ctx.moved |= bits["12"]


def _apply_reactive(ctx: _SlotContext) -> None:
    net = ctx.net
    heads = {j: (net.q2[j][0] if net.q2[j] else None) for j in (1, 2)}
    wire = 0
    for entry in heads.values():
        if entry is not None:
            wire ^= entry.content
    ctx.broadcast(wire if any(heads.values()) else None)
    for j in (1, 2):
        entry = heads[j]
        if entry is not None and ctx.active & _BITS[j]["24"]:
            net.q2[j].popleft()
            ctx.exit_packet(entry.packet, "q2")
            ctx.moved |= _BITS[j]["24"]


def _apply_proactive(ctx: _SlotContext) -> None:
    net = ctx.net
    sides = [j for j in (1, 2) if ctx.intents & _BITS[j]["13"] and net.q1[j]]
    wire = 0
    for j in sides:
        wire ^= net.q1[j][0].content
    ctx.broadcast(wire if sides else None)
    moved = [j for j in sides if ctx.caps & _BITS[j]["13"]]
    if not moved:
        return
    if len(moved) == 2:
        first = net.q1[1].popleft()
        second = net.q1[2].popleft()
        net.q3_pairs.append((first, second))
        for j, packet in ((1, first), (2, second)):
            ctx.record(packet, j, "q1", "q3")
            ctx.moved |= _BITS[j]["13"]
    else:
        j = moved[0]
        packet = net.q1[j].popleft()
        net.q3_deg[j].append(DegEntry(packet, packet.content))
        ctx.record(packet, j, "q1", "q3")
        ctx.moved |= _BITS[j]["13"]


def _serve_side(ctx: _SlotContext, j: int, packet: Packet, wire: int) -> bool:
    """Try to move one coded-queue side out; returns True if it moved."""

    bits = _BITS[j]
    if ctx.active & bits["34"]:
        ctx.exit_packet(packet, "q3")
        ctx.moved |= bits["34"]
        return True
    if ctx.active & bits["32"]:
        ctx.relay(packet, wire, "q3")
        ctx.moved |= bits["32"]
        return True
    return False


def _apply_coded_pair(ctx: _SlotContext) -> None:
    net = ctx.net
    first, second = net.q3_pairs[0]
    poison = first.content ^ second.content
    known = _knowers(net, poison)
    if not known:
        raise RuntimeError("internal error: coded pair known nowhere")
    wire = second.content if known == {1} else first.content
    ctx.broadcast(wire)
    moved = {j: _serve_side(ctx, j, packet, wire)
             for j, packet in ((1, first), (2, second))}
    if not any(moved.values()):
        return
    net.q3_pairs.popleft()
    for j, packet in ((1, first), (2, second)):
        if moved[j]:
            continue
        # Partner left; survivor becomes a lone coded entry.  Keep its own
        # content when some receiver already knows it, otherwise carry the
        # remedy just sent, which the poison at the destination converts.
        if _knowers(net, packet.content):
            net.q3_deg[j].append(DegEntry(packet, packet.content))
        else:
            if not net.knowledge[j].knows(packet.content ^ wire):
                raise RuntimeError(
                    "internal error: lone coded entry would not be decodable "
                    f"for packet {packet.pid}"
                )
            net.q3_deg[j].append(DegEntry(packet, wire))


def _apply_coded_two_lone(ctx: _SlotContext) -> None:
    net = ctx.net
    e1 = net.q3_deg[1][0]
    e2 = net.q3_deg[2][0]
    k1 = _knowers(net, e1.content)
    k2 = _knowers(net, e2.content)
    if not k1 or not k2:
        raise RuntimeError("internal error: lone coded entry known nowhere")
    choice = _DEG_REMEDY[(k1, k2)]
    wire = {"c1": e1.content, "c2": e2.content, "xor": e1.content ^ e2.content}[choice]
    ctx.broadcast(wire)
    for j, entry in ((1, e1), (2, e2)):
        if _serve_side(ctx, j, entry.packet, wire):
            net.q3_deg[j].popleft()


def _apply_coded_one_lone(ctx: _SlotContext, j: int) -> None:
    net = ctx.net
    entry = net.q3_deg[j][0]
    ctx.broadcast(entry.content)
    if _serve_side(ctx, j, entry.packet, entry.content):
        net.q3_deg[j].popleft()


def _apply_coded(ctx: _SlotContext) -> None:
    net = ctx.net
    if net.q3_pairs:
        _apply_coded_pair(ctx)
    elif net.q3_deg[1] and net.q3_deg[2]:
        _apply_coded_two_lone(ctx)
    elif net.q3_deg[1] or net.q3_deg[2]:
        _apply_coded_one_lone(ctx, 1 if net.q3_deg[1] else 2)


def apply_slot(
    net: QueueNetwork,
    action: int,
    z: tuple[int, int],
    intents: int = 0,
) -> tuple[SlotFlows, list[tuple[int, int, str, str]], list[tuple[Packet, int]]]:
    """Run one transmission slot and move packets accordingly.

    ``z`` is the realized erasure pattern (1 means erased).  ``intents`` is
    the link mask of the activated links; a link that the action cannot
    serve is rejected.  Returns the slot's link masks, its moves as
    ``(pid, receiver, from, to)`` tuples, and the packets delivered.
    """

    caps = _capacity_mask(action, z)
    foreign = intents & ~ALLOWED_LINKS[action]
    if foreign:
        raise ValueError(f"{_describe(foreign)} cannot be activated under "
                         f"action {action}")
    if action == 0:
        # Idle: nothing is sent and nothing moves.
        return SlotFlows(caps, intents), [], []

    ctx = _SlotContext(net, z, caps, intents)
    if action in (1, 2):
        _apply_uncoded(ctx, action)
    elif action == 3:
        _apply_reactive(ctx)
    elif action == 4:
        _apply_proactive(ctx)
    elif action == 5:
        _apply_coded(ctx)

    return SlotFlows(caps, intents, ctx.moved), ctx.moves, ctx.exits


def flow_divergence(flows: SlotFlows, queue: int, j: int) -> int:
    """Net outflow of queue 1, 2, or 3 for receiver j in one slot."""

    if queue == 1:
        return flows.moved(j, "12") + flows.moved(j, "13") + flows.moved(j, "14")
    if queue == 2:
        return flows.moved(j, "24") - flows.moved(j, "12") - flows.moved(j, "32")
    if queue == 3:
        return flows.moved(j, "32") + flows.moved(j, "34") - flows.moved(j, "13")
    raise ValueError("queue must be 1, 2, or 3")


def audit_decodability(net: QueueNetwork) -> bool:
    """Check every delivered packet against its receiver's raw receptions."""

    basis: dict[int, ReceiverKnowledge] = {1: ReceiverKnowledge(), 2: ReceiverKnowledge()}
    for j in (1, 2):
        for combo in net.knowledge[j].combos:
            basis[j].add(combo)
    return all(basis[j].knows(packet.content) for packet, j in net.exits)
