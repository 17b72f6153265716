"""Tests for the packet-level queue network engine."""

import numpy as np
import pytest

from duocast.queuenet import (
    _CAPACITY_TABLE,
    ACTION_LINKS,
    ALLOWED_LINKS,
    LINK_BITS,
    LINK_NAMES,
    DegEntry,
    Packet,
    QueueNetwork,
    ReceiverKnowledge,
    SlotFlows,
    apply_slot,
    audit_decodability,
    compute_capacities,
    flow_divergence,
    link_flags,
    link_mask,
)

FULL_A5 = link_mask({(1, "32"): 1, (1, "34"): 1, (2, "32"): 1, (2, "34"): 1})
FULL_A4 = link_mask({(1, "13"): 1, (2, "13"): 1})
FULL_A3 = link_mask({(1, "24"): 1, (2, "24"): 1})


def uncoded_intents(j):
    return link_mask({(j, "14"): 1, (j, "12"): 1})


def make_pair(z_poison=(0, 1)):
    """Network holding one coded pair created from a poison slot."""

    net = QueueNetwork()
    pl = net.new_arrival(1)
    pm = net.new_arrival(2)
    apply_slot(net, 4, z_poison, FULL_A4)
    assert len(net.q3_pairs) == 1
    return net, pl, pm


class TestCapacities:
    def test_uncoded_delivery(self):
        caps = compute_capacities(1, (0, 1))
        assert caps[(1, "14")] == 1
        assert caps[(1, "12")] == 0
        assert sum(caps.values()) == 1

    def test_uncoded_overheard(self):
        caps = compute_capacities(1, (1, 0))
        assert caps[(1, "12")] == 1
        assert caps[(1, "14")] == 0

    def test_uncoded_session_two(self):
        caps = compute_capacities(2, (0, 1))
        assert caps[(2, "12")] == 1
        assert caps[(2, "14")] == 0
        assert caps[(1, "12")] == 0

    def test_proactive_needs_any_reception(self):
        assert compute_capacities(4, (1, 1))[(1, "13")] == 0
        caps = compute_capacities(4, (1, 0))
        assert caps[(1, "13")] == 1 and caps[(2, "13")] == 1

    def test_coded_split_reception(self):
        caps = compute_capacities(5, (0, 1))
        assert caps[(1, "34")] == 1
        assert caps[(2, "32")] == 1
        assert caps[(1, "32")] == 0 and caps[(2, "34")] == 0

    def test_coded_both_received(self):
        caps = compute_capacities(5, (0, 0))
        assert caps[(1, "34")] == 1 and caps[(2, "34")] == 1
        assert caps[(1, "32")] == 0 and caps[(2, "32")] == 0

    def test_reactive(self):
        caps = compute_capacities(3, (0, 0))
        assert caps[(1, "24")] == 1 and caps[(2, "24")] == 1

    def test_idle_grants_nothing(self):
        assert sum(compute_capacities(0, (0, 0)).values()) == 0

    def test_bad_action(self):
        with pytest.raises(ValueError):
            compute_capacities(6, (0, 0))


def capacity_oracle(action, z1, z2):
    """The admissibility rules of each link, one receiver at a time."""

    caps = {}
    for j, own, other in ((1, z1, z2), (2, z2, z1)):
        uncoded = action == j
        caps[(j, "12")] = int(uncoded and own == 1 and other == 0)
        caps[(j, "13")] = int(action == 4 and (z1, z2) != (1, 1))
        caps[(j, "14")] = int(uncoded and own == 0)
        caps[(j, "24")] = int(action == 3 and own == 0)
        caps[(j, "32")] = int(action == 5 and own == 1 and other == 0)
        caps[(j, "34")] = int(action == 5 and own == 0)
    return caps


class TestCapacityTable:
    PAIRS = [(a, (z1, z2)) for a in range(6) for z1 in (0, 1) for z2 in (0, 1)]

    def test_table_matches_the_rules_on_all_24_pairs(self):
        assert [len(row) for row in _CAPACITY_TABLE] == [4] * 6
        for action, z in self.PAIRS:
            expected = capacity_oracle(action, *z)
            assert compute_capacities(action, z) == expected
            assert link_flags(_CAPACITY_TABLE[action][2 * z[0] + z[1]]) == expected

    def test_each_receivers_links_admit_disjoint_outcomes(self):
        # The counts loop tests each link of an action with a plain `if`
        # on the queues before the slot's moves; that equals one move per
        # receiver only when no outcome admits two of its links.
        for action, links in ACTION_LINKS.items():
            for j in (1, 2):
                seen = 0
                for _, link in (key for key in links if key[0] == j):
                    admits = sum(1 << zi for zi in range(4)
                                 if _CAPACITY_TABLE[action][zi] & LINK_BITS[j, link])
                    assert admits, (action, j, link)
                    assert not seen & admits, (action, j, link)
                    seen |= admits

    def test_returned_dict_is_not_shared(self):
        first = compute_capacities(1, (0, 0))
        first[(1, "14")] = 0
        second = compute_capacities(1, (0, 0))
        assert second is not first
        assert second[(1, "14")] == 1

    def test_slot_flows_cannot_change_the_table(self):
        flows, _, _ = apply_slot(QueueNetwork(), 1, (0, 0), 0)
        assert flows.capacities == _CAPACITY_TABLE[1][0]
        with pytest.raises(TypeError):
            flows.capacities[(1, "14")] = 0
        assert compute_capacities(1, (0, 0))[(1, "14")] == 1

    def test_z_as_list_and_as_bools(self):
        net = QueueNetwork()
        packet = net.new_arrival(1)
        flows, _, exits = apply_slot(net, 1, [0, 1], uncoded_intents(1))
        assert exits == [(packet, 1)]
        assert flows.cap(1, "14") == 1
        assert compute_capacities(5, (True, False)) == capacity_oracle(5, 1, 0)

    @pytest.mark.parametrize(
        "action,z,intents",
        [
            (6, (0, 0), {}),
            (1, (2, 0), {}),
            (0, (2, 0), {}),
            (0, (0, 0), {(1, "14"): 1}),
            (4, (0, 0), {(1, "34"): 1}),
        ],
    )
    def test_apply_slot_rejects_bad_input(self, action, z, intents):
        with pytest.raises(ValueError):
            apply_slot(QueueNetwork(), action, z, link_mask(intents))

    def test_idle_slot_still_returns_flows(self):
        net = QueueNetwork()
        net.new_arrival(1)
        flows, moves, exits = apply_slot(net, 0, (0, 0), link_mask({(1, "14"): 0}))
        assert isinstance(flows, SlotFlows)
        assert (moves, exits) == ([], [])
        assert flows.intents == link_mask({(1, "14"): 0})
        assert sum(link_flags(flows.capacities).values()) == 0
        assert net.queue_lengths() == ((1, 0, 0), (0, 0, 0))


class TestKnowledge:
    def test_span_closure(self):
        k = ReceiverKnowledge()
        k.add(0b011)
        k.add(0b110)
        assert k.knows(0b101)
        assert k.knows(0b011)
        assert not k.knows(0b001)

    def test_zero_combo_is_trivial(self):
        k = ReceiverKnowledge()
        assert k.knows(0)


class TestUncoded:
    def test_direct_delivery(self):
        net = QueueNetwork()
        p = net.new_arrival(1)
        flows, moves, exits = apply_slot(net, 1, (0, 1), uncoded_intents(1))
        assert exits == [(p, 1)]
        assert net.q1_len(1) == 0
        assert flows.moved(1, "14") == 1
        assert moves == [(p.pid, 1, "q1", "q4")]

    def test_overheard_moves_to_side_queue(self):
        net = QueueNetwork()
        p = net.new_arrival(1)
        apply_slot(net, 1, (1, 0), uncoded_intents(1))
        assert net.q2_len(1) == 1
        entry = net.q2[1][0]
        assert entry.content == p.content and not entry.replacement
        assert net.knowledge[2].knows(p.content)

    def test_erased_everywhere_stays(self):
        net = QueueNetwork()
        net.new_arrival(1)
        apply_slot(net, 1, (1, 1), uncoded_intents(1))
        assert net.q1_len(1) == 1
        assert net.knowledge[1].combos == []

    def test_without_activation_no_movement_but_reception_counts(self):
        net = QueueNetwork()
        p = net.new_arrival(1)
        flows, _, exits = apply_slot(net, 1, (0, 0), 0)
        assert exits == []
        assert net.q1_len(1) == 1
        assert flows.moved(1, "14") == 0
        # The receiver still heard the packet; a later slot may release it.
        assert net.knowledge[1].knows(p.content)
        apply_slot(net, 1, (1, 1), uncoded_intents(1))
        assert net.q1_len(1) == 1
        flows, _, exits = apply_slot(net, 1, (0, 1), uncoded_intents(1))
        assert exits == [(p, 1)]

    def test_empty_queue_transmits_nothing(self):
        net = QueueNetwork()
        flows, moves, exits = apply_slot(net, 1, (0, 0), uncoded_intents(1))
        assert moves == [] and exits == []
        assert net.knowledge[1].combos == []


class TestPoisonPair:
    def test_pair_formation(self):
        net, pl, pm = make_pair((0, 1))
        assert net.q3_pairs[0] == (pl, pm)
        assert net.q3_len(1) == 1 and net.q3_len(2) == 1
        assert net.knowledge[1].knows(pl.content ^ pm.content)
        assert not net.knowledge[2].combos

    def test_pair_needs_some_reception(self):
        net = QueueNetwork()
        net.new_arrival(1)
        net.new_arrival(2)
        flows, _, _ = apply_slot(net, 4, (1, 1), FULL_A4)
        assert len(net.q3_pairs) == 0
        assert net.q1_len(1) == 1 and net.q1_len(2) == 1
        assert flows.moved(1, "13") == 0

    def test_remedy_for_rx1_poison_is_session_two_packet(self):
        net, pl, pm = make_pair((0, 1))
        apply_slot(net, 5, (1, 1), FULL_A5)
        # Erased everywhere: the pair stays, but the wire content was pm.
        assert len(net.q3_pairs) == 1
        assert net.knowledge[1].combos == [pl.content ^ pm.content]

    def test_rx1_poison_remedy_at_rx1(self):
        net, pl, pm = make_pair((0, 1))
        _, _, exits = apply_slot(net, 5, (0, 1), FULL_A5)
        assert exits == [(pl, 1)]
        entry = net.q2[2][0]
        assert entry.packet == pm and entry.content == pm.content
        assert not entry.replacement

    def test_rx1_poison_remedy_at_rx2(self):
        net, pl, pm = make_pair((0, 1))
        _, _, exits = apply_slot(net, 5, (1, 0), FULL_A5)
        assert exits == [(pm, 2)]
        entry = net.q2[1][0]
        assert entry.packet == pl and entry.replacement
        assert entry.content == pm.content

    def test_rx1_poison_remedy_at_both(self):
        net, pl, pm = make_pair((0, 1))
        _, _, exits = apply_slot(net, 5, (0, 0), FULL_A5)
        assert set(exits) == {(pl, 1), (pm, 2)}
        assert net.backlog() == 0

    def test_rx2_poison_remedy_is_session_one_packet(self):
        net, pl, pm = make_pair((1, 0))
        _, _, exits = apply_slot(net, 5, (0, 1), FULL_A5)
        # Remedy pl received at its own destination.
        assert exits == [(pl, 1)]
        entry = net.q2[2][0]
        assert entry.replacement and entry.content == pl.content

    def test_rx2_poison_remedy_at_rx2(self):
        net, pl, pm = make_pair((1, 0))
        _, _, exits = apply_slot(net, 5, (1, 0), FULL_A5)
        assert exits == [(pm, 2)]
        entry = net.q2[1][0]
        assert entry.packet == pl and not entry.replacement

    def test_both_poison_remedy_both_originals_known(self):
        net, pl, pm = make_pair((0, 0))
        _, _, exits = apply_slot(net, 5, (0, 1), FULL_A5)
        assert exits == [(pl, 1)]
        entry = net.q2[2][0]
        assert entry.packet == pm and not entry.replacement


class TestCodingExampleTrace:
    def test_four_slot_delivery(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        pm = net.new_arrival(2)
        pk = net.new_arrival(2)

        apply_slot(net, 4, (0, 1), FULL_A4)
        apply_slot(net, 5, (1, 0), FULL_A5)
        apply_slot(net, 2, (0, 1), uncoded_intents(2))
        _, _, exits = apply_slot(net, 3, (0, 0), FULL_A3)

        assert set(exits) == {(pl, 1), (pk, 2)}
        assert set(net.exits) == {(pl, 1), (pm, 2), (pk, 2)}
        assert net.backlog() == 0
        assert net.knowledge[1].combos == [
            pl.content ^ pm.content,
            pk.content,
            pm.content ^ pk.content,
        ]
        assert net.knowledge[2].combos == [pm.content, pm.content ^ pk.content]
        assert audit_decodability(net)
        net.check_invariants(deep=True)

    def test_tampered_exit_fails_audit(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        pm = net.new_arrival(2)
        apply_slot(net, 4, (0, 1), FULL_A4)
        apply_slot(net, 5, (0, 0), FULL_A5)
        assert audit_decodability(net)
        ghost = Packet(99, 1)
        net.exits.append((ghost, 1))
        assert not audit_decodability(net)


class TestDegenerateProactive:
    def test_solo_when_other_queue_empty(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        flows, _, _ = apply_slot(net, 4, (1, 0), FULL_A4)
        assert len(net.q3_pairs) == 0
        assert net.q3_deg[1][0] == DegEntry(pl, pl.content)
        assert flows.moved(1, "13") == 1 and flows.moved(2, "13") == 0
        assert net.knowledge[2].knows(pl.content)

    def test_moves_even_if_received_at_destination(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        apply_slot(net, 4, (0, 1), FULL_A4)
        assert net.q3_deg[1][0].packet == pl
        assert net.knowledge[1].knows(pl.content)

    def test_one_sided_activation(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        pm = net.new_arrival(2)
        flows, _, _ = apply_slot(net, 4, (0, 0), link_mask({(1, "13"): 1}))
        assert net.q3_deg[1][0] == DegEntry(pl, pl.content)
        assert net.q1[2][0] == pm
        assert flows.moved(2, "13") == 0
        # Only the lone packet was on the wire.
        assert net.knowledge[2].combos == [pl.content]


class TestLoneCodedService:
    def test_exit_at_destination(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        apply_slot(net, 4, (1, 0), FULL_A4)
        _, _, exits = apply_slot(net, 5, (0, 1), FULL_A5)
        assert exits == [(pl, 1)]
        assert net.backlog() == 0

    def test_relay_when_overheard(self):
        net = QueueNetwork()
        pl = net.new_arrival(1)
        apply_slot(net, 4, (0, 1), FULL_A4)
        flows, _, _ = apply_slot(net, 5, (1, 0), FULL_A5)
        entry = net.q2[1][0]
        assert entry.packet == pl and not entry.replacement
        assert flows.moved(1, "32") == 1
        assert flows.moved(2, "32") == 0 and flows.moved(2, "34") == 0

    def test_release_pending_survivor_stays_decodable(self):
        # Poison heard only at receiver 1, remedy heard only at receiver 2,
        # and the policy moves just the session-2 side out.
        net, pl, pm = make_pair((0, 1))
        _, _, exits = apply_slot(net, 5, (1, 0), link_mask({(2, "34"): 1}))
        assert exits == [(pm, 2)]
        survivor = net.q3_deg[1][0]
        assert survivor.packet == pl
        # Own content is known nowhere, so the entry carries the remedy.
        assert survivor.content == pm.content
        _, _, exits = apply_slot(net, 5, (0, 1), FULL_A5)
        assert exits == [(pl, 1)]
        assert audit_decodability(net)

    def test_survivor_keeps_own_content_when_known(self):
        net, pl, pm = make_pair((0, 1))
        _, _, exits = apply_slot(net, 5, (0, 1), link_mask({(1, "34"): 1}))
        assert exits == [(pl, 1)]
        survivor = net.q3_deg[2][0]
        assert survivor.packet == pm and survivor.content == pm.content


def lone_entry(net, session, z):
    packet = net.new_arrival(session)
    apply_slot(net, 4, z, link_mask({(session, "13"): 1}))
    return packet


class TestTwoLoneCodedService:
    def test_separate_knowledge_sends_second_content(self):
        net = QueueNetwork()
        pa = lone_entry(net, 1, (0, 1))
        pb = lone_entry(net, 2, (1, 0))
        _, _, exits = apply_slot(net, 5, (0, 0), FULL_A5)
        assert set(exits) == {(pa, 1), (pb, 2)}
        # Receiver 1 released pa without a fresh copy: it heard pa before.
        assert net.knowledge[1].combos == [pa.content, pb.content]

    def test_crossed_knowledge_sends_xor(self):
        net = QueueNetwork()
        pa = lone_entry(net, 1, (1, 0))
        pb = lone_entry(net, 2, (0, 1))
        _, _, exits = apply_slot(net, 5, (0, 0), FULL_A5)
        assert set(exits) == {(pa, 1), (pb, 2)}
        assert net.knowledge[1].combos == [pb.content, pa.content ^ pb.content]
        assert audit_decodability(net)

    def test_dummy_token_round_trip(self):
        net = QueueNetwork()
        pa = lone_entry(net, 1, (0, 1))
        pb = lone_entry(net, 2, (1, 0))
        # Remedy pb reaches only receiver 2: pb exits, pa becomes a token
        # entry in the side queue since receiver 1 already holds it.
        _, _, exits = apply_slot(net, 5, (1, 0), FULL_A5)
        assert exits == [(pb, 2)]
        entry = net.q2[1][0]
        assert entry.packet == pa and entry.replacement
        assert entry.content == pb.content
        _, _, exits = apply_slot(net, 3, (0, 1), FULL_A3)
        assert exits == [(pa, 1)]
        assert audit_decodability(net)

    def test_service_only_pops_moved_sides(self):
        net = QueueNetwork()
        pa = lone_entry(net, 1, (0, 1))
        pb = lone_entry(net, 2, (1, 0))
        _, _, exits = apply_slot(net, 5, (0, 0), link_mask({(1, "34"): 1}))
        assert exits == [(pa, 1)]
        assert len(net.q3_deg[2]) == 1


class TestReactive:
    def test_xor_of_two_side_queues(self):
        net = QueueNetwork()
        p1 = net.new_arrival(1)
        p2 = net.new_arrival(2)
        apply_slot(net, 1, (1, 0), uncoded_intents(1))
        apply_slot(net, 2, (0, 1), uncoded_intents(2))
        _, _, exits = apply_slot(net, 3, (0, 0), FULL_A3)
        assert set(exits) == {(p1, 1), (p2, 2)}
        assert net.knowledge[1].combos[-1] == p1.content ^ p2.content
        assert audit_decodability(net)

    def test_single_side_sends_uncoded(self):
        net = QueueNetwork()
        p1 = net.new_arrival(1)
        apply_slot(net, 1, (1, 0), uncoded_intents(1))
        flows, _, exits = apply_slot(net, 3, (0, 0), FULL_A3)
        assert exits == [(p1, 1)]
        assert flows.moved(2, "24") == 0
        assert net.knowledge[2].combos == [p1.content, p1.content]

    def test_pair_heads_survive_partial_reception(self):
        net = QueueNetwork()
        p1 = net.new_arrival(1)
        p2 = net.new_arrival(2)
        apply_slot(net, 1, (1, 0), uncoded_intents(1))
        apply_slot(net, 2, (0, 1), uncoded_intents(2))
        _, _, exits = apply_slot(net, 3, (1, 0), FULL_A3)
        assert exits == [(p2, 2)]
        assert net.q2_len(1) == 1 and net.q2_len(2) == 0


class TestIntentValidation:
    def test_wrong_link_for_action(self):
        net = QueueNetwork()
        net.new_arrival(1)
        with pytest.raises(ValueError, match="link 13 for receiver 1 cannot"):
            apply_slot(net, 3, (0, 0), link_mask({(1, "13"): 1}))
        with pytest.raises(ValueError, match="link 34 for receiver 2 cannot"):
            apply_slot(net, 1, (0, 0), link_mask({(1, "14"): 1, (2, "34"): 1}))
        with pytest.raises(ValueError, match="bit 12"):
            apply_slot(net, 1, (0, 0), 1 << 12)

    def test_zero_valued_foreign_intent_is_ignored(self):
        net = QueueNetwork()
        flows, _, _ = apply_slot(net, 3, (0, 0), link_mask({(1, "13"): 0}))
        assert flows.moved(1, "13") == 0

    def test_unknown_action(self):
        net = QueueNetwork()
        with pytest.raises(ValueError):
            apply_slot(net, 7, (0, 0), 0)


class TestLinkMasks:
    def test_bits_follow_receiver_then_link_order(self):
        assert [LINK_BITS[j, link].bit_length() - 1 for j in (1, 2)
                for link in LINK_NAMES] == list(range(12))

    def test_flags_and_mask_round_trip(self):
        for mask in (0, 1, 0b101101, 4095, 2048):
            assert link_mask(link_flags(mask)) == mask
        flags = {(1, "14"): 1, (2, "12"): 0, (2, "34"): 1}
        assert link_flags(link_mask(flags)) == {
            key: flags.get(key, 0) for key in LINK_BITS}

    def test_unknown_link_is_named(self):
        with pytest.raises(ValueError, match="unknown link"):
            link_mask({(3, "14"): 1})

    def test_allowed_mask_of_each_action(self):
        for action, links in ACTION_LINKS.items():
            assert ALLOWED_LINKS[action] == link_mask(dict.fromkeys(links, 1))


def random_intents(rng, action):
    return link_mask({key: int(rng.integers(0, 2)) for key in ACTION_LINKS[action]})


class TestFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_runs_conserve_and_decode(self, seed):
        rng = np.random.default_rng(seed)
        net = QueueNetwork()
        for t in range(400):
            for j in (1, 2):
                if rng.random() < 0.35:
                    net.new_arrival(j)
            action = int(rng.integers(0, 6))
            z = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            intents = random_intents(rng, action)
            before = net.queue_lengths()
            sources = {"12": 0, "13": 0, "14": 0, "24": 1, "32": 2, "34": 2}
            flows, _, _ = apply_slot(net, action, z, intents)
            after = net.queue_lengths()
            for j in (1, 2):
                for link, src in sources.items():
                    expected = flows.flow(j, link) * (1 if before[j - 1][src] else 0)
                    assert flows.moved(j, link) == expected
                for q in (1, 2, 3):
                    drop = before[j - 1][q - 1] - after[j - 1][q - 1]
                    assert drop == flow_divergence(flows, q, j)
            if t % 50 == 0:
                net.check_invariants(deep=True)
        net.check_invariants(deep=True)
        assert audit_decodability(net)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_heavy_coding_mix(self, seed):
        # Bias toward coded actions so pair, lone, and two-lone service paths
        # all fire; then drain with reactive and uncoded slots.
        rng = np.random.default_rng(seed)
        net = QueueNetwork()
        for j in (1, 2):
            for _ in range(6):
                net.new_arrival(j)
        actions = [4, 5, 5, 4, 5, 3, 5, 5]
        for t in range(600):
            action = actions[t % len(actions)] if t < 300 else int(rng.integers(1, 6))
            z = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            apply_slot(net, action, z, random_intents(rng, action))
            if rng.random() < 0.2:
                net.new_arrival(int(rng.integers(1, 3)))
        net.check_invariants(deep=True)
        assert audit_decodability(net)
        for packet, j in net.exits:
            assert packet.session == j


class TestDivergence:
    def test_total_divergence_counts_exits(self):
        net = QueueNetwork()
        net.new_arrival(1)
        flows, _, exits = apply_slot(net, 1, (0, 0), uncoded_intents(1))
        total = sum(flow_divergence(flows, q, 1) for q in (1, 2, 3))
        assert total == len(exits) == 1

    def test_bad_queue_index(self):
        net = QueueNetwork()
        flows, _, _ = apply_slot(net, 0, (0, 0), 0)
        with pytest.raises(ValueError):
            flow_divergence(flows, 4, 1)


class TestPacketBasics:
    def test_session_validation(self):
        with pytest.raises(ValueError):
            Packet(0, 3)

    def test_content_is_singleton_mask(self):
        assert Packet(5, 1).content == 32
