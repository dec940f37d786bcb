"""Buffer bank feasibility rules and the slot state machine."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnc_sim import (BufferBank, DecoderKind, Hop, PairMode, Scheme,
                      SlotMachine, SystemConfig, decide_action)
from plnc_sim.buffer_protocol import TRACE_FIELDS, RngStreams, trace_row

SR, RD = 0, 1                         # SINR table columns


def push(bank, relays, tag):
    bank.push_pair(relays, tag)


class TestFeasibilityChecks:
    def test_can_transmit_cases(self):
        bank = BufferBank(2, capacity=4)
        assert not bank.can_transmit((0, 1))          # (0, 0)
        push(bank, (0, 1), "a")
        assert bank.can_transmit((0, 1))              # (1, 1)
        bank.buffers[0].extend(["solo", "solo2", "solo3"])
        assert bank.occupancies() == (4, 1)
        bank.pop_pair((0, 1))
        assert bank.occupancies() == (3, 0)
        assert not bank.can_transmit((0, 1))          # (3, 0): one empty

    def test_can_receive_cases(self):
        bank = BufferBank(2, capacity=4)
        assert bank.can_receive((0, 1))               # (0, 0), J = 4
        for tag in "abc":
            push(bank, (0, 1), tag)
        assert bank.can_receive((0, 1))               # (3, 3)
        push(bank, (0, 1), "d")
        assert not bank.can_receive((0, 1))           # (4, 4)
        tiny = BufferBank(2, capacity=1)
        assert tiny.can_receive((0, 1))               # J = 1, empty

    def test_fifo_order(self):
        bank = BufferBank(2, capacity=3)
        for tag in ("first", "second", "third"):
            push(bank, (0, 1), tag)
        assert bank.pop_pair((0, 1)) == "first"
        assert bank.pop_pair((0, 1)) == "second"
        assert bank.pop_pair((0, 1)) == "third"

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            BufferBank(2, capacity=0)
        bank = BufferBank(2, capacity=1)
        push(bank, (0, 1), "a")
        with pytest.raises(RuntimeError):
            bank.push_pair((0, 1), "b")
        bank.pop_pair((0, 1))
        with pytest.raises(RuntimeError):
            bank.pop_pair((0, 1))

    def test_head_alignment_required(self):
        # relays holding different head packets cannot jointly transmit
        bank = BufferBank(3, capacity=2)
        push(bank, (0, 1), "ab")
        push(bank, (1, 2), "bc")
        assert bank.can_transmit((0, 1))
        assert not bank.can_transmit((1, 2))   # relay 1's head belongs to (0,1)

    def test_empty_relay_tuple_rejected(self):
        bank = BufferBank(2, capacity=2)
        for call in (bank.can_receive, bank.can_transmit, bank.pop_pair,
                     lambda relays: bank.push_pair(relays, "a")):
            with pytest.raises(ValueError, match="empty relay tuple"):
                call(())
        assert bank.occupancies() == (0, 0)


PAIRS = [(0, (0, 1)), (1, (2, 3))]


def table_for(sinrs, n_pairs=2):
    """sinrs: {(pair_id, column): value} over pairs (0,1) and (2,3);
    entries not given are 0.  Returns (table, candidates)."""
    table = np.zeros((n_pairs, 2))
    for key, value in sinrs.items():
        table[key] = value
    return table, PAIRS[:n_pairs]


class TestDecideAction:
    def test_empty_buffers_force_reception(self):
        # best entry is second hop but nothing is buffered
        bank = BufferBank(4, capacity=2)
        table, pairs = table_for({(0, RD): 9.0, (0, SR): 1.0, (1, SR): 2.0})
        pair_id, relays, hop, sinr, reselections = decide_action(table, pairs, bank)
        assert hop == Hop.SOURCE_RELAY and pair_id == 1
        assert relays == (2, 3) and sinr == 2.0
        assert reselections == 1

    def test_full_buffers_force_transmission(self):
        bank = BufferBank(4, capacity=1)
        push(bank, (0, 1), "a")
        push(bank, (2, 3), "b")
        table, pairs = table_for({(0, SR): 9.0, (1, SR): 8.0, (1, RD): 0.5})
        pair_id, _, hop, sinr, reselections = decide_action(table, pairs, bank)
        assert hop == Hop.RELAY_DEST and pair_id == 1 and sinr == 0.5
        assert reselections == 2

    def test_exhaustion_idles(self):
        # relay 1 holds a packet of pair (0, 1) and is full: pair (1, 2)
        # can neither receive nor transmit
        bank = BufferBank(3, capacity=1)
        push(bank, (0, 1), "a")
        decision = decide_action(np.array([[3.0, 1.0]]), [(0, (1, 2))], bank)
        pair_id, relays, hop, sinr, reselections = decision
        assert hop is None and pair_id == -1 and relays == ()
        assert np.isnan(sinr)
        assert reselections == 2

    def test_alternation_under_j1(self):
        # scripted SINR sequence always prefers reception; J = 1 forces
        # receive/transmit alternation
        bank = BufferBank(2, capacity=1)
        table, pairs = table_for({(0, SR): 5.0, (0, RD): 1.0}, n_pairs=1)
        actions = []
        for _ in range(6):
            _, _, hop, _, _ = decide_action(table, pairs, bank)
            actions.append(hop)
            if hop == Hop.SOURCE_RELAY:
                push(bank, (0, 1), "p")
            else:
                bank.pop_pair((0, 1))
        assert actions == [Hop.SOURCE_RELAY, Hop.RELAY_DEST] * 3


def reference_decision(table, candidates, bank):
    """Brute force: order every entry by (-SINR, pair, hop) and take the
    first one whose buffers allow it, feasibility read off the buffers."""
    def feasible(relays, col):
        buffers = [bank.buffers[r] for r in relays]
        if col == SR:
            return all(len(b) < bank.capacity for b in buffers)
        heads = [b[0] if b else None for b in buffers]
        return heads[0] is not None and all(h is heads[0] for h in heads)

    order = sorted((-table[row, col], pid, col, relays)
                   for row, (pid, relays) in enumerate(candidates)
                   for col in (SR, RD))
    for rank, (neg_sinr, pid, col, relays) in enumerate(order):
        if feasible(relays, col):
            return pid, relays, (Hop.SOURCE_RELAY, Hop.RELAY_DEST)[col], -neg_sinr, rank
    return None, len(order)


@st.composite
def selection_cases(draw):
    """A small relay set with every relay pair as a candidate, a bank
    state reached by random feasible pair pushes and pops, and a table
    whose values come from a short list so ties are common."""
    num_relays = draw(st.integers(2, 4))
    bank = BufferBank(num_relays, capacity=draw(st.integers(1, 2)))
    candidates = list(enumerate(combinations(range(num_relays), 2)))
    ops = draw(st.lists(st.tuples(st.integers(0, len(candidates) - 1),
                                  st.booleans()), max_size=12))
    for row, is_push in ops:
        relays = candidates[row][1]
        if is_push and bank.can_receive(relays):
            bank.push_pair(relays, object())
        elif not is_push and bank.can_transmit(relays):
            bank.pop_pair(relays)
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0)
    table = np.array(draw(st.lists(values, min_size=2 * len(candidates),
                                   max_size=2 * len(candidates)))
                     ).reshape(len(candidates), 2)
    return table, candidates, bank


class TestSelectionProperty:
    @settings(max_examples=300, deadline=None)
    @given(selection_cases())
    def test_decide_action_matches_brute_force(self, case):
        table, candidates, bank = case
        before = bank.occupancies()
        pair_id, relays, hop, sinr, reselections = decide_action(table, candidates,
                                                                 bank)
        expected = reference_decision(table, candidates, bank)
        if expected[0] is None:
            assert (pair_id, relays, hop) == (-1, (), None) and np.isnan(sinr)
            assert reselections == expected[1]
        else:
            assert (pair_id, relays, hop, sinr, reselections) == expected
        assert bank.occupancies() == before       # deciding changes nothing

    def test_all_infeasible_table_idles(self):
        # overlapping pairs at J = 1: (0, 1) holds a packet, (1, 2) and
        # (0, 2) can neither receive nor transmit
        bank = BufferBank(3, capacity=1)
        bank.push_pair((0, 1), object())
        candidates = [(0, (0, 2)), (1, (1, 2))]
        table = np.ones((2, 2))
        assert reference_decision(table, candidates, bank) == (None, 4)
        pair_id, relays, hop, sinr, reselections = decide_action(table, candidates,
                                                                 bank)
        assert (pair_id, relays, hop, reselections) == (-1, (), None, 4)
        assert np.isnan(sinr)


class TestStateMachineFuzz:
    def test_invariants_random_tables(self):
        # 10^4 scripted-random slots (the acceptance suite runs 10^5):
        # occupancy bounds, FIFO order and one action per slot
        rng = np.random.default_rng(0)
        J = 3
        bank = BufferBank(4, capacity=J)
        pairs = {0: (0, 1), 1: (2, 3)}
        pushed = {0: [], 1: []}
        popped = {0: [], 1: []}
        serial = 0
        for slot in range(10_000):
            pair_id, relays, hop, _, _ = decide_action(rng.random((2, 2)),
                                                       list(pairs.items()), bank)
            occ_before = bank.occupancies()
            if hop is None:
                # per-pair blocking is impossible here: empty implies
                # receivable and full implies transmittable
                raise AssertionError("idle cannot occur with uniform pairs")
            if hop == Hop.SOURCE_RELAY:
                bank.push_pair(relays, serial)
                pushed[pair_id].append(serial)
                serial += 1
            else:
                packet = bank.pop_pair(relays)
                popped[pair_id].append(packet)
            occ = bank.occupancies()
            assert all(0 <= o <= J for o in occ)
            assert sum(abs(a - b) for a, b in zip(occ, occ_before)) == 2
        for pid in pairs:
            assert popped[pid] == pushed[pid][:len(popped[pid])]   # FIFO
            assert len(popped[pid]) <= len(pushed[pid])            # conservation

    def test_deadlock_freedom_edges(self):
        bank = BufferBank(2, capacity=1)
        # all empty: reception must be eligible
        assert bank.can_receive((0, 1))
        push(bank, (0, 1), "x")
        # all full: transmission must be eligible
        assert bank.can_transmit((0, 1))


def machine(**kw):
    defaults = dict(num_users=4, num_relays=4, spreading_gain=8, buffer_size=2,
                    group_size=2, packet_length=40, snr_db=10.0,
                    nc_design=Scheme.RANDOM, rng_seed=13)
    defaults.update(kw)
    cfg = SystemConfig(**defaults)
    return SlotMachine(cfg, np.random.default_rng(99))


class TestSlotMachine:
    def test_buffered_run_counts_consistent(self):
        m = machine().run_until(n_packets=20)
        assert m.transmit_slots == 20
        assert m.transmit_slots <= m.receive_slots
        idle = sum(o.action == "idle" for o in m.log)
        assert m.receive_slots + m.transmit_slots + idle == m.slot
        assert len(m.log) == m.slot

    def test_unbuffered_alternation(self):
        m = machine(buffers_enabled=False).run_until(n_packets=10)
        actions = [o.action for o in m.log]
        assert actions == ["receive", "transmit"] * 10
        assert max(max(o.occupancy_after) for o in m.log) <= 1

    def test_unbuffered_transmission_carries_group_id(self):
        m = machine(buffers_enabled=False).run_until(n_packets=10)
        for before, row in zip(m.log, m.log[1:]):
            if row.action == "transmit":
                assert before.action == "receive"
                assert row.pair_id == before.pair_id >= 0
                assert row.relays == before.relays

    def test_occupancy_bounds_in_trace(self):
        m = machine(buffer_size=2).run_until(n_packets=30)
        for outcome in m.log:
            assert all(0 <= o <= 2 for o in outcome.occupancy_after)

    def test_direct_decoder_runs(self):
        m = machine(decoder=DecoderKind.DIRECT).run_until(n_packets=10)
        assert m.transmit_slots == 10

    def test_xor_scheme_runs(self):
        m = machine(nc_design=Scheme.XOR).run_until(n_packets=10)
        assert m.transmit_slots == 10

    def test_all_pairs_mode_runs(self):
        m = machine(pair_mode=PairMode.ALL_PAIRS).run_until(n_packets=15)
        assert m.transmit_slots == 15
        pair_ids = {o.pair_id for o in m.log if o.action != "idle"}
        assert len(pair_ids) > 2   # selection ranges over the C(4,2) pairs

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("m,num_relays", [(1, 2), (1, 3), (3, 3), (3, 6)])
    def test_all_pairs_sets_of_m_relays_decode(self, m, num_relays, scheme):
        # free-form candidates are m-relay sets; noiseless decoding is exact
        for decoder in DecoderKind:
            mach = machine(num_users=num_relays, num_relays=num_relays,
                           group_size=m, packet_length=8, snr_db=120.0,
                           pair_mode=PairMode.ALL_PAIRS, nc_design=scheme,
                           decoder=decoder).run_until(n_packets=4)
            assert mach.transmit_slots == 4
            assert [o.bit_errors for o in mach.log] == [(0,)] * mach.slot

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("decoder", list(DecoderKind))
    def test_noiseless_every_lane_exact(self, decoder, buffered):
        # fixed groups at m=2: every lane of one machine decodes every packet
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=16,
                           buffer_size=2, group_size=2, packet_length=16,
                           snr_db=120.0, decoder=decoder,
                           buffers_enabled=buffered, rng_seed=5)
        mach = SlotMachine(cfg, RngStreams.from_seed(3), schemes=list(Scheme))
        mach.run_until(n_packets=12)
        assert mach.transmit_slots == 12
        assert {o.bit_errors for o in mach.log} == {(0,) * len(Scheme)}

    def test_lanes_need_their_own_streams(self):
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8)
        with pytest.raises(ValueError, match="RngStreams"):
            SlotMachine(cfg, np.random.default_rng(0),
                        schemes=[Scheme.XOR, Scheme.RANDOM])
        with pytest.raises(ValueError, match="at least one scheme"):
            SlotMachine(cfg, RngStreams.from_seed(0), schemes=[])
        with pytest.raises(ValueError, match="m <= 3"):
            SlotMachine(SystemConfig(num_users=4, num_relays=4, group_size=4),
                        RngStreams.from_seed(0),
                        schemes=[Scheme.RANDOM, Scheme.MMSE_DESIGN])

    def test_rescoring_a_packet_raises(self):
        m = machine(buffers_enabled=False)
        relays = m.advance().relays                      # receive
        packet = m.bank.buffers[relays[0]][0]
        m.advance()                                      # transmit, scored
        m.bank.push_pair(relays, packet)                 # the scored packet again
        with pytest.raises(RuntimeError, match="packet scored twice"):
            m.advance()

    def test_groups_without_relays_rejected(self):
        # K=4, L=2, m=2: group 1 gets no relays, its users are never served
        with pytest.raises(ValueError, match="fewer than m=2 relays"):
            machine(num_users=4, num_relays=2)
        with pytest.raises(ValueError, match="fewer than m=2 relays"):
            machine(num_users=4, num_relays=2, pair_mode=PairMode.ALL_PAIRS,
                    buffers_enabled=False)
        # free-form pairs serve the groups round robin on any relay pair
        m = machine(num_users=4, num_relays=2, pair_mode=PairMode.ALL_PAIRS)
        assert m.run_until(n_packets=4).transmit_slots == 4

    def test_run_until_slot_cap_raises(self):
        # 3 slots cannot decode 3 packets: the shortfall must not pass silently
        with pytest.raises(RuntimeError,
                           match=r"decoded \d of 3 requested packets in 3 slots"):
            machine().run_until(n_packets=3, max_slots=3)

    def test_trace_rows_match_header(self):
        m = machine().run_until(n_packets=5)
        for outcome in m.log:
            assert len(trace_row(outcome)) == len(TRACE_FIELDS)


@st.composite
def machine_cases(draw):
    """A small SlotMachine over every mode and scheme, and a slot count."""
    m = draw(st.sampled_from([1, 2]))
    num_relays = m * draw(st.integers(1, 6 // m))
    cfg = SystemConfig(num_users=num_relays, num_relays=num_relays,
                       spreading_gain=8, buffer_size=draw(st.integers(1, 3)),
                       group_size=m, packet_length=draw(st.integers(1, 4)),
                       snr_db=draw(st.sampled_from([0.0, 10.0])),
                       nc_design=draw(st.sampled_from(list(Scheme))),
                       decoder=draw(st.sampled_from(list(DecoderKind))),
                       buffers_enabled=draw(st.booleans()),
                       pair_mode=draw(st.sampled_from(list(PairMode))),
                       ml_training_len=8, rng_seed=draw(st.integers(0, 99)))
    return cfg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40))


class TestSlotMachineProperty:
    @settings(max_examples=300, deadline=None)
    @given(machine_cases())
    def test_packets_conserved_and_scored_once_in_fifo_order(self, case):
        cfg, seed, n_slots = case
        mach = SlotMachine(cfg, np.random.default_rng(seed))
        pushed, popped = [], []
        push_pair, pop_pair = mach.bank.push_pair, mach.bank.pop_pair

        def record_push(relays, packet):
            push_pair(relays, packet)
            pushed.append(packet)

        def record_pop(relays):
            packet = pop_pair(relays)
            popped.append(packet)
            return packet

        mach.bank.push_pair, mach.bank.pop_pair = record_push, record_pop
        for _ in range(n_slots):
            outcome = mach.advance()
            assert all(0 <= o <= cfg.buffer_size for o in outcome.occupancy_after)
            # no slot idles: the oldest buffered packet heads every queue of
            # its relay set (each queue is FIFO), so that pair can transmit,
            # and an empty bank lets every pair receive
            assert outcome.action != "idle"
            if outcome.action == "transmit":
                assert outcome.relays == popped[-1].relays
                assert outcome.decoded_bits == cfg.group_size * cfg.packet_length
        left = {id(p): p for queue in mach.bank.buffers for p in queue}
        # every packet is scored at most once and the rest are still buffered
        assert len({id(p) for p in popped}) == len(popped) == mach.transmit_slots
        assert len(pushed) == mach.receive_slots
        assert mach.receive_slots == mach.transmit_slots + len(left)
        assert {id(p) for p in popped} | set(left) == {id(p) for p in pushed}
        # FIFO per relay set: packets leave in the order they arrived
        for relays in {p.relays for p in pushed}:
            arrived = [p for p in pushed if p.relays == relays]
            left_in_order = [p for p in popped if p.relays == relays]
            assert left_in_order == arrived[:len(left_in_order)]
        assert [p.uid for p in pushed] == list(range(len(pushed)))
