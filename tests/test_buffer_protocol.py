"""Buffer bank feasibility rules and the slot state machine."""

import numpy as np
import pytest

from plnc_sim import (BufferBank, DecoderKind, DestinationBuffer, Hop, Scheme,
                      SinrEntry, SinrTable, SlotMachine, SystemConfig,
                      can_receive, can_transmit, decide_action)
from plnc_sim.buffer_protocol import TRACE_FIELDS, trace_row


def push(bank, relays, tag):
    bank.push_pair(relays, tag)


class TestFeasibilityChecks:
    def test_can_transmit_cases(self):
        bank = BufferBank(2, capacity=4)
        assert not can_transmit(bank, (0, 1))          # (0, 0)
        push(bank, (0, 1), "a")
        assert can_transmit(bank, (0, 1))              # (1, 1)
        bank.buffers[0].push("solo")
        bank.buffers[0].push("solo2")
        bank.buffers[0].push("solo3")
        assert bank.occupancies() == (4, 1)
        bank.pop_pair((0, 1))
        assert bank.occupancies() == (3, 0)
        assert not can_transmit(bank, (0, 1))          # (3, 0): one empty

    def test_can_receive_cases(self):
        bank = BufferBank(2, capacity=4)
        assert can_receive(bank, (0, 1))               # (0, 0), J = 4
        for tag in "abc":
            push(bank, (0, 1), tag)
        assert can_receive(bank, (0, 1))               # (3, 3)
        push(bank, (0, 1), "d")
        assert not can_receive(bank, (0, 1))           # (4, 4)
        tiny = BufferBank(2, capacity=1)
        assert can_receive(tiny, (0, 1))               # J = 1, empty

    def test_fifo_order(self):
        bank = BufferBank(2, capacity=3)
        for tag in ("first", "second", "third"):
            push(bank, (0, 1), tag)
        assert bank.pop_pair((0, 1)) == "first"
        assert bank.pop_pair((0, 1)) == "second"
        assert bank.pop_pair((0, 1)) == "third"

    def test_bounds_enforced(self):
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
        assert can_transmit(bank, (0, 1))
        assert not can_transmit(bank, (1, 2))   # relay 1's head belongs to (0,1)

    def test_destination_buffer_fifo(self):
        dest = DestinationBuffer()
        dest.push((0, 1), "x")
        dest.push((0, 1), "y")
        assert dest.pending((0, 1)) == 2
        assert dest.pop((0, 1)) == "x"
        assert dest.pop((0, 1)) == "y"


def table_for(sinrs):
    """sinrs: {(pair_id, hop): value} over pairs (0,1) and (2,3)."""
    relays = {0: (0, 1), 1: (2, 3)}
    entries = [SinrEntry(pid, relays[pid], hop, val)
               for (pid, hop), val in sinrs.items()]
    return SinrTable(entries)


class TestDecideAction:
    def test_empty_buffers_force_reception(self):
        # best entry is second hop but nothing is buffered
        bank = BufferBank(4, capacity=2)
        table = table_for({(0, Hop.RELAY_DEST): 9.0,
                           (0, Hop.SOURCE_RELAY): 1.0,
                           (1, Hop.SOURCE_RELAY): 2.0})
        entry, reselections = decide_action(table, bank)
        assert entry.hop == Hop.SOURCE_RELAY and entry.pair_id == 1
        assert reselections == 1

    def test_full_buffers_force_transmission(self):
        bank = BufferBank(4, capacity=1)
        push(bank, (0, 1), "a")
        push(bank, (2, 3), "b")
        table = table_for({(0, Hop.SOURCE_RELAY): 9.0,
                           (1, Hop.SOURCE_RELAY): 8.0,
                           (1, Hop.RELAY_DEST): 0.5})
        entry, reselections = decide_action(table, bank)
        assert entry.hop == Hop.RELAY_DEST and entry.pair_id == 1
        assert reselections == 2

    def test_exhaustion_idles(self):
        bank = BufferBank(4, capacity=1)
        push(bank, (0, 1), "a")
        table = table_for({(0, Hop.SOURCE_RELAY): 3.0})   # full, cannot receive
        entry, reselections = decide_action(table, bank)
        assert entry is None and reselections == 1

    def test_alternation_under_j1(self):
        # scripted SINR sequence always prefers reception; J = 1 forces
        # receive/transmit alternation
        bank = BufferBank(2, capacity=1)
        table = table_for({(0, Hop.SOURCE_RELAY): 5.0,
                           (0, Hop.RELAY_DEST): 1.0})
        actions = []
        for _ in range(6):
            entry, _ = decide_action(table, bank)
            actions.append(entry.hop)
            if entry.hop == Hop.SOURCE_RELAY:
                push(bank, (0, 1), "p")
            else:
                bank.pop_pair((0, 1))
        assert actions == [Hop.SOURCE_RELAY, Hop.RELAY_DEST] * 3


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
            entries = [SinrEntry(pid, pairs[pid], hop, float(rng.random()))
                       for pid in pairs
                       for hop in (Hop.SOURCE_RELAY, Hop.RELAY_DEST)]
            entry, _ = decide_action(SinrTable(entries), bank)
            occ_before = bank.occupancies()
            if entry is None:
                # per-pair blocking is impossible here: empty implies
                # receivable and full implies transmittable
                raise AssertionError("idle cannot occur with uniform pairs")
            if entry.hop == Hop.SOURCE_RELAY:
                bank.push_pair(entry.relays, serial)
                pushed[entry.pair_id].append(serial)
                serial += 1
            else:
                packet = bank.pop_pair(entry.relays)
                popped[entry.pair_id].append(packet)
            occ = bank.occupancies()
            assert all(0 <= o <= J for o in occ)
            assert sum(abs(a - b) for a, b in zip(occ, occ_before)) == 2
        for pid in pairs:
            assert popped[pid] == pushed[pid][:len(popped[pid])]   # FIFO
            assert len(popped[pid]) <= len(pushed[pid])            # conservation

    def test_deadlock_freedom_edges(self):
        bank = BufferBank(2, capacity=1)
        # all empty: reception must be eligible
        assert can_receive(bank, (0, 1))
        push(bank, (0, 1), "x")
        # all full: transmission must be eligible
        assert can_transmit(bank, (0, 1))


def machine(**kw):
    defaults = dict(num_users=4, num_relays=4, spreading_gain=8, buffer_size=2,
                    group_size=2, packet_length=40, snr_db=10.0,
                    nc_design=Scheme.RANDOM, rng_seed=13)
    defaults.update(kw)
    cfg = SystemConfig(**defaults)
    return SlotMachine(cfg, np.random.default_rng(99), collect_trace=True)


class TestSlotMachine:
    def test_buffered_run_counts_consistent(self):
        m = machine().run_until(n_packets=20)
        assert m.packets_decoded == 20
        assert m.packets_decoded <= m.packets_pushed
        assert m.bits_decoded == 20 * 2 * 40
        assert m.receive_slots + m.transmit_slots + m.idle_slots == m.slot

    def test_unbuffered_alternation(self):
        m = machine(buffers_enabled=False).run_until(n_packets=10)
        actions = [o.action for o in m.trace]
        assert actions == ["receive", "transmit"] * 10
        assert max(max(o.occupancy_after) for o in m.trace) <= 1

    def test_occupancy_bounds_in_trace(self):
        m = machine(buffer_size=2).run_until(n_packets=30)
        for outcome in m.trace:
            assert all(0 <= o <= 2 for o in outcome.occupancy_after)

    def test_direct_decoder_runs(self):
        m = machine(decoder=DecoderKind.DIRECT).run_until(n_packets=10)
        assert m.bits_decoded == 10 * 2 * 40

    def test_xor_scheme_runs(self):
        m = machine(nc_design=Scheme.XOR).run_until(n_packets=10)
        assert m.bits_decoded == 10 * 2 * 40

    def test_all_pairs_mode_runs(self):
        from plnc_sim import PairMode
        m = machine(pair_mode=PairMode.ALL_PAIRS).run_until(n_packets=15)
        assert m.packets_decoded == 15
        pair_ids = {o.pair_id for o in m.trace if o.action != "idle"}
        assert len(pair_ids) > 2   # selection ranges over the C(4,2) pairs

    def test_rescoring_a_packet_raises(self):
        m = machine(buffers_enabled=False)
        m.advance()                                      # receive
        relays = m._pending_pair
        packet = m.bank.buffers[relays[0]].peek()
        m.advance()                                      # transmit, scored
        m.bank.push_pair(relays, packet)
        m.dest.push(relays, np.ones_like(packet.true_symbols))
        m._pending_pair = relays
        with pytest.raises(RuntimeError, match="packet scored twice"):
            m.advance()

    def test_groups_without_relays_rejected(self):
        # K=4, L=2, m=2: group 1 gets no relays, its users are never served
        from plnc_sim import PairMode
        with pytest.raises(ValueError, match="fewer than m=2 relays"):
            machine(num_users=4, num_relays=2)
        with pytest.raises(ValueError, match="fewer than m=2 relays"):
            machine(num_users=4, num_relays=2, pair_mode=PairMode.ALL_PAIRS,
                    buffers_enabled=False)
        # free-form pairs serve the groups round robin on any relay pair
        m = machine(num_users=4, num_relays=2, pair_mode=PairMode.ALL_PAIRS)
        assert m.run_until(n_packets=4).packets_decoded == 4

    def test_trace_rows_match_header(self):
        m = machine().run_until(n_packets=5)
        for outcome in m.trace:
            assert len(trace_row(outcome)) == len(TRACE_FIELDS)
