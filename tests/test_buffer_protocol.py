"""Buffer bank feasibility rules and the slot state machine."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plnc_sim import (BufferBank, DecoderKind, PairMode, ReceiverKind, Scheme,
                      SlotMachine, SystemConfig, decide_action)
from plnc_sim import buffer_protocol as bp
from plnc_sim import relay_selection as rs
from plnc_sim import signal_model as sm
from plnc_sim.buffer_protocol import NOTES, TRACE_FIELDS, trace_row
from plnc_sim.harness import BerPoint

from oracles import chip_sinr_table

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


PAIRS = [(0, 1), (2, 3)]


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
        action, pair_id, relays, sinr, reselections = decide_action(table, pairs, bank)
        assert action == "receive" and pair_id == 1
        assert relays == (2, 3) and sinr == 2.0
        assert reselections == 1

    def test_full_buffers_force_transmission(self):
        bank = BufferBank(4, capacity=1)
        push(bank, (0, 1), "a")
        push(bank, (2, 3), "b")
        table, pairs = table_for({(0, SR): 9.0, (1, SR): 8.0, (1, RD): 0.5})
        action, pair_id, _, sinr, reselections = decide_action(table, pairs, bank)
        assert action == "transmit" and pair_id == 1 and sinr == 0.5
        assert reselections == 2

    def test_exhaustion_raises(self):
        # relay 1 holds a packet of pair (0, 1), no candidate, and is full:
        # pair (1, 2) can neither receive nor transmit
        bank = BufferBank(3, capacity=1)
        push(bank, (0, 1), "a")
        with pytest.raises(RuntimeError, match="no candidate pair can"):
            decide_action(np.array([[3.0, 1.0]]), [(1, 2)], bank)

    def test_alternation_under_j1(self):
        # scripted SINR sequence always prefers reception; J = 1 forces
        # receive/transmit alternation
        bank = BufferBank(2, capacity=1)
        table, pairs = table_for({(0, SR): 5.0, (0, RD): 1.0}, n_pairs=1)
        actions = []
        for _ in range(6):
            action = decide_action(table, pairs, bank).action
            actions.append(action)
            if action == "receive":
                push(bank, (0, 1), "p")
            else:
                bank.pop_pair((0, 1))
        assert actions == ["receive", "transmit"] * 3


def reference_decision(table, candidates, bank):
    """Brute force: order every entry by (-SINR, pair, hop) and take the
    first one whose buffers allow it, feasibility read off the buffers;
    (None, entries) when none does."""
    def feasible(relays, col):
        buffers = [bank.buffers[r] for r in relays]
        if col == SR:
            return all(len(b) < bank.capacity for b in buffers)
        heads = [b[0] if b else None for b in buffers]
        return heads[0] is not None and all(h is heads[0] for h in heads)

    order = sorted((-table[row, col], row, col, relays)
                   for row, relays in enumerate(candidates)
                   for col in (SR, RD))
    for rank, (neg_sinr, pid, col, relays) in enumerate(order):
        if feasible(relays, col):
            return ("receive", "transmit")[col], pid, relays, -neg_sinr, rank
    return None, len(order)


@st.composite
def selection_cases(draw):
    """A small relay set with every relay pair as a candidate, a bank
    state reached by random feasible pair pushes and pops, and a table
    whose values come from a short list so ties are common."""
    num_relays = draw(st.integers(2, 4))
    bank = BufferBank(num_relays, capacity=draw(st.integers(1, 2)))
    candidates = list(combinations(range(num_relays), 2))
    ops = draw(st.lists(st.tuples(st.integers(0, len(candidates) - 1),
                                  st.booleans()), max_size=12))
    for row, is_push in ops:
        relays = candidates[row]
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
        # every buffered packet came from a candidate, so some entry is
        # feasible
        assert decide_action(table, candidates, bank) \
            == reference_decision(table, candidates, bank)
        assert bank.occupancies() == before       # deciding changes nothing

    def test_all_infeasible_table_raises(self):
        # overlapping pairs at J = 1: (0, 1), no candidate, holds a packet,
        # so (1, 2) and (0, 2) can neither receive nor transmit
        bank = BufferBank(3, capacity=1)
        bank.push_pair((0, 1), object())
        candidates = [(0, 2), (1, 2)]
        table = np.ones((2, 2))
        assert reference_decision(table, candidates, bank) == (None, 4)
        with pytest.raises(RuntimeError, match="no candidate pair can"):
            decide_action(table, candidates, bank)
        assert bank.occupancies() == (1, 1, 0)


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
            action, pair_id, relays, _, _ = decide_action(rng.random((2, 2)),
                                                          list(pairs.values()), bank)
            occ_before = bank.occupancies()
            if action == "receive":
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
        m = machine().run_until(n_packets=20).replicas[0]
        assert m.transmit_slots == 20
        assert m.transmit_slots <= m.receive_slots
        assert m.receive_slots + m.transmit_slots == m.slot
        assert len(m.log) == m.slot

    def test_unbuffered_alternation(self):
        m = machine(buffers_enabled=False).run_until(n_packets=10).replicas[0]
        assert m.log["transmit"].tolist() == [False, True] * 10
        assert m.log["occupancy"].max() <= 1

    def test_unbuffered_transmission_carries_group_id(self):
        log = machine(buffers_enabled=False).run_until(n_packets=10).replicas[0].log
        after = log["transmit"][1:]
        assert not log["transmit"][:-1][after].any()
        assert (log["pair_id"][1:][after] == log["pair_id"][:-1][after]).all()
        assert (log["pair_id"] >= 0).all()
        assert (log["relays"][1:][after] == log["relays"][:-1][after]).all()

    def test_occupancy_bounds_in_trace(self):
        m = machine(buffer_size=2).run_until(n_packets=30).replicas[0]
        assert ((0 <= m.log["occupancy"]) & (m.log["occupancy"] <= 2)).all()

    def test_direct_decoder_runs(self):
        m = machine(decoder=DecoderKind.DIRECT).run_until(n_packets=10).replicas[0]
        assert m.transmit_slots == 10

    def test_xor_scheme_runs(self):
        m = machine(nc_design=Scheme.XOR).run_until(n_packets=10).replicas[0]
        assert m.transmit_slots == 10

    def test_all_pairs_mode_runs(self):
        m = machine(pair_mode=PairMode.ALL_PAIRS).run_until(n_packets=15).replicas[0]
        assert m.transmit_slots == 15
        pair_ids = set(m.log["pair_id"].tolist())
        assert len(pair_ids) > 2   # selection ranges over the C(4,2) pairs

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("m,num_relays", [(1, 2), (1, 3), (3, 3), (3, 6)])
    def test_all_pairs_sets_of_m_relays_decode(self, m, num_relays, scheme):
        # free-form candidates are m-relay sets; noiseless decoding is exact
        for decoder in DecoderKind:
            mach = machine(num_users=num_relays, num_relays=num_relays,
                           group_size=m, packet_length=8, snr_db=120.0,
                           pair_mode=PairMode.ALL_PAIRS, nc_design=scheme,
                           decoder=decoder).run_until(n_packets=4).replicas[0]
            assert mach.transmit_slots == 4
            assert mach.log["bit_errors"].tolist() == [[0]] * mach.slot

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("decoder", list(DecoderKind))
    def test_noiseless_every_lane_exact(self, decoder, buffered):
        # fixed groups at m=2: every lane of one machine decodes every packet
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=16,
                           buffer_size=2, group_size=2, packet_length=16,
                           snr_db=120.0, decoder=decoder,
                           buffers_enabled=buffered, rng_seed=5)
        run = SlotMachine(cfg, 3, schemes=list(Scheme)).run_until(n_packets=12)
        mach = run.replicas[0]
        assert mach.transmit_slots == 12
        assert mach.log["bit_errors"].shape == (mach.slot, len(Scheme))
        assert not mach.log["bit_errors"].any()

    def test_lanes_need_their_own_streams(self):
        # one Generator is spawned into the five streams, so the lanes of
        # a Generator-built machine still draw apart: each lane counts as
        # a one-lane machine of its scheme from the same Generator seed,
        # in both buffer modes, with both decoders and in any lane order
        for decoder in DecoderKind:
            for buffered in (True, False):
                cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                                   packet_length=20, ml_training_len=8,
                                   decoder=decoder, buffers_enabled=buffered)
                every = SlotMachine(cfg, np.random.default_rng(0),
                                    schemes=list(Scheme)).run_until(6).replicas[0]
                for lane, scheme in enumerate(Scheme):
                    alone = SlotMachine(cfg, np.random.default_rng(0),
                                        schemes=[scheme]).run_until(6).replicas[0]
                    assert every.log["bit_errors"][:, lane].tolist() \
                        == alone.log["bit_errors"][:, 0].tolist()
                backwards = SlotMachine(cfg, np.random.default_rng(0),
                                        schemes=list(Scheme)[::-1]).run_until(6)
                assert backwards.replicas[0].log["bit_errors"][:, ::-1].tolist() \
                    == every.log["bit_errors"].tolist()
        with pytest.raises(ValueError, match="at least one scheme"):
            SlotMachine(cfg, 0, schemes=[])
        with pytest.raises(ValueError, match="m <= 3"):
            SlotMachine(SystemConfig(num_users=4, num_relays=4, group_size=4),
                        0, schemes=[Scheme.RANDOM, Scheme.MMSE_DESIGN])

    @pytest.mark.parametrize("buffered", [True, False])
    def test_seed_int_sequence_and_generator_agree(self, buffered):
        # every seed form is spawned into the same six streams
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           packet_length=10, ml_training_len=8,
                           buffers_enabled=buffered)
        expected = [np.random.default_rng(child).bit_generator.state
                    for child in np.random.SeedSequence(21).spawn(6)]
        machines = [SlotMachine(cfg, seed, schemes=list(Scheme))
                    for seed in (21, np.random.SeedSequence(21),
                                 np.random.default_rng(21))]
        for mach in machines:
            assert [g.bit_generator.state for g in mach.replicas[0].rng] == expected
        logs = [repr(mach.run_until(4).replicas[0].log) for mach in machines]
        assert logs[0] == logs[1] == logs[2]

    def test_one_seed_sequence_repeats_its_run(self):
        # spawning advances a SeedSequence, so the machine spawns from a
        # copy: reusing the object repeats the run, whose first use equals
        # today's streams; a Generator seed is consumed
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           packet_length=10, ml_training_len=8)

        def log(seed, schemes=tuple(Scheme)):
            return repr(SlotMachine(cfg, seed, schemes=schemes).run_until(4)
                        .replicas[0].log)

        seq = np.random.SeedSequence(5)
        logs = [log(seq) for _ in range(2)]
        assert seq.n_children_spawned == 0
        assert logs[0] == logs[1] == log(5)
        gen = np.random.default_rng(5)
        first = log(gen, None)
        assert log(gen, None) != first

    def test_random_design_draws_from_its_own_stream(self, monkeypatch):
        # the random lane's rows, in uid order, are uniform draws over the
        # encoder table from the sixth spawned stream, whatever lanes run
        # beside it
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           packet_length=10, ml_training_len=8)
        drawn, design = [], bp.nc.design_G_random

        def recorded(m, rng, count):
            drawn.append(design(m, rng, count))
            return drawn[-1]

        monkeypatch.setattr(bp.nc, "design_G_random", recorded)
        for schemes in ([Scheme.RANDOM], list(Scheme)):
            drawn.clear()
            rep = SlotMachine(cfg, 4, schemes=schemes).run_until(6).replicas[0]
            stream = np.random.default_rng(np.random.SeedSequence(4).spawn(6)[5])
            assert np.array_equal(np.concatenate(drawn),
                                  stream.integers(6, size=rep.receive_slots))
            assert rep.rng.random_design.bit_generator.state \
                == stream.bit_generator.state

    # 7 packets in slices of 2 (the budget is two transmissions' elements)
    @pytest.mark.parametrize("schemes", [list(Scheme), list(Scheme)[1:],
                                         [Scheme.XOR]])
    def test_one_noise_block_per_slice_for_all_lanes(self, monkeypatch, schemes):
        # each slice draws one (T, m, P) block of N(0, 1/2) normals from
        # the noise stream, whatever lanes run, and every lane reads it:
        # XOR's slicer input is its signal Re(conj(f) h) @ ncs plus
        # |f| sqrt(sigma2) times the block's row 0
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           packet_length=10, ml_training_len=8,
                           buffers_enabled=False)
        monkeypatch.setattr(bp, "_SLICE_ELEMENTS", 2 * bp._transmission_elements(cfg))
        blocks, inputs, sent, second_phase = [], [], [], []
        draw, slicer = sm.real_gaussian, bp.rx.hard_decision
        settle = bp.SlotMachine._settle_transmissions

        def counted(rng, shape, variance=1.0):
            normals = draw(rng, shape, variance)
            if second_phase:
                blocks.append((shape, variance, normals.copy()))
            return normals

        def recorded(soft):
            if second_phase:
                inputs.append(soft.copy())
            return slicer(soft)

        def flagged(machine, owners, uids, ordinals, h_rd, starts):
            # the XOR lane's streams, before settle pops them
            if Scheme.XOR in schemes:
                k = schemes.index(Scheme.XOR)
                sent.append((np.array([owner._coded[uid][2][k]
                                       for owner, uid in zip(owners, uids)]), h_rd))
            second_phase.append(1)
            try:
                return settle(machine, owners, uids, ordinals, h_rd, starts)
            finally:
                second_phase.pop()

        monkeypatch.setattr(sm, "real_gaussian", counted)
        monkeypatch.setattr(bp.rx, "hard_decision", recorded)
        monkeypatch.setattr(bp.SlotMachine, "_settle_transmissions", flagged)
        SlotMachine(cfg, 1, schemes=schemes).run_until(7)
        m, P = cfg.group_size, cfg.packet_length
        assert [(shape, variance) for shape, variance, _ in blocks] \
            == [((2, m, P), 0.5)] * 3 + [((1, m, P), 0.5)]
        if Scheme.XOR not in schemes:
            assert inputs == []
            return
        ncs, h_rd = (np.concatenate(parts) for parts in zip(*sent))
        f = h_rd.sum(axis=1)
        signal = np.einsum("tm,tmp->tp", (f.conj()[:, None] * h_rd).real, ncs)
        noise = np.concatenate([normals[:, 0] for *_, normals in blocks])
        assert len(inputs) == len(blocks)
        assert np.allclose(np.concatenate(inputs),
                           signal + np.abs(f)[:, None] * np.sqrt(cfg.noise_var) * noise,
                           rtol=0, atol=1e-12)

    def test_ml_design_runs_once_per_slice(self, monkeypatch):
        # the calibration blocks of a settle's receptions run in slices of
        # the slice budget, here two receptions each, and each reception
        # draws from its own replica's design stream, in its order
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           packet_length=10, ml_training_len=8,
                           nc_design=Scheme.ML, buffers_enabled=False)

        def logs():
            machine = SlotMachine(cfg, replicas=[(False, 1), (False, 2)])
            return [replica.log for replica in machine.run_until(7).replicas]

        whole = logs()
        monkeypatch.setattr(bp, "_SLICE_ELEMENTS",
                            2 * 4 * cfg.group_size * cfg.ml_training_len)
        calls = []
        design = bp.nc.design_G_ml_for_channel

        def counted(noise_var, *args):
            calls.append(len(noise_var))
            return design(noise_var, *args)

        monkeypatch.setattr(bp.nc, "design_G_ml_for_channel", counted)
        sliced = logs()
        assert calls == [2] * 7           # 14 receptions in one settle
        for got, want in zip(sliced, whole):
            assert_same_log(got, want)

    PAPER_TASK = SystemConfig(num_users=6, num_relays=6, spreading_gain=16,
                              buffer_size=4, group_size=2, packet_length=1000,
                              receiver=ReceiverKind.MMSE, rng_seed=1)

    def test_paper_task_peak_stays_within_the_budgets(self):
        # one paper-system sweep task at P = 1000: a buffered and an
        # unbuffered replica, every scheme, 25 packets each, settled as one
        # stack of 54 receptions.  Its traced peak falls in the last first
        # phase slice, and is bounded by what settle() holds whole for the
        # stack (its pair states, their two filter banks and the first
        # phase maps: under three stack thresholds of float64 elements),
        # the packets that wait for their transmission (int8 direct
        # decisions, truth and a stream per lane: (2 + lanes) m P bytes
        # each) and one slice's transients (at most the slice budget's
        # float64 elements): 2.4 MB.  The peak is 1.9 MB, so no float64
        # array of one value per stream symbol of the stack (54 x 2 x
        # 1000: 0.8 MB) fits beside them.
        cfg = self.PAPER_TASK

        def task():
            return SlotMachine(cfg, schemes=list(Scheme),
                               replicas=[(True, 2), (False, 2)])

        task().run_until(1)         # fills the encoder tables' caches
        tracemalloc.start()
        try:
            machine = task().run_until(25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packets = sum(replica.receive_slots for replica in machine.replicas)
        waiting = packets * (2 + len(Scheme)) * cfg.group_size * cfg.packet_length
        assert peak < 8 * (3 * bp._STACK_ELEMENTS + bp._SLICE_ELEMENTS) + waiting

    def test_paper_task_twins_draw_each_position_once(self):
        # the paper task's two replicas share one seed, so they are twins:
        # counted through proxy generators of its streams, its first-phase,
        # second-phase and ml calibration normals and its random design
        # rows are what the replica that needs the most draws alone, not
        # the sum of both
        class Counted:
            def __init__(self, rng, counts, key):
                self.rng, self.counts, self.key = rng, counts, key

            @property
            def bit_generator(self):
                return self.rng.bit_generator

            def standard_normal(self, shape):
                normals = self.rng.standard_normal(shape)
                self.counts[self.key] += normals.size
                return normals

            def integers(self, *args, **kwargs):
                rows = self.rng.integers(*args, **kwargs)
                self.counts[self.key] += rows.size
                return rows

        def counts(replicas):
            counted = Counter()
            machine = SlotMachine(self.PAPER_TASK, schemes=list(Scheme),
                                  replicas=replicas)
            for rep in machine.replicas:
                rep.rng = rep.rng._replace(**{
                    name: Counted(getattr(rep.rng, name), counted, key)
                    for name, key in (("first_phase", "first phase"), ("noise", "noise"),
                                      ("calibration", "ml"),
                                      ("random_design", "random rows"))})
            logs = [rep.log for rep in machine.run_until(25).replicas]
            return counted, logs

        twins, logs = counts([(True, 2), (False, 2)])
        alone = [counts([replica]) for replica in ((True, 2), (False, 2))]
        for log, (_, (want,)) in zip(logs, alone):
            assert log.tobytes() == want.tobytes()
        assert set(twins) == {"first phase", "noise", "ml", "random rows"}
        for key, count in twins.items():
            needs = [once[key] for once, _ in alone]
            assert count == max(needs) < sum(needs), key

    def test_unsettled_transmission_fails_loudly(self):
        # a transmission's errors and notes wait for pass 2: until then
        # the log cannot be read, so no count or trace row reads them
        m = machine(buffers_enabled=False)
        replica = m.replicas[0]
        assert m.advance().action == "receive"
        assert m.advance().action == "transmit"
        with pytest.raises(RuntimeError, match="2 slots wait for settle"):
            BerPoint("random-unbuffered-mmse", 10.0).add(replica.log)
        with pytest.raises(RuntimeError, match="2 slots wait for settle"):
            trace_row(replica.log)
        settled = m.settle().replicas[0].log
        m.settle()                                       # nothing left to run
        assert replica.log.tobytes() == settled.tobytes()
        assert len(settled) == replica.slot == 2
        assert settled["transmit"].tolist() == [False, True]
        assert settled["bit_errors"][1, 0] >= 0 and NOTES[settled["note"][1, 0]] == ""

    def test_rescoring_a_packet_raises(self):
        m = machine(buffers_enabled=False)
        bank = m.replicas[0].bank
        relays = m.advance().relays                      # receive
        packet = bank.buffers[relays[0]][0]
        m.advance()                                      # transmit, scored
        bank.push_pair(relays, packet)                   # the scored packet again
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
        assert m.run_until(n_packets=4).replicas[0].transmit_slots == 4

    def test_seed_or_replicas_required(self):
        # an unseeded machine would draw from OS entropy and never repeat
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8)
        for kw in ({}, dict(seed=1, replicas=[(True, 1)])):
            with pytest.raises(ValueError, match="a seed or replicas"):
                SlotMachine(cfg, **kw)

    def test_run_until_slot_cap_raises(self):
        # 3 slots cannot decode 3 packets: the shortfall must not pass silently
        with pytest.raises(RuntimeError,
                           match=r"decoded \d of 3 requested packets in 3 slots"):
            machine().run_until(n_packets=3, max_slots=3)

    @pytest.mark.parametrize("count", [-1, 2.5, True, np.float64(2.0), "2", None,
                                       [1, -1]])
    def test_run_until_rejects_counts_that_are_not_counts(self, count):
        # -1 would return with nothing done, 2.5 decode 3 packets and True
        # 1; a float would reach the channel draw as a block size
        m = SlotMachine(machine().config, replicas=[(True, 1), (False, 2)])
        with pytest.raises(ValueError, match="a packet count must be >= 0"):
            m.run_until(count)
        assert [replica.slot for replica in m.replicas] == [0, 0]

    def test_run_until_needs_one_count_per_replica(self):
        m = SlotMachine(machine().config, replicas=[(True, 1), (False, 2), (True, 3)])
        with pytest.raises(ValueError, match="2 packet counts for 3 replicas"):
            m.run_until([1, 1])
        assert [replica.slot for replica in m.replicas] == [0, 0, 0]

    def test_run_until_takes_numpy_and_zero_counts(self):
        assert machine().run_until(0).replicas[0].slot == 0
        numpy_count = machine().run_until(np.int64(3)).replicas[0]
        assert numpy_count.transmit_slots == 3
        assert repr(numpy_count.log) == repr(machine().run_until(3).replicas[0].log)
        pair = SlotMachine(machine().config, replicas=[(True, 1), (False, 2)])
        assert [r.transmit_slots for r in pair.run_until(np.array([2, 0])).replicas] \
            == [2, 0]

    def test_trace_rows_match_header(self):
        m = machine().run_until(n_packets=5).replicas[0]
        rows = trace_row(m.log)
        assert len(rows) == m.slot
        assert all(len(row) == len(TRACE_FIELDS) for row in rows)


def assert_same_log(got, want):
    """Every field of two slot logs equal, the SINR to 1e-12 relative."""
    for name in got.dtype.names:
        if name == "sinr":
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0)
        else:
            assert np.array_equal(got[name], want[name]), name


class TestChipSpaceTableDecides:
    @pytest.mark.parametrize("pair_mode", list(PairMode))
    @pytest.mark.parametrize("kind", list(ReceiverKind))
    def test_same_log_as_the_chip_space_table(self, monkeypatch, kind, pair_mode):
        # pass 1 ranks from the link gains; with the table of the N-chip
        # filter banks in its place, buffered machines of all four
        # schemes log the same decisions, bits and errors, and the same
        # SINR to 1e-12 relative
        cfg = SystemConfig(num_users=6, num_relays=6, spreading_gain=16,
                           buffer_size=4, group_size=2, packet_length=8,
                           receiver=kind, pair_mode=pair_mode, rng_seed=5)
        codes = sm.generate_codebook(cfg)

        def chip_table(channel, coords, sigma2, receiver, candidates):
            return chip_sinr_table(channel.effective(codes), sigma2, receiver,
                                   candidates)

        def logs():
            return [SlotMachine(replace(cfg, snr_db=snr), seed,
                                schemes=list(Scheme)).run_until(40).replicas[0].log
                    for seed, snr in ((3, 0.0), (4, 20.0))]

        production = logs()
        monkeypatch.setattr(rs, "build_sinr_table", chip_table)
        for got, want in zip(production, logs()):
            assert got["transmit"].any() and (~got["transmit"]).any()
            assert_same_log(got, want)


class TestFirstHopBasis:
    # pass 2 forms its pair states on the codes' coordinates; with the N
    # chips or a rotated copy of the coordinates in their place, every
    # lane of both buffer modes logs the same slots, bits and errors,
    # and the same SINR to 1e-12 relative
    VARIANTS = {"paper": {}, "rake": dict(receiver=ReceiverKind.RAKE),
                "direct": dict(decoder=DecoderKind.DIRECT),
                "N=4<K": dict(spreading_gain=4), "m=3": dict(group_size=3),
                "all pairs": dict(pair_mode=PairMode.ALL_PAIRS),
                "P=200": dict(packet_length=200)}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logs_independent_of_the_basis(self, variant, seed):
        cfg = SystemConfig(**{"packet_length": 16, "rng_seed": seed,
                              **self.VARIANTS[variant]})
        rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (min(cfg.num_users, cfg.spreading_gain),) * 2))[0]

        def logs(basis=None):
            machine = SlotMachine(cfg, schemes=list(Scheme),
                                  replicas=[(True, seed), (False, seed)])
            if basis is not None:
                machine.coords = basis(machine.coords)
            return [rep.log for rep in machine.run_until(12).replicas]

        coordinates = logs()
        for basis in (lambda _: sm.generate_codebook(cfg),
                      lambda coords: coords @ rotation):
            for got, want in zip(logs(basis), coordinates):
                assert_same_log(got, want)


@st.composite
def machine_cases(draw):
    """A small SlotMachine over every mode and scheme, K and L drawn
    apart (K > L only where free-form pairs serve the groups, buffered
    all-pairs), and a slot count."""
    m = draw(st.sampled_from([1, 2]))
    num_relays = m * draw(st.integers(1, 6 // m))
    buffered = draw(st.booleans())
    pair_mode = draw(st.sampled_from(list(PairMode)))
    most_users = 6 if buffered and pair_mode == PairMode.ALL_PAIRS else num_relays
    cfg = SystemConfig(num_users=m * draw(st.integers(1, most_users // m)),
                       num_relays=num_relays,
                       spreading_gain=8, buffer_size=draw(st.integers(1, 3)),
                       group_size=m, packet_length=draw(st.integers(1, 4)),
                       snr_db=draw(st.sampled_from([0.0, 10.0])),
                       nc_design=draw(st.sampled_from(list(Scheme))),
                       decoder=draw(st.sampled_from(list(DecoderKind))),
                       buffers_enabled=buffered, pair_mode=pair_mode,
                       ml_training_len=8, rng_seed=draw(st.integers(0, 99)))
    return cfg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40))


class Owner:
    """A replica as bp._Shared reads it: its twin group, and here one
    generator."""

    def __init__(self, twins, rng):
        self.twins, self.rng = twins, rng


# per kind: n consecutive items' draws from a generator, and the shape
# of an item's draw where _Shared.stream stands in for the call
DRAWS = {
    "random_raw": lambda rng, n: rng.bit_generator.random_raw((n, 3)),
    "standard_normal": lambda rng, n: rng.standard_normal((n, 2, 3)),
    "design_G_random": lambda rng, n: bp.nc.design_G_random(2, rng, n),
}
ITEM_SHAPES = {"random_raw": (3,), "standard_normal": (2, 3)}


@st.composite
def shared_cases(draw):
    """1-3 twin groups of 1-3 replicas each, each replica at a start
    position (all 0 when aligned) and with its item count in each of 1-4
    consecutive calls, and a kind of draw."""
    calls = draw(st.integers(1, 4))
    aligned = draw(st.booleans())
    replicas = [(group, 0 if aligned else draw(st.integers(0, 3)),
                 draw(st.lists(st.integers(0, 4), min_size=calls, max_size=calls)))
                for group, size in enumerate(draw(st.lists(st.integers(1, 3),
                                                           min_size=1, max_size=3)))
                for _ in range(size)]
    return replicas, draw(st.sampled_from(sorted(DRAWS)))


class TestStackedDataDraw:
    @pytest.mark.parametrize("counts", [(1,), (2, 1, 3), (4, 4)])
    def test_stacked_draw_equals_per_replica_draws(self, counts):
        # one stacked data draw over replicas that are not twins equals
        # each replica's per-reception draws bit for bit, and leaves every
        # replica's stream where those draws leave it
        K, P = 3, 70                  # 210 bits: 4 words, 46 bits dropped
        owners = [Owner(seed, np.random.default_rng(seed))
                  for seed in range(len(counts))]
        single = [np.random.default_rng(seed) for seed in range(len(counts))]
        shared = bp._Shared([owner for owner, n in zip(owners, counts)
                             for _ in range(n)],
                            [p for n in counts for p in range(n)])
        stream = shared.stream(lambda owner: owner.rng)
        got = sm.data_symbols(stream, (sum(counts), K, P))
        expected = np.concatenate([sm.data_symbols(rng.bit_generator, (1, K, P))
                                   for rng, n in zip(single, counts) for _ in range(n)])
        assert np.array_equal(got, expected)
        for a, b in zip(owners, single):
            assert a.rng.bit_generator.state == b.bit_generator.state
        with pytest.raises(ValueError, match="must cover its items"):
            stream.random_raw((sum(counts) + 1, 4))


class TestSharedDraw:
    @settings(max_examples=200, deadline=None)
    @given(shared_cases())
    def test_stacked_draw_equals_per_item_draws(self, case):
        # items stacked by (group, position, replica), as pass 2 stacks
        # them: the stacked draw equals each replica's own per-item draws
        # bit for bit, and leaves every replica's generator where those
        # draws leave it
        replicas, kind = case
        draw = DRAWS[kind]
        owners = [Owner(group, np.random.default_rng(group))
                  for group, _, _ in replicas]
        alone = [np.random.default_rng(group) for group, _, _ in replicas]
        positions = []
        for owner, rng, (_, start, _) in zip(owners, alone, replicas):
            for generator in (owner.rng, rng):
                for _ in range(start):
                    draw(generator, 1)
            positions.append(start)
        for call in range(len(replicas[0][2])):
            items = sorted((group, positions[r] + i, r)
                           for r, (group, _, counts) in enumerate(replicas)
                           for i in range(counts[call]))
            if not items:
                continue
            own = {(r, p): draw(alone[r], 1)[0] for _, p, r in sorted(
                items, key=lambda item: (item[2], item[1]))}
            shared = bp._Shared([owners[r] for *_, r in items],
                                [p for _, p, _ in items])
            if kind == "design_G_random":
                got = shared.draw(lambda owner: owner.rng, draw)
            else:
                stream = getattr(shared.stream(lambda owner: owner.rng), kind)
                with pytest.raises(ValueError, match="must cover its items"):
                    stream((len(items) + 1, *ITEM_SHAPES[kind]))
                got = stream((len(items), *ITEM_SHAPES[kind]))
            assert np.array_equal(got, [own[r, p] for _, p, r in items])
            for r, (_, _, counts) in enumerate(replicas):
                positions[r] += counts[call]
        for owner, rng in zip(owners, alone):
            assert owner.rng.bit_generator.state == rng.bit_generator.state


class TestTwins:
    @settings(max_examples=60, deadline=None)
    @given(machine_cases(), st.integers(1, 40),
           st.sampled_from(["buffered twin alone", "every k slots", "at the end"]),
           st.integers(1, 6))
    def test_twin_logs_equal_one_replica_machines(self, case, unbuffered_slots,
                                                  schedule, k):
        # a buffered and an unbuffered replica of one seed are twins, so
        # pass 2 draws their shared positions once; however their settles
        # fall, each logs what a one-replica machine of its seed and mode
        # logs
        cfg, seed, buffered_slots = case
        assume(cfg.num_users <= cfg.num_relays)      # both modes serve the groups
        slots = (buffered_slots, unbuffered_slots)
        machine = SlotMachine(cfg, schemes=list(Scheme),
                              replicas=[(True, seed), (False, seed)])
        assert [rep.twins for rep in machine.replicas] == [0, 0]
        if schedule == "buffered twin alone":
            for r, n in enumerate(slots):
                for _ in range(n):
                    machine.advance(r)
                machine.settle()
        else:
            for i in range(max(slots)):
                for r, n in enumerate(slots):
                    if i < n:
                        machine.advance(r)
                if schedule == "every k slots" and (i + 1) % k == 0:
                    machine.settle()
            machine.settle()
        for rep, buffered, n in zip(machine.replicas, (True, False), slots):
            alone = SlotMachine(replace(cfg, buffers_enabled=buffered), seed,
                                schemes=list(Scheme))
            for _ in range(n):
                alone.advance()
            assert_same_log(rep.log, alone.settle().replicas[0].log)

    def test_twins_are_replicas_whose_streams_are_equal(self):
        # equal int seeds or equal SeedSequences make twins in either
        # buffer mode; two replicas built from one Generator do not
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8)

        def twins(*seeds):
            machine = SlotMachine(cfg, schemes=list(Scheme), replicas=[
                (i % 2 == 0, seed) for i, seed in enumerate(seeds)])
            return [rep.twins for rep in machine.replicas]

        sequence = np.random.SeedSequence(3, spawn_key=(1, 2))
        assert twins(1, 2, 1, 1) == [0, 1, 0, 0]
        assert twins(sequence, np.random.SeedSequence(3, spawn_key=(1, 2)),
                     np.random.SeedSequence(3, spawn_key=(1, 3))) == [0, 0, 1]
        generator = np.random.default_rng(1)
        assert twins(generator, generator) == [0, 1]

    def test_twins_settle_together(self, monkeypatch):
        # run_until checks the stack threshold after the last replica of a
        # twin group alone, so a group's twins settle in one stack
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           packet_length=10, ml_training_len=8)
        machine = SlotMachine(cfg, schemes=list(Scheme),
                              replicas=[(True, 1), (False, 1), (True, 2), (False, 2)])
        stacks, settle = [], machine.settle

        def recorded():
            stacks.append([len(rep._pending) for rep in machine.replicas])
            return settle()

        machine.settle = recorded
        monkeypatch.setattr(bp, "_STACK_ELEMENTS", 1)
        machine.run_until(3)
        assert [[n > 0 for n in stack] for stack in stacks] \
            == [[True, True, False, False], [False, False, True, True],
                [False, False, False, False]]


class TestPacketLength:
    """P sets only how many symbols a packet carries: pass 1 never reads
    it, and given its slots' channel a packet's symbols are i.i.d., so a
    packet's expected BER is the same at every P.  Packet u of a replica
    at P = 1000 pairs with packet u at P = 100: they share a channel and
    a schedule (common random numbers), which a P-dependent slice or
    budget fault, such as a packet dropped from the score, would break."""

    FIELDS = ("transmit", "pair_id", "relays", "sinr", "reselections", "uid",
              "occupancy")
    LENGTHS = (1000, 100)
    SEEDS = range(1, 7)           # a twin pair per seed: both buffer modes
    PACKETS = 300
    # the bound on each lane's |z|, fixed before the first run: over 200
    # other rng_seeds with other replica seeds, the 800 z had mean -0.01
    # and sd 1.05, 4 exceeded 3 and the largest was 3.81
    Z_BOUND = 4.0

    def test_ber_does_not_depend_on_the_packet_length(self):
        cfg = SystemConfig(snr_db=6.0)                 # the paper system
        m = cfg.group_size
        runs = []
        for P in self.LENGTHS:
            machine = SlotMachine(replace(cfg, packet_length=P), schemes=list(Scheme),
                                  replicas=[(buffered, seed) for seed in self.SEEDS
                                            for buffered in (True, False)])
            runs.append([rep.log for rep in machine.run_until(self.PACKETS).replicas])
        diffs = []
        for long, short in zip(*runs):
            for name in self.FIELDS:
                assert long[name].tobytes() == short[name].tobytes(), name
            sent = long["transmit"]
            order = np.argsort(long["uid"][sent])
            diffs.append((long["bit_errors"][sent] / (m * self.LENGTHS[0])
                          - short["bit_errors"][sent] / (m * self.LENGTHS[1]))[order])
        diffs = np.concatenate(diffs)                  # (packets, lanes)
        assert len(diffs) == 2 * len(self.SEEDS) * self.PACKETS
        z = diffs.mean(axis=0) / (diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs)))
        assert np.all(np.abs(z) <= self.Z_BOUND), z


class TestSlotMachineProperty:
    @settings(max_examples=300, deadline=None)
    @given(machine_cases())
    def test_packets_conserved_and_scored_once_in_fifo_order(self, case):
        cfg, seed, n_slots = case
        mach = SlotMachine(cfg, np.random.default_rng(seed))
        rep = mach.replicas[0]
        pushed, popped = [], []          # (relays, uid) in bank order
        push_pair, pop_pair = rep.bank.push_pair, rep.bank.pop_pair

        def record_push(relays, uid):
            push_pair(relays, uid)
            pushed.append((relays, uid))

        def record_pop(relays):
            uid = pop_pair(relays)
            popped.append((relays, uid))
            return uid

        rep.bank.push_pair, rep.bank.pop_pair = record_push, record_pop
        for _ in range(n_slots):
            decision = mach.advance()
            assert all(0 <= o <= cfg.buffer_size for o in rep.bank.occupancies())
            # advance() raises rather than idle: the oldest buffered packet
            # heads every queue of its relay set (each queue is FIFO), so
            # that pair can transmit, and an empty bank lets every pair
            # receive
            assert decision.action in ("receive", "transmit")
            if decision.action == "transmit":
                assert decision.relays == popped[-1][0]
            else:
                assert decision.relays == pushed[-1][0]
        scored = [uid for _, uid in popped]
        left = {uid for queue in rep.bank.buffers for uid in queue}
        # every packet is scored at most once and the rest are still
        # buffered, on every relay of its set
        assert len(set(scored)) == len(scored) == rep.transmit_slots
        assert len(pushed) == rep.receive_slots
        assert rep.receive_slots == rep.transmit_slots + len(left)
        assert set(scored) | left == {uid for _, uid in pushed}
        for r, queue in enumerate(rep.bank.buffers):
            assert list(queue) == [uid for relays, uid in pushed
                                   if r in relays and uid in left]
        # pass 2 keeps the coded streams of exactly the buffered packets
        assert set(mach.settle().replicas[0]._coded) == left
        log = rep.log
        assert log["decoded_bits"].tolist() == [
            t * cfg.group_size * cfg.packet_length for t in log["transmit"].tolist()]
        # FIFO per relay set: packets leave in the order they arrived
        for relays in {relays for relays, _ in pushed}:
            arrived = [uid for r, uid in pushed if r == relays]
            left_in_order = [uid for r, uid in popped if r == relays]
            assert left_in_order == arrived[:len(left_in_order)]
        # a packet's uid is the index of its reception
        assert [uid for _, uid in pushed] == list(range(len(pushed)))

    @settings(max_examples=200, deadline=None)
    @given(machine_cases(), st.integers(1, 8))
    def test_uid_column_gives_each_packets_delay(self, case, settle_every):
        # a reception logs the uid it pushes and a transmission the uid it
        # pops, whenever settle() runs, so a packet's delay is its
        # transmission's slot minus its reception's
        cfg, seed, n_slots = case
        mach = SlotMachine(cfg, np.random.default_rng(seed))
        rep = mach.replicas[0]
        pushed_at, delays = {}, []          # the bank's own bookkeeping
        push_pair, pop_pair = rep.bank.push_pair, rep.bank.pop_pair

        def record_push(relays, uid):
            push_pair(relays, uid)
            pushed_at[uid] = rep.slot

        def record_pop(relays):
            uid = pop_pair(relays)
            delays.append(rep.slot - pushed_at[uid])
            return uid

        rep.bank.push_pair, rep.bank.pop_pair = record_push, record_pop
        for slot in range(n_slots):
            mach.advance()
            if slot % settle_every == 0:
                mach.settle()
        log = mach.settle().replicas[0].log
        received, sent = np.flatnonzero(~log["transmit"]), np.flatnonzero(log["transmit"])
        assert log["uid"][received].tolist() == list(range(len(received)))
        arrival = received[log["uid"][sent]]     # each sent packet's reception slot
        assert np.all(arrival < sent)
        assert np.array_equal(log["relays"][arrival], log["relays"][sent])
        if not cfg.buffers_enabled:
            assert np.array_equal(arrival, sent - 1)
        assert (sent - arrival).tolist() == delays

    @settings(max_examples=200, deadline=None)
    @given(machine_cases())
    def test_occupancy_steps_by_each_slots_relays(self, case):
        # the log stores one occupancy per slot because the one before a
        # slot is the previous record's (zeros first): a slot adds 1 on a
        # reception's relays, takes 1 off a transmission's and leaves the
        # others
        cfg, seed, n_slots = case
        mach = SlotMachine(cfg, np.random.default_rng(seed))
        for _ in range(n_slots):
            mach.advance()
        log = mach.settle().replicas[0].log
        occupancy = log["occupancy"]
        step = np.diff(occupancy, axis=0, prepend=np.zeros((1, cfg.num_relays), int))
        expected = np.zeros_like(occupancy)
        np.put_along_axis(expected, log["relays"],
                          np.where(log["transmit"], -1, 1)[:, None], axis=1)
        assert np.array_equal(step, expected)
        assert tuple(occupancy[-1].tolist()) == mach.replicas[0].bank.occupancies()
