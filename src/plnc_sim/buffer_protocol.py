"""Relay buffers and the two-mode slot state machine.

A slot machine runs one or more replicas: runs of the same system and
SNR that differ in their seed and buffer mode, as the chunks of a sweep
point do.  Each replica keeps its own random streams, bank, counters
and log, so its log equals that of a one-replica machine built from its
seed and mode; the codes' coordinates, the groups and the candidate
pairs are built once per machine.  A machine runs in two passes.

Pass 1, advance(), runs once per slot of one replica.  Block-fading
link gains are drawn a block of slots ahead, and everything that depends
on the channel alone is computed once per block, as arrays with a
leading slot axis: when buffered, the SINR table over the candidate
pairs and both hops and its ranking (rs.select_best), the table going to
Python lists.  The table reads the gains and the codes' coordinates in
a basis of their span alone, K x min(K, N), so neither pass holds an
N-chip array.
advance() walks the slot's ranking to the first entry the buffers allow
(decide_action); the unbuffered baseline serves its groups round robin,
reception u at slot 2u and its transmission at slot 2u + 1, and draws no
table.  A packet is its uid, the index of its reception: a reception
pushes the uid onto the pair's buffers and a transmission pops it, and
the slot's log row, a plain tuple, carries it, so a packet's delay is
its transmission's slot minus its reception's.  Where pairs are not
groups, reception uid serves group uid mod K/m, the same round robin.
No decision reads the physics of a packet, only the channel and the
buffer occupancies, so this pass decides every slot and makes no NumPy
call per slot.  The pending log rows are its only record of a slot: a
block's gains wait beside them for settle(), and a replica queues its
block's unread table rows and rankings.  run_until draws a block of no
more than the fewest slots its replica still needs, so every slot drawn
there is read; a bare advance() draws one slot.

Pass 2, settle(), runs the physics of every slot of every replica
advanced since the last settle as one set of arrays: for the
receptions, one block of data words (signal_model.data_symbols), the
source-destination and the selected pairs' source-relay filter banks on
the coordinates, whose output maps are those of the N-chip banks
(sm.filter_output_maps), the first phase at symbol level
(signal_model.sample_first_phase) and every lane's encoder designs and
encodes; for the transmissions, the second phase, one noise draw per
slice that every lane reads, then per lane the decode-time MMSE
refinement, the decoders and the scoring.  The second phase and the
designs read the relay-destination gains alone, and no receive filter:
a linear sub-slot's stream is scaled to unit gain, its NCS levels plus
noise of variance nu = sigma2 / |h|^2, and the XOR stream is filtered
by the combined gain, a positive multiple of either receiver's filter.
Every slicer reads the in-phase part of a filter output alone, so
pass 2 samples real outputs only: real gains, and real noise of half
the complex variance.
Every random stream has one purpose and draws one shape per item,
whichever lanes run, so a stream position is an item's index among its
replica's receptions (its uid) or transmissions, and one block of draws
equals the per-item draws bit for bit, whenever settle() runs and
however the items are stacked.  Twins, replicas whose streams stand in
one state at construction (equal int seeds or SeedSequences, as the
buffer modes of one chunk are), draw the same numbers at the same
position, so pass 2 stacks the items position-major within a twin group,
the receptions by (twins, uid, replica) and the transmissions by (twins,
transmission ordinal, replica), and draws each position of a slice once
for every twin that needs it (_Shared).  settle() turns each replica's
pending rows into log records in one np.array call, reads its inputs
from their columns and their slots' gains, a reception's as its pair's
effective vectors, and writes the transmissions' bit_errors and note
codes back in record order; until then the log raises.  A packet's
streams, direct-link decisions, ground truth and encoder rows (int16, -1
for XOR) wait under its uid from its reception's settle to its
transmission's.  run_until settles, after the last replica of a twin
group, whenever the receptions it has advanced since its last settle
reach the stack threshold's count, and at the end, so twins settle
together and the pair states, banks and maps settle() holds whole stay
near that size.  Within a settle the arrays run in slices whose transient
arrays hold about the slice budget, _SLICE_ELEMENTS float64 elements:
each slice pays a fixed cost in NumPy calls, so the budget is sized for
throughput against the L2 cache, not for the smallest footprint.

No coding scheme changes the channel stream or the bank occupancies, so
one machine runs several schemes in lockstep, one lane each: the slot's
channel, filter banks, decision, symbols and first phase are computed
once, and only encoder design, encoding, second phase and decoding run
per lane.

Half duplex is enforced by construction: one action per slot,
system-wide.
"""

import math
from collections import deque
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import network_coding as nc
from . import receivers as rx
from . import relay_selection as rs
from . import signal_model as sm
from .config import DecoderKind, PairMode, Scheme, SystemConfig, check_count

# The slice budget: pass 2's loops run in slices whose transient arrays
# hold about this many float64 elements (1 MB), a constant.  Each slice
# pays a fixed cost of about 40 NumPy calls whatever its size, so the
# budget is sized for throughput, not for the smallest footprint: half
# of a 2 MB per-core L2.  Paper-system rounds ran fastest at it among 1/4
# to 4 times it; twice it was no faster and held more.  The first phase
# of a chunk of 16-symbol packets runs as one slice and of 1000-symbol
# packets 4 at a time, their second phase 13 at a time (12 for a twin
# pair, whose slices end on a whole position); the m=2 mmse design scores
# 85 receptions at a time and the m=3 one a single reception, and the ml
# design calibrates 163 receptions at a time on 100-symbol blocks.
_SLICE_ELEMENTS = 1 << 17

# The block budget: pass 1 draws its channel blocks so that their L K x K
# first-hop MMSE systems, the largest array it holds per slot, hold about
# this many float64 elements (256 KB): 151 slots on the paper system.
# run_until caps a block at the slots a replica still needs anyway.
_BLOCK_ELEMENTS = 1 << 15

# The stack threshold: run_until settles once the receptions it has
# advanced number this over 2 K (m + 1) N, the float64 elements of a pair
# state on N chips: 56 on the paper system.  settle() holds the stack's
# pair states, banks and maps (on the coordinates) whole, whatever the slices.
_STACK_ELEMENTS = 1 << 15


def _slices(n, item_elements, starts=None):
    """Consecutive slices of range(n), each of at most the slice budget,
    _SLICE_ELEMENTS elements, at item_elements per item (at least one
    item).  Given starts, the ascending indices at which a slice may
    start (0 first), every slice starts at one: it holds fewer items, or
    where none fits, as few more as reach the next."""
    step = max(1, _SLICE_ELEMENTS // item_elements)
    if starts is None:
        return [slice(start, start + step) for start in range(0, n, step)]
    starts, bounds = np.append(starts, n), [0]
    while bounds[-1] < n:
        i = np.searchsorted(starts, bounds[-1] + step, "right") - 1
        bounds.append(int(starts[i] if starts[i] > bounds[-1] else starts[i + 1]))
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _reception_elements(config: SystemConfig):
    """The elements a reception's first phase holds in pass 2: the data
    of K users, and the normals, noise, signal and outputs of (1 + m) m
    real streams, for P symbols."""
    m = config.group_size
    return (config.num_users + 4 * (m + 1) * m) * config.packet_length


def _transmission_elements(config: SystemConfig):
    """The elements a transmission's second phase holds in pass 2, per
    symbol of its m sub-slot streams, P symbols each: the noise block
    every lane reads and the linear lanes' noise, then one linear lane's
    filter output with its refined and unmixed outputs; the XOR lane's
    noise, signal and output, P symbols each, hold no more than that."""
    return 5 * config.group_size * config.packet_length


class BufferBank:
    """The L relay FIFO buffers of capacity J with the paired push/pop
    discipline: every relay of a pair stores and releases a packet
    together.  A packet is its uid."""

    def __init__(self, num_relays, capacity):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.buffers = [deque() for _ in range(num_relays)]

    def occupancies(self):
        return tuple(map(len, self.buffers))

    def can_receive(self, relays):
        """True iff every buffer of the pair has occupancy below capacity."""
        if not relays:
            raise ValueError("empty relay tuple")
        for r in relays:
            if len(self.buffers[r]) >= self.capacity:
                return False
        return True

    def can_transmit(self, relays):
        """True iff every buffer of the pair holds the pair's next packet."""
        if not relays:
            raise ValueError("empty relay tuple")
        # heads must be the same packet so the pair decodes jointly
        head = self.buffers[relays[0]]
        if not head:
            return False
        head = head[0]
        for r in relays:
            queue = self.buffers[r]
            if not queue or queue[0] != head:
                return False
        return True

    def push_pair(self, relays, uid):
        if not self.can_receive(relays):
            raise RuntimeError("pair reception with a full buffer")
        for r in relays:
            self.buffers[r].append(uid)

    def pop_pair(self, relays):
        if not self.can_transmit(relays):
            raise RuntimeError("pair transmission without an aligned packet")
        for r in relays:
            uid = self.buffers[r].popleft()
        return uid


_ACTIONS = ("receive", "transmit")     # table columns: source-relay, relay-dest
_HOPS = ("source_relay", "relay_dest")  # the trace's hop column, per action


class Decision(NamedTuple):
    """One slot's action, from which its hop follows."""

    action: str                 # "receive" | "transmit"
    pair_id: int                # the group id when unbuffered
    relays: tuple
    sinr: float                 # nan when unbuffered
    reselections: int


def decide_action(table, candidates, bank: BufferBank, ranking=None):
    """Max-SINR selection: the first entry of the table's ranking whose
    buffers allow it.

    table is the (pairs, 2) array of rs.build_sinr_table over candidates
    (relay tuples), or its rows as lists; ranking is its rs.select_best
    order, computed here when not given.  The Decision's reselections is
    the entry's rank.

    Some entry is always feasible while every buffered packet came from
    a candidate: each relay queue is FIFO, so the oldest buffered packet
    heads every queue of its pair and that pair can transmit, and an
    empty bank lets every pair receive.  An exhausted ranking breaks
    that invariant and raises RuntimeError.
    """
    if ranking is None:
        ranking = rs.select_best(table)
    for rank, (row, col) in enumerate(ranking):
        relays = candidates[row]
        feasible = bank.can_transmit if col else bank.can_receive
        if feasible(relays):
            return Decision(_ACTIONS[col], row, relays, float(table[row][col]), rank)
    raise RuntimeError("no candidate pair can receive or transmit at "
                       f"occupancies {bank.occupancies()}: a buffered packet "
                       "came from no candidate")


# a log record's note codes, one per lane
NOTES = ("", "mmse fallback", "degenerate combined channel")
TRACE_FIELDS = ("slot", "action", "pair_id", "relays", "hop", "sinr",
                "occupancy_before", "occupancy_after", "reselections",
                "decoded_bits", "bit_errors", "note")


def trace_columns(log):
    """The trace fields every lane of a log shares, TRACE_FIELDS up to
    decoded_bits, one tuple per record.  A slot's occupancy_before is
    the record before's occupancy; a machine starts with an empty bank."""
    def joined(rows):           # one template per log, not a join per row
        template = "|".join(["{}"] * rows.shape[1])
        return [template.format(*row) for row in rows.tolist()]

    transmit, occupancy = log["transmit"].tolist(), log["occupancy"]
    after = joined(occupancy)
    return list(zip(
        range(len(log)), [_ACTIONS[t] for t in transmit], log["pair_id"].tolist(),
        joined(log["relays"]), [_HOPS[t] for t in transmit],
        [f"{s:.6g}" if math.isfinite(s) else "" for s in log["sinr"].tolist()],
        ["|".join(["0"] * occupancy.shape[1])] + after[:-1], after,
        log["reselections"].tolist(), log["decoded_bits"].tolist()))


def trace_row(log, lane=0, columns=None):
    """The trace fields of every slot of a log as one lane saw it, one
    row per record; columns are the log's trace_columns, computed here
    when not given."""
    if columns is None:
        columns = trace_columns(log)
    return [[*shared, errors, NOTES[note]] for shared, errors, note in zip(
        columns, log["bit_errors"][:, lane].tolist(), log["note"][:, lane].tolist())]


class RngStreams(NamedTuple):
    """One generator per purpose, spawned from a replica's seed in this
    order.  Every lane of a slot machine reads the streams it needs
    straight from its replica: all lanes share the channel, data,
    first-phase and second-phase noise streams, the ml design reads the
    calibration stream and the random design its own.  No stream's
    draws depend on which lanes run, so a lane's counts equal those of a
    one-lane machine of its scheme built from the same seed (common
    random numbers)."""

    channel: np.random.Generator   # fading, one draw per slot
    data: np.random.Generator      # user bits, whole 64-bit words per reception
    noise: np.random.Generator     # second-phase receiver noise, every lane's
    calibration: np.random.Generator   # ml design's calibration noise
    first_phase: np.random.Generator   # first-phase receiver noise
    random_design: np.random.Generator     # random design, one row per reception


class _Shared:
    """Stands in for the generators of one slice of a stack whose items
    are stream positions of replicas, stacked by twin group, position and
    replica as pass 2 stacks them: a replica's items in the slice are
    consecutive positions from where its stream stands.

    Twins stand on one sequence of states, so the twins of a group whose
    streams stand at one position draw each position once: the one that
    needs the most positions draws them, in pieces that end where
    another twin's positions end, and hands that twin its state there.
    A twin that stands elsewhere draws its own.  A Generator keeps no
    normals between calls and its state carries a buffered 32-bit word,
    so the handed state is the one the twin's own draws leave.  Every
    item gets a copy, never a view of a twin's draw, so a caller may
    scale its draw in place."""

    def __init__(self, owners, positions):
        first, count = {}, {}
        for owner, position in zip(owners, positions):
            first.setdefault(owner, position)
            count[owner] = count.get(owner, 0) + 1
        runs = {}          # (twins, first position) -> owners
        for owner, position in first.items():
            runs.setdefault((owner.twins, position), []).append(owner)
        # each run is drawn in turn, [(owner, its count)] by count
        self.runs, offset, rows = [], {}, 0
        for (_, start), members in runs.items():
            members.sort(key=count.get)
            self.runs.append([(owner, count[owner]) for owner in members])
            offset.update(dict.fromkeys(members, rows - start))
            rows += count[members[-1]]
        self.size = len(owners)
        index = [offset[owner] + position for owner, position in zip(owners, positions)]
        self.index = None if index == list(range(rows)) else np.array(index)

    def draw(self, pick, draw):
        """Every item's draw, stacked: draw(generator, n) draws n
        positions on a leading axis, and pick(replica) is a replica's
        generator."""
        parts = []
        for run in self.runs:
            leader, done = pick(run[-1][0]), 0
            for owner, n in run:
                if n > done:
                    parts.append(draw(leader, n - done))
                    done = n
                if owner is not run[-1][0]:
                    pick(owner).bit_generator.state = leader.bit_generator.state
        drawn = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return drawn if self.index is None else drawn[self.index]

    def stream(self, pick):
        """A stand-in for the generators pick(replica) gives, for
        standard_normal and random_raw calls whose leading axis is the
        slice's items."""
        def method(bound):
            def call(shape):
                if shape[0] != self.size:
                    raise ValueError("a stacked draw must cover its items")
                return self.draw(pick, lambda rng, n: bound(rng)((n, *shape[1:])))
            return call
        return SimpleNamespace(
            standard_normal=method(lambda rng: rng.standard_normal),
            random_raw=method(lambda rng: rng.bit_generator.random_raw))


def _concat(parts):
    """One sm.ChannelGains of parts of it, concatenated on the leading axis."""
    return sm.ChannelGains(*map(np.concatenate, zip(*(vars(part).values()
                                                      for part in parts))))


class Replica:
    """One run of a slot machine: its config (which sets the buffer
    mode), its random streams, bank, counters and log (bit errors and
    notes for each of its lanes), the queue of its channel block's
    unread slots, and the pending slots' log rows and channel blocks
    that settle() reads.

    The bank is the only record of buffered packets.  Each reception
    slot pushes one packet and each transmission slot decodes one, so
    receive_slots and transmit_slots count packets too; log holds one
    record per slot, indexed by slot number, once settle() has run.
    Candidate pair i is the relay tuple candidates[i], the groups' relay
    rows whenever pairs are groups (fixed groups, or unbuffered).
    """

    def __init__(self, config, candidates, pairs_are_groups, seed, lanes):
        self.config = config
        if isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(
                seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
                n_children_spawned=seed.n_children_spawned)
        self.rng = RngStreams(*np.random.default_rng(seed).spawn(len(RngStreams._fields)))
        self.candidates = candidates
        self.pairs_are_groups = pairs_are_groups
        self.bank = BufferBank(config.num_relays, config.buffer_size)
        i4 = np.int32
        self._log = np.zeros(0, [          # occupancy after the slot, note in NOTES
            ("transmit", bool), ("pair_id", i4), ("relays", i4, (config.group_size,)),
            ("sinr", float), ("reselections", i4), ("uid", i4), ("decoded_bits", i4),
            ("occupancy", i4, (config.num_relays,)),
            ("bit_errors", i4, (lanes,)), ("note", np.int8, (lanes,))])
        self._pending = []       # the log rows of the slots to settle
        self.slot = 0
        self.receive_slots = 0
        self.transmit_slots = 0
        self._last_scored_uid = {}   # relay pair -> uid; rises under FIFO
        self._block = deque()    # unread block slots: (table row, ranking) or None
        self._blocks = []        # ChannelGains from the first pending slot on
        self._coded = {}         # uid -> (direct, truth, ncs, encoder rows)
        self.twins = None        # the machine's index of its twin group

    @property
    def log(self):
        """The slots' records; RuntimeError while a slot waits for settle()."""
        if self._pending:
            raise RuntimeError(f"{len(self._pending)} slots wait for settle()")
        return self._log


class SlotMachine:
    """Sequential slot-level simulator for one Monte-Carlo trial, or for
    several replicas of one system and SNR that settle together.

    With buffers disabled a replica degenerates to fixed two-phase
    relaying: groups are served round robin and every reception slot is
    immediately followed by the paired transmission slot.

    schemes gives one lane per entry (default: config.nc_design alone);
    a record holds each lane's errors and notes.  replicas lists
    (buffers_enabled, seed) per replica; without it, seed gives the one
    replica (config.buffers_enabled, seed).  A seed (an int, a
    SeedSequence or a Generator) is spawned into the replica's six
    RngStreams.  A SeedSequence is copied first, so one object gives the
    same run every time; a Generator is consumed, as spawning advances
    it.  Group g's users are row g of group_users.  The log, bank, slot
    counters and streams are per replica: a one-replica machine's are
    machine.replicas[0]'s.  Replicas whose streams stand in one state at
    construction, as equal int seeds or SeedSequences give them and two
    replicas built from one Generator do not, are twins: pass 2 draws
    their equal numbers once.
    """

    def __init__(self, config: SystemConfig, seed=None, schemes=None,
                 replicas=None):
        self.config = config
        schemes = (config.nc_design,) if schemes is None else tuple(schemes)
        if not schemes:
            raise ValueError("a slot machine needs at least one scheme")
        for scheme in set(schemes) - {config.nc_design}:
            replace(config, nc_design=scheme)     # the scheme's config checks
        self.schemes = schemes
        if (seed is None) == (replicas is None):
            raise ValueError("a slot machine takes a seed or replicas, "
                             "one of the two")
        if replicas is None:
            replicas = [(config.buffers_enabled, seed)]
        self.coords = rx.code_coordinates(sm.generate_codebook(config))
        setup_rng = np.random.default_rng([config.rng_seed, 0x6E0])
        self.group_users, group_relays = nc.make_group_assignments(config,
                                                                   setup_rng)
        modes = {}
        for buffered, _ in replicas:
            if buffered in modes:
                continue
            # the unbuffered baseline serves the fixed groups in every pair mode
            groups = config.pair_mode == PairMode.FIXED_GROUPS or not buffered
            candidates = rs.candidate_pairs(
                group_relays, config.num_relays, config.group_size,
                PairMode.FIXED_GROUPS if groups else config.pair_mode)
            modes[buffered] = (replace(config, buffers_enabled=buffered),
                               candidates, groups)
        self.replicas = tuple(Replica(*modes[buffered], seed, len(schemes))
                              for buffered, seed in replicas)
        # twins: replicas whose streams stand in one state
        twins = {}
        for rep in self.replicas:
            rep.twins = twins.setdefault(
                repr([rng.bit_generator.state for rng in rep.rng]), len(twins))

    # -- pass 1: decisions, one slot of one replica at a time ---------------

    def _next_block(self, replica, need):
        """Draw the replica's next block of link gains, need slots or the
        block budget's, _BLOCK_ELEMENTS, on the (L, K, K) first-hop MMSE
        systems (151 on the paper system), whichever is fewer.  The gains
        wait in the replica's blocks for settle(); its block queues one
        entry per slot, buffered the slot's SINR table row over both hops
        and its ranking, computed for the whole block, else None.  A
        block of n slots draws and ranks what n blocks of one do."""
        cfg = replica.config
        K = cfg.num_users
        size = min(need, max(1, _BLOCK_ELEMENTS // (cfg.num_relays * K * K)))
        gains = sm.draw_channels(cfg, replica.rng.channel, size)
        if cfg.buffers_enabled:
            table = rs.build_sinr_table(gains, self.coords, cfg.noise_var,
                                        cfg.receiver, replica.candidates)
            replica._block.extend(zip(table.tolist(), rs.select_best(table)))
        else:
            replica._block.extend([None] * size)
        replica._blocks.append(gains)

    def advance(self, replica=0) -> Decision:
        """Pass 1 for one slot of a replica: take the slot from the
        replica's block, drawing a one-slot block when none is left,
        choose the action, push or pop the packet's uid, and append the
        slot's log row (a transmission's bit_errors and note wait for
        settle()).  The slot's gains wait for settle() in the replica's
        blocks."""
        rep = self.replicas[replica]
        if not rep._block:
            self._next_block(rep, 1)
        cfg, bank = rep.config, rep.bank
        if cfg.buffers_enabled:
            row, ranking = rep._block[0]
            decision = decide_action(row, rep.candidates, bank, ranking)
        else:
            # reception uid serves group uid mod K/m, and is followed by
            # the group's transmission: the group served last transmits
            # while its relays hold a packet
            pair_id, action = (rep.receive_slots - 1) % cfg.num_groups, "transmit"
            if not bank.can_transmit(rep.candidates[pair_id]):
                pair_id, action = rep.receive_slots % cfg.num_groups, "receive"
            decision = Decision(action, pair_id, rep.candidates[pair_id],
                                float("nan"), 0)
        pair_id, relays = decision.pair_id, decision.relays
        transmit = decision.action == "transmit"
        if not transmit:
            uid = rep.receive_slots
            bank.push_pair(relays, uid)
            rep.receive_slots += 1
        else:
            uid = bank.pop_pair(relays)
            if uid <= rep._last_scored_uid.get(relays, -1):
                raise RuntimeError("packet scored twice")
            rep._last_scored_uid[relays] = uid
            rep.transmit_slots += 1
        rep._block.popleft()
        bits = transmit * cfg.group_size * cfg.packet_length
        # the record's fields: transmit, then the decision's, then the rest
        rep._pending.append((transmit, *decision[1:], uid, bits, bank.occupancies(), 0, 0))
        rep.slot += 1
        return decision

    # -- pass 2: physics, as arrays over every replica's pending slots -------

    def settle(self):
        """Pass 2: run every reception, then every transmission, advanced
        since the last settle in any replica, fill the transmissions'
        errors and notes and append the slots' records to the replicas'
        logs.  Returns self."""
        if not any(rep._pending for rep in self.replicas):
            return self
        records = [np.array(rep._pending, rep._log.dtype) for rep in self.replicas]
        receptions, transmissions, sent = self._inputs(records)
        if receptions[0]:
            self._settle_receptions(*receptions)
        if transmissions[0]:
            stacked = np.concatenate(records)
            stacked["bit_errors"][sent], stacked["note"][sent] = \
                self._settle_transmissions(*transmissions)
            records = np.split(stacked, np.cumsum([len(rec) for rec in records[:-1]]))
        for rep, rec in zip(self.replicas, records):
            rep._log, rep._pending = np.concatenate((rep._log, rec)), []
        return self

    def _inputs(self, records):
        """Pass 2's inputs from the pending records and their slots' gains,
        stacked position-major within twin groups.  The receptions, by
        (twin group, uid, replica): each one's replica, uid, group and
        pair's gains (relays in order on the relay axis).  The
        transmissions, by (twin group, ordinal among its replica's
        transmissions, replica): each one's replica, popped uid, ordinal
        and pair's relay-destination gains.  Each stack ends with the
        indices of its items that start a twin group's position, where
        its slices may start.  Last come the transmissions' indices in the
        records, concatenated.  A replica keeps only its block's unread
        slots' gains."""
        groups, ordinals, gains = [], [], []
        for rep, rec in zip(self.replicas, records):
            transmit = rec["transmit"]
            groups.append(rec["pair_id"] if rep.pairs_are_groups
                          else rec["uid"] % rep.config.num_groups)
            ordinals.append(np.cumsum(transmit)
                            + (rep.transmit_slots - np.count_nonzero(transmit) - 1))
            if rep._blocks:
                block = _concat(rep._blocks)
                gains.append(block[:len(rec)])
                rep._blocks = [block[len(rec):]] if rep._block else []
        transmit, relays, uids = (np.concatenate([rec[name] for rec in records])
                                  for name in ("transmit", "relays", "uid"))
        replica = np.repeat(np.arange(len(records)), [len(rec) for rec in records])
        twins = np.array([rep.twins for rep in self.replicas])[replica]
        positions = np.where(transmit, np.concatenate(ordinals), uids)
        order = np.lexsort((replica, positions, twins, transmit))
        received, sent = np.split(order, [len(order) - np.count_nonzero(transmit)])
        gains = _concat(gains)
        h_rd = np.take_along_axis(gains.h_rd, relays, axis=1)
        h_sr = np.take_along_axis(gains.h_sr[received], relays[received, None], axis=2)
        pairs = sm.ChannelGains(h_rd[received], gains.h_sd[received], h_sr)

        def owners(items):
            return [self.replicas[r] for r in replica[items].tolist()]

        def starts(items):
            return np.flatnonzero(np.diff(twins[items], prepend=-1)
                                  | np.diff(positions[items], prepend=-1))

        receptions = (owners(received), uids[received].tolist(),
                      np.concatenate(groups)[received], pairs, starts(received))
        return receptions, (owners(sent), uids[sent].tolist(), positions[sent].tolist(),
                            h_rd[sent], starts(sent)), sent

    def _stream_stats(self, h_rd):
        """The noise variances nu = sigma2 / |h|^2 (..., m) of relay
        streams that each occupy a sub-slot alone, on relay-destination
        gains h_rd (..., m), scaled to unit gain (either receiver's
        filter is h times a positive number): all that the coding-matrix
        designs and decoders read.  A gain whose nu is not finite (zero,
        or |h|^2 underflowing) raises ValueError."""
        with np.errstate(divide="ignore", over="ignore"):
            nu = self.config.noise_var / np.abs(h_rd) ** 2
        if not np.all(np.isfinite(nu)):
            raise ValueError("degenerate channel: a stream's gain is zero "
                             "or underflows")
        return nu

    def _designs(self, state, users, filters_sr, owners, uids, starts):
        """Every lane's encoders for the stacked receptions as rows of
        nc.encoder_table, (R, lanes) int16, -1 for XOR; each reception
        draws from its owner replica's random design and calibration
        streams at its uid, and the ml design's slices start where starts
        allow.  The ml and mmse designs read the pair's relay-destination
        statistics; mmse also reads the relays' detection error
        probabilities."""
        cfg = self.config
        m = cfg.group_size
        nu = flips = None
        rows = np.full((len(users), len(self.schemes)), -1, dtype=np.int16)
        for k, scheme in enumerate(self.schemes):
            if scheme == Scheme.XOR:
                continue
            if scheme == Scheme.RANDOM:
                rows[:, k] = _Shared(owners, uids).draw(
                    lambda r: r.rng.random_design,
                    lambda rng, n: nc.design_G_random(m, rng, n))
                continue
            if nu is None:
                nu = self._stream_stats(state.h_rd)
            if scheme == Scheme.ML:
                # per reception: the calibration normals and their noise
                rows[:, k] = np.concatenate([
                    nc.design_G_ml_for_channel(
                        nu[s], cfg.ml_training_len,
                        _Shared(owners[s], uids[s]).stream(
                            lambda r: r.rng.calibration))[0]
                    for s in _slices(len(users), 4 * m * cfg.ml_training_len, starts)])
                continue
            if flips is None:
                flips = rx.detection_error_probs(users, state, filters_sr,
                                                 cfg.noise_var)
            # per reception: the (rows, 2^(m^2), m, 2^m) slicer errors and
            # the distinct ones they are gathered from, under twice that
            scores = 2 * len(nc.encoder_table(m).G) * 2 ** (m * m + m) * m
            rows[:, k] = np.concatenate([
                nc.select_G_mmse(nu[s], flip_probs=flips[s])[0]
                for s in _slices(len(users), scores)])
        return rows

    def _settle_receptions(self, owners, uids, groups, pairs, starts):
        """First phase of the stacked receptions, each with its owner
        replica, uid (its streams' position), group and pair's gains, in
        slices that start where starts allow: all sources transmit, each
        selected pair detects its group; every lane designs its encoders
        and encodes, and the packets' streams (the linear lanes' NCS levels
        stored as int8), the destination's direct decisions, the ground
        truth and encoder rows are kept in their replica until their
        transmission."""
        cfg = self.config
        P = cfg.packet_length
        state = pairs.effective(self.coords)
        users = self.group_users[groups]
        filters_sr = rx.source_relay_filter_bank(state, cfg.noise_var, cfg.receiver)
        filters_sd = rx.source_dest_filter_bank(state, cfg.noise_var, cfg.receiver)
        rows = self._designs(state, users, filters_sr, owners, uids, starts)
        gains, colour = sm.first_phase_maps(state, users, filters_sd, filters_sr)
        for s in _slices(len(uids), _reception_elements(cfg), starts):
            shared = _Shared(owners[s], uids[s])
            symbols = sm.data_symbols(shared.stream(lambda r: r.rng.data),
                                      (len(uids[s]), cfg.num_users, P))
            soft_sd, soft_sr = sm.sample_first_phase(
                symbols, (gains[s], colour[s]), cfg.noise_var,
                shared.stream(lambda r: r.rng.first_phase))
            direct = rx.hard_decision(soft_sd)
            detected = rx.hard_decision(soft_sr)        # [..., relay, user, symbol]
            truth = np.take_along_axis(symbols, users[s][:, :, None], axis=1)
            ncs = np.stack([nc.xor_encode(detected) if scheme == Scheme.XOR
                            else nc.encode_ncs(rows[s, k], detected)
                            for k, scheme in enumerate(self.schemes)],
                           axis=1).astype(np.int8)
            for i, (owner, uid) in enumerate(zip(owners[s], uids[s])):
                owner._coded[uid] = (direct[i], truth[i], ncs[i], rows[s][i])

    def _settle_transmissions(self, owners, uids, ordinals, h_rd, starts):
        """Second phase of the stacked transmissions, each with its owner
        replica, popped uid, ordinal among the replica's transmissions
        (its noise stream's position) and pair's relay-destination gains
        (T, m), in slices that start where starts allow: send each
        packet's NCS streams in every lane, decode at the destination and
        score against the truth; returns the (packets, lanes) bit errors
        and note codes.  Each slice draws one block of N(0, 1/2) normals,
        m streams of P symbols per packet and a twin group's positions
        once, and every lane reads it: a linear lane's unit-gain stream j
        adds sqrt(nu_j) times row j, and the XOR stream adds |f|
        sqrt(sigma2) times row 0."""
        cfg = self.config
        m, P = cfg.group_size, cfg.packet_length
        # stacked copies only: a packet's arrays are views that keep its
        # reception's slice alive
        direct, truth, ncs, rows = map(np.array, zip(*[
            owner._coded.pop(uid) for owner, uid in zip(owners, uids)]))
        schemes = self.schemes
        xor = [k for k, scheme in enumerate(schemes) if scheme == Scheme.XOR]
        linear = [k for k in range(len(schemes)) if k not in xor]
        errors, notes = np.zeros((2, len(uids), len(schemes)), dtype=int)
        if xor:
            signal, scale, degenerate = self._xor_streams(h_rd)
            notes[np.ix_(degenerate, xor)] = NOTES.index("degenerate combined channel")
        if linear:
            nu = self._stream_stats(h_rd)
            colour = np.sqrt(nu)[:, :, None]
            decoders = dict.fromkeys(linear)
            for k in linear:
                if schemes[k] == Scheme.MMSE_DESIGN:
                    decoders[k], fallback = nc.design_G_mmse(rows[:, k], nu)
                    notes[fallback, k] = NOTES.index("mmse fallback")
        for s in _slices(len(uids), _transmission_elements(cfg), starts):
            normals = sm.real_gaussian(
                _Shared(owners[s], ordinals[s]).stream(lambda r: r.rng.noise),
                (len(uids[s]), m, P), 0.5)
            for k in xor:
                soft = (signal[s] @ ncs[s, k])[:, 0] + scale[s] * normals[:, 0]
                decoded = nc.xor_decode(rx.hard_decision(soft), direct[s])
                errors[s, k] = np.sum(decoded != truth[s], axis=(1, 2))
            if linear:
                noise = colour[s] * normals
            for k in linear:
                z = ncs[s, k] + noise
                refine = None if decoders[k] is None else decoders[k][s]
                if cfg.decoder == DecoderKind.JOINT:
                    decoded = nc.decode_joint(rows[s, k], z, refine)
                else:
                    ncs_est = nc.detect_ncs(rows[s, k], z, refine)
                    decoded = nc.decode_with_direct(rows[s, k], ncs_est, direct[s])
                errors[s, k] = np.sum(decoded != truth[s], axis=(1, 2))
        return errors, notes

    def _xor_streams(self, h_rd):
        """The relays of a pair send on one code and (nominally) the same
        symbol, so one filter serves the combined channel, the sum of the
        gains h_rd (T, m).  Either receiver's filter is the combined gain
        f times a positive number, which moves no sign the slicer reads,
        so f serves both.  Returns its output's real gains
        Re(conj(f) h_l) (T, 1, m), the in-phase signal the slicer reads,
        the scales |f| sqrt(sigma2) (T, 1) of its N(0, 1/2) noise, and
        which combined channels are degenerate (their filter is the
        code's)."""
        combined = h_rd.sum(axis=1)
        degenerate = np.abs(combined) ** 2 < 1e-30
        f = np.where(degenerate, 1.0, combined)[:, None, None]
        sigma2 = self.config.noise_var
        gains, _, colour = rx.rank_one_outputs(f, h_rd[:, None, :], sigma2)
        return gains.real, colour[:, 0] * math.sqrt(sigma2), degenerate

    # -- slot driver -------------------------------------------------------

    def run_until(self, n_packets, max_slots=None):
        """Advance each replica in turn until it has decoded n_packets
        (one count for every replica, or a sequence of one per replica;
        each an integer >= 0, else ValueError), in blocks of at most
        (n - transmitted) + max(0, n - received) slots, so it draws no
        channel slot it does not read.  The replicas settle together once
        the receptions advanced here since the last settle reach the stack
        threshold (_STACK_ELEMENTS; 56 on the paper system), checked after
        the last replica of each twin group, so twins settle together and
        pass 2 draws their shared positions once, and at the end: settle()
        holds the stack's pair states, banks and maps whole, so the
        threshold, not the slice budget, bounds them.
        Raises RuntimeError when a replica reaches the slot cap (default
        16 n_packets + 64, so pathological configs cannot spin forever)
        first."""
        counts = ([n_packets] * len(self.replicas) if np.ndim(n_packets) == 0
                  else n_packets)
        counts = [check_count("a packet count", n, 0) for n in counts]
        if len(counts) != len(self.replicas):
            raise ValueError(f"{len(counts)} packet counts for "
                             f"{len(self.replicas)} replicas")
        cfg = self.config
        stack = _STACK_ELEMENTS // (2 * cfg.num_users * (cfg.group_size + 1)
                                    * cfg.spreading_gain)
        last = {rep.twins: r for r, rep in enumerate(self.replicas)}
        stacked = 0              # receptions advanced since the last settle
        for r, (replica, n) in enumerate(zip(self.replicas, counts)):
            cap = 16 * n + 64 if max_slots is None else max_slots
            received = replica.receive_slots
            while replica.transmit_slots < n and replica.slot < cap:
                if not replica._block:
                    self._next_block(replica, n - replica.transmit_slots
                                     + max(0, n - replica.receive_slots))
                self.advance(r)
            if replica.transmit_slots < n:
                raise RuntimeError(f"decoded {replica.transmit_slots} of {n} "
                                   f"requested packets in {replica.slot} slots")
            if replica.transmit_slots > replica.receive_slots:
                raise RuntimeError("decoded more packets than were pushed")
            stacked += replica.receive_slots - received
            if last[replica.twins] == r and stacked >= stack:
                self.settle()
                stacked = 0
        return self.settle()
