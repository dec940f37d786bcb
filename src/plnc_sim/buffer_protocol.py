"""Relay buffers and the two-mode slot state machine.

A slot machine runs in two passes.

Pass 1, advance(), runs once per slot.  Block-fading channels are
drawn a block of slots ahead, and everything that depends on the
channel alone is computed once per block, as arrays with a leading slot
axis: when buffered, the source-relay and relay-destination filter
banks and the SINR table over the candidate pairs and both hops.
advance() takes the slot's row of these and picks the best feasible
action: the first entry of the table's ranking that the buffers allow;
the unbuffered baseline serves its groups round robin.  A packet is its
uid, the index of its reception: a reception pushes the uid onto the
pair's buffers and a transmission pops it; the slot's Decision becomes
a plain row tuple.  No decision reads the physics of a packet, only the
channel and the buffer occupancies, so this pass decides every slot.
A reception keeps its group and the pair's slice of the slot's channel
(and, buffered, of its source-relay bank) for pass 2, and a
transmission the pair's relay-destination gains.

Pass 2, settle(), runs the physics of every slot advanced since the
last settle as arrays: for the receptions, one data block, the
source-destination filter banks (and, unbuffered, the selected pairs'
source-relay banks), the first phase at symbol level
(signal_model.sample_first_phase) and every lane's encoder designs and
encodes; for the transmissions, the second phase, one noise draw per
slice for all lanes of a kind, then per lane the decode-time MMSE
refinement, the decoders and the scoring.  settle() turns the pending
rows into log records in one np.array call and writes the transmissions'
bit_errors and note codes into them; until then the log raises.
A packet's group, streams, direct-link decisions and ground truth wait
under its uid from its reception's settle to its transmission's.
run_until calls settle() once at the end.  Every random stream has one
purpose and the same draw shape on every call, so one block of draws
equals the per-slot draws bit for bit, whenever settle() runs.  The
arrays run in slices whose transient arrays hold about _SLICE_ELEMENTS
float64 elements.

No coding scheme changes the channel stream or the bank occupancies, so
one machine runs several schemes in lockstep, one lane each: the slot's
channel, filter banks, decision, symbols and first phase are computed
once, and only encoder design, encoding, second phase and decoding run
per lane.

Half duplex is enforced by construction: one action per slot,
system-wide.
"""

from collections import deque
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import network_coding as nc
from . import receivers as rx
from . import relay_selection as rs
from . import signal_model as sm
from .config import DecoderKind, Hop, PairMode, Scheme, SystemConfig

# Pass 2 and the channel blocks run in slices whose transient arrays
# hold about this many float64 elements (256 KB), a constant: a channel
# block holds 28 slots on the paper system; the first and second phase
# of a chunk of 16-symbol packets run as one slice and 1000-symbol
# packets one at a time; the m=2 mmse design scores 21 receptions at a
# time and the m=3 one a single reception.
_SLICE_ELEMENTS = 1 << 15


def _slices(n, item_elements):
    """Consecutive slices of range(n), each of at most _SLICE_ELEMENTS
    elements at item_elements per item (at least one item)."""
    step = max(1, _SLICE_ELEMENTS // item_elements)
    return [slice(start, start + step) for start in range(0, n, step)]


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
        return tuple(len(b) for b in self.buffers)

    def can_receive(self, relays):
        """True iff every buffer of the pair has occupancy below capacity."""
        if not relays:
            raise ValueError("empty relay tuple")
        return all(len(self.buffers[r]) < self.capacity for r in relays)

    def can_transmit(self, relays):
        """True iff every buffer of the pair holds the pair's next packet."""
        if not relays:
            raise ValueError("empty relay tuple")
        queues = [self.buffers[r] for r in relays]
        # heads must be the same packet so the pair decodes jointly
        return all(queues) and all(q[0] == queues[0][0] for q in queues)

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


class Decision(NamedTuple):
    """One slot's action, from which its hop follows."""

    action: str                 # "receive" | "transmit"
    pair_id: int                # the group id when unbuffered
    relays: tuple
    sinr: float                 # nan when unbuffered
    reselections: int


def decide_action(table, candidates, bank: BufferBank):
    """Max-SINR selection: the first entry of the table's ranking whose
    buffers allow it.

    table is the (pairs, 2) array of rs.build_sinr_table over candidates
    (relay tuples); the Decision's reselections is the entry's rank.

    Some entry is always feasible while every buffered packet came from
    a candidate: each relay queue is FIFO, so the oldest buffered packet
    heads every queue of its pair and that pair can transmit, and an
    empty bank lets every pair receive.  An exhausted ranking breaks
    that invariant and raises RuntimeError.
    """
    for rank, (row, col) in enumerate(rs.select_best(table)):
        relays = candidates[row]
        feasible = bank.can_transmit if col else bank.can_receive
        if feasible(relays):
            return Decision(_ACTIONS[col], row, relays, float(table[row, col]), rank)
    raise RuntimeError("no candidate pair can receive or transmit at "
                       f"occupancies {bank.occupancies()}: a buffered packet "
                       "came from no candidate")


# a log record's note codes, one per lane
NOTES = ("", "mmse fallback", "degenerate combined channel")
TRACE_FIELDS = ("slot", "action", "pair_id", "relays", "hop", "sinr",
                "occupancy_before", "occupancy_after", "reselections",
                "decoded_bits", "bit_errors", "note")


def trace_row(log, lane=0):
    """The trace fields of every slot of a log as one lane saw it, one
    row per record.  A slot's occupancy_before is the record before's
    occupancy; a machine starts with an empty bank."""
    def joined(rows):
        return ["|".join(map(str, row)) for row in rows.tolist()]

    transmit, occupancy = log["transmit"].tolist(), log["occupancy"]
    hops = (Hop.SOURCE_RELAY.value, Hop.RELAY_DEST.value)
    return list(map(list, zip(
        range(len(log)), [_ACTIONS[t] for t in transmit], log["pair_id"].tolist(),
        joined(log["relays"]), [hops[t] for t in transmit],
        [f"{s:.6g}" if np.isfinite(s) else "" for s in log["sinr"].tolist()],
        joined(np.concatenate((np.zeros_like(occupancy[:1]), occupancy[:-1]))),
        joined(occupancy), log["reselections"].tolist(),
        log["decoded_bits"].tolist(), log["bit_errors"][:, lane].tolist(),
        [NOTES[n] for n in log["note"][:, lane].tolist()])))


class RngStreams(NamedTuple):
    """One generator per purpose.  The lanes of a slot machine share the
    channel, data and first-phase streams.  The random and ml lanes each
    draw their encoder designs from their own copy of the design stream;
    the linear lanes draw equal second-phase noise, so they share one
    noise stream, and the XOR lanes, whose draws differ in shape, share
    a copy.  So a lane's counts equal those of a one-lane machine of its
    scheme built from the same seed (common random numbers)."""

    channel: np.random.Generator   # fading, one draw per slot
    data: np.random.Generator      # user symbols, one block per reception
    noise: np.random.Generator     # second-phase receiver noise
    design: np.random.Generator    # encoder design: random draw, ML calibration
    first_phase: np.random.Generator   # first-phase receiver noise


class Lane(NamedTuple):
    """One coding scheme of a slot machine, with its streams."""

    scheme: Scheme
    design: np.random.Generator     # None for the schemes that draw no design
    noise: np.random.Generator      # shared by the lanes of one kind


def _twin(rng):
    """A generator that draws what rng draws from its present state on."""
    twin = np.random.Generator(type(rng.bit_generator)(0))
    twin.bit_generator.state = rng.bit_generator.state
    return twin


class SlotMachine:
    """Sequential slot-level simulator for one Monte-Carlo trial.

    With buffers disabled the machine degenerates to fixed two-phase
    relaying: groups are served round robin and every reception slot is
    immediately followed by the paired transmission slot.

    The bank is the only record of buffered packets.  Each reception
    slot pushes one packet and each transmission slot decodes one, so
    receive_slots and transmit_slots count packets too; log holds one
    record per slot, indexed by slot number, once settle() has run.

    schemes gives one lane per entry (default: config.nc_design alone);
    a record holds each lane's errors and notes.  seed (an int, a
    SeedSequence or a Generator) is spawned into the five RngStreams.
    A SeedSequence is copied first, so one object gives the same run
    every time; a Generator is consumed, as spawning advances it.
    Group g's users are row g of group_users; candidate pair i is the
    relay tuple candidates[i], the groups' relay rows whenever pairs are
    groups (fixed groups, or any unbuffered machine).
    """

    def __init__(self, config: SystemConfig, seed, schemes=None):
        self.config = config
        schemes = (config.nc_design,) if schemes is None else tuple(schemes)
        if not schemes:
            raise ValueError("a slot machine needs at least one scheme")
        for scheme in set(schemes) - {config.nc_design}:
            replace(config, nc_design=scheme)     # the scheme's config checks
        if isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(
                seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
                n_children_spawned=seed.n_children_spawned)
        self.rng = rng = RngStreams(*np.random.default_rng(seed).spawn(5))
        # every lane starts from the streams' state at construction, as a
        # one-lane machine of its scheme would: a stream's first user takes
        # it, later users a twin
        design, noise, lanes = [rng.design], {}, []
        for scheme in schemes:
            lane_design = None
            if scheme in (Scheme.RANDOM, Scheme.ML):
                lane_design = design.pop() if design else _twin(rng.design)
            kind = scheme == Scheme.XOR
            if kind not in noise:
                noise[kind] = _twin(rng.noise) if noise else rng.noise
            lanes.append(Lane(scheme, lane_design, noise[kind]))
        self.lanes = tuple(lanes)
        self.codebook = sm.generate_codebook(config)
        setup_rng = np.random.default_rng([config.rng_seed, 0x6E0])
        self.group_users, group_relays = nc.make_group_assignments(config,
                                                                   setup_rng)
        # the unbuffered baseline serves the fixed groups in every pair mode
        self._pairs_are_groups = (config.pair_mode == PairMode.FIXED_GROUPS
                                  or not config.buffers_enabled)
        # relays outside every group keep group 0's code
        self.relay_group_ids = np.zeros(config.num_relays, dtype=int)
        self.relay_group_ids[group_relays] = np.arange(len(group_relays))[:, None]
        self.candidates = rs.candidate_pairs(
            group_relays, config.num_relays, config.group_size,
            PairMode.FIXED_GROUPS if self._pairs_are_groups else config.pair_mode)
        self.bank = BufferBank(config.num_relays, config.buffer_size)
        self._log = np.zeros(0, [          # occupancy after the slot, note in NOTES
            ("transmit", bool), ("pair_id", int), ("relays", int, (config.group_size,)),
            ("sinr", float), ("reselections", int), ("decoded_bits", int),
            ("occupancy", int, (config.num_relays,)),
            ("bit_errors", int, (len(schemes),)), ("note", np.int8, (len(schemes),))])
        self._pending = []       # the log rows of the slots to settle
        self.slot = 0
        self.receive_slots = 0
        self.transmit_slots = 0
        self._last_scored_uid = {}   # relay pair -> uid; rises under FIFO
        self._rr_group = 0       # round-robin pointer (unbuffered / all-pairs)
        self._block = None       # (state, filters_sr, tables) of the slots ahead
        self._row = 0            # the next slot's row of the block
        self._receptions = []    # (uid, group, pair's state, pair's filters_sr)
        self._transmissions = []  # (uid, pair's h_rd) to settle
        self._coded = {}         # uid -> (group, direct, truth, ncs, encoders)

    # -- pass 1: decisions, one slot at a time ----------------------------

    def _next_group(self):
        """Round robin over the groups: the unbuffered baseline's next
        group, and the group a free-form pair serves."""
        g = self._rr_group
        self._rr_group = (g + 1) % self.config.num_groups
        return g

    def _next_channel(self):
        """The channel block (state, filters_sr, tables) and the slot's
        row of it.  A block of slots is drawn ahead (sized by the slice
        budget on the (K, L, N) source-relay vectors), and its
        source-relay bank and SINR table are computed for the whole block
        at once.  Unbuffered, no decision reads them, so they are None
        and pass 2 computes the bank for the receptions alone."""
        if self._row == 0:
            self._block = None       # freed before the next block is drawn
            cfg = self.config
            sigma2 = cfg.noise_var
            sr_elements = 2 * cfg.num_users * cfg.num_relays * cfg.spreading_gain
            state = sm.draw_channels(cfg, self.codebook, self.relay_group_ids,
                                     self.rng.channel,
                                     max(1, _SLICE_ELEMENTS // sr_elements))
            filters_sr = tables = None
            if cfg.buffers_enabled:
                filters_sr = rx.source_relay_filter_bank(state, sigma2, cfg.receiver)
                filters_rd = rx.relay_dest_filter_bank(state, sigma2, cfg.receiver)
                tables = rs.build_sinr_table(state, filters_sr, filters_rd, sigma2,
                                             self.candidates)
            self._block = (state, filters_sr, tables)
        row = self._row
        self._row = (row + 1) % len(self._block[0].h_rd)
        return self._block, row

    @property
    def log(self):
        """The slots' records; RuntimeError while a slot waits for settle()."""
        if self._pending:
            raise RuntimeError(f"{len(self._pending)} slots wait for settle()")
        return self._log

    def advance(self) -> Decision:
        """Pass 1 for one slot: take the channel, choose the action,
        push or pop the packet's uid, and append the slot's log row (a
        transmission's bit_errors and note wait for settle())."""
        cfg = self.config
        (state, filters_sr, tables), i = self._next_channel()
        if cfg.buffers_enabled:
            decision = decide_action(tables[i], self.candidates, self.bank)
        else:
            # every reception slot is followed by the pair's transmission:
            # the group served last transmits while its relays hold a packet
            pair_id, action = (self._rr_group - 1) % cfg.num_groups, "transmit"
            if not self.bank.can_transmit(self.candidates[pair_id]):
                pair_id, action = self._next_group(), "receive"
            decision = Decision(action, pair_id, self.candidates[pair_id],
                                float("nan"), 0)
        relays, transmit = decision.relays, decision.action == "transmit"
        # what pass 2 reads of the slot is the pair's slice, its relays in
        # order on the relay axis
        pair = list(relays)
        if not transmit:
            group = decision.pair_id if self._pairs_are_groups else self._next_group()
            uid = self.receive_slots
            self.bank.push_pair(relays, uid)
            self._receptions.append((uid, group, sm.ChannelState(
                state.h_rd[i, pair], state.h_eff_sd[i], state.h_eff_sr[i][:, pair],
                state.h_eff_rd[i, pair]),
                None if filters_sr is None else filters_sr[i][:, pair]))
            self.receive_slots += 1
        else:
            uid = self.bank.pop_pair(relays)
            if uid <= self._last_scored_uid.get(relays, -1):
                raise RuntimeError("packet scored twice")
            self._last_scored_uid[relays] = uid
            self._transmissions.append((uid, state.h_rd[i, pair]))
            self.transmit_slots += 1
        bits = transmit * cfg.group_size * cfg.packet_length
        # the record's fields: transmit, then the decision's, then the rest
        self._pending.append((transmit, *decision[1:], bits,
                              self.bank.occupancies(), 0, 0))
        self.slot += 1
        return decision

    # -- pass 2: physics, as arrays over the pending slots -----------------

    def settle(self):
        """Pass 2: run every reception, then every transmission, advanced
        since the last settle, fill the transmissions' errors and notes
        and append the slots' records to the log.  Returns self."""
        records = np.array(self._pending, self._log.dtype)
        if self._receptions:
            self._settle_receptions()
        if self._transmissions:
            scored = records["transmit"]
            records["bit_errors"][scored], records["note"][scored] = \
                self._settle_transmissions()
        self._log, self._pending = np.concatenate((self._log, records)), []
        return self

    def _stream_stats(self, rows):
        """Filters for relay streams that each occupy a sub-slot alone,
        one per row of rows (..., m, N), and the statistics every
        coding-matrix design and decoder works from: the gains w^H h and
        the noise powers sigma2 ||w||^2."""
        sigma2 = self.config.noise_var
        filters = rx.rank_one_filters(rows, sigma2, self.config.receiver)
        noise_var = sigma2 * np.sum(np.abs(filters) ** 2, axis=-1)
        return filters, rx.effective_gains(filters, rows), noise_var

    def _designs(self, state, users, filters_sr):
        """Every lane's encoders for the stacked receptions, (R, m, m)
        each, None for XOR.  The ml and mmse designs read the pair's
        relay-destination statistics; mmse also reads the relays'
        detection error probabilities."""
        cfg = self.config
        m = cfg.group_size
        gains = noise_var = flips = None
        encoders = []
        for lane in self.lanes:
            if lane.scheme == Scheme.XOR:
                encoders.append(None)
                continue
            if lane.scheme == Scheme.RANDOM:
                encoders.append(nc.design_G_random(m, lane.design, len(users)))
                continue
            if gains is None:
                _, gains, noise_var = self._stream_stats(state.h_eff_rd)
            if lane.scheme == Scheme.ML:
                encoders.append(nc.design_G_ml_for_channel(
                    gains, noise_var, cfg.ml_training_len, lane.design)[0])
                continue
            if flips is None:
                flips = rx.detection_error_probs(users, state, filters_sr,
                                                 cfg.noise_var)
            # per reception: the (candidates, 2^(m^2), m, 2^m) slicer errors
            # and the distinct ones they are gathered from, under twice that
            scores = 2 * len(nc.enumerate_invertible_binary(m)) * 2 ** (m * m + m) * m
            encoders.append(np.concatenate([
                nc.select_G_mmse(gains[s], noise_var[s], flip_probs=flips[s])[0]
                for s in _slices(len(users), scores)]))
        return encoders

    def _settle_receptions(self):
        """First phase: all sources transmit, each selected pair detects
        its group; every lane designs its encoders and encodes, and the
        packets' streams, the destination's direct decisions and the
        ground truth are kept (as int8) until their transmission."""
        cfg = self.config
        m, P = cfg.group_size, cfg.packet_length
        uids, groups, states, filters_sr = zip(*self._receptions)
        self._receptions = []
        state = sm.ChannelState(*(np.stack(arrays) for arrays in zip(
            *(vars(state).values() for state in states))))
        if cfg.buffers_enabled:
            filters_sr = np.stack(filters_sr)
        else:
            filters_sr = rx.source_relay_filter_bank(state, cfg.noise_var, cfg.receiver)
        users = self.group_users[list(groups)]
        encoders = self._designs(state, users, filters_sr)
        filters_sd = rx.source_dest_filter_bank(state, cfg.noise_var, cfg.receiver)
        gains, colour = sm.first_phase_maps(state, users, filters_sd, filters_sr)
        # the data, and the normals, samples and outputs of (1 + m) m streams
        for s in _slices(len(uids), (cfg.num_users + 8 * (m + 1) * m) * P):
            symbols = rx.hard_decision(self.rng.data.standard_normal(
                (len(uids[s]), cfg.num_users, P)))
            soft_sd, soft_sr = sm.sample_first_phase(
                symbols, (gains[s], colour[s]), cfg.noise_var, self.rng.first_phase)
            direct = rx.hard_decision(soft_sd).astype(np.int8)
            detected = rx.hard_decision(soft_sr)        # [..., relay, user, symbol]
            truth = np.take_along_axis(symbols, users[s][:, :, None],
                                       axis=1).astype(np.int8)
            ncs = np.stack([nc.xor_encode(detected) if G is None
                            else nc.encode_ncs(G[s], detected)
                            for G in encoders], axis=1).astype(np.int8)
            coders = np.stack([np.zeros((len(uids[s]), m, m)) if G is None
                               else G[s] for G in encoders], axis=1)
            for i, uid in enumerate(uids[s]):
                self._coded[uid] = (groups[s][i], direct[i], truth[i], ncs[i],
                                    coders[i])

    def _settle_transmissions(self):
        """Second phase: send each popped packet's NCS streams in every
        lane, decode at the destination and score against the truth;
        returns the (packets, lanes) bit errors and note codes.  The lanes
        of one kind (XOR, or linear) share a noise stream and draw equal
        noise, so the kind runs slice by slice: each slice draws the noise
        once, and every lane of the kind adds it to its own signal."""
        cfg = self.config
        m, P = cfg.group_size, cfg.packet_length
        uids, h_rd = zip(*self._transmissions)
        self._transmissions = []
        groups, direct, truth, ncs, coders = (np.stack(a) for a in zip(
            *(self._coded.pop(uid) for uid in uids)))
        codes = self.codebook.ncs_codes[groups]
        rows = np.array(h_rd)[:, :, None] * codes[:, None, :]     # (T, m, N)
        xor = [k for k, lane in enumerate(self.lanes) if lane.scheme == Scheme.XOR]
        linear = [k for k in range(len(self.lanes)) if k not in xor]
        errors, notes = np.zeros((2, len(uids), len(self.lanes)), dtype=int)
        if xor:
            (signal, colour), degenerate = self._xor_streams(rows, codes)
            notes[np.ix_(degenerate, xor)] = NOTES.index("degenerate combined channel")
            for s in _slices(len(uids), 10 * P):
                noise = sm.filter_noise(colour[s], (len(truth[s]), 1, P), cfg.noise_var,
                                        self.lanes[xor[0]].noise, call_axes=1)
                for k in xor:
                    soft = signal[s] @ ncs[s, k].astype(np.float64) + noise
                    decoded = nc.xor_decode(rx.hard_decision(soft[:, 0]), direct[s])
                    errors[s, k] = np.sum(decoded != truth[s], axis=(1, 2))
        if linear:
            gains, noise_var, signal, colour = self._linear_streams(rows)
            decoders = dict.fromkeys(linear)
            for k in linear:
                if self.lanes[k].scheme == Scheme.MMSE_DESIGN:
                    decoders[k], fallback = nc.design_G_mmse(coders[:, k], gains,
                                                             noise_var)
                    notes[fallback, k] = NOTES.index("mmse fallback")
            for s in _slices(len(uids), 10 * m * P):
                noise = sm.filter_noise(colour[s], (len(truth[s]), m, 1, P),
                                        cfg.noise_var, self.lanes[linear[0]].noise,
                                        call_axes=1)
                for k in linear:
                    z = signal[s] @ ncs[s, k, :, None].astype(np.float64) + noise
                    z = z[:, :, 0]
                    refine = None if decoders[k] is None else decoders[k][s]
                    if cfg.decoder == DecoderKind.JOINT:
                        decoded = nc.decode_joint(coders[s, k], z, gains[s], refine)
                    else:
                        ncs_est = nc.detect_ncs(coders[s, k], z, gains[s], refine)
                        decoded = nc.decode_with_direct(coders[s, k], ncs_est, direct[s])
                    errors[s, k] = np.sum(decoded != truth[s], axis=(1, 2))
        return errors, notes

    def _xor_streams(self, rows, codes):
        """Both relays carry the same code and (nominally) the same
        symbol: the streams superpose on the combined channel.  Returns
        the second-phase maps and which combined channels are degenerate."""
        cfg = self.config
        combined = rows.sum(axis=1)
        degenerate = np.sum(np.abs(combined) ** 2, axis=-1) < 1e-30
        combined = np.where(degenerate[:, None], codes, combined)
        w = rx.rank_one_filters(combined[:, None, :], cfg.noise_var, cfg.receiver)
        return sm.filter_output_maps(w, rows), degenerate

    def _linear_streams(self, rows):
        """One sub-slot per relay stream, independent noise each: the
        stream statistics and second-phase maps every linear lane shares
        (one QR of each packet's stream filters)."""
        filters, gains, noise_var = self._stream_stats(rows)
        return (gains, noise_var) + sm.filter_output_maps(filters[:, :, None],
                                                          rows[:, :, None])

    # -- slot driver -------------------------------------------------------

    def run_until(self, n_packets, max_slots=None):
        """Advance slots until n_packets have been decoded, then settle.
        Raises RuntimeError when the slot cap (default 16 n_packets + 64,
        so pathological configs cannot spin forever) is reached first."""
        if max_slots is None:
            max_slots = 16 * n_packets + 64
        while self.transmit_slots < n_packets and self.slot < max_slots:
            self.advance()
        if self.transmit_slots < n_packets:
            raise RuntimeError(f"decoded {self.transmit_slots} of {n_packets} "
                               f"requested packets in {self.slot} slots")
        if self.transmit_slots > self.receive_slots:
            raise RuntimeError("decoded more packets than were pushed")
        return self.settle()
