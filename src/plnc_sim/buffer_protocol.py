"""Relay buffers and the two-mode slot state machine.

Each slot draws a fresh block-fading channel, computes the SINR table
over the candidate pairs and both hops, then executes the best feasible
action: reception (sources to relays, encode, push) or transmission
(pop, relays to destination, decode): the first entry of the table's
ranking that the buffers allow, or idle when none does.  Receivers see
filter outputs sampled at symbol level (signal_model.sample_*).

No coding scheme changes the channel stream or the bank occupancies, so
one machine runs several schemes in lockstep, one lane each: the slot's
channel, filter banks, decision, symbols and first phase are computed
once, and only encoder design, encoding, second phase and decoding run
per lane.

Half duplex is enforced by construction: one action per slot,
system-wide.
"""

import copy
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import network_coding as nc
from . import receivers as rx
from . import relay_selection as rs
from . import signal_model as sm
from .config import DecoderKind, Hop, PairMode, Scheme, SystemConfig


@dataclass
class PairPacket:
    """One buffered transaction: the pair's encoded NCS streams for
    every lane, the destination's direct-link decisions from the same
    reception, and the bookkeeping needed to decode and score them
    later."""

    uid: int
    group_id: int
    relays: tuple
    coded: tuple               # per lane: (CodingMatrix or None for XOR, (m, P) NCS)
    direct: np.ndarray         # (m, P) destination's direct-link decisions
    true_symbols: np.ndarray   # (m, P) ground truth, never enters the signal path
    created_slot: int


class BufferBank:
    """The L relay FIFO buffers of capacity J with the paired push/pop
    discipline: every relay of a pair stores and releases a packet
    together."""

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
        return all(queues) and all(q[0] is queues[0][0] for q in queues)

    def push_pair(self, relays, packet):
        if not self.can_receive(relays):
            raise RuntimeError("pair reception with a full buffer")
        for r in relays:
            self.buffers[r].append(packet)

    def pop_pair(self, relays):
        if not self.can_transmit(relays):
            raise RuntimeError("pair transmission without an aligned packet")
        for r in relays:
            packet = self.buffers[r].popleft()
        return packet


_HOPS = (Hop.SOURCE_RELAY, Hop.RELAY_DEST)    # table columns


def decide_action(table, candidates, bank: BufferBank):
    """Max-SINR selection: the first entry of the table's ranking whose
    buffers allow it.

    table is the (pairs, 2) array of rs.build_sinr_table over
    candidates.  Returns (pair_id, relays, hop, sinr, n_reselections),
    n_reselections being the chosen entry's rank; hop is None (pair_id
    -1, relays (), sinr nan, table.size reselections) when no entry is
    feasible and the slot idles.
    """
    for rank, (row, col) in enumerate(rs.select_best(table)):
        pair_id, relays = candidates[row]
        feasible = bank.can_transmit if col else bank.can_receive
        if feasible(relays):
            return pair_id, relays, _HOPS[col], float(table[row, col]), rank
    return -1, (), None, float("nan"), table.size


class SlotOutcome(NamedTuple):
    """What one slot did; a trial's counts and trace rows are read from
    the machine's log of these."""

    slot: int
    action: str                 # "receive" | "transmit" | "idle"
    pair_id: int                # -1 when idle; the group id when unbuffered
    relays: tuple
    hop: str                    # Hop value, "" when idle
    sinr: float                 # nan when idle and unbuffered
    occupancy_before: tuple
    occupancy_after: tuple
    reselections: int
    decoded_bits: int
    bit_errors: tuple           # per lane
    note: tuple                 # per lane


TRACE_FIELDS = SlotOutcome._fields


def trace_row(outcome: SlotOutcome, lane=0):
    """The trace fields of one slot as one lane saw it."""
    return [outcome.slot, outcome.action, outcome.pair_id,
            "|".join(str(r) for r in outcome.relays), outcome.hop,
            f"{outcome.sinr:.6g}" if np.isfinite(outcome.sinr) else "",
            "|".join(str(o) for o in outcome.occupancy_before),
            "|".join(str(o) for o in outcome.occupancy_after),
            outcome.reselections, outcome.decoded_bits,
            outcome.bit_errors[lane], outcome.note[lane]]


class RngStreams(NamedTuple):
    """One generator per purpose.  The lanes of a slot machine share the
    channel, data and first-phase streams; each lane draws its encoder
    designs and second-phase noise from its own copy of the design and
    noise streams, so a lane's counts equal those of a one-lane machine
    of its scheme built from the same seed (common random numbers)."""

    channel: np.random.Generator   # fading, one draw per slot
    data: np.random.Generator      # user symbols, one block per reception
    noise: np.random.Generator     # second-phase receiver noise
    design: np.random.Generator    # encoder design: random draw, ML calibration
    first_phase: np.random.Generator   # first-phase receiver noise

    @classmethod
    def from_seed(cls, seed):
        """Five independent children of seed (an int or a SeedSequence)."""
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        return cls(*(np.random.default_rng(s) for s in seed.spawn(5)))


class Lane(NamedTuple):
    """One coding scheme of a slot machine, with its private streams."""

    scheme: Scheme
    design: np.random.Generator
    noise: np.random.Generator


class SlotMachine:
    """Sequential slot-level simulator for one Monte-Carlo trial.

    With buffers disabled the machine degenerates to fixed two-phase
    relaying: groups are served round-robin and every reception slot is
    immediately followed by the paired transmission slot.

    The bank is the only record of buffered packets.  Each reception
    slot pushes one packet and each transmission slot decodes one, so
    receive_slots and transmit_slots count packets too; log holds every
    slot's SlotOutcome.

    schemes gives one lane per entry (default: config.nc_design alone);
    a SlotOutcome holds each lane's errors and notes.  rng is an
    RngStreams, or, for one lane, one Generator that then feeds every
    stream.
    """

    def __init__(self, config: SystemConfig, rng, schemes=None):
        self.config = config
        schemes = (config.nc_design,) if schemes is None else tuple(schemes)
        if not schemes:
            raise ValueError("a slot machine needs at least one scheme")
        for scheme in set(schemes) - {config.nc_design}:
            replace(config, nc_design=scheme)     # the scheme's config checks
        if not isinstance(rng, RngStreams):
            if len(schemes) > 1:
                raise ValueError("several lanes need RngStreams: one shared "
                                 "Generator cannot give each lane its own")
            rng = RngStreams(*(rng,) * 5)
        self.rng = rng
        # every lane starts from the streams' state at construction, as a
        # one-lane machine of its scheme would
        self.lanes = (Lane(schemes[0], rng.design, rng.noise),) + tuple(
            Lane(s, *copy.deepcopy((rng.design, rng.noise))) for s in schemes[1:])
        self.codebook = sm.generate_codebook(config)
        setup_rng = np.random.default_rng([config.rng_seed, 0x6E0])
        self.groups = nc.make_group_assignments(config, setup_rng)
        # the unbuffered baseline serves the fixed groups in every pair mode
        self._pairs_are_groups = (config.pair_mode == PairMode.FIXED_GROUPS
                                  or not config.buffers_enabled)
        if self._pairs_are_groups:
            short = [g for g, grp in enumerate(self.groups)
                     if len(grp.relays) < config.group_size]
            if short:
                raise ValueError(f"groups {short} have fewer than "
                                 f"m={config.group_size} relays (K > L): "
                                 "their users would never be served")
        self.relay_group_ids = np.zeros(config.num_relays, dtype=int)
        for g, grp in enumerate(self.groups):
            for r in grp.relays:
                self.relay_group_ids[r] = g
        self.candidates = rs.candidate_pairs(self.groups, config.num_relays,
                                             config.group_size, config.pair_mode)
        self.bank = BufferBank(config.num_relays, config.buffer_size)
        self.log = []
        self.slot = 0
        self.receive_slots = 0
        self.transmit_slots = 0
        self._last_scored_uid = {}   # relay pair -> uid; rises under FIFO
        self._rr_group = 0       # round-robin pointer (unbuffered / all-pairs)

    # -- per-slot physics -------------------------------------------------

    def _next_group(self):
        """Round robin over the groups: the unbuffered baseline's next
        group, and the group a free-form pair serves."""
        g = self._rr_group
        self._rr_group = (g + 1) % self.config.num_groups
        return g

    def _rd_rows(self, state, relays, group_id):
        """Relay-destination effective vectors on the packet group's
        NCS code (equals state.h_eff_rd rows in fixed-group mode)."""
        code = self.codebook.ncs_codes[group_id]
        return state.h_rd[list(relays)][:, None] * code[None, :]

    def _stream_stats(self, rows):
        """Filters for relay streams that each occupy a sub-slot alone,
        one per row of rows, and the statistics every coding-matrix
        design and decoder works from: the gains w^H h and the noise
        powers sigma2 ||w||^2."""
        sigma2 = self.config.noise_var
        filters = rx.rank_one_filters(rows, sigma2, self.config.receiver)
        noise_var = sigma2 * np.sum(np.abs(filters) ** 2, axis=1)
        return filters, rx.effective_gains(filters, rows), noise_var

    def _choose_encoder(self, lane, stats, state, users, relays, filters_sr):
        """The lane's coding matrix for one reception.  stats holds the
        pair's relay-destination (gains, noise variances), which the ml
        and mmse designs read."""
        cfg = self.config
        if lane.scheme == Scheme.RANDOM:
            return nc.design_G_random(cfg.group_size, lane.design)
        gains, noise_var = stats
        if lane.scheme == Scheme.ML:
            training = rx.hard_decision(lane.design.standard_normal(
                (cfg.group_size, cfg.ml_training_len)))
            return nc.design_G_ml_for_channel(gains, noise_var, training,
                                              lane.design)
        if lane.scheme == Scheme.MMSE_DESIGN:
            flips = rx.detection_error_probs(users, relays, state, filters_sr,
                                             cfg.noise_var)
            encoder, _ = nc.select_G_mmse(gains, noise_var, flip_probs=flips)
            return encoder
        raise ValueError(f"unknown scheme {lane.scheme}")

    def _receive(self, state, relays, group_id, filters_sr):
        """First phase: all sources transmit, the selected pair detects
        and buffers its group, with every lane's encoding and the
        destination's direct estimates in the same packet.  filters_sr
        is the slot's source-relay filter bank."""
        cfg = self.config
        sigma2 = cfg.noise_var
        users = list(self.groups[group_id].users)
        P = cfg.packet_length

        symbols = rx.hard_decision(self.rng.data.standard_normal((cfg.num_users, P)))
        filters_sd = rx.source_dest_filter_bank(state, sigma2, cfg.receiver)
        soft_sd, soft_sr = sm.sample_first_phase(symbols, state, users, relays,
                                                 filters_sd, filters_sr, sigma2,
                                                 self.rng.first_phase)
        direct = rx.hard_decision(soft_sd)
        detected = rx.hard_decision(soft_sr)                 # [relay, user, symbol]

        coded = []
        stats = None
        for lane in self.lanes:
            if lane.scheme == Scheme.XOR:
                encoder = None
                ncs = nc.xor_encode(detected)
            else:
                if stats is None and lane.scheme != Scheme.RANDOM:
                    stats = self._stream_stats(state.h_eff_rd[list(relays)])[1:]
                encoder = self._choose_encoder(lane, stats, state, users,
                                               relays, filters_sr)
                ncs = nc.encode_ncs(encoder, detected)
            coded.append((encoder, ncs))

        packet = PairPacket(uid=self.receive_slots, group_id=group_id,
                            relays=tuple(relays), coded=tuple(coded),
                            direct=direct, true_symbols=symbols[users, :].copy(),
                            created_slot=self.slot)
        self.bank.push_pair(relays, packet)

    def _decode_xor(self, lane, packet, ncs, rows):
        """Both relays carry the same code and (nominally) the same
        symbol: the streams superpose on the combined channel."""
        cfg = self.config
        combined = rows.sum(axis=0)
        note = ""
        if np.vdot(combined, combined).real < 1e-30:
            combined = self.codebook.ncs_codes[packet.group_id].astype(complex)
            note = "degenerate combined channel"
        w = rx.rank_one_filters(combined[None, :], cfg.noise_var, cfg.receiver)
        soft = sm.sample_filter_outputs(w, rows, ncs, cfg.noise_var, lane.noise)
        decoded = nc.xor_decode(rx.hard_decision(soft[0]), packet.direct)
        return decoded, note

    def _decode_linear(self, lane, packet, encoder, ncs, rows, stats):
        """One sub-slot per relay stream, independent noise each.  stats
        holds the streams' (filters, gains, noise variances)."""
        cfg = self.config
        filters, gains, noise_var = stats
        z = sm.sample_filter_outputs(filters[:, None], rows[:, None],
                                     ncs[:, None], cfg.noise_var, lane.noise)[:, 0]
        decoder = None
        if lane.scheme == Scheme.MMSE_DESIGN:
            decoder = nc.design_G_mmse(encoder, gains, noise_var)
        if cfg.decoder == DecoderKind.JOINT:
            decoded = nc.decode_joint(encoder, z, gains, decoder)
        else:
            ncs_est = nc.detect_ncs(encoder, z, gains, decoder)
            decoded = nc.decode_with_direct(encoder, ncs_est, packet.direct)
        note = "mmse fallback" if decoder is not None and decoder.fallback else ""
        return decoded, note

    def _transmit(self, state, relays):
        """Second phase: pop the pair's oldest packet, then in every lane
        send its NCS streams, decode at the destination and score
        against the truth.  Returns the per-lane errors and notes."""
        packet = self.bank.pop_pair(relays)
        if packet.uid <= self._last_scored_uid.get(packet.relays, -1):
            raise RuntimeError("packet scored twice")
        self._last_scored_uid[packet.relays] = packet.uid
        rows = self._rd_rows(state, packet.relays, packet.group_id)

        errors, notes = [], []
        stats = None
        for lane, (encoder, ncs) in zip(self.lanes, packet.coded):
            if lane.scheme == Scheme.XOR:
                decoded, note = self._decode_xor(lane, packet, ncs, rows)
            else:
                if stats is None:
                    stats = self._stream_stats(rows)
                decoded, note = self._decode_linear(lane, packet, encoder, ncs,
                                                    rows, stats)
            errors.append(int(np.sum(decoded != packet.true_symbols)))
            notes.append(note)
        return tuple(errors), tuple(notes)

    # -- slot driver -------------------------------------------------------

    def advance(self) -> SlotOutcome:
        """One slot: draw the channel, choose the action, execute it in
        every lane, and log the outcome."""
        cfg = self.config
        sigma2 = cfg.noise_var
        state = sm.draw_channel(cfg, self.codebook, self.relay_group_ids,
                                self.rng.channel)
        filters_sr = None
        if cfg.buffers_enabled:
            filters_sr = rx.source_relay_filter_bank(state, sigma2, cfg.receiver)
            filters_rd = rx.relay_dest_filter_bank(state, sigma2, cfg.receiver)
            table = rs.build_sinr_table(state, filters_sr, filters_rd, sigma2,
                                        self.candidates)
            pair_id, relays, hop, sinr, reselections = decide_action(
                table, self.candidates, self.bank)
        else:
            # every reception slot is followed by the pair's transmission:
            # the group served last transmits while its relays hold a packet
            pair_id = (self._rr_group - 1) % cfg.num_groups
            relays, hop = self.groups[pair_id].relays, Hop.RELAY_DEST
            if not self.bank.can_transmit(relays):
                pair_id = self._next_group()
                relays, hop = self.groups[pair_id].relays, Hop.SOURCE_RELAY
            sinr, reselections = float("nan"), 0

        occ_before = self.bank.occupancies()
        errors, notes, bits = (0,) * len(self.lanes), ("",) * len(self.lanes), 0
        if hop is None:
            action = "idle"
        elif hop == Hop.SOURCE_RELAY:
            action = "receive"
            group_id = pair_id if self._pairs_are_groups else self._next_group()
            if filters_sr is None:          # unbuffered: no table was built
                filters_sr = rx.source_relay_filter_bank(state, sigma2,
                                                         cfg.receiver)
            self._receive(state, relays, group_id, filters_sr)
            self.receive_slots += 1
        else:
            action = "transmit"
            errors, notes = self._transmit(state, relays)
            bits = cfg.group_size * cfg.packet_length
            self.transmit_slots += 1
        outcome = SlotOutcome(slot=self.slot, action=action, pair_id=pair_id,
                              relays=relays, hop="" if hop is None else hop.value,
                              sinr=sinr, occupancy_before=occ_before,
                              occupancy_after=self.bank.occupancies(),
                              reselections=reselections, decoded_bits=bits,
                              bit_errors=errors, note=notes)
        self.slot += 1
        self.log.append(outcome)
        return outcome

    def run_until(self, n_packets, max_slots=None):
        """Advance slots until n_packets have been decoded.  Raises
        RuntimeError when the slot cap (default 16 n_packets + 64, so
        pathological configs cannot spin forever) is reached first."""
        if max_slots is None:
            max_slots = 16 * n_packets + 64
        while self.transmit_slots < n_packets and self.slot < max_slots:
            self.advance()
        if self.transmit_slots < n_packets:
            raise RuntimeError(f"decoded {self.transmit_slots} of {n_packets} "
                               f"requested packets in {self.slot} slots")
        if self.transmit_slots > self.receive_slots:
            raise RuntimeError("decoded more packets than were pushed")
        return self
