"""Trial running, sweep aggregation, CSV report and the CLI."""

import csv
import hashlib
import os
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnc_sim import (DecoderKind, PairMode, ReceiverKind, RunReport, Scheme,
                      SlotMachine, SystemConfig, emit_report, parse_report,
                      run_sweep, run_trial, scheme_label, write_trace)
from plnc_sim import buffer_protocol, harness, network_coding, signal_model
from plnc_sim.buffer_protocol import TRACE_FIELDS
from plnc_sim.cli import main, parse_schemes, parse_snr_spec
from plnc_sim.config import read_config_file


def tiny_config(**kw):
    defaults = dict(num_users=4, num_relays=4, spreading_gain=8, buffer_size=2,
                    group_size=2, packet_length=50, snr_db=10.0,
                    nc_design=Scheme.RANDOM, rng_seed=17)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestRunTrial:
    def test_noiseless_zero_errors(self):
        cfg = tiny_config(num_users=2, num_relays=2, snr_db=120.0,
                          packet_length=500)
        res = run_trial(cfg, 7, n_packets=10)
        assert res.bits_total == 10_000
        assert res.bit_errors == 0

    def test_heavy_noise_coin_flip(self):
        cfg = tiny_config(snr_db=-20.0, packet_length=1000)
        res = run_trial(cfg, 8, n_packets=50)
        assert res.bits_total == 100_000
        assert 0.4 <= res.bit_errors / res.bits_total <= 0.6

    def test_identical_seed_identical_counts(self):
        cfg = tiny_config()
        a = run_trial(cfg, 9, n_packets=20)
        b = run_trial(cfg, 9, n_packets=20)
        assert (a.bit_errors, a.bits_total) == (b.bit_errors, b.bits_total)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(num_users=5)        # not divisible by group size
        with pytest.raises(ValueError):
            tiny_config(buffer_size=0)
        with pytest.raises(ValueError):
            tiny_config(snr_db=float("inf"))
        with pytest.raises(ValueError, match="m <= 3"):
            tiny_config(group_size=4, nc_design=Scheme.MMSE_DESIGN)
        # bool is an int subclass: True must not pass as 1
        with pytest.raises(ValueError, match="num_users must be a positive"):
            tiny_config(num_users=True, num_relays=1, group_size=1)
        with pytest.raises(ValueError, match="group_size must be a positive"):
            tiny_config(group_size=True)
        # a float, string, negative or too-large seed would run as another
        # seed (1.5 as 1, -1 as 2**64 - 1, 2**70 as 0)
        for seed in (False, 1.5, "3", -1, 2**64, 2**70):
            with pytest.raises(ValueError, match="rng_seed must be an integer"):
                tiny_config(rng_seed=seed)
        tiny_config(rng_seed=2**64 - 1)
        # a float training length would only fail at the first ML reception
        with pytest.raises(ValueError, match="ml_training_len must be a positive"):
            tiny_config(ml_training_len=2.5)
        with pytest.raises(ValueError, match="ml_training_len"):
            tiny_config(ml_training_len=0)
        # "JOINT" != DecoderKind.JOINT: it would run the direct decoder
        with pytest.raises(ValueError, match="decoder must be a DecoderKind"):
            tiny_config(decoder="JOINT")
        with pytest.raises(ValueError, match="nc_design must be a Scheme"):
            tiny_config(nc_design="random")
        # True would run at 1 dB; "10" would fail later as a TypeError
        for snr in (True, "10", float("-inf"), float("nan"), None, -4000.0, 4000):
            with pytest.raises(ValueError, match="snr_db must be a real number"):
                tiny_config(snr_db=snr)
        # "no" is truthy: it would run the buffered protocol
        for flag in ("no", 1, None):
            with pytest.raises(ValueError, match="buffers_enabled must be a bool"):
                tiny_config(buffers_enabled=flag)


class TestRunSweep:
    def test_points_and_summary(self):
        cfg = tiny_config()
        report = run_sweep(cfg, [6.0, 10.0], 6,
                           schemes=[Scheme.RANDOM, Scheme.XOR],
                           buffer_modes=[True], chunk_packets=3)
        assert len(report.points) == 4
        labels = {p.scheme_label for p in report.points}
        assert labels == {"random-buffered-mmse", "xor-buffered-mmse"}
        for p in report.points:
            assert p.bits_total == 6 * 2 * 50
        assert len(report.slot_summary) == 4
        for stats in report.slot_summary.values():
            assert stats["receive_slots"] >= 6

    def test_ber_non_increasing_in_snr(self):
        # allow one inversion within twice the Monte-Carlo error
        cfg = tiny_config(packet_length=200)
        report = run_sweep(cfg, [0.0, 4.0, 8.0, 12.0], 25,
                           schemes=[Scheme.RANDOM], buffer_modes=[True])
        pts = sorted(report.points, key=lambda p: p.snr_db)
        violations = 0
        for a, b in zip(pts, pts[1:]):
            slack = 2.0 * (a.stderr + b.stderr)
            if b.ber > a.ber + slack:
                violations += 1
        assert violations <= 1

    def test_variants_share_random_streams(self):
        # the lanes of a buffer mode share one slot engine: every scheme
        # reports the engine's slot count and takes the same actions
        cfg = tiny_config()
        schemes = list(Scheme)
        report = run_sweep(cfg, [6.0, 10.0], 6, schemes=schemes,
                           buffer_modes=[True, False], chunk_packets=3,
                           collect_trace=True)
        cols = [3 + TRACE_FIELDS.index(f) for f in ("slot", "action", "pair_id")]
        for snr, buffered in product((6.0, 10.0), (True, False)):
            labels = [scheme_label(s, buffered, cfg.receiver) for s in schemes]
            stats = [report.slot_summary[f"{label}@{snr:g}dB"] for label in labels]
            assert all(s == stats[0] for s in stats)
            assert stats[0]["receive_slots"] and stats[0]["transmit_slots"]
            actions = {label: [] for label in labels}
            for row in report.trace_rows:
                if row[1] == snr and row[0] in actions:
                    actions[row[0]].append([row[2]] + [row[c] for c in cols])
            for label in labels:
                assert len(actions[label]) == stats[0]["slots"]
                assert actions[label] == actions[labels[0]]

    @pytest.mark.parametrize("pair_mode", list(PairMode))
    @pytest.mark.parametrize("buffered", [True, False])
    def test_lane_equals_one_scheme_sweep(self, pair_mode, buffered):
        # a lane's counts and trace rows do not depend on the other
        # schemes that run beside it
        cfg = tiny_config(pair_mode=pair_mode, packet_length=20)
        kw = dict(buffer_modes=[buffered], chunk_packets=3, collect_trace=True)
        every = run_sweep(cfg, [4.0, 10.0], 7, schemes=list(Scheme), **kw)
        for scheme in Scheme:
            alone = run_sweep(cfg, [4.0, 10.0], 7, schemes=[scheme], **kw)
            label = scheme_label(scheme, buffered, cfg.receiver)
            assert [p for p in every.points if p.scheme_label == label] \
                == alone.points
            assert {k: v for k, v in every.slot_summary.items()
                    if k.startswith(f"{label}@")} == alone.slot_summary
            assert [r for r in every.trace_rows if r[0] == label] \
                == alone.trace_rows

    @pytest.mark.parametrize("snrs,kw,match", [
        pytest.param([8.0], dict(schemes=[Scheme.XOR, Scheme.RANDOM, Scheme.XOR]),
                     "duplicate scheme", id="duplicate-scheme"),
        pytest.param([8.0], dict(buffer_modes=[True, True]),
                     "duplicate buffer mode", id="duplicate-buffer-mode"),
        pytest.param([8.0], dict(schemes=[]), "at least one scheme",
                     id="no-scheme"),
        pytest.param([8.0], dict(buffer_modes=[]), "at least one buffer mode",
                     id="no-buffer-mode"),
        pytest.param([], {}, "at least one SNR point", id="no-snr-point"),
    ])
    def test_bad_sweep_list_rejected_before_any_slot(self, snrs, kw, match,
                                                     monkeypatch):
        # an entry given twice would write its rows twice; an empty list
        # would return a report without a single BER point
        def no_slot(machine):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(SlotMachine, "advance", no_slot)
        with pytest.raises(ValueError, match=match):
            run_sweep(tiny_config(), snrs, 1, **kw)

    def test_chunk_size_below_one_rejected(self):
        # a chunk of 0 packets would never finish the point
        with pytest.raises(ValueError, match="chunk_packets must be >= 1"):
            run_sweep(tiny_config(), [8.0], 2, chunk_packets=0)

    @pytest.mark.parametrize("n_packets", [0, -3, 2.5, True])
    def test_packet_count_not_positive_int_rejected(self, n_packets):
        # 0 or -3 packets would report a 0-bit point with BER nan
        with pytest.raises(ValueError, match="n_packets_per_point must be"):
            run_sweep(tiny_config(), [8.0], n_packets)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        # would silently run serially
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(tiny_config(), [8.0], 2, workers=workers)

    @pytest.mark.parametrize("snrs", [[10, 10], [8.0, 10.0, 10.0000001]])
    def test_snr_points_printing_alike_rejected(self, snrs, monkeypatch):
        # the CSV prints each point with :g; two alike would give two rows
        # one reader cannot tell apart and one sidecar slots line
        def no_slot(machine):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(SlotMachine, "advance", no_slot)
        with pytest.raises(ValueError, match="duplicate SNR point"):
            run_sweep(tiny_config(), snrs, 2)

    def test_more_users_than_relays_rejected_before_any_chunk(self, monkeypatch):
        # all-pairs serves K > L only buffered: the unbuffered baseline's
        # pairs are the groups, so the sweep fails before the buffered
        # chunks run
        def no_chunk(task):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(harness, "_run_chunk", no_chunk)
        cfg = tiny_config(num_users=8, num_relays=4, pair_mode=PairMode.ALL_PAIRS)
        with pytest.raises(ValueError, match="fewer than m=2 relays"):
            run_sweep(cfg, [8.0], 2, buffer_modes=[True, False])

    def test_parallel_settings_identical_counts(self):
        cfg = tiny_config()
        kw = dict(schemes=[Scheme.RANDOM], buffer_modes=[True, False],
                  chunk_packets=2)
        a = run_sweep(cfg, [8.0], 6, workers=1, **kw)
        b = run_sweep(cfg, [8.0], 6, workers=2, **kw)
        for pa, pb in zip(a.points, b.points):
            assert (pa.scheme_label, pa.snr_db, pa.bits_total, pa.bit_errors) \
                == (pb.scheme_label, pb.snr_db, pb.bits_total, pb.bit_errors)


@st.composite
def sweep_cases(draw):
    """A small sweep over any pair and buffer modes and schemes."""
    m = draw(st.sampled_from([1, 2]))
    k = m * draw(st.integers(1, 4 // m))
    cfg = SystemConfig(num_users=k, num_relays=k, spreading_gain=8,
                       buffer_size=draw(st.integers(1, 3)), group_size=m,
                       packet_length=draw(st.integers(1, 8)),
                       decoder=draw(st.sampled_from(list(DecoderKind))),
                       pair_mode=draw(st.sampled_from(list(PairMode))),
                       ml_training_len=8, rng_seed=draw(st.integers(0, 999)))
    schemes = draw(st.lists(st.sampled_from(list(Scheme)), min_size=1,
                            max_size=4, unique=True))
    buffer_modes = draw(st.sampled_from([[True], [False], [True, False]]))
    return (cfg, schemes, buffer_modes, draw(st.integers(1, 5)),
            draw(st.sampled_from([1, 2, 3])))


class TestWorkerInvariance:
    # every example starts one pool of 2 worker processes
    @settings(max_examples=12, deadline=None)
    @given(sweep_cases())
    def test_counts_and_trace_rows_independent_of_workers(self, case):
        cfg, schemes, buffer_modes, n_packets, chunk_packets = case
        kw = dict(schemes=schemes, buffer_modes=buffer_modes,
                  chunk_packets=chunk_packets, collect_trace=True)
        one = run_sweep(cfg, [6.0, 12.0], n_packets, workers=1, **kw)
        two = run_sweep(cfg, [6.0, 12.0], n_packets, workers=2, **kw)
        assert one.points == two.points
        assert one.slot_summary == two.slot_summary
        assert one.trace_rows == two.trace_rows


@st.composite
def settle_cases(draw):
    """An all-lane slot machine over every mode, m up to 3, and a packet
    count."""
    m = draw(st.sampled_from([1, 2, 3]))
    k = m * draw(st.integers(1, 6 // m if m < 3 else 1))
    cfg = SystemConfig(num_users=k, num_relays=k, spreading_gain=8,
                       buffer_size=draw(st.integers(1, 3 if m < 3 else 1)),
                       group_size=m, packet_length=draw(st.integers(1, 8)),
                       snr_db=draw(st.sampled_from([0.0, 10.0])),
                       receiver=draw(st.sampled_from(list(ReceiverKind))),
                       decoder=draw(st.sampled_from(list(DecoderKind))),
                       buffers_enabled=draw(st.booleans()),
                       pair_mode=draw(st.sampled_from(list(PairMode))),
                       ml_training_len=8, rng_seed=draw(st.integers(0, 999)))
    return cfg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4 if m < 3 else 2))


class TestSettleInvariance:
    # pass 2 may run after every slot or once at the end
    @settings(max_examples=30, deadline=None)
    @given(settle_cases())
    def test_log_independent_of_when_settle_runs(self, case):
        cfg, seed, n_packets = case

        def machine():
            return SlotMachine(cfg, seed, schemes=list(Scheme))

        eager, once = machine(), machine()
        while eager.transmit_slots < n_packets:
            eager.advance()
            eager.settle()
        while once.transmit_slots < n_packets:
            once.advance()
        once.settle()
        driven = machine().run_until(n_packets)
        with mock.patch.object(buffer_protocol, "_SLICE_ELEMENTS", 1):
            sliced = machine().run_until(n_packets)     # one item per slice
        # repr compares every field, the unbuffered slots' nan SINR included
        assert repr(eager.log) == repr(once.log) == repr(driven.log) \
            == repr(sliced.log)
        assert len(driven.log) == driven.slot        # every slot settled


class TestCountsReduceTheLog:
    @settings(max_examples=25, deadline=None)
    @given(sweep_cases())
    def test_point_counts_equal_trace_reductions(self, case):
        cfg, schemes, buffer_modes, n_packets, chunk_packets = case
        report = run_sweep(cfg, [0.0, 8.0], n_packets, schemes=schemes,
                           buffer_modes=buffer_modes,
                           chunk_packets=chunk_packets, collect_trace=True)
        col = {name: 3 + i for i, name in enumerate(TRACE_FIELDS)}
        rows = {}
        for row in report.trace_rows:
            rows.setdefault((row[0], row[1]), []).append(row)
        for p in report.points:
            mine = rows[(p.scheme_label, p.snr_db)]
            actions = Counter(row[col["action"]] for row in mine)
            assert (p.slots, p.receive_slots, p.transmit_slots) \
                == (len(mine), actions["receive"], actions["transmit"])
            assert p.slots == p.receive_slots + p.transmit_slots
            assert p.bits_total == sum(row[col["decoded_bits"]] for row in mine)
            assert p.bit_errors == sum(row[col["bit_errors"]] for row in mine)

    def test_infeasible_slot_raises(self, monkeypatch):
        # no run finds every entry infeasible (the oldest buffered packet
        # heads every relay of its pair); forced, the slot fails loudly
        # instead of logging an idle slot
        mach = SlotMachine(tiny_config(), 1,
                           schemes=[Scheme.XOR, Scheme.RANDOM]).run_until(3)
        before = (len(mach.log), mach.slot, mach.bank.occupancies())
        monkeypatch.setattr(mach.bank, "can_receive", lambda relays: False)
        monkeypatch.setattr(mach.bank, "can_transmit", lambda relays: False)
        with pytest.raises(RuntimeError, match="no candidate pair can"):
            mach.advance()
        assert (len(mach.log), mach.slot, mach.bank.occupancies()) == before


# (bits, errors, slots, idle slots) per variant of a fixed-seed sweep,
# and the SHA-256 of its --trace file.  Pinned values: a refactor that
# changes the simulated stream of a fixed seed fails here; change them
# only together with an intended RNG change.
GOLDEN = {
    PairMode.FIXED_GROUPS: {
        "xor-buffered-mmse": (200, 46, 21, 0),
        "xor-unbuffered-mmse": (200, 28, 20, 0),
        "random-buffered-mmse": (200, 16, 21, 0),
        "random-unbuffered-mmse": (200, 25, 20, 0),
        "ml-buffered-mmse": (200, 18, 21, 0),
        "ml-unbuffered-mmse": (200, 27, 20, 0),
        "mmse-buffered-mmse": (200, 10, 21, 0),
        "mmse-unbuffered-mmse": (200, 13, 20, 0),
    },
    PairMode.ALL_PAIRS: {
        "xor-buffered-mmse": (200, 27, 22, 0),
        "xor-unbuffered-mmse": (200, 28, 20, 0),
        "random-buffered-mmse": (200, 28, 22, 0),
        "random-unbuffered-mmse": (200, 25, 20, 0),
        "ml-buffered-mmse": (200, 12, 22, 0),
        "ml-unbuffered-mmse": (200, 27, 20, 0),
        "mmse-buffered-mmse": (200, 5, 22, 0),
        "mmse-unbuffered-mmse": (200, 13, 20, 0),
    },
}
GOLDEN_TRACE_SHA256 = {
    PairMode.FIXED_GROUPS:
        "b7f613907dcc64b16961943bba7f0a95887b99ce4fb54f900ec7d898a7a0b426",
    PairMode.ALL_PAIRS:
        "d08daecd6bfd8253300436aa0ba6a7bb9a9e80c67919c0844e8c96d83613a6f1",
}
# All pairs with J = 3 and the direct-link decoder: overlapping pairs
# share relay buffers, and every decode reads the stored direct estimates.
GOLDEN_DIRECT = {
    "xor-buffered-mmse": (200, 22, 28, 0),
    "xor-unbuffered-mmse": (200, 28, 20, 0),
    "random-buffered-mmse": (200, 13, 28, 0),
    "random-unbuffered-mmse": (200, 24, 20, 0),
    "ml-buffered-mmse": (200, 5, 28, 0),
    "ml-unbuffered-mmse": (200, 27, 20, 0),
    "mmse-buffered-mmse": (200, 2, 28, 0),
    "mmse-unbuffered-mmse": (200, 10, 20, 0),
}
GOLDEN_DIRECT_TRACE_SHA256 = \
    "a388f1b29d766e6af773ecc7a841d75532356ca664a80a9e248d7b4947983bd9"
# Group sizes 1 and 3: single-user groups (every encoder is [1], XOR
# reads no direct estimate) and the direct-link decoder on one group of
# three (4 packets: the mmse design scores 174 encoders per reception).
GOLDEN_M1 = {
    "xor-buffered-mmse": (100, 1, 22, 0),
    "xor-unbuffered-mmse": (100, 6, 20, 0),
    "random-buffered-mmse": (100, 1, 22, 0),
    "random-unbuffered-mmse": (100, 6, 20, 0),
    "ml-buffered-mmse": (100, 1, 22, 0),
    "ml-unbuffered-mmse": (100, 6, 20, 0),
    "mmse-buffered-mmse": (100, 1, 22, 0),
    "mmse-unbuffered-mmse": (100, 6, 20, 0),
}
GOLDEN_M1_TRACE_SHA256 = \
    "a164a866281f0052738442db81cf646e20aab35260d16577d1f779a0deaf90af"
GOLDEN_M3_DIRECT = {
    "xor-buffered-mmse": (120, 30, 8, 0),
    "xor-unbuffered-mmse": (120, 30, 8, 0),
    "random-buffered-mmse": (120, 17, 8, 0),
    "random-unbuffered-mmse": (120, 17, 8, 0),
    "ml-buffered-mmse": (120, 12, 8, 0),
    "ml-unbuffered-mmse": (120, 12, 8, 0),
    "mmse-buffered-mmse": (120, 3, 8, 0),
    "mmse-unbuffered-mmse": (120, 3, 8, 0),
}
GOLDEN_M3_DIRECT_TRACE_SHA256 = \
    "27ce9ab08450005f24bcbf22880cdea069c58dc099e514f467629f340971fb5d"
# The RAKE receiver (matched filters in every bank) at J = 2.
GOLDEN_RAKE = {
    "xor-buffered-rake": (200, 72, 21, 0),
    "xor-unbuffered-rake": (200, 61, 20, 0),
    "random-buffered-rake": (200, 47, 21, 0),
    "random-unbuffered-rake": (200, 41, 20, 0),
    "ml-buffered-rake": (200, 26, 21, 0),
    "ml-unbuffered-rake": (200, 42, 20, 0),
    "mmse-buffered-rake": (200, 26, 21, 0),
    "mmse-unbuffered-rake": (200, 15, 20, 0),
}
GOLDEN_RAKE_TRACE_SHA256 = \
    "69c450f8f0d9f0cb81e06c533c85d2af5a4242b5618af87ad3a9c5841693e023"
# Long packets in chunks of 3: pass 2 of the slot machine cuts every
# chunk's receptions and transmissions into several slices.
GOLDEN_SLICED = {
    "xor-buffered-mmse": (48000, 6918, 19, 0),
    "xor-unbuffered-mmse": (48000, 8196, 16, 0),
    "random-buffered-mmse": (48000, 1790, 19, 0),
    "random-unbuffered-mmse": (48000, 7334, 16, 0),
    "ml-buffered-mmse": (48000, 1664, 19, 0),
    "ml-unbuffered-mmse": (48000, 5255, 16, 0),
    "mmse-buffered-mmse": (48000, 427, 19, 0),
    "mmse-unbuffered-mmse": (48000, 3985, 16, 0),
}
GOLDEN_SLICED_TRACE_SHA256 = \
    "d0ac38155032bb8129c74354ad59924300f18de138767874fd0eba2816757409"
# More users than relays (K=8, L=4), all pairs, buffered only: two groups
# own no relay and every group is served round robin on any relay pair.
GOLDEN_K8_L4 = {
    "xor-buffered-mmse": (200, 38, 23, 0),
    "random-buffered-mmse": (200, 24, 23, 0),
    "ml-buffered-mmse": (200, 13, 23, 0),
    "mmse-buffered-mmse": (200, 7, 23, 0),
}
GOLDEN_K8_L4_TRACE_SHA256 = \
    "7f5586fda28d2f99e6d104097a34bdaba4794eb02bfe0aed2c109002ab9af197"
# More relays than users (K=4, L=8), fixed groups: the four relays
# outside every group interfere in the SINR table.
GOLDEN_K4_L8 = {
    "xor-buffered-mmse": (200, 24, 21, 0),
    "xor-unbuffered-mmse": (200, 48, 20, 0),
    "random-buffered-mmse": (200, 15, 21, 0),
    "random-unbuffered-mmse": (200, 21, 20, 0),
    "ml-buffered-mmse": (200, 10, 21, 0),
    "ml-unbuffered-mmse": (200, 16, 20, 0),
    "mmse-buffered-mmse": (200, 4, 21, 0),
    "mmse-unbuffered-mmse": (200, 4, 20, 0),
}
GOLDEN_K4_L8_TRACE_SHA256 = \
    "f5cb1863f7662be6eeca0ce90053933773d3c6d5540b4d3f0c1c6b2ca8fa4fa5"
# Group size 4 (22560 encoder rows, an int16 row index per lane), K=4,
# L=8, J=2, in both buffer modes; the mmse design is limited to m <= 3.
GOLDEN_M4 = {
    DecoderKind.JOINT: {
        "xor-buffered-mmse": (240, 56, 13, 0),
        "xor-unbuffered-mmse": (240, 52, 12, 0),
        "random-buffered-mmse": (240, 31, 13, 0),
        "random-unbuffered-mmse": (240, 44, 12, 0),
        "ml-buffered-mmse": (240, 35, 13, 0),
        "ml-unbuffered-mmse": (240, 29, 12, 0),
    },
    DecoderKind.DIRECT: {
        "xor-buffered-mmse": (240, 56, 13, 0),
        "xor-unbuffered-mmse": (240, 52, 12, 0),
        "random-buffered-mmse": (240, 24, 13, 0),
        "random-unbuffered-mmse": (240, 33, 12, 0),
        "ml-buffered-mmse": (240, 43, 13, 0),
        "ml-unbuffered-mmse": (240, 46, 12, 0),
    },
}
GOLDEN_M4_TRACE_SHA256 = {
    DecoderKind.JOINT:
        "4638ef196daaaac05c5420175dcd80ca5ef64f6ecabf12ca12af7d01b1290bb8",
    DecoderKind.DIRECT:
        "86950a604f46eaf3836049adb1fab570189c407d6152b515f8f45a7f931d91db",
}
# A two-worker `plnc-sim sweep --trace` (30 packets per point, two chunks
# each): the CSV, the sidecar without its wall_clock_s line, the trace.
GOLDEN_CLI_CSV = """\
scheme,snr_db,bits,errors,ber
ml-buffered-mmse,4,1200,116,0.0966666666667
ml-buffered-mmse,10,1200,47,0.0391666666667
ml-unbuffered-mmse,4,1200,168,0.14
ml-unbuffered-mmse,10,1200,57,0.0475
mmse-buffered-mmse,4,1200,92,0.0766666666667
mmse-buffered-mmse,10,1200,10,0.00833333333333
mmse-unbuffered-mmse,4,1200,153,0.1275
mmse-unbuffered-mmse,10,1200,47,0.0391666666667
random-buffered-mmse,4,1200,185,0.154166666667
random-buffered-mmse,10,1200,48,0.04
random-unbuffered-mmse,4,1200,207,0.1725
random-unbuffered-mmse,10,1200,88,0.0733333333333
xor-buffered-mmse,4,1200,279,0.2325
xor-buffered-mmse,10,1200,116,0.0966666666667
xor-unbuffered-mmse,4,1200,232,0.193333333333
xor-unbuffered-mmse,10,1200,79,0.0658333333333
"""
GOLDEN_CLI_SIDECAR_SHA256 = \
    "bad07bba16540ec5b6f2afc91be5c847dc753a86a2996257d74a60d7c728ef8e"
GOLDEN_CLI_TRACE_SHA256 = \
    "2e1301dae74c5ae9ffe395805ff18739d51b3c85d3fcf25ab937302341978094"


def golden_sweep(tmp_path, n_packets=10, chunk_packets=25,
                 buffer_modes=(True, False), schemes=tuple(Scheme), **kw):
    """Counts per variant and the trace file's SHA-256 of a fixed-seed
    sweep over every scheme (by default) in both buffer modes (by
    default)."""
    system = dict(num_users=6, num_relays=6, spreading_gain=8, group_size=2,
                  packet_length=10, rng_seed=2025)
    cfg = SystemConfig(**{**system, **kw})
    report = run_sweep(cfg, [8.0], n_packets, schemes=list(schemes),
                       buffer_modes=list(buffer_modes), collect_trace=True,
                       chunk_packets=chunk_packets)
    got = {}
    for p in report.points:
        s = report.slot_summary[f"{p.scheme_label}@{p.snr_db:g}dB"]
        idle = s["slots"] - s["receive_slots"] - s["transmit_slots"]
        got[p.scheme_label] = (p.bits_total, p.bit_errors, s["slots"], idle)
    path = write_trace(report, tmp_path / "slots.csv")
    return got, hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenCounts:
    @pytest.mark.parametrize("pair_mode", list(PairMode))
    def test_fixed_seed_counts_pinned(self, pair_mode, tmp_path):
        got, sha = golden_sweep(tmp_path, buffer_size=1, pair_mode=pair_mode)
        assert got == GOLDEN[pair_mode]
        assert sha == GOLDEN_TRACE_SHA256[pair_mode]

    def test_all_pairs_direct_decoder_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, buffer_size=3,
                                pair_mode=PairMode.ALL_PAIRS,
                                decoder=DecoderKind.DIRECT)
        assert got == GOLDEN_DIRECT
        assert sha == GOLDEN_DIRECT_TRACE_SHA256

    def test_group_size_1_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, num_users=2, num_relays=2,
                                group_size=1, buffer_size=2)
        assert got == GOLDEN_M1
        assert sha == GOLDEN_M1_TRACE_SHA256

    def test_group_size_3_direct_decoder_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, n_packets=4, num_users=3,
                                num_relays=3, group_size=3, buffer_size=2,
                                decoder=DecoderKind.DIRECT)
        assert got == GOLDEN_M3_DIRECT
        assert sha == GOLDEN_M3_DIRECT_TRACE_SHA256

    @pytest.mark.parametrize("decoder", list(DecoderKind))
    def test_group_size_4_pinned(self, tmp_path, decoder):
        got, sha = golden_sweep(tmp_path, n_packets=6, num_users=4,
                                num_relays=8, group_size=4, buffer_size=2,
                                decoder=decoder,
                                schemes=(Scheme.XOR, Scheme.RANDOM, Scheme.ML))
        assert got == GOLDEN_M4[decoder]
        assert sha == GOLDEN_M4_TRACE_SHA256[decoder]

    def test_rake_receiver_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, buffer_size=2,
                                receiver=ReceiverKind.RAKE)
        assert got == GOLDEN_RAKE
        assert sha == GOLDEN_RAKE_TRACE_SHA256

    def test_sliced_chunks_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, n_packets=8, chunk_packets=3,
                                packet_length=3000)
        assert got == GOLDEN_SLICED
        assert sha == GOLDEN_SLICED_TRACE_SHA256

    def test_more_users_than_relays_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, num_users=8, num_relays=4,
                                buffer_size=2, pair_mode=PairMode.ALL_PAIRS,
                                buffer_modes=[True])
        assert got == GOLDEN_K8_L4
        assert sha == GOLDEN_K8_L4_TRACE_SHA256

    def test_more_relays_than_users_pinned(self, tmp_path):
        got, sha = golden_sweep(tmp_path, num_users=4, num_relays=8,
                                buffer_size=2, pair_mode=PairMode.FIXED_GROUPS)
        assert got == GOLDEN_K4_L8
        assert sha == GOLDEN_K4_L8_TRACE_SHA256


class TestReportIo:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        report = run_sweep(cfg, [8.0, 10.0], 4, schemes=[Scheme.RANDOM],
                           buffer_modes=[True])
        path = tmp_path / "out.csv"
        emit_report(report, path)
        rows = parse_report(path)
        assert len(rows) == len(report.points)
        by_key = {(p.scheme_label, p.snr_db): p for p in report.points}
        for row in rows:
            p = by_key[(row["scheme"], row["snr_db"])]
            assert row["bits"] == p.bits_total
            assert row["errors"] == p.bit_errors
            assert row["ber"] == float(f"{p.ber:.12g}")
        assert (tmp_path / "out.csv.config.txt").exists()

    def test_empty_sweep_header_only(self, tmp_path):
        report = RunReport(config_echo={}, points=[], wall_clock_s=0.0)
        path = tmp_path / "empty.csv"
        emit_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["scheme,snr_db,bits,errors,ber"]

    def test_ber_full_precision(self, tmp_path):
        report = RunReport(config_echo={}, points=[], wall_clock_s=0.0)
        from plnc_sim.harness import BerPoint
        report.points.append(BerPoint("x", 1.0, bits_total=3, bit_errors=1))
        path = tmp_path / "prec.csv"
        emit_report(report, path)
        ber_text = path.read_text().strip().splitlines()[1].split(",")[-1]
        assert ber_text == f"{1/3:.12g}"

    def test_write_failure_has_path_context(self, tmp_path):
        report = RunReport(config_echo={}, points=[], wall_clock_s=0.0)
        bad = tmp_path / "no_such_dir" / "x.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            emit_report(report, bad)

    def test_trace_csv(self, tmp_path):
        cfg = tiny_config()
        report = run_sweep(cfg, [8.0], 2, schemes=[Scheme.RANDOM],
                           buffer_modes=[True], collect_trace=True)
        path = tmp_path / "slots.csv"
        write_trace(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scheme,snr_db,chunk,slot,action")
        assert len(lines) > 2


    def test_untraced_report_writes_no_trace(self, tmp_path):
        # a sweep without collect_trace keeps no slot logs: a trace of it
        # would be a header alone
        report = run_sweep(tiny_config(), [8.0], 2, schemes=[Scheme.RANDOM],
                           buffer_modes=[True])
        path = tmp_path / "slots.csv"
        with pytest.raises(ValueError, match="without collect_trace"):
            write_trace(report, path)
        assert not path.exists()
        with pytest.raises(ValueError, match="without collect_trace"):
            report.trace_rows


def trace_notes(report, path):
    """(scheme, action, note) of every row of the report's trace file."""
    write_trace(report, path)
    with open(path, newline="") as fh:
        return [(row["scheme"], row["action"], row["note"])
                for row in csv.DictReader(fh)]


class TestTraceNotes:
    # no pinned sweep produces a note, so each is forced here and read
    # back from the trace file, text for text

    def test_mmse_fallback_note(self, tmp_path, monkeypatch):
        design = network_coding.design_G_mmse

        def forced(*args):
            decoder = design(*args)
            return decoder._replace(fallback=np.ones_like(decoder.fallback))

        monkeypatch.setattr(network_coding, "design_G_mmse", forced)
        report = run_sweep(tiny_config(packet_length=8), [8.0], 3,
                           schemes=[Scheme.RANDOM, Scheme.MMSE_DESIGN],
                           buffer_modes=[True, False], collect_trace=True)
        rows = trace_notes(report, tmp_path / "t.csv")
        assert {row for row in rows if row[2]} == {
            ("mmse-buffered-mmse", "transmit", "mmse fallback"),
            ("mmse-unbuffered-mmse", "transmit", "mmse fallback")}
        assert all(note == "mmse fallback" for scheme, action, note in rows
                   if scheme.startswith("mmse-") and action == "transmit")

    def test_degenerate_combined_channel_note(self, tmp_path, monkeypatch):
        # each group's second relay cancels the first one's gain to the
        # destination: every relay link is sound, but the XOR pair's
        # combined channel is zero
        groups = SlotMachine(tiny_config(), 0).candidates
        draw = signal_model.draw_channels

        def cancelling_pairs(*args):
            state = draw(*args)
            for first, second in groups:
                state.h_rd[..., second] = -state.h_rd[..., first]
            return state

        monkeypatch.setattr(signal_model, "draw_channels", cancelling_pairs)
        report = run_sweep(tiny_config(packet_length=8), [8.0], 3,
                           schemes=[Scheme.XOR], buffer_modes=[True, False],
                           collect_trace=True)
        rows = trace_notes(report, tmp_path / "t.csv")
        assert {action for _, action, _ in rows} == {"receive", "transmit"}
        for _, action, note in rows:
            assert note == ("degenerate combined channel" if action == "transmit"
                            else "")

    @pytest.mark.parametrize("buffered", [True, False])
    def test_zero_relay_gains_keep_xor_running(self, tmp_path, monkeypatch,
                                               buffered):
        # both relays of group 0 lose their path to the destination: the
        # relay-destination bank and the SINR table take the zero gains,
        # and exactly the XOR transmissions of group 0 are degenerate
        silent = SlotMachine(tiny_config(), 0).candidates[0]
        draw = signal_model.draw_channels

        def silent_pair(*args):
            state = draw(*args)
            state.h_rd[..., list(silent)] = 0
            return state

        monkeypatch.setattr(signal_model, "draw_channels", silent_pair)
        report = run_sweep(tiny_config(packet_length=8), [8.0], 6,
                           schemes=[Scheme.XOR], buffer_modes=[buffered],
                           collect_trace=True)
        assert report.points[0].transmit_slots >= 6
        write_trace(report, tmp_path / "t.csv")
        with open(tmp_path / "t.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["action"] == "transmit"]
        relays = "|".join(map(str, silent))
        for row in rows:
            assert row["note"] == ("degenerate combined channel"
                                   if row["relays"] == relays else "")
        # unbuffered, the groups transmit in turn; buffered, the silent
        # pair's second hop scores 0 and the other pair serves every slot
        assert any(row["relays"] == relays for row in rows) == (not buffered)

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("scheme", [Scheme.RANDOM, Scheme.ML, Scheme.MMSE_DESIGN])
    def test_zero_relay_gain_fails_the_linear_lane_on_it(self, monkeypatch,
                                                         scheme, buffered):
        # one relay of group 0 loses its path: pass 1 runs, and the lane
        # fails where it designs on that relay's sub-slot (ml, mmse) or
        # decodes on it (random)
        silent = SlotMachine(tiny_config(), 0).candidates[0][0]
        draw = signal_model.draw_channels

        def silent_relay(*args):
            state = draw(*args)
            state.h_rd[..., silent] = 0
            return state

        monkeypatch.setattr(signal_model, "draw_channels", silent_relay)
        machine = SlotMachine(tiny_config(packet_length=8, nc_design=scheme,
                                          buffers_enabled=buffered), 1)
        decisions = [machine.advance() for _ in range(40)]
        action = "transmit" if scheme == Scheme.RANDOM else "receive"
        assert any(d.action == action and silent in d.relays for d in decisions)
        with pytest.raises(ValueError, match="degenerate channel"):
            machine.settle()

    def test_zero_relay_gain_fails_linear_lanes(self, monkeypatch):
        # a linear lane's sub-slot on a zero gain has no filter: the chunk
        # fails loudly rather than score the packet
        draw = signal_model.draw_channels

        def silent_relays(*args):
            state = draw(*args)
            state.h_rd[...] = 0
            return state

        monkeypatch.setattr(signal_model, "draw_channels", silent_relays)
        with pytest.raises(ValueError, match="degenerate channel"):
            run_sweep(tiny_config(packet_length=8), [8.0], 3,
                      schemes=[Scheme.RANDOM], buffer_modes=[False])


class TestConfigFile:
    def test_parse_and_reject_unknown(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("K = 4\nL=4\nN = 8\nJ = 2\nm = 2\nP = 50\n"
                        "receiver = mmse\nseed = 3\n# comment\n")
        overrides = read_config_file(good)
        assert overrides["num_users"] == 4
        assert overrides["rng_seed"] == 3
        bad = tmp_path / "bad.cfg"
        bad.write_text("K = 4\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_config_file(bad)

    def test_bad_value_reported_with_line(self, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text("K = notanint\n")
        with pytest.raises(ValueError, match="bad2.cfg:1"):
            read_config_file(bad)

    def test_repeated_key_reported_with_line(self, tmp_path):
        # the last value must not silently win
        bad = tmp_path / "twice.cfg"
        bad.write_text("m = 2\nK = 4\nm = 3\n")
        with pytest.raises(ValueError, match=r"twice.cfg:3: key 'm' given twice"):
            read_config_file(bad)


class TestCli:
    def test_snr_specs(self):
        assert parse_snr_spec("0:2:14") == [0, 2, 4, 6, 8, 10, 12, 14]
        assert parse_snr_spec("3,5.5") == [3.0, 5.5]
        with pytest.raises(ValueError):
            parse_snr_spec("0:0:4")
        with pytest.raises(ValueError, match="repeats a point"):
            parse_snr_spec("8,10,10.0")

    def test_scheme_specs(self):
        assert parse_schemes("xor,ml") == [Scheme.XOR, Scheme.ML]
        with pytest.raises(ValueError):
            parse_schemes("bogus")
        with pytest.raises(ValueError, match="'xor' listed twice"):
            parse_schemes("xor,ml,XOR")

    def test_sweep_success(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=50\nseed=5\n")
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8", "--bits",
                     "400", "--schemes", "random", "--buffers-only",
                     "--out", str(out)])
        assert code == 0
        rows = parse_report(out)
        assert len(rows) == 1 and rows[0]["bits"] >= 400

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=5\nm=2\n")
        code = main(["sweep", "--config", str(cfg), "--snr", "8",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_repeated_config_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nm=2\nm=2\n")
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8",
                     "--out", str(out)])
        assert code == 1
        assert "given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--snr", "14:2:0"], ["--snr", ","],
                                      ["--snr", "nan"], ["--snr=-inf"],
                                      ["--snr", "8,inf"], ["--snr", "0:2:inf"],
                                      ["--workers", "0"], ["--workers", "-2"],
                                      ["--snr", "10,10,10.0000001"],
                                      ["--snr", "10:0.0000001:10.0000002"],
                                      ["--snr", "1:1e-17:2"],
                                      ["--snr", "0:1e-7:1"],
                                      ["--seed", "-1"],
                                      ["--seed", str(2**64)]])
    def test_bad_snr_or_workers_exit_code(self, tmp_path, capsys, args):
        # a repeated SNR point or a seed outside [0, 2**64) fails before
        # any slot runs
        out = tmp_path / "r.csv"
        code = main(["sweep", "--bits", "100", "--schemes", "random",
                     "--out", str(out)] + args)
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("file_line,flag,expected", [
        ("schemes = random\n", ["--schemes", "xor,random,ml,mmse"],
         {"xor", "random", "ml", "mmse"}),
        ("schemes = random\n", ["--schemes", "ml"], {"ml"}),
        ("schemes = random\n", [], {"random"}),
        ("", [], {"xor", "random", "ml", "mmse"}),
    ])
    def test_schemes_flag_then_file_then_all(self, tmp_path, file_line, flag,
                                             expected):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=10\nseed=5\n" + file_line)
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8", "--bits", "20",
                     "--buffers-only", "--out", str(out)] + flag)
        assert code == 0
        assert {row["scheme"].split("-")[0] for row in parse_report(out)} == expected

    @pytest.mark.parametrize("file_line,flag", [
        ("", ["--schemes", "xor,xor"]),
        ("schemes = random,xor,random\n", []),
    ])
    def test_duplicate_schemes_exit_code(self, tmp_path, capsys, file_line, flag):
        # a repeated scheme would write its CSV and trace rows twice
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=10\nseed=5\n" + file_line)
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8", "--bits", "20",
                     "--trace", str(tmp_path / "t.csv"), "--out", str(out)] + flag)
        assert code == 1
        assert "listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_mmse_design_above_m3_rejected_before_any_slot(self, tmp_path,
                                                           monkeypatch, capsys):
        def no_slot(machine):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(SlotMachine, "advance", no_slot)
        with pytest.raises(ValueError, match="m <= 3"):
            run_sweep(tiny_config(group_size=4), [8.0], 1,
                      schemes=[Scheme.RANDOM, Scheme.MMSE_DESIGN])
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nm=4\nP=10\n")
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8",
                     "--schemes", "random,mmse", "--out", str(out)])
        assert code == 1
        assert "m <= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_two_worker_traced_sweep_pinned(self, tmp_path):
        # the CLI, the process pool and the three file writes together
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K = 4\nL = 4\nN = 8\nJ = 2\nm = 2\nP = 20\nseed = 11\n")
        out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "4,10", "--bits",
                     "1200", "--workers", "2", "--out", str(out),
                     "--trace", str(trace)])
        assert code == 0
        assert out.read_text() == GOLDEN_CLI_CSV
        sidecar = [line for line in Path(f"{out}.config.txt").read_text()
                   .splitlines(keepends=True) if not line.startswith("wall_clock_s")]
        assert hashlib.sha256("".join(sidecar).encode()).hexdigest() \
            == GOLDEN_CLI_SIDECAR_SHA256
        assert hashlib.sha256(trace.read_bytes()).hexdigest() \
            == GOLDEN_CLI_TRACE_SHA256

    def test_more_users_than_relays_exit_code(self, tmp_path, capsys):
        # the CLI's pairs are the fixed groups: with K=8 > L=4, groups 2
        # and 3 own no relays, a config error before any slot runs
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K = 8\nL = 4\nP = 8\n")
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "plnc-sim: config error: groups [2, 3] have fewer than m=2 relays")
        assert not out.exists()

    def test_unknown_scheme_exit_code(self, tmp_path):
        assert main(["sweep", "--schemes", "nope",
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_io_error_exit_code(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=50\n")
        code = main(["sweep", "--config", str(cfg), "--snr", "8", "--bits",
                     "100", "--schemes", "random", "--buffers-only",
                     "--out", str(tmp_path / "missing_dir" / "r.csv")])
        assert code == 2

    def test_console_script_installed(self, tmp_path):
        # the package's src directory is on the path, as in a checkout
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "cli.csv"
        cmd = [sys.executable, "-m", "plnc_sim.cli", "sweep", "--snr", "10",
               "--bits", "200", "--schemes", "random", "--buffers-only",
               "--seed", "2", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestLabels:
    def test_scheme_label_format(self):
        from plnc_sim import ReceiverKind
        assert scheme_label(Scheme.MMSE_DESIGN, True, ReceiverKind.MMSE) \
            == "mmse-buffered-mmse"
        assert scheme_label(Scheme.XOR, False, ReceiverKind.RAKE) \
            == "xor-unbuffered-rake"
