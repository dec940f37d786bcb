"""Trial running, sweep aggregation, CSV report and the CLI."""

import contextlib
import csv
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plnc_sim import (DecoderKind, PairMode, ReceiverKind, RunReport, Scheme,
                      SlotMachine, SystemConfig, emit_report, run_sweep,
                      run_trial, scheme_label, write_trace)
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
        with pytest.raises(ValueError,
                           match="num_relays must be divisible by group_size"):
            tiny_config(num_relays=5)
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

    @pytest.mark.parametrize("name,value", [("workers", 1.5), ("workers", True),
                                            ("workers", "2"), ("chunk_packets", 1.5),
                                            ("chunk_packets", True),
                                            ("chunk_packets", np.float64(3.0))])
    def test_workers_and_chunk_size_not_int_rejected(self, name, value, monkeypatch):
        # chunk_packets=True would run and echo "chunk_packets = True" into
        # the sidecar; a float would fail deep in the sweep
        def no_slot(*args):
            raise AssertionError("a slot ran")

        monkeypatch.setattr(SlotMachine, "advance", no_slot)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            run_sweep(tiny_config(), [8.0], 2, **{name: value})

    def test_numpy_integer_counts_accepted(self, tmp_path):
        # as the Python integers they equal, in the counts and the sidecar
        kw = dict(schemes=[Scheme.RANDOM], buffer_modes=[True, False])
        plain = run_sweep(tiny_config(), [8.0], 3, workers=1, chunk_packets=2, **kw)
        numpy = run_sweep(tiny_config(), [8.0], np.int64(3), workers=np.int32(1),
                          chunk_packets=np.uint8(2), **kw)
        assert numpy.points == plain.points
        assert numpy.config_echo == plain.config_echo
        assert {type(numpy.config_echo[key]) for key in
                ("packets_per_point", "chunk_packets")} == {int}
        emit_report(plain, tmp_path / "plain.csv")
        emit_report(numpy, tmp_path / "numpy.csv")
        sidecars = [[line for line in (tmp_path / f"{name}.csv.config.txt")
                     .read_text().splitlines() if not line.startswith("wall_clock_s")]
                    for name in ("plain", "numpy")]
        assert sidecars[0] == sidecars[1]
        assert "chunk_packets = 2" in sidecars[0]

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

    def test_pool_never_larger_than_the_task_list(self, monkeypatch, tmp_path):
        # this process runs stripe 0 and every child forks for a stripe of
        # its own, so a wide --workers on a short sweep must not fork
        # idle processes
        def counts(report):
            return [(p.scheme_label, p.snr_db, p.bits_total, p.bit_errors)
                    for p in report.points]

        cfg = tiny_config()
        six = dict(schemes=[Scheme.RANDOM], buffer_modes=[True, False])
        serial = run_sweep(cfg, [6.0, 10.0, 14.0], 2, workers=1, **six)
        with chunk_pids(monkeypatch, tmp_path / "wide") as pids:
            wide = run_sweep(cfg, [6.0, 10.0, 14.0], 2, workers=64, **six)
        # a task is one point's chunk in both buffer modes: 3 tasks
        assert len(set(pids)) == 3 and os.getpid() in pids
        assert counts(wide) == counts(serial)
        one = dict(schemes=[Scheme.RANDOM], buffer_modes=[True])
        with chunk_pids(monkeypatch, tmp_path / "alone") as pids:
            alone = run_sweep(cfg, [8.0], 2, workers=2, **one)
        assert pids == [os.getpid()]
        assert counts(alone) == counts(run_sweep(cfg, [8.0], 2, workers=1, **one))


@contextlib.contextmanager
def chunk_pids(monkeypatch, spool):
    """Yields a list that fills, on exit, with the pid of the process
    that ran each chunk and of each child started; they report through
    files in spool."""
    spool.mkdir()
    run, stripe = harness._run_chunk, harness._run_stripe

    def recorded(task):
        (p_idx, c_range), *_ = task
        (spool / f"{os.getpid()}-{p_idx}-{c_range.start}").touch()
        return run(task)

    def started(*args):
        (spool / f"{os.getpid()}-started").touch()
        return stripe(*args)

    pids = []
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_run_chunk", recorded)
        patch.setattr(harness, "_run_stripe", started)
        yield pids
    pids += [int(path.name.split("-")[0]) for path in spool.iterdir()]


@contextlib.contextmanager
def deadline(seconds):
    """A TimeoutError in this process if the block outlives seconds, so
    a sweep waiting on a child that never answers fails instead of
    hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerProcesses:
    """A failing stripe, in a child or in this process, ends the sweep
    with its error and leaves no process running."""

    @staticmethod
    def sweep(monkeypatch, in_child=None, in_parent=None):
        # two tasks, one point each: this process runs the first, one
        # child the second
        parent = os.getpid()
        run = harness._run_chunk

        def chunk(task):
            act = in_parent if os.getpid() == parent else in_child
            if act is not None:
                act()
            return run(task)

        monkeypatch.setattr(harness, "_run_chunk", chunk)
        try:
            with deadline(60):
                return run_sweep(tiny_config(), [6.0, 10.0], 2, workers=2,
                                 buffer_modes=[True])
        finally:
            assert multiprocessing.active_children() == []

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        def fail():
            raise ZeroDivisionError("boom in a child")

        with pytest.raises(ZeroDivisionError, match="boom in a child"):
            self.sweep(monkeypatch, in_child=fail)

    def test_unpicklable_child_exception_sent_as_its_traceback(self, monkeypatch):
        class Local(Exception):        # a local class does not pickle
            pass

        def fail():
            raise Local("boom in a child")

        with pytest.raises(RuntimeError, match=r"(?s)a worker process raised:.*"
                           r"Local: boom in a child"):
            self.sweep(monkeypatch, in_child=fail)

    def test_child_exiting_without_results_named_by_exit_code(self, monkeypatch):
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="exited with code 3 before sending"):
            self.sweep(monkeypatch, in_child=lambda: os._exit(3))
        assert time.perf_counter() - t0 < 30

    def test_error_in_this_process_terminates_the_children(self, monkeypatch):
        def fail():
            raise ZeroDivisionError("boom in the parent")

        # the child would sleep past the deadline: only a terminate ends
        # it in time
        t0 = time.perf_counter()
        with pytest.raises(ZeroDivisionError, match="boom in the parent"):
            self.sweep(monkeypatch, in_child=lambda: time.sleep(120), in_parent=fail)
        assert time.perf_counter() - t0 < 30


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


def report_bytes(report, directory):
    """The CSV, its sidecar without the wall_clock_s line, and the trace
    of a report, as bytes."""
    out, trace = directory / "r.csv", directory / "t.csv"
    emit_report(report, out)
    write_trace(report, trace)
    sidecar = [line for line in Path(f"{out}.config.txt").read_bytes()
               .splitlines(keepends=True) if not line.startswith(b"wall_clock_s")]
    return out.read_bytes(), b"".join(sidecar), trace.read_bytes()


class TestWorkerInvariance:
    # every example forks 1 + 2 + 3 child processes at most; with fewer
    # chunks than workers the stripes differ in length (the example: 4
    # tasks over 3 processes)
    @settings(max_examples=12, deadline=None)
    @given(sweep_cases())
    @example((tiny_config(packet_length=4), [Scheme.XOR], [True, False], 4, 2))
    def test_counts_and_trace_rows_independent_of_workers(self, tmp_path_factory,
                                                          case):
        cfg, schemes, buffer_modes, n_packets, chunk_packets = case
        kw = dict(schemes=schemes, buffer_modes=buffer_modes,
                  chunk_packets=chunk_packets, collect_trace=True)
        one = run_sweep(cfg, [6.0, 12.0], n_packets, workers=1, **kw)
        one_bytes = report_bytes(one, tmp_path_factory.mktemp("one"))
        for workers in (2, 3, 4):
            many = run_sweep(cfg, [6.0, 12.0], n_packets, workers=workers, **kw)
            assert one.points == many.points
            assert one.slot_summary == many.slot_summary
            assert one.trace_rows == many.trace_rows
            assert report_bytes(many, tmp_path_factory.mktemp("many")) == one_bytes


class TestTaskGrouping:
    # every example starts up to three pools of 2 worker processes
    @settings(max_examples=10, deadline=None)
    @given(sweep_cases())
    def test_counts_and_trace_rows_independent_of_grouping(self, case):
        # a task stacks some of a point's chunks in one machine: one chunk
        # per task, all in one, and uneven splits give the same report,
        # with any worker count
        cfg, schemes, buffer_modes, n_packets, chunk_packets = case
        chunks = -(-n_packets // chunk_packets)
        kw = dict(schemes=schemes, buffer_modes=buffer_modes,
                  chunk_packets=chunk_packets, collect_trace=True)

        def sweep(per_task, workers):
            with mock.patch.object(harness, "_chunks_per_task",
                                   lambda *args: per_task):
                return run_sweep(cfg, [6.0, 12.0], n_packets, workers=workers, **kw)

        alone = sweep(1, 1)
        for per_task in sorted({1, 2, max(1, chunks - 1), chunks}):
            for workers in (1, 2):
                report = sweep(per_task, workers)
                assert report.points == alone.points
                assert report.slot_summary == alone.slot_summary
                assert report.trace_rows == alone.trace_rows


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


@contextlib.contextmanager
def one_item_per_slice():
    # every pass-2 loop and channel block one item at a time, and a
    # settle after every replica's run
    with mock.patch.object(buffer_protocol, "_SLICE_ELEMENTS", 1), \
            mock.patch.object(buffer_protocol, "_BLOCK_ELEMENTS", 1), \
            mock.patch.object(buffer_protocol, "_STACK_ELEMENTS", 1):
        yield


@contextlib.contextmanager
def one_slice_per_loop():
    # every pass-2 loop in a single slice
    with mock.patch.object(buffer_protocol, "_SLICE_ELEMENTS", 1 << 40):
        yield


class TestSettleInvariance:
    # pass 2 may run after every slot or once at the end
    @settings(max_examples=30, deadline=None)
    @given(settle_cases())
    def test_log_independent_of_when_settle_runs(self, case):
        cfg, seed, n_packets = case

        def machine():
            return SlotMachine(cfg, seed, schemes=list(Scheme))

        def holds_the_block_it_reads(mach):
            # a settled replica holds the unread rows of the channel block
            # it is still reading, and no other block
            rep = mach.replicas[0]
            unread = len(rep._block)
            assert [len(block.h_sd) for block in rep._blocks] == [unread] * bool(unread)

        eager, once = machine(), machine()
        while eager.replicas[0].transmit_slots < n_packets:
            eager.advance()
            holds_the_block_it_reads(eager.settle())
        while once.replicas[0].transmit_slots < n_packets:
            once.advance()
        holds_the_block_it_reads(once.settle())
        driven = machine().run_until(n_packets)
        with one_item_per_slice():
            sliced = machine().run_until(n_packets)
        with one_slice_per_loop():
            whole = machine().run_until(n_packets)
        for mach in (driven, sliced, whole):
            holds_the_block_it_reads(mach)
        eager, once, driven, sliced, whole = (
            mach.replicas[0] for mach in (eager, once, driven, sliced, whole))
        # repr compares every field, the unbuffered slots' nan SINR included
        assert repr(eager.log) == repr(once.log) == repr(driven.log) \
            == repr(sliced.log) == repr(whole.log)
        assert len(driven.log) == driven.slot        # every slot settled

    @settings(max_examples=20, deadline=None)
    @given(settle_cases(), st.lists(st.tuples(st.booleans(), st.integers(0, 2**32 - 1),
                                              st.integers(1, 3)),
                                    min_size=2, max_size=3))
    def test_replicas_settle_as_one_replica_machines(self, case, replicas):
        # the replicas of one machine, in either buffer mode, settle
        # together after every slot, once, one item per slice or one
        # slice per loop, and each replica's log is that of a one-replica
        # machine of its seed
        cfg = case[0]
        counts = [n for _, _, n in replicas]

        def machine():
            return SlotMachine(cfg, schemes=list(Scheme), replicas=[
                (buffered, seed) for buffered, seed, _ in replicas])

        def unfinished(mach):
            return [r for r, (replica, n) in enumerate(zip(mach.replicas, counts))
                    if replica.transmit_slots < n]

        eager, once = machine(), machine()
        while unfinished(eager):             # the replicas' slots interleave
            for r in unfinished(eager):
                eager.advance(r)
                eager.settle()
        for r in unfinished(once):
            while once.replicas[r].transmit_slots < counts[r]:
                once.advance(r)
        once.settle()
        driven = machine().run_until(counts)
        with one_item_per_slice():
            sliced = machine().run_until(counts)
        with one_slice_per_loop():
            whole = machine().run_until(counts)
        # run_until draws no channel slot that its replicas do not read,
        # so a second run continues the first
        stepped = machine().run_until(1).run_until(counts)
        for r, (buffered, seed, n) in enumerate(replicas):
            alone = SlotMachine(replace(cfg, buffers_enabled=buffered), seed,
                                schemes=list(Scheme)).run_until(n)
            assert repr(eager.replicas[r].log) == repr(once.replicas[r].log) \
                == repr(driven.replicas[r].log) == repr(sliced.replicas[r].log) \
                == repr(whole.replicas[r].log) == repr(stepped.replicas[r].log) \
                == repr(alone.replicas[0].log)

    @settings(max_examples=20, deadline=None)
    @given(settle_cases(), st.lists(st.tuples(st.booleans(), st.integers(0, 2**32 - 1),
                                              st.integers(0, 3), st.integers(0, 3)),
                                    min_size=1, max_size=3),
           st.sampled_from([None, 1, 3]))
    def test_every_channel_slot_drawn_is_read(self, case, replicas, block):
        # a bare advance() draws one channel row, and within run_until a
        # block holds no more slots than its replica still needs, so the
        # channel rows drawn, in blocks of the block budget (block slots
        # when given) or fewer, add up to the slots run, in either buffer
        # mode, after a few bare advance() calls and over a second run
        cfg = case[0]
        draw, drawn = signal_model.draw_channels, []

        def counted(config, rng, n):
            drawn.append(n)
            return draw(config, rng, n)

        machine = SlotMachine(cfg, schemes=list(Scheme), replicas=[
            (buffered, seed) for buffered, seed, *_ in replicas])
        budget = buffer_protocol._BLOCK_ELEMENTS if block is None else \
            block * cfg.num_relays * cfg.num_users ** 2
        with mock.patch.object(signal_model, "draw_channels", counted), \
                mock.patch.object(buffer_protocol, "_BLOCK_ELEMENTS", budget):
            for r, (*_, steps, _) in enumerate(replicas):
                for _ in range(steps):
                    before = len(drawn)
                    machine.advance(r)
                    assert drawn[before:] == [1]
            assert sum(drawn) == sum(rep.slot for rep in machine.replicas)
            for counts in ([n for *_, n in replicas], [n + 2 for *_, n in replicas]):
                machine.run_until(counts)
                assert sum(drawn) == sum(rep.slot for rep in machine.replicas)
        assert block is None or max(drawn) <= block

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 11))
    @pytest.mark.parametrize("modes", [[True], [False], [True, False]])
    def test_run_resumes_after_its_slot_cap(self, modes, seed, cap):
        # a run stopped by its slot cap leaves its replicas where they
        # stand, unread block slots included, so a second run on the same
        # machine gives the log of a run that was never stopped; six
        # packets take at least twelve slots, so every cap stops the first
        # replica
        cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                           buffer_size=2, group_size=2, packet_length=8,
                           snr_db=6.0, rng_seed=7)

        def machine():      # one replica per mode, twins when both run
            return SlotMachine(cfg, schemes=list(Scheme),
                               replicas=[(buffered, seed) for buffered in modes])

        capped = machine()
        with pytest.raises(RuntimeError, match="requested packets"):
            capped.run_until(6, max_slots=cap)
        capped.run_until(6)
        fresh = machine().run_until(6)
        for resumed, alone in zip(capped.replicas, fresh.replicas):
            assert repr(resumed.log) == repr(alone.log)


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
        rep = mach.replicas[0]
        before = (len(rep.log), rep.slot, rep.bank.occupancies())
        monkeypatch.setattr(rep.bank, "can_receive", lambda relays: False)
        monkeypatch.setattr(rep.bank, "can_transmit", lambda relays: False)
        with pytest.raises(RuntimeError, match="no candidate pair can"):
            mach.advance()
        assert (len(rep.log), rep.slot, rep.bank.occupancies()) == before


# (bits, errors, slots, idle slots) per variant of a fixed-seed sweep,
# and the SHA-256 of its --trace file.  Pinned values: a refactor that
# changes the simulated stream of a fixed seed fails here; change them
# only together with an intended RNG change.
GOLDEN = {
    PairMode.FIXED_GROUPS: {
        "xor-buffered-mmse": (200, 32, 21, 0),
        "xor-unbuffered-mmse": (200, 38, 20, 0),
        "random-buffered-mmse": (200, 15, 21, 0),
        "random-unbuffered-mmse": (200, 12, 20, 0),
        "ml-buffered-mmse": (200, 14, 21, 0),
        "ml-unbuffered-mmse": (200, 16, 20, 0),
        "mmse-buffered-mmse": (200, 11, 21, 0),
        "mmse-unbuffered-mmse": (200, 8, 20, 0),
    },
    PairMode.ALL_PAIRS: {
        "xor-buffered-mmse": (200, 24, 22, 0),
        "xor-unbuffered-mmse": (200, 38, 20, 0),
        "random-buffered-mmse": (200, 12, 22, 0),
        "random-unbuffered-mmse": (200, 12, 20, 0),
        "ml-buffered-mmse": (200, 5, 22, 0),
        "ml-unbuffered-mmse": (200, 16, 20, 0),
        "mmse-buffered-mmse": (200, 6, 22, 0),
        "mmse-unbuffered-mmse": (200, 8, 20, 0),
    },
}
GOLDEN_TRACE_SHA256 = {
    PairMode.FIXED_GROUPS:
        "3fd028b8e4795870c7ceaad79e64d11289f5df47fe8b278fb59b9a50defe5735",
    PairMode.ALL_PAIRS:
        "301feed4fd69142cf18426ca37793bc9ef2dc243cf0f2980b71ff21bc0731d00",
}
# All pairs with J = 3 and the direct-link decoder: overlapping pairs
# share relay buffers, and every decode reads the stored direct estimates.
GOLDEN_DIRECT = {
    "xor-buffered-mmse": (200, 19, 28, 0),
    "xor-unbuffered-mmse": (200, 38, 20, 0),
    "random-buffered-mmse": (200, 14, 28, 0),
    "random-unbuffered-mmse": (200, 27, 20, 0),
    "ml-buffered-mmse": (200, 4, 28, 0),
    "ml-unbuffered-mmse": (200, 16, 20, 0),
    "mmse-buffered-mmse": (200, 2, 28, 0),
    "mmse-unbuffered-mmse": (200, 8, 20, 0),
}
GOLDEN_DIRECT_TRACE_SHA256 = \
    "41b6010d42d36b6773213640529d7a5dacc55d9ca3c6b801550b5967ac8286d7"
# Group sizes 1 and 3: single-user groups (every encoder is [1], XOR
# reads no direct estimate) and the direct-link decoder on one group of
# three (4 packets: the mmse design scores 174 encoders per reception).
GOLDEN_M1 = {
    "xor-buffered-mmse": (100, 0, 22, 0),
    "xor-unbuffered-mmse": (100, 5, 20, 0),
    "random-buffered-mmse": (100, 0, 22, 0),
    "random-unbuffered-mmse": (100, 5, 20, 0),
    "ml-buffered-mmse": (100, 0, 22, 0),
    "ml-unbuffered-mmse": (100, 5, 20, 0),
    "mmse-buffered-mmse": (100, 0, 22, 0),
    "mmse-unbuffered-mmse": (100, 5, 20, 0),
}
GOLDEN_M1_TRACE_SHA256 = \
    "083400f44e677c0c62e85eee856d151bb115cf2f409c55ef0673af94ab635b62"
GOLDEN_M3_DIRECT = {
    "xor-buffered-mmse": (120, 27, 8, 0),
    "xor-unbuffered-mmse": (120, 27, 8, 0),
    "random-buffered-mmse": (120, 8, 8, 0),
    "random-unbuffered-mmse": (120, 8, 8, 0),
    "ml-buffered-mmse": (120, 15, 8, 0),
    "ml-unbuffered-mmse": (120, 15, 8, 0),
    "mmse-buffered-mmse": (120, 1, 8, 0),
    "mmse-unbuffered-mmse": (120, 1, 8, 0),
}
GOLDEN_M3_DIRECT_TRACE_SHA256 = \
    "3985fc11a346cc19edc61a5d3e106689b60f2f3f3200af39ff3ec9b6d00f6bb6"
# The RAKE receiver (matched filters in every bank) at J = 2.
GOLDEN_RAKE = {
    "xor-buffered-rake": (200, 59, 21, 0),
    "xor-unbuffered-rake": (200, 63, 20, 0),
    "random-buffered-rake": (200, 24, 21, 0),
    "random-unbuffered-rake": (200, 27, 20, 0),
    "ml-buffered-rake": (200, 31, 21, 0),
    "ml-unbuffered-rake": (200, 24, 20, 0),
    "mmse-buffered-rake": (200, 21, 21, 0),
    "mmse-unbuffered-rake": (200, 19, 20, 0),
}
GOLDEN_RAKE_TRACE_SHA256 = \
    "8197f5ad7cef39bb1a00f63053e94bb4d9b6ca4090c95a3ec31403c77ad79936"
# Long packets in chunks of 3: pass 2 of the slot machine cuts every
# chunk's receptions and transmissions into several slices.
GOLDEN_SLICED = {
    "xor-buffered-mmse": (48000, 6962, 19, 0),
    "xor-unbuffered-mmse": (48000, 8073, 16, 0),
    "random-buffered-mmse": (48000, 2207, 19, 0),
    "random-unbuffered-mmse": (48000, 5171, 16, 0),
    "ml-buffered-mmse": (48000, 1698, 19, 0),
    "ml-unbuffered-mmse": (48000, 5113, 16, 0),
    "mmse-buffered-mmse": (48000, 405, 19, 0),
    "mmse-unbuffered-mmse": (48000, 3931, 16, 0),
}
GOLDEN_SLICED_TRACE_SHA256 = \
    "42a741307fe22fb86467a9781f7ea9a6bcb4d64ab41827113f5e515cd45fa4d8"
# More users than relays (K=8, L=4), all pairs, buffered only: two groups
# own no relay and every group is served round robin on any relay pair.
GOLDEN_K8_L4 = {
    "xor-buffered-mmse": (200, 44, 23, 0),
    "random-buffered-mmse": (200, 22, 23, 0),
    "ml-buffered-mmse": (200, 11, 23, 0),
    "mmse-buffered-mmse": (200, 5, 23, 0),
}
GOLDEN_K8_L4_TRACE_SHA256 = \
    "0c3ce827e203f3b2402cdbfc1c2b612536dc095d780187576f6109933d8a4cb5"
# More relays than users (K=4, L=8), fixed groups: the four relays
# outside every group interfere in the SINR table.
GOLDEN_K4_L8 = {
    "xor-buffered-mmse": (200, 20, 21, 0),
    "xor-unbuffered-mmse": (200, 44, 20, 0),
    "random-buffered-mmse": (200, 13, 21, 0),
    "random-unbuffered-mmse": (200, 24, 20, 0),
    "ml-buffered-mmse": (200, 11, 21, 0),
    "ml-unbuffered-mmse": (200, 20, 20, 0),
    "mmse-buffered-mmse": (200, 5, 21, 0),
    "mmse-unbuffered-mmse": (200, 12, 20, 0),
}
GOLDEN_K4_L8_TRACE_SHA256 = \
    "8912cbf0aa1e9e7397396917e356f04d1b2061f157e7c02121a70704dc779e75"
# Group size 4 (22560 encoder rows, an int16 row index per lane), K=4,
# L=8, J=2, in both buffer modes; the mmse design is limited to m <= 3.
GOLDEN_M4 = {
    DecoderKind.JOINT: {
        "xor-buffered-mmse": (240, 96, 13, 0),
        "xor-unbuffered-mmse": (240, 59, 12, 0),
        "random-buffered-mmse": (240, 20, 13, 0),
        "random-unbuffered-mmse": (240, 23, 12, 0),
        "ml-buffered-mmse": (240, 24, 13, 0),
        "ml-unbuffered-mmse": (240, 16, 12, 0),
    },
    DecoderKind.DIRECT: {
        "xor-buffered-mmse": (240, 96, 13, 0),
        "xor-unbuffered-mmse": (240, 59, 12, 0),
        "random-buffered-mmse": (240, 25, 13, 0),
        "random-unbuffered-mmse": (240, 26, 12, 0),
        "ml-buffered-mmse": (240, 39, 13, 0),
        "ml-unbuffered-mmse": (240, 29, 12, 0),
    },
}
GOLDEN_M4_TRACE_SHA256 = {
    DecoderKind.JOINT:
        "061bd7ac2d07bdb1db94e93dff0f50aa4b3d636bed62d719d4733ae1e293a25d",
    DecoderKind.DIRECT:
        "4b101e622af74c3c020c8ce19d42fe96947f65122e37e2e9191caf181352e3f0",
}
# A two-worker `plnc-sim sweep --trace` (30 packets per point, two chunks
# each): the CSV, the sidecar without its wall_clock_s line, the trace.
GOLDEN_CLI_CSV = """\
scheme,snr_db,bits,errors,ber
ml-buffered-mmse,4,1200,116,0.0966666666667
ml-buffered-mmse,10,1200,41,0.0341666666667
ml-unbuffered-mmse,4,1200,180,0.15
ml-unbuffered-mmse,10,1200,69,0.0575
mmse-buffered-mmse,4,1200,92,0.0766666666667
mmse-buffered-mmse,10,1200,5,0.00416666666667
mmse-unbuffered-mmse,4,1200,121,0.100833333333
mmse-unbuffered-mmse,10,1200,40,0.0333333333333
random-buffered-mmse,4,1200,151,0.125833333333
random-buffered-mmse,10,1200,42,0.035
random-unbuffered-mmse,4,1200,197,0.164166666667
random-unbuffered-mmse,10,1200,87,0.0725
xor-buffered-mmse,4,1200,256,0.213333333333
xor-buffered-mmse,10,1200,111,0.0925
xor-unbuffered-mmse,4,1200,234,0.195
xor-unbuffered-mmse,10,1200,87,0.0725
"""
GOLDEN_CLI_SIDECAR_SHA256 = \
    "bad07bba16540ec5b6f2afc91be5c847dc753a86a2996257d74a60d7c728ef8e"
GOLDEN_CLI_TRACE_SHA256 = \
    "6bb6dd03335c6f98daf6d1edd5d90bceebb5ae037453a2dc92c8436e92053f4d"


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


# One SHA-256 over the CSV, the sidecar (less its wall_clock_s line) and
# the --trace file of each sweep of byte_grid(), in order.  Pinned like
# GOLDEN: a refactor that moves any output byte fails here.
GOLDEN_GRID_SHA256 = \
    "8150c3d027bfed5ddd677c49d5878899adb0baa12713b378ead6f9fa85592090"


def byte_grid():
    """(config, SNR list, packets a point) of 34 sweeps over every scheme
    and both buffer modes: the paper system (K = L = 6, N = 16, J = 4,
    m = 2) over seeds 0-1, both pair modes, P in {16, 200}, both
    receivers and both decoders at 0, 6, 10 and 20 dB, 6 packets a point;
    then two m = 3 systems at P = 16, 4 and 12 dB, 5 packets a point."""
    for seed, pair_mode, length, receiver, decoder in product(
            range(2), PairMode, (16, 200), ReceiverKind, DecoderKind):
        yield (SystemConfig(packet_length=length, receiver=receiver, decoder=decoder,
                            pair_mode=pair_mode, rng_seed=seed),
               [0.0, 6.0, 10.0, 20.0], 6)
    for pair_mode, decoder in ((PairMode.FIXED_GROUPS, DecoderKind.JOINT),
                               (PairMode.ALL_PAIRS, DecoderKind.DIRECT)):
        yield (SystemConfig(group_size=3, packet_length=16, pair_mode=pair_mode,
                            decoder=decoder), [4.0, 12.0], 5)


def test_byte_grid_pinned(tmp_path):
    digest = hashlib.sha256()
    csv_path, trace_path = tmp_path / "grid.csv", tmp_path / "slots.csv"
    for cfg, snrs, n_packets in byte_grid():
        report = run_sweep(cfg, snrs, n_packets, schemes=list(Scheme),
                           buffer_modes=[True, False], collect_trace=True,
                           chunk_packets=4)
        emit_report(report, csv_path)
        write_trace(report, trace_path)
        sidecar = Path(f"{csv_path}.config.txt").read_text().splitlines(keepends=True)
        digest.update(csv_path.read_bytes())
        digest.update("".join(line for line in sidecar
                              if not line.startswith("wall_clock_s =")).encode())
        digest.update(trace_path.read_bytes())
    assert digest.hexdigest() == GOLDEN_GRID_SHA256


def csv_rows(path):
    """The rows of a CSV file as dicts of its header's fields."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestReportIo:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        report = run_sweep(cfg, [8.0, 10.0], 4, schemes=[Scheme.RANDOM],
                           buffer_modes=[True])
        path = tmp_path / "out.csv"
        emit_report(report, path)
        rows = csv_rows(path)
        assert len(rows) == len(report.points)
        by_key = {(p.scheme_label, p.snr_db): p for p in report.points}
        for row in rows:
            p = by_key[(row["scheme"], float(row["snr_db"]))]
            assert int(row["bits"]) == p.bits_total
            assert int(row["errors"]) == p.bit_errors
            assert float(row["ber"]) == float(f"{p.ber:.12g}")
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
    return [(row["scheme"], row["action"], row["note"]) for row in csv_rows(path)]


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
        groups = SlotMachine(tiny_config(), 0).replicas[0].candidates
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
        silent = SlotMachine(tiny_config(), 0).replicas[0].candidates[0]
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
        rows = [row for row in csv_rows(tmp_path / "t.csv")
                if row["action"] == "transmit"]
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
        silent = SlotMachine(tiny_config(), 0).replicas[0].candidates[0][0]
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

    @pytest.mark.parametrize("receiver", list(ReceiverKind))
    def test_underflowing_relay_gain_fails_linear_lanes(self, monkeypatch,
                                                        receiver):
        # |h|^2 = 1e-320 underflows to a subnormal, and the stream's noise
        # variance sigma2 / |h|^2 overflows: the linear lanes fail loudly
        # before any overflow warning, fallback note or plausible count
        draw = signal_model.draw_channels

        def faint_relays(*args):
            state = draw(*args)
            state.h_rd[...] = 1e-160
            return state

        monkeypatch.setattr(signal_model, "draw_channels", faint_relays)
        for scheme in (Scheme.RANDOM, Scheme.ML, Scheme.MMSE_DESIGN):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="degenerate channel"):
                    run_sweep(tiny_config(packet_length=8, receiver=receiver),
                              [8.0], 3, schemes=[scheme],
                              buffer_modes=[True, False])


def csv_writer_trace(report, path):
    """The trace as csv.writer writes the header and report.trace_rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("scheme", "snr_db", "chunk") + TRACE_FIELDS)
        writer.writerows(report.trace_rows)
    return path.read_bytes()


@contextlib.contextmanager
def forced_notes(cfg, note):
    """Force one of TestTraceNotes's notes: every decode-time mmse
    design falls back, or each candidate's second relay cancels its
    first one's gain to the destination."""
    design, draw = network_coding.design_G_mmse, signal_model.draw_channels
    candidates = SlotMachine(cfg, 0).replicas[0].candidates

    def fallback(*args):
        decoder = design(*args)
        return decoder._replace(fallback=np.ones_like(decoder.fallback))

    def cancelling(*args):
        state = draw(*args)
        for relays in candidates:
            if len(relays) > 1:
                state.h_rd[..., relays[1]] = -state.h_rd[..., relays[0]]
        return state

    patches = {"mmse fallback": (network_coding, "design_G_mmse", fallback),
               "degenerate combined channel": (signal_model, "draw_channels",
                                               cancelling)}
    with (mock.patch.object(*patches[note]) if note
          else contextlib.nullcontext()):
        yield


@st.composite
def trace_cases(draw):
    """A sweep_cases() system, an m = 3 one or one with K != L, swept
    over every scheme in both buffer modes (K > L only buffered), with
    no note forced or one of TestTraceNotes's."""
    cfg, _, _, n_packets, chunk_packets = draw(sweep_cases())
    cfg = draw(st.sampled_from([
        cfg,
        replace(cfg, num_users=3, num_relays=3, group_size=3, buffer_size=1),
        replace(cfg, num_users=4, num_relays=8, group_size=2),
        replace(cfg, num_users=8, num_relays=4, group_size=2,
                pair_mode=PairMode.ALL_PAIRS)]))
    buffer_modes = [True] if cfg.num_users > cfg.num_relays else [True, False]
    note = draw(st.sampled_from(buffer_protocol.NOTES))
    return cfg, buffer_modes, n_packets, chunk_packets, note


class TestTraceWriter:
    @settings(max_examples=25, deadline=None)
    @given(trace_cases())
    def test_bytes_equal_csv_writer(self, tmp_path_factory, case):
        # write_trace formats the rows itself; csv.writer over the same
        # rows is the oracle, byte for byte
        cfg, buffer_modes, n_packets, chunk_packets, note = case
        with forced_notes(cfg, note):
            report = run_sweep(cfg, [0.0, 8.0], n_packets, schemes=list(Scheme),
                               buffer_modes=buffer_modes, collect_trace=True,
                               chunk_packets=chunk_packets)
        tmp = tmp_path_factory.mktemp("trace")
        written = write_trace(report, tmp / "written.csv").read_bytes()
        assert written == csv_writer_trace(report, tmp / "oracle.csv")
        sinr = [row[3 + TRACE_FIELDS.index("sinr")] for row in report.trace_rows]
        assert ("" in sinr) == (False in buffer_modes)
        if note == "mmse fallback" or (note and cfg.group_size == 2
                                       and cfg.pair_mode == PairMode.FIXED_GROUPS):
            assert f",{note}\r\n".encode() in written

    def test_trace_columns_once_per_log(self, tmp_path, monkeypatch):
        # a log serves one point per scheme: its shared fields are
        # formatted once, not once per lane
        report = run_sweep(tiny_config(packet_length=8), [6.0, 10.0], 4,
                           schemes=list(Scheme), buffer_modes=[True, False],
                           collect_trace=True, chunk_packets=2)
        logs = {id(log) for _, chunk_logs in report.chunk_logs for log in chunk_logs}
        assert len(logs) == 2 * 2 * 2          # buffer modes x SNRs x chunks
        calls = Counter()
        columns = buffer_protocol.trace_columns

        def counted(log):
            calls[id(log)] += 1
            return columns(log)

        monkeypatch.setattr(harness, "trace_columns", counted)
        write_trace(report, tmp_path / "t.csv")
        assert calls == Counter(dict.fromkeys(logs, 1))
        calls.clear()
        report.trace_rows
        assert calls == Counter(dict.fromkeys(logs, 1))


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

    def test_line_without_equals_reported_with_line(self, tmp_path):
        bad = tmp_path / "bare.cfg"
        bad.write_text("K = 4\nL 4\n")
        with pytest.raises(ValueError,
                           match=r"bare.cfg:2: expected key=value, got 'L 4'"):
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
        rows = csv_rows(out)
        assert len(rows) == 1 and int(rows[0]["bits"]) >= 400

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
        assert {row["scheme"].split("-")[0] for row in csv_rows(out)} == expected

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

    @pytest.mark.parametrize("name", ["r.csv", "r.csv.config.txt"])
    def test_trace_naming_the_report_rejected(self, tmp_path, capsys,
                                              monkeypatch, name):
        # the trace is written after the report and its sidecar: a trace
        # path naming either, spelt another way, is a config error
        # before any file is written
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--snr", "8", "--bits", "200", "--schemes", "xor",
                     "--out", "r.csv", "--trace", str(tmp_path / name)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"plnc-sim: config error: --trace {str(tmp_path / name)!r} names the report")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config,args", [
        ("c.cfg", ["--out", "c.cfg"]),
        ("c.cfg", ["--out", "r.csv", "--trace", "c.cfg"]),
        ("x.config.txt", ["--out", "x"])])
    def test_output_naming_the_config_rejected(self, tmp_path, capsys,
                                               monkeypatch, config, args):
        # the report, its sidecar or the trace would replace the config
        # file the sweep was read from: a config error before any slot
        monkeypatch.chdir(tmp_path)
        text = b"K = 4\nL = 4\nN = 8\nP = 10\n"
        (tmp_path / config).write_bytes(text)
        code = main(["sweep", "--config", str(tmp_path / config), "--snr", "8",
                     "--bits", "200", "--schemes", "xor"] + args)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"plnc-sim: config error: --config {str(tmp_path / config)!r} names an output")
        assert (tmp_path / config).read_bytes() == text
        assert [path.name for path in tmp_path.iterdir()] == [config]

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

    @pytest.mark.parametrize("args,message", [
        (["--no-buffers", "--buffers-only"],
         "--no-buffers and --buffers-only are exclusive"),
        (["--bits", "0"], "--bits must be >= 1"),
        (["--snr", "1:2"], "bad SNR range '1:2', expected start:step:stop"),
        (["--schemes", ","], "empty scheme list"),
    ])
    def test_bad_flags_exit_code(self, tmp_path, capsys, args, message):
        out = tmp_path / "r.csv"
        code = main(["sweep", "--snr", "8", "--out", str(out)] + args)
        assert code == 1
        assert capsys.readouterr().err == f"plnc-sim: config error: {message}\n"
        assert not out.exists()

    def test_receiver_flag_overrides_and_is_echoed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=10\nreceiver=mmse\n")
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "8", "--bits", "20",
                     "--schemes", "xor", "--receiver", "rake", "--out", str(out)])
        assert code == 0
        assert "receiver = rake\n" in Path(f"{out}.config.txt").read_text()
        assert {row["scheme"] for row in csv_rows(out)} \
            == {"xor-buffered-rake", "xor-unbuffered-rake"}

    def test_no_buffers_runs_the_unbuffered_baseline_alone(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=10\n")
        out = tmp_path / "r.csv"
        code = main(["sweep", "--config", str(cfg), "--snr", "4,8", "--bits", "20",
                     "--schemes", "xor,random", "--no-buffers", "--out", str(out)])
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 4
        assert {row["scheme"] for row in rows} \
            == {"xor-unbuffered-mmse", "random-unbuffered-mmse"}

    def test_io_error_exit_code(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nL=4\nN=8\nJ=2\nm=2\nP=50\n")
        code = main(["sweep", "--config", str(cfg), "--snr", "8", "--bits",
                     "100", "--schemes", "random", "--buffers-only",
                     "--out", str(tmp_path / "missing_dir" / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("args,folders,what,path,culprit", [
        (["--out", "nodir/r.csv"], [], "report", "nodir/r.csv", "nodir"),
        (["--out", "r.csv"], ["r.csv.config.txt"], "report", "r.csv",
         "r.csv.config.txt"),
        (["--out", "r.csv", "--trace", "nodir/t.csv"], [], "trace", "nodir/t.csv",
         "nodir")])
    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys,
                                                      monkeypatch, args, folders,
                                                      what, path, culprit):
        # the report, its sidecar (here a directory) or the trace could not
        # be written: exit 2 with the I/O message before the sweep runs,
        # and no file is written
        monkeypatch.chdir(tmp_path)
        for folder in folders:
            (tmp_path / folder).mkdir()
        monkeypatch.setattr("plnc_sim.cli.run_sweep", None)
        code = main(["sweep", "--snr", "8", "--bits", "200", "--schemes", "xor"] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"plnc-sim: cannot write {what} to {path!r}: [Errno ")
        assert err.endswith(f": {culprit!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == folders

    def test_runtime_imports_no_scipy(self):
        # SciPy is a test dependency only: the CLI and an mmse design,
        # which evaluates both error-probability call sites, run without it
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "\n".join([
            "import sys",
            "import plnc_sim.cli",
            "from plnc_sim import Scheme, SlotMachine, SystemConfig",
            "cfg = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,"
            " buffer_size=2, group_size=2, packet_length=20, rng_seed=3,"
            " nc_design=Scheme.MMSE_DESIGN)",
            "SlotMachine(cfg, 3).run_until(2)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
