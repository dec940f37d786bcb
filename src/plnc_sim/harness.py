"""Monte-Carlo BER experiments: trials, SNR sweeps, CSV reports.

Sweeps are split into tasks of (buffer mode, point, chunk): each task
runs one slot machine with one lane per scheme over a fixed-size packet
chunk.  Chunk seeds derive from (master seed, point index, chunk index),
so the aggregate counts are bit-identical for any worker count.  The
seed leaves out the variant: both buffer modes of a point run on the
same random streams, and the lanes share the channels, symbols and
first-phase noise and take the same actions.
"""

import contextlib
import csv
import itertools
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .buffer_protocol import TRACE_FIELDS, RngStreams, SlotMachine, trace_row
from .config import Scheme, SystemConfig


@dataclass
class BerPoint:
    """Counts of one lane of a trial, or of a sweep point over its chunks."""

    scheme_label: str
    snr_db: float
    bits_total: int = 0
    bit_errors: int = 0
    slots: int = 0
    idle_slots: int = 0
    receive_slots: int = 0
    transmit_slots: int = 0

    def add(self, log, lane=0):
        """Add a slot log (SlotOutcomes) as lane saw it; returns self."""
        actions = Counter(o.action for o in log)
        self.bits_total += sum(o.decoded_bits for o in log)
        self.bit_errors += sum(o.bit_errors[lane] for o in log)
        self.slots += len(log)
        self.idle_slots += actions["idle"]
        self.receive_slots += actions["receive"]
        self.transmit_slots += actions["transmit"]
        return self

    @property
    def ber(self):
        return self.bit_errors / self.bits_total if self.bits_total else float("nan")

    @property
    def stderr(self):
        """Monte-Carlo standard error of the BER estimate."""
        if not self.bits_total:
            return float("nan")
        p = self.ber
        return np.sqrt(max(p * (1.0 - p), 1.0 / self.bits_total) / self.bits_total)


@dataclass
class RunReport:
    config_echo: dict
    points: list
    wall_clock_s: float
    # per point (lane, [log per chunk]); only run_sweep(collect_trace=True)
    chunk_logs: list = field(default_factory=list)

    @property
    def slot_summary(self):
        """Slot counts per point, keyed '<label>@<snr>dB'."""
        return {f"{p.scheme_label}@{p.snr_db:g}dB": {
                    "slots": p.slots,
                    "idle_fraction": p.idle_slots / p.slots if p.slots else 0.0,
                    "receive_slots": p.receive_slots,
                    "transmit_slots": p.transmit_slots}
                for p in self.points}

    @property
    def trace_rows(self):
        """Every trace row in one list; write_trace streams them instead."""
        return list(_trace_rows(self))


def _trace_rows(report: RunReport):
    """One trace row per slot of every chunk: scheme, snr_db, chunk, then
    TRACE_FIELDS as the point's lane saw the slot."""
    for point, (lane, logs) in zip(report.points, report.chunk_logs):
        for c_idx, log in enumerate(logs):
            for outcome in log:
                yield [point.scheme_label, point.snr_db, c_idx] \
                    + trace_row(outcome, lane)


def scheme_label(scheme: Scheme, buffered: bool, receiver) -> str:
    mode = "buffered" if buffered else "unbuffered"
    return f"{scheme.value}-{mode}-{receiver.value}"


def run_lanes(config: SystemConfig, seed, n_packets, schemes) -> list:
    """Simulate slots until n_packets complete the full pipeline, with
    one lane per scheme, counting bit errors against the stored ground
    truth.  seed is an int or a SeedSequence; it is split into the
    per-purpose streams.  Returns the machine's slot log."""
    machine = SlotMachine(config, RngStreams.from_seed(seed), schemes=schemes)
    return machine.run_until(n_packets).log


def run_trial(config: SystemConfig, seed, n_packets) -> BerPoint:
    """The counts of run_lanes with the single lane config.nc_design."""
    point = BerPoint(scheme_label(config.nc_design, config.buffers_enabled,
                                  config.receiver), config.snr_db)
    return point.add(run_lanes(config, seed, n_packets, [config.nc_design]))


def _run_chunk(task):
    """Worker entry point; must stay top-level so it pickles."""
    key, config, entropy, spawn_key, n_packets, schemes = task
    seed = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    return key, run_lanes(config, seed, n_packets, schemes)


def run_sweep(config: SystemConfig, snr_list, n_packets_per_point,
              schemes=None, buffer_modes=None, workers=1, chunk_packets=25,
              collect_trace=False) -> RunReport:
    """One BerPoint per (scheme variant, SNR); chunks may run in any
    order or process count without changing the counts.  Every variant
    reports the slot counts its lane shared with the other schemes.
    Each chunk's log is added to the points as it arrives and kept only
    with collect_trace."""
    t0 = time.perf_counter()
    snr_list = [float(s) for s in snr_list]
    schemes = list(schemes) if schemes is not None else [config.nc_design]
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"duplicate scheme in {[s.value for s in schemes]}: "
                         "its rows would be reported twice")
    buffer_modes = (list(buffer_modes) if buffer_modes is not None
                    else [config.buffers_enabled])
    for scheme in schemes:             # check every lane before any task runs
        replace(config, nc_design=scheme)
    labels = [f"{snr:g}" for snr in snr_list]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate SNR point in {labels}: the CSV could "
                         "not tell its rows apart")
    n = n_packets_per_point
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n_packets_per_point must be a positive integer, got {n!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_packets < 1:
        raise ValueError(f"chunk_packets must be >= 1, got {chunk_packets}")
    sizes = [min(chunk_packets, n - start) for start in range(0, n, chunk_packets)]

    tasks = []
    for b_idx, buffered in enumerate(buffer_modes if schemes else []):
        for p_idx, snr in enumerate(snr_list):
            cfg = replace(config, nc_design=schemes[0], buffers_enabled=buffered,
                          snr_db=snr)
            for c_idx, n_pkts in enumerate(sizes):
                tasks.append(((b_idx, p_idx, c_idx), cfg, config.rng_seed,
                              (p_idx, c_idx), n_pkts, schemes))

    points = {(s_idx, b_idx, p_idx): BerPoint(
                  scheme_label(scheme, buffered, config.receiver), snr)
              for (s_idx, scheme), (b_idx, buffered), (p_idx, snr)
              in itertools.product(enumerate(schemes), enumerate(buffer_modes),
                                   enumerate(snr_list))}
    logs = {}                          # (b_idx, p_idx) -> log per chunk
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        results = pool.map(_run_chunk, tasks) if pool else map(_run_chunk, tasks)
        for (b_idx, p_idx, c_idx), log in results:
            for s_idx in range(len(schemes)):
                points[(s_idx, b_idx, p_idx)].add(log, s_idx)
            if collect_trace:
                logs.setdefault((b_idx, p_idx), [None] * len(sizes))[c_idx] = log

    echo = {"K": config.num_users, "L": config.num_relays,
            "N": config.spreading_gain, "J": config.buffer_size,
            "m": config.group_size, "P": config.packet_length,
            "receiver": config.receiver.value,
            "decoder": config.decoder.value,
            "pair_mode": config.pair_mode.value,
            "schemes": ",".join(s.value for s in schemes),
            "buffer_modes": ",".join("buffered" if b else "unbuffered"
                                     for b in buffer_modes),
            "packets_per_point": n_packets_per_point,
            "chunk_packets": chunk_packets,
            "seed": config.rng_seed}
    return RunReport(config_echo=echo, points=list(points.values()),
                     wall_clock_s=time.perf_counter() - t0,
                     chunk_logs=[(s_idx, logs.get((b_idx, p_idx), []))
                                 for s_idx, b_idx, p_idx in points]
                     if collect_trace else [])


CSV_HEADER = ("scheme", "snr_db", "bits", "errors", "ber")


def emit_report(report: RunReport, path):
    """Write the BER table as CSV plus a flat-text config echo sidecar."""
    rows = sorted(report.points, key=lambda p: (p.scheme_label, p.snr_db))
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for p in rows:
                writer.writerow([p.scheme_label, f"{p.snr_db:g}", p.bits_total,
                                 p.bit_errors, f"{p.ber:.12g}"])
        sidecar = f"{path}.config.txt"
        with open(sidecar, "w") as fh:
            for key, value in report.config_echo.items():
                fh.write(f"{key} = {value}\n")
            fh.write(f"wall_clock_s = {report.wall_clock_s:.3f}\n")
            for key, stats in report.slot_summary.items():
                fh.write(f"slots[{key}] = total={stats['slots']} "
                         f"idle_fraction={stats['idle_fraction']:.4f} "
                         f"receive={stats['receive_slots']} "
                         f"transmit={stats['transmit_slots']}\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc
    return path


def parse_report(path):
    """Read back an emitted CSV into a list of row dicts."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = []
            for row in reader:
                rows.append({"scheme": row["scheme"],
                             "snr_db": float(row["snr_db"]),
                             "bits": int(row["bits"]),
                             "errors": int(row["errors"]),
                             "ber": float(row["ber"])})
            return rows
    except OSError as exc:
        raise OSError(f"cannot read report from {path!r}: {exc}") from exc


def write_trace(report: RunReport, path):
    """Slot trace CSV: one row per slot of every chunk in the sweep,
    formatted row by row from the report's chunk logs."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("scheme", "snr_db", "chunk") + TRACE_FIELDS)
            writer.writerows(_trace_rows(report))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path!r}: {exc}") from exc
    return path
