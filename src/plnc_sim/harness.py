"""Monte-Carlo BER experiments: trials, SNR sweeps, CSV reports.

Sweeps are split into tasks of (buffer mode, point, chunk): each task
runs one slot machine with one lane per scheme over a fixed-size packet
chunk.  Chunk seeds derive from (master seed, point index, chunk index),
so the aggregate counts are bit-identical for any worker count.  The
seed leaves out the variant: both buffer modes of a point run on the
same random streams, and the lanes share the channels, symbols and
first-phase noise and take the same actions.
"""

import csv
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .buffer_protocol import TRACE_FIELDS, RngStreams, SlotMachine, trace_row
from .config import Scheme, SystemConfig


@dataclass
class BerPoint:
    scheme_label: str
    snr_db: float
    bits_total: int = 0
    bit_errors: int = 0

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
class TrialResult:
    """Counts of one lane of a trial.  The slot counts and the trace's
    SlotOutcomes are the trial's, shared by all its lanes."""

    bit_errors: int
    bits_total: int
    slots: int
    idle_slots: int
    receive_slots: int
    transmit_slots: int
    trace: list = field(default_factory=list)


@dataclass
class RunReport:
    config_echo: dict
    points: list
    slot_summary: dict
    wall_clock_s: float
    seed: int
    trace_rows: list = field(default_factory=list)


def scheme_label(scheme: Scheme, buffered: bool, receiver) -> str:
    mode = "buffered" if buffered else "unbuffered"
    kind = receiver.value if hasattr(receiver, "value") else str(receiver)
    return f"{scheme.value}-{mode}-{kind}"


def run_lanes(config: SystemConfig, seed, n_packets, schemes,
              collect_trace=False) -> list:
    """Simulate slots until n_packets complete the full pipeline, with
    one lane per scheme, counting bit errors against the stored ground
    truth.  seed is an int or a SeedSequence; it is split into the
    per-purpose streams.  Returns one TrialResult per lane."""
    machine = SlotMachine(config, RngStreams.from_seed(seed),
                          collect_trace=collect_trace, schemes=schemes)
    machine.run_until(n_packets)
    bits = machine.transmit_slots * config.group_size * config.packet_length
    return [TrialResult(bit_errors=int(errors), bits_total=bits,
                        slots=machine.slot, idle_slots=machine.idle_slots,
                        receive_slots=machine.receive_slots,
                        transmit_slots=machine.transmit_slots,
                        trace=machine.trace)
            for errors in machine.bit_errors]


def run_trial(config: SystemConfig, seed, n_packets, collect_trace=False) -> TrialResult:
    """run_lanes with the single lane config.nc_design."""
    return run_lanes(config, seed, n_packets, [config.nc_design],
                     collect_trace)[0]


def _chunk_sizes(n_packets, chunk_packets):
    sizes = []
    remaining = n_packets
    while remaining > 0:
        sizes.append(min(chunk_packets, remaining))
        remaining -= sizes[-1]
    return sizes


def _run_chunk(task):
    """Worker entry point; must stay top-level so it pickles."""
    key, config, entropy, spawn_key, n_packets, schemes, collect_trace = task
    seed = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    return key, run_lanes(config, seed, n_packets, schemes, collect_trace)


def run_sweep(config: SystemConfig, snr_list, n_packets_per_point,
              schemes=None, buffer_modes=None, workers=1, chunk_packets=25,
              collect_trace=False) -> RunReport:
    """One BerPoint per (scheme variant, SNR); chunks may run in any
    order or process count without changing the counts.  Every variant
    reports the slot counts its lane shared with the other schemes."""
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
    sizes = _chunk_sizes(n_packets_per_point, chunk_packets)
    entropy = int(config.rng_seed) & 0xFFFFFFFFFFFFFFFF

    tasks = []
    for b_idx, buffered in enumerate(buffer_modes if schemes else []):
        for p_idx, snr in enumerate(snr_list):
            cfg = replace(config, nc_design=schemes[0], buffers_enabled=buffered,
                          snr_db=snr)
            for c_idx, n_pkts in enumerate(sizes):
                tasks.append(((b_idx, p_idx, c_idx), cfg, entropy,
                              (p_idx, c_idx), n_pkts, schemes, collect_trace))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_chunk, tasks))
    else:
        raw = [_run_chunk(t) for t in tasks]
    results = dict(raw)

    points = []
    slot_summary = {}
    trace_rows = []
    for (s_idx, scheme), (b_idx, buffered) in itertools.product(
            enumerate(schemes), enumerate(buffer_modes)):
        label = scheme_label(scheme, buffered, config.receiver)
        for p_idx, snr in enumerate(snr_list):
            point = BerPoint(scheme_label=label, snr_db=snr)
            slots = idle = rxs = txs = 0
            for c_idx in range(len(sizes)):
                res = results[(b_idx, p_idx, c_idx)][s_idx]
                point.bit_errors += res.bit_errors
                point.bits_total += res.bits_total
                slots += res.slots
                idle += res.idle_slots
                rxs += res.receive_slots
                txs += res.transmit_slots
                for outcome in res.trace:
                    trace_rows.append([label, snr, c_idx]
                                      + trace_row(outcome, s_idx))
            points.append(point)
            key = f"{label}@{snr:g}dB"
            slot_summary[key] = {"slots": slots,
                                 "idle_fraction": idle / slots if slots else 0.0,
                                 "receive_slots": rxs, "transmit_slots": txs}

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
    return RunReport(config_echo=echo, points=points, slot_summary=slot_summary,
                     wall_clock_s=time.perf_counter() - t0,
                     seed=config.rng_seed, trace_rows=trace_rows)


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
    """Slot trace CSV: one row per slot of every chunk in the sweep."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("scheme", "snr_db", "chunk") + TRACE_FIELDS)
            writer.writerows(report.trace_rows)
    except OSError as exc:
        raise OSError(f"cannot write trace to {path!r}: {exc}") from exc
    return path
