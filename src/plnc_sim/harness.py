"""Monte-Carlo BER experiments: trials, SNR sweeps, CSV reports.

A sweep point is split into fixed-size packet chunks, and a task is a
group of one point's chunks: one slot machine runs it, with one replica
per (chunk, buffer mode) and one lane per scheme, and settles the
replicas together.  A point's chunks are split evenly over the
workers, one task each, whatever the packet length.  workers=N means N
processes in all, this one included: process w runs task w of every
point, and the N - 1 forked children send their results back through
pipes.  Chunk seeds derive from (master seed, point index, chunk
index), so the aggregate counts are bit-identical for any worker count
and any grouping.  The seed leaves out the variant: both buffer modes
of a chunk run on the same random streams, so their replicas are
twins, whose equal draws pass 2 makes once, and the lanes share the
channels, symbols and both phases' noise and take the same actions.
"""

import csv
import itertools
import multiprocessing
import pickle
import time
import traceback
# unused here: perfbench's tracer patches harness.ProcessPoolExecutor by
# name in every traced round
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace

import numpy as np

from .buffer_protocol import NOTES, TRACE_FIELDS, SlotMachine, trace_columns, trace_row
from .config import Scheme, SystemConfig, check_count


@dataclass
class BerPoint:
    """Counts of one lane of a trial, or of a sweep point over its chunks."""

    scheme_label: str
    snr_db: float
    bits_total: int = 0
    bit_errors: int = 0
    slots: int = 0
    receive_slots: int = 0
    transmit_slots: int = 0

    def add(self, log, lane=0):
        """Add a slot log (SlotMachine.log) as lane saw it; returns self."""
        transmits = int(log["transmit"].sum())
        self.bits_total += int(log["decoded_bits"].sum())
        self.bit_errors += int(log["bit_errors"][:, lane].sum())
        self.slots += len(log)
        self.receive_slots += len(log) - transmits
        self.transmit_slots += transmits
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
                    "receive_slots": p.receive_slots,
                    "transmit_slots": p.transmit_slots}
                for p in self.points}

    @property
    def trace_rows(self):
        """Every trace row in one list: scheme, snr_db, chunk, then
        TRACE_FIELDS as the point's lane saw the slot; write_trace
        formats the same walk straight to text instead."""
        walk = _trace_walk(self, trace_columns)
        return [[point.scheme_label, point.snr_db, c_idx] + row
                for point, lane, c_idx, log, columns in walk
                for row in trace_row(log, lane, columns)]


def _trace_walk(report: RunReport, per_log):
    """(point, lane, chunk index, log, per_log(log)) of every chunk log
    in trace order: points as the report lists them, then chunks.  A
    log serves one point per scheme, so per_log runs once per log and
    its value is kept for the others.  A report swept without
    collect_trace keeps no logs and raises ValueError here, before the
    walk starts."""
    if not report.chunk_logs:
        raise ValueError("no slot logs: the report was swept without collect_trace")
    shared = {}                  # id(log) -> per_log(log)

    def once(log):
        if id(log) not in shared:
            shared[id(log)] = per_log(log)
        return shared[id(log)]

    return ((point, lane, c_idx, log, once(log))
            for point, (lane, logs) in zip(report.points, report.chunk_logs)
            for c_idx, log in enumerate(logs))


def scheme_label(scheme: Scheme, buffered: bool, receiver) -> str:
    mode = "buffered" if buffered else "unbuffered"
    return f"{scheme.value}-{mode}-{receiver.value}"


def run_trial(config: SystemConfig, seed, n_packets) -> BerPoint:
    """Simulate slots until n_packets complete the full pipeline, with
    the single lane config.nc_design, counting bit errors against the
    stored ground truth.  seed is an int or a SeedSequence; it is split
    into the per-purpose streams."""
    point = BerPoint(scheme_label(config.nc_design, config.buffers_enabled,
                                  config.receiver), config.snr_db)
    return point.add(SlotMachine(config, seed).run_until(n_packets).replicas[0].log)


def _run_chunk(task):
    """Worker entry point: one machine with one replica per (chunk,
    buffer mode) of the task, chunk-major, and one lane per scheme; must
    stay top-level so it pickles.  Returns the task's key, (point index,
    chunk indices), and the replicas' slot logs."""
    key, config, entropy, sizes, buffer_modes, schemes = task
    p_idx, c_range = key
    machine = SlotMachine(config, schemes=schemes, replicas=[
        (buffered, np.random.SeedSequence(entropy=entropy, spawn_key=(p_idx, c_idx)))
        for c_idx in c_range for buffered in buffer_modes])
    machine.run_until([n for n in sizes for _ in buffer_modes])
    return key, [replica.log for replica in machine.replicas]


def _run_stripe(conn, tasks):
    """Child process body: run the tasks through _run_chunk, then send
    their results, or the exception one of them raised, as one message.
    An exception that does not survive pickling is sent as a
    RuntimeError holding its traceback."""
    try:
        message = [_run_chunk(task) for task in tasks]
    except Exception as exc:
        message = exc
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            message = RuntimeError("a worker process raised:\n"
                                   + "".join(traceback.format_exception(exc)))
    conn.send(message)
    conn.close()


def _receive(child, conn):
    """The results a child sent; re-raises the exception it sent, and
    raises RuntimeError if it exited without sending."""
    try:
        message = conn.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"worker process {child.pid} exited with code "
                           f"{child.exitcode} before sending its results") from None
    child.join()
    if isinstance(message, BaseException):
        raise message
    return message


def _chunks_per_task(chunks, workers):
    """How many of a point's chunks one task stacks: all of them, split
    evenly over the workers."""
    return -(-chunks // workers)


def run_sweep(config: SystemConfig, snr_list, n_packets_per_point,
              schemes=None, buffer_modes=None, workers=1, chunk_packets=25,
              collect_trace=False) -> RunReport:
    """One BerPoint per (scheme variant, SNR); chunks may run in any
    order or process count without changing the counts.  Every variant
    reports the slot counts its lane shared with the other schemes.
    Each chunk's log is added to the points as it arrives and kept only
    with collect_trace.  workers is the process count, this one
    included: process w of them runs task w of every point, and a
    child's results arrive once this process has run its own."""
    t0 = time.perf_counter()
    snr_list = [float(s) for s in snr_list]
    schemes = list(schemes) if schemes is not None else [config.nc_design]
    buffer_modes = (list(buffer_modes) if buffer_modes is not None
                    else [config.buffers_enabled])
    for scheme in schemes:             # check every lane before any task runs
        replace(config, nc_design=scheme)
    # each list names the CSV rows; an empty one gives no BER point, and
    # two entries alike give rows the CSV cannot tell apart
    for name, labels in (("scheme", [s.value for s in schemes]),
                         ("buffer mode", buffer_modes),
                         ("SNR point", [f"{snr:g}" for snr in snr_list])):
        if not labels:
            raise ValueError(f"a sweep needs at least one {name}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate {name} in {labels}: its rows would "
                             "be reported twice")
    n = n_packets_per_point = check_count("n_packets_per_point", n_packets_per_point, 1)
    workers = check_count("workers", workers, 1)
    chunk_packets = check_count("chunk_packets", chunk_packets, 1)
    sizes = [min(chunk_packets, n - start) for start in range(0, n, chunk_packets)]

    for buffered in buffer_modes:      # check every config before any task runs
        replace(config, buffers_enabled=buffered)
    per_task = _chunks_per_task(len(sizes), workers)
    tasks = []
    for p_idx, snr in enumerate(snr_list):
        cfg = replace(config, nc_design=schemes[0], snr_db=snr)
        for first in range(0, len(sizes), per_task):
            c_range = range(first, min(first + per_task, len(sizes)))
            tasks.append(((p_idx, c_range), cfg, config.rng_seed,
                          sizes[c_range.start:c_range.stop], buffer_modes, schemes))

    points = {(s_idx, b_idx, p_idx): BerPoint(
                  scheme_label(scheme, buffered, config.receiver), snr)
              for (s_idx, scheme), (b_idx, buffered), (p_idx, snr)
              in itertools.product(enumerate(schemes), enumerate(buffer_modes),
                                   enumerate(snr_list))}
    logs = {}                          # (b_idx, p_idx) -> log per chunk

    def fold(results):
        for (p_idx, c_range), task_logs in results:
            replicas = itertools.product(c_range, enumerate(buffer_modes))
            for (c_idx, (b_idx, _)), log in zip(replicas, task_logs):
                for s_idx in range(len(schemes)):
                    points[(s_idx, b_idx, p_idx)].add(log, s_idx)
                if collect_trace:
                    logs.setdefault((b_idx, p_idx), [None] * len(sizes))[c_idx] = log

    # process w runs the stripe tasks[w::processes]; this one is process
    # 0, and none is idle, so never more processes than tasks.  Each
    # child sends its stripe's results in one message after its last
    # task, and this process reads them once its own stripe is folded:
    # no thread here competes with the stripe for the interpreter.
    processes = min(workers, len(tasks))
    children = []
    try:
        for w in range(1, processes):
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_stripe,
                                            args=(writer, tasks[w::processes]))
            child.start()
            writer.close()             # so a child that dies gives EOFError
            children.append((child, reader))
        fold(map(_run_chunk, tasks[0::processes]))
        for child, reader in children:
            fold(_receive(child, reader))
    finally:                           # after an error, stop every child
        for child, reader in children:
            if child.exitcode is None:
                child.terminate()
            child.join()
            reader.close()

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
                # a log's slots are its receptions and transmissions, so
                # idle_fraction reads 0; it stays for the line format
                fh.write(f"slots[{key}] = total={stats['slots']} idle_fraction=0.0000 "
                         f"receive={stats['receive_slots']} "
                         f"transmit={stats['transmit_slots']}\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc
    return path


def _text_prefixes(log):
    """The log's trace_columns as CSV text, one prefix per record.  The
    columns are ints and strs, which format as str() writes them."""
    template = ",".join(["{}"] * TRACE_FIELDS.index("bit_errors"))
    return [template.format(*row) for row in trace_columns(log)]


def write_trace(report: RunReport, path):
    """Slot trace CSV: the rows of report.trace_rows, written as text.
    Each record's shared fields become one text prefix per log, and a
    lane's rows of a chunk are one string.  No field can need quoting:
    the fields are ints, float reprs, enum-value labels, "|"-joined
    ints, "%.6g" text or empty, and NOTES entries, none of which holds
    a comma, a quote or a line break; so the bytes equal csv.writer's,
    which writes the header here."""
    walk = _trace_walk(report, _text_prefixes)
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(("scheme", "snr_db", "chunk") + TRACE_FIELDS)
            for point, lane, c_idx, log, prefixes in walk:
                head = f"{point.scheme_label},{point.snr_db},{c_idx},"
                fh.write("".join([
                    f"{head}{prefix},{errors},{NOTES[note]}\r\n"
                    for prefix, errors, note in zip(
                        prefixes, log["bit_errors"][:, lane].tolist(),
                        log["note"][:, lane].tolist())]))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path!r}: {exc}") from exc
    return path
