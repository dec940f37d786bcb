"""The benchmark's workloads and one sweep round of each.

Every workload runs the 4 coding schemes in both buffer modes (8
variants) at 6, 10 and 14 dB on the paper system (K=L=6, N=16, J=4,
m=2, MMSE receivers), so the 24 BER points of a round line up with the
reference table.  A round is fixed work: the same seed gives the same
simulated statistics in every round and every run.
"""

import contextlib
import csv
import io
import re
from dataclasses import dataclass

from plnc_sim import cli, harness
from plnc_sim.config import ReceiverKind, Scheme, SystemConfig

PAPER_SYSTEM = {"num_users": 6, "num_relays": 6, "spreading_gain": 16,
                "buffer_size": 4, "group_size": 2}
SNRS = (6.0, 10.0, 14.0)
BUFFER_MODES = (True, False)       # the CLI's default order
CLI_FILE_KEYS = {"num_users": "K", "num_relays": "L", "spreading_gain": "N",
                 "buffer_size": "J", "group_size": "m", "packet_length": "P"}


@dataclass(frozen=True)
class Workload:
    name: str
    system: dict            # SystemConfig fields except the seed
    packets_per_point: int
    workers: int = 1
    via_cli: bool = False

    def config(self, seed):
        return SystemConfig(**self.system, receiver=ReceiverKind.MMSE,
                            rng_seed=seed)

    @property
    def bits_per_packet(self):
        return self.system["group_size"] * self.system["packet_length"]

    def point_keys(self):
        """(label, snr) of every BER point of a round, in sweep order."""
        return [(harness.scheme_label(s, b, ReceiverKind.MMSE), snr)
                for s in Scheme for b in BUFFER_MODES for snr in SNRS]

    def run_round(self, seed, workdir):
        """One sweep; returns (points, errors) where errors apply to the
        whole round."""
        if self.via_cli:
            return _cli_round(self, seed, workdir)
        report = harness.run_sweep(self.config(seed), SNRS,
                                   self.packets_per_point, schemes=list(Scheme),
                                   buffer_modes=list(BUFFER_MODES),
                                   workers=self.workers)
        points = []
        for p in report.points:
            summary = report.slot_summary[f"{p.scheme_label}@{p.snr_db:g}dB"]
            points.append(_point(p.scheme_label, p.snr_db, p.bits_total,
                                 p.bit_errors, summary["slots"],
                                 summary["receive_slots"],
                                 summary["transmit_slots"]))
        return points, []


def _point(label, snr, bits, errors, slots, receive, transmit):
    return {"scheme": label, "snr_db": float(snr), "bits": int(bits),
            "errors": int(errors), "slots": int(slots),
            "idle": int(slots) - int(receive) - int(transmit),
            "receive": int(receive), "transmit": int(transmit)}


WORKLOADS = {w.name: w for w in (
    # Chip-rate synthesis, per-symbol filtering and decoding dominate.
    Workload("paper-sweep", {**PAPER_SYSTEM, "packet_length": 1000},
             packets_per_point=25),
    # P=16: per-slot work (channel draw, filter banks, SINR table,
    # selection, encoder design) dominates; chip synthesis is small.
    Workload("short-packet", {**PAPER_SYSTEM, "packet_length": 16},
             packets_per_point=100),
    # The CLI as users run it: a 2-process pool, trace rows pickled back
    # from the workers, CSV, sidecar and trace files written.
    Workload("cli-traced", {**PAPER_SYSTEM, "packet_length": 100},
             packets_per_point=100, workers=2, via_cli=True),
)}

_SIDECAR_SLOTS = re.compile(
    r"^slots\[(?P<label>[^@]+)@(?P<snr>[^\]]+)dB\] = total=(?P<total>\d+) "
    r"idle_fraction=\S+ receive=(?P<receive>\d+) transmit=(?P<transmit>\d+)$")


def _cli_round(wl, seed, workdir):
    config_path = workdir / "scenario.cfg"
    out = workdir / "results.csv"
    sidecar = workdir / "results.csv.config.txt"
    trace = workdir / "slots.csv"
    for stale in (out, sidecar, trace):
        stale.unlink(missing_ok=True)
    lines = [f"{CLI_FILE_KEYS[k]} = {v}" for k, v in wl.system.items()]
    lines += ["receiver = mmse", "schemes = xor,random,ml,mmse", f"seed = {seed}"]
    config_path.write_text("\n".join(lines) + "\n")
    argv = ["sweep", "--config", str(config_path), "--snr", "6:4:14",  # SNRS
            "--bits", str(wl.packets_per_point * wl.bits_per_packet),
            "--workers", str(wl.workers), "--out", str(out),
            "--trace", str(trace)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return [], [f"plnc-sim sweep exited with code {code}"]

    errors = []
    slots = {}
    for line in sidecar.read_text().splitlines():
        match = _SIDECAR_SLOTS.match(line)
        if match:
            slots[(match["label"], float(match["snr"]))] = match
    points = []
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["scheme"], float(row["snr_db"]))
            bits, errs = int(row["bits"]), int(row["errors"])
            if bits and row["ber"] != f"{errs / bits:.12g}":
                errors.append(f"{key}: ber column {row['ber']} != errors/bits")
            if key not in slots:
                errors.append(f"{key}: no slot statistics in the sidecar")
                continue
            s = slots[key]
            points.append(_point(key[0], key[1], bits, errs, s["total"],
                                 s["receive"], s["transmit"]))
    with open(trace, newline="") as fh:
        trace_rows = sum(1 for _ in fh) - 1
    total_slots = sum(p["slots"] for p in points)
    if trace_rows != total_slots:
        errors.append(f"trace has {trace_rows} rows for {total_slots} slots")
    return points, errors
