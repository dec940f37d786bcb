"""Regenerate reference_ber.json, the BER each point is checked against.

The BER of a point depends on the seed in two ways.  config.rng_seed
fixes the random spreading codes and relay groups for a whole run, and
it seeds the fading and noise of every slot.  So the reference runs the
short-packet system (P=16) on SEEDS seeds that no workload uses, with
PACKETS packets per point each, and records per point, and for the
round's 24 points pooled:

- bits, errors and packets: totals over all seeds;
- packet_var: the variance of a packet's error fraction within a seed,
  averaged over the seeds (pooled: averaged over the points too);
- seed_sd: the standard deviation across seeds of a seed's expected BER,
  i.e. the variance of the per-seed BER minus its packet-noise part.

Given its slot's channels and encoder every symbol of a packet errs with
the same law whatever P is, so the expected BER does not depend on the
packet length.  The within-seed variance of a packet's error fraction is
that of its channel-conditional BER plus a term that shrinks as 1/P, so
the variance measured here at P=16 bounds it for every workload
(P >= 16).  checks.py builds its bands from these figures.

    python3 perfbench/make_reference.py
"""

import json
import math
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from plnc_sim.config import Scheme  # noqa: E402
from plnc_sim.harness import run_sweep  # noqa: E402
from workloads import BUFFER_MODES, SNRS, WORKLOADS  # noqa: E402

FIRST_SEED = 20170720
SEEDS = 200
PACKETS = 25          # per point and seed: one harness chunk
# columns of a harness trace row: scheme, snr_db, chunk, then TRACE_FIELDS
ACTION, DECODED_BITS, BIT_ERRORS = 4, 12, 13


def packet_fractions(report):
    """{(scheme label, snr_db): [error fraction of each decoded packet]}
    from a sweep run with collect_trace."""
    fractions = defaultdict(list)
    for row in report.trace_rows:
        if row[ACTION] == "transmit":
            fractions[(row[0], row[1])].append(row[BIT_ERRORS] / row[DECODED_BITS])
    return fractions


def _entry(per_seed, packet_var):
    """Reference entry from [(bits, errors, packets)] of each seed, all
    seeds with the same packet count."""
    bits = sum(b for b, _, _ in per_seed)
    errors = sum(e for _, e, _ in per_seed)
    packets = sum(n for _, _, n in per_seed)
    seed_ber = [e / b for b, e, _ in per_seed]
    noise = packet_var / per_seed[0][2]      # variance of a seed's BER given the seed
    between = statistics.variance(seed_ber) - noise if len(per_seed) > 1 else 0.0
    return {"bits": bits, "errors": errors, "packets": packets,
            "packet_var": packet_var, "seed_sd": math.sqrt(max(between, 0.0)),
            "seeds": len(per_seed)}


def reference_table(reports):
    """Reference entries per point and pooled, from one sweep report per
    seed (same points and packet count in each)."""
    per_point = defaultdict(list)          # key -> [(bits, errors, packets)]
    within = defaultdict(list)             # key -> [variance within a seed]
    pooled = []
    for report in reports:
        fractions = packet_fractions(report)
        rows = []
        for p in report.points:
            key = (p.scheme_label, p.snr_db)
            rows.append((p.bits_total, p.bit_errors, len(fractions[key])))
            per_point[key].append(rows[-1])
            within[key].append(statistics.variance(fractions[key]))
        pooled.append(tuple(map(sum, zip(*rows))))
    points = []
    for (label, snr), per_seed in per_point.items():
        points.append({"scheme": label, "snr_db": snr,
                       **_entry(per_seed, statistics.mean(within[(label, snr)]))})
    pooled_var = statistics.mean(p["packet_var"] for p in points)
    return {"points": points, "pooled": _entry(pooled, pooled_var)}


def main():
    wl = WORKLOADS["short-packet"]
    reports = [run_sweep(wl.config(FIRST_SEED + i), SNRS, PACKETS,
                         schemes=list(Scheme), buffer_modes=list(BUFFER_MODES),
                         workers=os.cpu_count(), collect_trace=True)
               for i in range(SEEDS)]
    out = {"system": {**wl.system, "receiver": "mmse"}, "first_seed": FIRST_SEED,
           "seeds": SEEDS, "packets_per_point_and_seed": PACKETS,
           **reference_table(reports)}
    (HERE / "reference_ber.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(out['points'])} points from {SEEDS} seeds in "
          f"{sum(r.wall_clock_s for r in reports):.0f} s")


if __name__ == "__main__":
    main()
