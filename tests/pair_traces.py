"""Paired check of two slot traces of one sweep (`plnc-sim sweep --trace`).

Two runs of the same sweep and seed whose code differs only in streams
that leave the channel, the decisions and the slot schedule alone share
every slot, so a decoded packet is a common-random-numbers pair of its
two runs (Law and Kelton, Simulation Modeling and Analysis, ch. 11).
This script joins the traces on (scheme, snr_db, chunk, slot), requires
every column other than bit_errors to agree, and tests the differences
B - A of each decoded packet's bit errors:

    python tests/pair_traces.py A.csv B.csv

Per point it prints the mean difference, its standard error and z.  It
then prints the pooled relative difference of the total errors,
sum(B - A) / sum(A), with its 90 % interval (the ratio estimator's
linearisation over packets), for each scheme's points and then for all
of them.  The pair fails, exit code 1, if any point's |z| exceeds
Z_BOUND or the pool of all points leaves +-MARGIN: two one-sided tests
at 5 % each (Schuirmann, J. Pharmacokinet. Biopharm. 1987).  A
scheme's pool does not gate: it shows a change confined to some lanes,
which lanes that cannot move would dilute in the pool of all points.  Traces that do not pair raise ValueError, exit code 2.  The
bound and the margin are fixed here, before any comparison.
"""

import csv
import math
import sys
from statistics import NormalDist

KEY = ("scheme", "snr_db", "chunk", "slot")
COMPARED = "bit_errors"
Z_BOUND = 3.3
MARGIN = 0.01
LEVEL = 0.90
_Z_INTERVAL = NormalDist().inv_cdf(0.5 + LEVEL / 2)


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def pair_packets(rows_a, rows_b):
    """{(scheme, snr_db): [(errors A, errors B) per decoded packet]}, in
    trace order.  Raises ValueError unless both traces hold the same
    columns and slots and agree on every column but bit_errors."""
    if not rows_a or not rows_b:
        raise ValueError("an empty trace pairs with nothing")
    if rows_a[0].keys() != rows_b[0].keys():
        raise ValueError("the traces have different columns")
    index_b = {tuple(row[k] for k in KEY): row for row in rows_b}
    if len(index_b) != len(rows_b) or len(rows_a) != len(rows_b):
        raise ValueError(f"{len(rows_a)} and {len(rows_b)} slots, or a slot twice")
    points = {}
    for row in rows_a:
        key = tuple(row[k] for k in KEY)
        other = index_b.get(key)
        if other is None:
            raise ValueError(f"slot {key} is missing from the second trace")
        for column, value in row.items():
            if column != COMPARED and other[column] != value:
                raise ValueError(f"slot {key}: {column} {value!r} != {other[column]!r}")
        if int(row["decoded_bits"]) > 0:
            points.setdefault(key[:2], []).append(
                (int(row[COMPARED]), int(other[COMPARED])))
    return points


def point_stats(pairs):
    """(packets, mean, standard error, z) of the differences B - A."""
    diffs = [b - a for a, b in pairs]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n)
    z = mean / se if se > 0 else (0.0 if mean == 0 else math.copysign(math.inf, mean))
    return n, mean, se, z


def pooled_stats(pairs):
    """(relative difference sum(B - A) / sum(A), interval low, high)."""
    n = len(pairs)
    total = sum(a for a, _ in pairs)
    if total == 0:
        return (0.0, 0.0, 0.0) if all(b == 0 for _, b in pairs) \
            else (math.inf, math.inf, math.inf)
    ratio = sum(b - a for a, b in pairs) / total
    resid = sum((b - a - ratio * a) ** 2 for a, b in pairs)
    half = _Z_INTERVAL * math.sqrt(resid * n / max(n - 1, 1)) / total
    return ratio, ratio - half, ratio + half


def check(rows_a, rows_b):
    """(report lines, passed) for two traces' rows."""
    points = pair_packets(rows_a, rows_b)
    lines = [f"{'point':<32}{'packets':>8}{'mean B-A':>11}{'se':>9}{'z':>8}"]
    passed = True
    for (scheme, snr), pairs in points.items():
        n, mean, se, z = point_stats(pairs)
        flag = ""
        if abs(z) > Z_BOUND:
            passed, flag = False, f"  |z| > {Z_BOUND}"
        lines.append(f"{scheme + '@' + snr + 'dB':<32}{n:>8}{mean:>11.4f}{se:>9.4f}"
                     f"{z:>8.2f}{flag}")
    schemes = {}
    for (scheme, _), pairs in points.items():
        schemes.setdefault(scheme, []).extend(pairs)
    for scheme, pairs in schemes.items():
        lines.append(pooled_line(f"{scheme} pooled", pairs)[0])
    line, inside = pooled_line("pooled", [p for pairs in points.values() for p in pairs])
    lines.append(line)
    return lines, passed and inside


def pooled_line(name, pairs):
    """(report line, inside the margin) of the pooled statistics of pairs."""
    ratio, low, high = pooled_stats(pairs)
    inside = -MARGIN <= low and high <= MARGIN
    return (f"{name} relative difference {100 * ratio:+.3f} %, "
            f"{100 * LEVEL:.0f} % interval [{100 * low:+.3f}, {100 * high:+.3f}] %"
            f" {'inside' if inside else 'outside'} +-{100 * MARGIN:g} %"), inside


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: pair_traces.py A.csv B.csv", file=sys.stderr)
        return 2
    try:
        lines, passed = check(read_trace(argv[0]), read_trace(argv[1]))
    except ValueError as exc:
        print(f"pair_traces: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
