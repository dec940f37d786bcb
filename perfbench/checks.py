"""Output checks: bits delivered, BER bands around the checked-in
reference, and round-to-round identity of the simulated statistics.

Every BER point of every round is one operation.  It fails when the
round raised or the CLI exited non-zero, when the bits decoded differ
from the bits requested, when its BER lies outside its band or the
round's pooled BER below its lower edge, or when its statistics differ
from the first round of the same run.

A point's BER is its seed's expected BER plus packet noise.  The seed
fixes the spreading codes and relay groups for the whole run, so a band
allows SEED_SIGMAS of the reference's between-seed standard deviation
(seed_sd) around the reference mean, plus a packet-noise term.  Packets,
not bits, are the independent trials given the seed: all bits of a
packet share its slots' fading.  Bernstein's inequality bounds the noise
without a normal approximation: for the mean of n independent packet
error fractions in [0, 1] with variance at most v,

    P(|BER - p| >= t) <= 2 exp(-n t^2 / (2 v + 2 t / 3)),

so with L = ln(2 / DELTA) the half-width is
t(n) = L / (3 n) + sqrt((L / (3 n))^2 + 2 v L / n).  v is the reference's
within-seed packet variance, an upper bound for every workload (see
make_reference.py); the band adds t(n_ref) and
SEED_SIGMAS * seed_sd / sqrt(seeds) for the reference's own error.

With a few dozen packets a point's band is wide: at P=1000 and 25
packets no point's band excludes BER 0.  The pooled check takes the mean
BER of the round's 24 points, 24 times the packets, against the
reference's pooled entry.  It is one-sided.  A spreading code equal to
another up to sign (27 of the first 20000 seeds) can raise the BER of a
whole run far above the reference: two of five such seeds gave a pooled
BER of 0.097 and 0.112 against the reference's 0.058.  The two
best-spread codes of those 20000 seeds lowered it by 1.1 and 1.5
seed_sd.  A round whose pooled BER is below the lower edge fails every
point of the round.
"""

import hashlib
import json
import math

DELTA = 1e-6          # per band, for the sample and the reference each
SEED_SIGMAS = 4.0
POOLED = "pooled"
STAT_KEYS = ("bits", "errors", "slots", "idle", "receive", "transmit")


def index_reference(data):
    """{(scheme label, snr_db): entry, POOLED: entry} from a reference
    table as make_reference.reference_table returns it."""
    table = {(e["scheme"], float(e["snr_db"])): e for e in data["points"]}
    table[POOLED] = data["pooled"]
    return table


def load_reference(path):
    with open(path) as fh:
        return index_reference(json.load(fh))


def ber_band(ref, n_packets):
    """(low, high) BER band for a point of n_packets packets."""
    log_term = math.log(2.0 / DELTA)

    def half_width(n):
        a = log_term / (3.0 * n)
        return a + math.sqrt(a * a + 2.0 * ref["packet_var"] * log_term / n)

    p = ref["errors"] / ref["bits"]
    seed_term = SEED_SIGMAS * ref["seed_sd"] * (1.0 + 1.0 / math.sqrt(ref["seeds"]))
    half = half_width(n_packets) + half_width(ref["packets"]) + seed_term
    return p - half, p + half


def point_failures(point, bits_requested, bits_per_packet, reference):
    """Reasons this point fails, empty when it passes."""
    key = (point["scheme"], point["snr_db"])
    reasons = []
    if point["bits"] != bits_requested:
        reasons.append(f"{key}: {point['bits']} bits decoded, "
                       f"{bits_requested} requested")
    if key not in reference:
        return reasons + [f"{key}: no reference BER"]
    if point["bits"]:
        low, high = ber_band(reference[key], point["bits"] / bits_per_packet)
        ber = point["errors"] / point["bits"]
        if not low <= ber <= high:
            reasons.append(f"{key}: BER {ber:.4g} outside [{low:.4g}, {high:.4g}]")
    return reasons


def round_failures(wl, points, errors, reference, first):
    """{point key: reasons} for one round; first is the run's first
    round's points (None for the first round itself)."""
    got = {(p["scheme"], p["snr_db"]): p for p in points}
    before = {} if first is None else {(p["scheme"], p["snr_db"]): p for p in first}
    bits = wl.packets_per_point * wl.bits_per_packet
    errors = list(errors)
    keys = wl.point_keys()
    if all(key in got and got[key]["bits"] == bits for key in keys):
        low, _ = ber_band(reference[POOLED], len(keys) * wl.packets_per_point)
        ber = sum(got[k]["errors"] for k in keys) / (len(keys) * bits)
        if ber < low:
            errors.append(f"pooled BER of the round {ber:.4g} below {low:.4g}")
    failures = {}
    for key in keys:
        reasons = list(errors)
        if key not in got:
            reasons.append(f"{key}: missing from the output")
        else:
            reasons += point_failures(got[key], bits, wl.bits_per_packet, reference)
            if key in before and any(got[key][k] != before[key][k] for k in STAT_KEYS):
                reasons.append(f"{key}: statistics differ from the first round")
        if reasons:
            failures[key] = reasons
    return failures


def digest(points):
    """SHA-256 of the per-point simulated statistics."""
    rows = sorted([p["scheme"], p["snr_db"]] + [p[k] for k in STAT_KEYS]
                  for p in points)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()
