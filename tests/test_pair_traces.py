"""The paired trace check (pair_traces.py) on synthetic traces: a null
pair passes, a 2 % error shift fails, and traces that do not pair
raise."""

import csv

import numpy as np
import pytest

import pair_traces
from plnc_sim.buffer_protocol import TRACE_FIELDS

HEADER = ("scheme", "snr_db", "chunk") + TRACE_FIELDS


def trace_rows(errors):
    """Trace rows of 2 schemes x 2 SNRs x 4 chunks of 250 slots, every
    second slot a transmission, whose bit errors are drawn from the
    iterator errors in order."""
    rows = []
    for scheme in ("xor-buffered-mmse", "mmse-unbuffered-mmse"):
        for snr in ("6.0", "10.0"):
            for chunk in range(4):
                for slot in range(250):
                    transmit = slot % 2
                    rows.append(dict(zip(HEADER, map(str, (
                        scheme, snr, chunk, slot, ("receive", "transmit")[transmit],
                        slot % 3, "0|1", ("source-relay", "relay-dest")[transmit],
                        "1.5", "0|0", "1|1", 0, 2000 * transmit,
                        next(errors) if transmit else 0, "")))))
    return rows


def pair(shift):
    """Two traces whose packets pair: A's errors are Poisson(100), B's
    are A's plus an independent -1, 0 or +1, plus one extra flipped bit
    per 50 of A's errors, on average, when shift."""
    rng = np.random.default_rng(7)
    a = rng.poisson(100, 2000)
    b = a + rng.integers(-1, 2, a.size) + (rng.binomial(a, 1 / 50) if shift else 0)
    return trace_rows(iter(a.tolist())), trace_rows(iter(b.tolist()))


def write(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, HEADER)
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


def test_null_pair_passes(tmp_path, capsys):
    rows_a, rows_b = pair(shift=False)
    lines, passed = pair_traces.check(rows_a, rows_b)
    assert passed
    assert len(lines) == 1 + 4 + 2 + 1        # header, 4 points, 2 schemes, all
    assert all("inside" in line for line in lines[-3:])
    paths = write(tmp_path / "a.csv", rows_a), write(tmp_path / "b.csv", rows_b)
    assert pair_traces.main(list(paths)) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_extra_flipped_bit_per_50_errors_fails(tmp_path):
    rows_a, rows_b = pair(shift=True)
    lines, passed = pair_traces.check(rows_a, rows_b)
    assert not passed
    assert all("|z| > 3.3" in line for line in lines[1:5])
    assert all("outside" in line for line in lines[5:])
    paths = write(tmp_path / "a.csv", rows_a), write(tmp_path / "b.csv", rows_b)
    assert pair_traces.main(list(paths)) == 1


def test_each_scheme_pools_its_own_points():
    # a 2 % shift in one scheme's packets shows outside the margin in that
    # scheme's pool alone; the gate reads the points and the pool of all
    rows_a, rows_b = pair(shift=False)
    _, shifted = pair(shift=True)
    rows_b[:2000] = shifted[:2000]           # the first scheme's rows
    lines, passed = pair_traces.check(rows_a, rows_b)
    assert lines[5].startswith("xor-buffered-mmse pooled") and "outside" in lines[5]
    assert lines[6].startswith("mmse-unbuffered-mmse pooled") and "inside" in lines[6]
    assert lines[7].startswith("pooled relative difference")
    assert not passed
    assert "|z| > 3.3" in lines[1] and "|z|" not in lines[3]


def test_point_and_pooled_statistics():
    n, mean, se, z = pair_traces.point_stats([(3, 4), (5, 5), (2, 4)])
    assert (n, mean) == (3, 1.0)
    assert se == pytest.approx(np.std([1, 0, 2], ddof=1) / np.sqrt(3))
    assert z == pytest.approx(mean / se)
    assert pair_traces.point_stats([(4, 4), (2, 2)])[3] == 0.0
    ratio, low, high = pair_traces.pooled_stats([(10, 11), (30, 33)])
    assert ratio == pytest.approx(0.1) and low <= ratio <= high


def test_changed_action_cell_raises(tmp_path, capsys):
    rows_a, rows_b = pair(shift=False)
    rows_b[6]["action"] = "transmit"
    with pytest.raises(ValueError, match="action 'receive' != 'transmit'"):
        pair_traces.check(rows_a, rows_b)
    paths = write(tmp_path / "a.csv", rows_a), write(tmp_path / "b.csv", rows_b)
    assert pair_traces.main(list(paths)) == 2
    assert "action" in capsys.readouterr().err


def test_traces_of_other_slots_raise():
    rows_a, rows_b = pair(shift=False)
    with pytest.raises(ValueError, match="slots"):
        pair_traces.check(rows_a, rows_b[:-1])
    rows_b[-1]["slot"] = "999"
    with pytest.raises(ValueError, match="missing from the second trace"):
        pair_traces.check(rows_a, rows_b)
