"""Self-test of the benchmark at toy size (K=L=4, N=8, P=20).

    python3 -m pytest perfbench/test_perfbench.py -q

Covers both round paths (run_sweep and the CLI), untraced and traced,
the failure accounting for an out-of-band BER, a bits shortfall and a
noiseless round at the paper-sweep packet count, the compare tool with
its unresolved verdict, and the exit without a result when the source is
absent.
"""

import io
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from plnc_sim import buffer_protocol as bp  # noqa: E402
from plnc_sim import network_coding as nc  # noqa: E402
from plnc_sim.config import Scheme  # noqa: E402
from plnc_sim.harness import run_sweep  # noqa: E402

import compare  # noqa: E402
from checks import index_reference, load_reference, round_failures  # noqa: E402
from make_reference import reference_table  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import BUFFER_MODES, SNRS, WORKLOADS, Workload  # noqa: E402

TOY = {"num_users": 4, "num_relays": 4, "spreading_gain": 8,
       "buffer_size": 2, "group_size": 2, "packet_length": 20}
TOY_SWEEP = Workload("toy-sweep", TOY, packets_per_point=30)
TOY_CLI = Workload("toy-cli", TOY, packets_per_point=30, workers=2, via_cli=True)
SEED = 7
ORIGINALS = (nc.decode_joint, bp.SlotMachine.advance)


@pytest.fixture(scope="module")
def reference():
    """Toy-size reference BER from sweeps on 12 other seeds."""
    reports = [run_sweep(TOY_SWEEP.config(100 + i), SNRS, 25,
                         schemes=list(Scheme), buffer_modes=list(BUFFER_MODES),
                         collect_trace=True)
               for i in range(12)]
    return index_reference(reference_table(reports))


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, removed afterwards."""
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=root))
    yield path
    shutil.rmtree(path)


def measure(wl, trace, reference, workdir):
    return run.measure(wl, SEED, 0, trace, reference, workdir)


def test_spec_matches_code():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in run.SPEC["per_layer"]} == PER_LAYER
    assert set(run.END_TO_END) == {"sweep_s", "packets_per_s", "slot_us",
                                   "peak_rss_mb", "setup_s"}


def test_sweep_rounds_pass_and_repeat(reference, workdir):
    result = measure(TOY_SWEEP, 0, reference, workdir)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 24 * run.MIN_ROUNDS
    assert set(result["metrics"]) == {"sweep_s", "packets_per_s", "slot_us"}
    assert all(v > 0 for v in result["metrics"].values())
    again = measure(TOY_SWEEP, 0, reference, workdir)
    assert again["digest"] == result["digest"]


def test_traced_sweep_reports_every_layer(reference, workdir):
    plain = measure(TOY_SWEEP, 0, reference, workdir)
    traced = measure(TOY_SWEEP, 1, reference, workdir)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["digest"] == plain["digest"]
    metrics = traced["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    shares = [metrics[f"{layer}.share"] for layer in
              ("signal_model", "receivers", "network_coding", "relay_selection")]
    assert all(s > 0 for s in shares)
    assert sum(shares) + metrics["buffer_protocol.self_share"] < 1.0
    assert metrics["harness.trace_rows"] == 0
    assert metrics["buffer_protocol.slots_per_packet"] >= 2.0
    assert (nc.decode_joint, bp.SlotMachine.advance) == ORIGINALS


def test_cli_round_matches_sweep_and_traces_workers(reference, workdir):
    plain = measure(TOY_SWEEP, 0, reference, workdir)
    cli_plain = measure(TOY_CLI, 0, reference, workdir)
    assert cli_plain["failed"] == 0, cli_plain["failures"]
    assert cli_plain["digest"] == plain["digest"]
    # both pool workers report their peak RSS; a single process has none
    assert cli_plain["worker_rss_kib"] > 0 and plain["worker_rss_kib"] == 0
    traced = measure(TOY_CLI, 1, reference, workdir)
    assert traced["failed"] == 0, traced["failures"]
    metrics = traced["metrics"]
    slots = sum(p["slots"] for p in traced["points"])
    assert metrics["harness.trace_rows"] == slots
    assert metrics["harness.write_trace.s"] > 0
    assert metrics["harness.emit_report.s"] > 0
    assert 0 < metrics["harness.parallel_efficiency"] <= 1.0
    # worker spans arrive through the spool
    assert metrics["relay_selection.select_best.calls_per_slot"] > 0
    assert metrics["receivers.share"] > 0


def test_out_of_band_ber_counts_as_failed(reference, workdir, monkeypatch):
    decode = nc.decode_joint
    monkeypatch.setattr(nc, "decode_joint", lambda *a, **k: -decode(*a, **k))
    result = measure(TOY_SWEEP, 0, reference, workdir)
    # the three linear schemes use the joint decoder, XOR does not
    assert result["failed"] == 18 * run.MIN_ROUNDS
    assert any("outside" in r for r in result["failures"])
    assert not result["correct"]


def test_bits_shortfall_counts_as_failed(reference, workdir, monkeypatch):
    run_until = bp.SlotMachine.run_until
    monkeypatch.setattr(bp.SlotMachine, "run_until",
                        lambda self, n: run_until(self, n, max_slots=3))
    result = measure(TOY_SWEEP, 0, reference, workdir)
    assert result["failed"] == result["attempted"]
    assert any("requested" in r for r in result["failures"])


def test_ber_zero_fails_at_paper_sweep_packet_count():
    """Against the checked-in reference, a round at the reference BER
    passes and a noiseless round (BER 0 everywhere) fails every point."""
    wl = WORKLOADS["paper-sweep"]
    reference = load_reference(HERE / "reference_ber.json")
    bits = wl.packets_per_point * wl.bits_per_packet

    def round_at(ber):
        return [{"scheme": label, "snr_db": snr, "bits": bits,
                 "errors": round(ber(reference[(label, snr)]) * bits)}
                for label, snr in wl.point_keys()]

    at_reference = round_at(lambda ref: ref["errors"] / ref["bits"])
    assert round_failures(wl, at_reference, [], reference, None) == {}
    noiseless = round_failures(wl, round_at(lambda ref: 0.0), [], reference, None)
    assert len(noiseless) == 24
    assert all(r[0].startswith("pooled BER of the round") for r in noiseless.values())


def _combined(values, digest):
    values = sorted(values)
    q1, q3 = values[0], values[-1]
    med = (q1 + q3) / 2
    stats = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
             "values": values}
    return {"spec": run.SPEC, "workloads": {"paper-sweep": {
        "attempted": 24, "failed": 0, "digests": {"1": digest},
        "end_to_end": {m: dict(stats) for m in run.END_TO_END},
        "per_layer": {m: 1.0 for m in PER_LAYER}}}}


def test_compare_flags_regressions_and_changed_statistics():
    base = _combined([1.0, 1.0], "a")
    out = io.StringIO()
    assert compare.compare(base, _combined([1.01, 1.01], "a"), out) == 0
    assert "identical for 1 seeds" in out.getvalue()
    out = io.StringIO()
    problems = compare.compare(base, _combined([2.0, 2.0], "b"), out)
    text = out.getvalue()
    # lower-is-better metrics doubled; packets_per_s doubling is a gain
    assert problems == 4
    assert "sweep_s [s]" in text and "WORSE by 100.0%" in text
    assert "CHANGED for seeds 1" in text


def test_compare_reports_wide_spread_as_unresolved():
    base = _combined([1.0, 1.0], "a")
    # spread 0.4 is above every bound: the doubled lower-is-better medians
    # are unresolved, not regressions; packets_per_s, where every new run
    # beats every base run, still counts as a gain
    out = io.StringIO()
    assert compare.compare(base, _combined([1.6, 2.4], "a"), out) == 0
    text = out.getvalue()
    assert text.count("unresolved") == len(run.END_TO_END) - 1
    assert "WORSE" not in text
    out = io.StringIO()
    compare.compare(base, _combined([0.4, 0.6], "a"), out)
    lines = [line for line in out.getvalue().splitlines() if "unresolved" in line]
    assert [line.split()[0] for line in lines] == ["packets_per_s"]


def test_exits_without_result_when_source_is_missing(workdir):
    bare = workdir / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "paper-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
