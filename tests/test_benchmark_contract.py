"""What the benchmark in perfbench/ uses of the package: the names its
tracer wraps, the slot machine as its set-up probe builds it, the slot
decision its traced runs read and the counts its hooks and rounds read.
perfbench/ is read, never changed."""

import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plnc_sim import SlotMachine, SystemConfig, harness
from plnc_sim import buffer_protocol as bp
from plnc_sim import network_coding as nc
from plnc_sim.config import DecoderKind, Scheme

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize("module,attr", sorted(
    set(tracer.FULL) | set(tracer.LIGHT), key=lambda p: (p[0].__name__, p[1])),
    ids=lambda x: getattr(x, "__name__", x))
def test_traced_names_resolve(module, attr):
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_setup_probe_machines_construct_and_advance(name):
    # as setup_probe.py builds them, and as the traced slot hook reads them
    wl = workloads.WORKLOADS[name]
    for scheme in Scheme:
        for buffered in workloads.BUFFER_MODES:
            config = replace(wl.config(1), nc_design=scheme,
                             buffers_enabled=buffered)
            decision = SlotMachine(config, np.random.default_rng(1)).advance()
            # plain Python values: the slot hook adds both into a Counter
            # that a traced worker dumps as JSON
            assert type(decision.action) is str
            assert decision.action in ("receive", "transmit")
            assert type(decision.reselections) is int
            assert decision.reselections >= 0


# the coding calls whose spans make up network_coding.decode.us, plus the
# XOR encode: each must be looked up on its module at call time, or the
# tracer's wrapper never sees it and its time silently leaves the metric
CODING_CALLS = (tuple(name.split(".", 1)[1] for name in tracer.DECODERS)
                + ("xor_encode",))


@pytest.mark.parametrize("decoder", list(DecoderKind))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_coding_calls_go_through_their_module(monkeypatch, scheme, decoder):
    assert all(name.startswith("network_coding.") for name in tracer.DECODERS)
    calls = Counter()
    for name in CODING_CALLS:
        def counted(*args, _name=name, _fn=getattr(nc, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nc, name, counted)
    config = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                          packet_length=8, nc_design=scheme, decoder=decoder,
                          ml_training_len=8)
    SlotMachine(config, np.random.default_rng(3)).run_until(3)
    # pass 2 settles a run this small as one slice of receptions and one
    # of transmissions: one call per lane each
    if scheme == Scheme.XOR:
        expected = {"xor_encode": 1, "xor_decode": 1}
    elif decoder == DecoderKind.JOINT:
        expected = {"decode_joint": 1}
    else:
        expected = {"detect_ncs": 1, "decode_with_direct": 1}
    assert dict(calls) == expected


SMALL = SystemConfig(num_users=4, num_relays=4, spreading_gain=8,
                     packet_length=8, ml_training_len=8)


def test_trial_slots_reach_the_variant_counter(tmp_path):
    # the light trace's run_trial hook reads .slots from the trial
    light = tracer.Tracer(str(tmp_path))
    undo = light.install(full=False)
    try:
        trial = harness.run_trial(SMALL, 3, 4)
    finally:
        tracer.uninstall(undo)
    label = harness.scheme_label(SMALL.nc_design, SMALL.buffers_enabled,
                                 SMALL.receiver)
    assert light.counts[f"variant_slots/{label}"] == trial.slots > 0


def test_report_rows_and_summary_as_the_benchmark_reads_them():
    # the write_trace hook counts trace_rows; sweep rounds read slot_summary
    report = harness.run_sweep(SMALL, [8.0], 4, schemes=list(Scheme),
                               buffer_modes=[True, False], chunk_packets=3,
                               collect_trace=True)
    assert len(report.trace_rows) == sum(p.slots for p in report.points) > 0
    for p in report.points:
        summary = report.slot_summary[f"{p.scheme_label}@{p.snr_db:g}dB"]
        assert (summary["slots"], summary["receive_slots"],
                summary["transmit_slots"]) \
            == (p.slots, p.receive_slots, p.transmit_slots)


def test_decode_time_fallbacks_reach_the_fallback_counter(tmp_path, monkeypatch):
    # the full trace's design_G_mmse hook reads .fallback from the decoder
    # it returns, counting only calls made inside SlotMachine.advance; the
    # decode-time design now runs in settle(), batched over packets, so
    # the hook must not trip over it and the notes carry the fallbacks
    design = nc.design_G_mmse

    def forced(*args):
        decoder = design(*args)
        return decoder._replace(fallback=np.ones_like(decoder.fallback))

    monkeypatch.setattr(nc, "design_G_mmse", forced)
    full = tracer.Tracer(str(tmp_path))
    undo = full.install(full=True)
    try:
        machine = SlotMachine(replace(SMALL, nc_design=Scheme.MMSE_DESIGN),
                              np.random.default_rng(4)).run_until(3)
    finally:
        tracer.uninstall(undo)
    notes = np.count_nonzero(machine.log["note"] == bp.NOTES.index("mmse fallback"))
    assert notes == machine.transmit_slots > 0


# traced names a slot machine never calls: chip-rate synthesis and the
# single-slot draw stay for tests and demos, trace rows are the harness's
# and the direct-link decoders belong to the other decoder kind
NOT_IN_A_JOINT_MACHINE = {"draw_channel", "synthesize_first_phase",
                          "synthesize_second_phase", "symbol_to_bit",
                          "trace_row", "detect_ncs", "decode_with_direct"}
PASS_ONE = {"relay_dest_filter_bank", "build_sinr_table", "select_best",
            "decide_action", "effective_gains"}


@pytest.mark.parametrize("buffered", [True, False])
def test_pass_one_runs_once_per_channel_block(tmp_path, monkeypatch, buffered):
    # the banks and the table run once per block of slots drawn ahead, the
    # ranking walk once per buffered slot, the random and ml designs once
    # per settle; unbuffered, no decision reads the source-relay bank, so
    # it runs once per settle, for the receptions; every traced name the
    # machine uses is reached through its module
    K, L, N = SMALL.num_users, SMALL.num_relays, SMALL.spreading_gain
    monkeypatch.setattr(bp, "_SLICE_ELEMENTS", 3 * 2 * K * L * N)  # 3 slots
    full = tracer.Tracer(str(tmp_path))
    undo = full.install(full=True)
    try:
        machine = SlotMachine(replace(SMALL, buffers_enabled=buffered),
                              np.random.default_rng(5),
                              schemes=list(Scheme)).run_until(8)
    finally:
        tracer.uninstall(undo)
    stats, counts = full.take()
    calls = Counter({name: entry[0] for name, entry in stats.items()})
    blocks = -(-machine.slot // 3)
    assert counts["slots"] == machine.slot > 3
    assert calls["receivers.source_relay_filter_bank"] \
        == (blocks if buffered else 1)
    assert calls["receivers.relay_dest_filter_bank"] == blocks * buffered
    assert calls["relay_selection.build_sinr_table"] == blocks * buffered
    assert calls["relay_selection.select_best"] == machine.slot * buffered
    assert calls["buffer_protocol.decide_action"] == machine.slot * buffered
    assert calls["network_coding.design_G_ml_for_channel"] == 1
    assert calls["network_coding.design_G_random"] == 1
    unused = NOT_IN_A_JOINT_MACHINE | (set() if buffered else PASS_ONE)
    for module, attr in set(tracer.FULL) - set(tracer.LIGHT):
        if attr in unused:
            continue
        name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        assert calls[name] > 0, name
