"""Span tracing of plnc-sim from outside the package.

The slot machine, the harness and the CLI reach every other module
through module attributes looked up at call time (``sm.draw_channel``,
``rx.source_relay_filter_bank``, ``harness.run_sweep`` ...).  Replacing
those attributes with timing wrappers therefore traces each layer
boundary without touching the package source.

A span is ``[name, start, end, parent_index]``; spans stay in memory
until ``fold`` turns them into per-name call counts, inclusive time and
self time (inclusive time minus the time covered by direct children).
Worker processes of a process pool (forked, so they inherit the
wrappers) fold after every chunk and write their totals to a spool
directory that the parent merges after the pool has shut down.
"""

import functools
import json
import os
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from plnc_sim import buffer_protocol as bp
from plnc_sim import cli, harness
from plnc_sim import network_coding as nc
from plnc_sim import receivers as rx
from plnc_sim import relay_selection as rs
from plnc_sim import signal_model as sm
from plnc_sim.config import ReceiverKind, Scheme

MODULES = (sm, rx, nc, rs, bp, harness, cli)

# Harness-level boundaries: traced in every traced round, cheap (a few
# spans per chunk), so per-variant timings come from these rounds.
LIGHT = (
    (harness, "run_sweep"), (harness, "run_trial"), (harness, "emit_report"),
    (harness, "write_trace"), (cli, "main"),
)
# Every public function the slot machine, harness and CLI call across a
# module boundary.
FULL = LIGHT + (
    (sm, "draw_channel"), (sm, "synthesize_first_phase"),
    (sm, "synthesize_second_phase"), (sm, "complex_gaussian"),
    (sm, "generate_codebook"),
    (rx, "source_relay_filter_bank"), (rx, "source_dest_filter_bank"),
    (rx, "relay_dest_filter_bank"), (rx, "detection_error_probs"),
    (rx, "effective_gains"), (rx, "hard_decision"),
    (nc, "select_G_mmse"), (nc, "design_G_ml_for_channel"),
    (nc, "design_G_mmse"), (nc, "design_G_random"), (nc, "encode_ncs"),
    (nc, "xor_encode"), (nc, "symbol_to_bit"), (nc, "xor_decode"),
    (nc, "decode_joint"), (nc, "detect_ncs"), (nc, "decode_with_direct"),
    (nc, "make_group_assignments"),
    (rs, "build_sinr_table"), (rs, "select_best"), (rs, "candidate_pairs"),
    (bp, "decide_action"), (bp, "trace_row"),
)
SYNTHESIS = ("signal_model.synthesize_first_phase",
             "signal_model.synthesize_second_phase")
DECODERS = ("network_coding.decode_joint", "network_coding.detect_ncs",
            "network_coding.decode_with_direct", "network_coding.xor_decode")
POOL_WAIT = "harness.pool_wait"
ADVANCE = "buffer_protocol.SlotMachine.advance"


def variant_labels():
    """The 8 scheme labels every workload runs, in sweep order."""
    return [harness.scheme_label(s, b, ReceiverKind.MMSE)
            for s in Scheme for b in (True, False)]


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "signal_model.share": "fraction",
    "signal_model.draw_channel.us": "us",
    "signal_model.synthesize_first_phase.us": "us",
    "signal_model.synthesize_second_phase.us": "us",
    "signal_model.noise_samples_per_packet": "samples/packet",
    "receivers.share": "fraction",
    "receivers.source_relay_filter_bank.us": "us",
    "receivers.source_relay_filter_bank.calls_per_slot": "1/slot",
    "receivers.source_dest_filter_bank.us": "us",
    "receivers.relay_dest_filter_bank.us": "us",
    "network_coding.share": "fraction",
    "network_coding.select_G_mmse.us": "us",
    "network_coding.design_G_ml_for_channel.us": "us",
    "network_coding.design_G_mmse.us": "us",
    "network_coding.decode.us": "us",
    "network_coding.mmse_fallback_count": "count",
    "relay_selection.share": "fraction",
    "relay_selection.build_sinr_table.us": "us",
    "relay_selection.select_best.calls_per_slot": "1/slot",
    "buffer_protocol.self_share": "fraction",
    "buffer_protocol.decide_action.us": "us",
    "buffer_protocol.reselections_per_slot": "1/slot",
    "buffer_protocol.idle_fraction": "fraction",
    "buffer_protocol.slots_per_packet": "slot/packet",
    **{f"harness.variant.{label}.slot_us": "us" for label in variant_labels()},
    "harness.parallel_efficiency": "fraction",
    "harness.trace_rows": "count",
    "harness.write_trace.s": "s",
    "harness.emit_report.s": "s",
}


def _layer(name):
    head = name.split(".", 1)[0]
    return "harness" if head == "cli" else head


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.spans = []
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts = Counter()

    def _reset(self):
        # in place: the installed wrappers hold these very objects
        self.spans.clear()
        self.stack.clear()
        self.stats.clear()
        self.counts.clear()

    def span(self, name, fn, hook=None):
        """Wrap fn so every call records a span; hook(span, args, result)
        runs after the span has closed."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(record, args, result)
            return result
        return traced

    def fold(self):
        """Move the closed spans into per-name totals."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        self.spans.clear()

    def take(self):
        """Return this round's (stats, counts) merged with the workers'
        spools, and start a fresh round."""
        self.fold()
        stats = {k: list(v) for k, v in self.stats.items()}
        counts = Counter(self.counts)
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                spool = json.load(fh)
            os.remove(path)
            for name, (calls, total, own) in spool["stats"].items():
                merged = stats.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            counts.update(spool["counts"])
        self._reset()
        return stats, counts

    def _spool(self):
        path = os.path.join(self.spool_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump({"stats": self.stats, "counts": self.counts}, fh)
        os.replace(path + ".tmp", path)

    # -- hooks: counters taken where the work happens ---------------------

    def _count_noise(self, span, args, result):
        parent = span[3]
        if parent >= 0 and self.spans[parent][0] in SYNTHESIS:
            self.counts["noise_samples"] += result.size

    def _count_slot(self, span, args, outcome):
        self.counts["slots"] += 1
        self.counts["idle"] += outcome.action == "idle"
        self.counts["packets"] += outcome.action == "transmit"
        self.counts["reselections"] += outcome.reselections

    def _count_fallback(self, span, args, decoder):
        # only the decode-time design; select_G_mmse also calls it per candidate
        parent = span[3]
        if parent >= 0 and self.spans[parent][0] == ADVANCE:
            self.counts["mmse_fallback"] += bool(decoder.fallback)

    def _count_variant(self, span, args, trial):
        config = args[0]
        label = harness.scheme_label(config.nc_design, config.buffers_enabled,
                                     config.receiver)
        self.counts[f"variant_slots/{label}"] += trial.slots
        self.counts[f"variant_s/{label}"] += span[2] - span[1]

    def _count_trace_rows(self, span, args, path):
        self.counts["trace_rows"] += len(args[0].trace_rows)

    def _chunk(self, fn):
        """harness._run_chunk: the root of a worker's work."""
        traced = self.span("harness._run_chunk", fn)

        @functools.wraps(fn)
        def chunk(task):
            if os.getpid() == self.owner_pid:
                return traced(task)
            if self.stack:      # parent's open spans: first chunk in this worker
                self._reset()
            result = traced(task)
            self.fold()
            self._spool()
            return result
        return chunk

    def _pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Records the parent's wait for its workers as its own span."""

            def map(self, fn, *iterables, **kwargs):
                wait = tracer.span(POOL_WAIT, lambda: list(
                    super(TracedPool, self).map(fn, *iterables, **kwargs)))
                return wait()
        return TracedPool

    def install(self, full):
        """Replace the traced attributes; returns an undo list."""
        hooks = {"complex_gaussian": self._count_noise,
                 "design_G_mmse": self._count_fallback,
                 "run_trial": self._count_variant,
                 "write_trace": self._count_trace_rows}
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module, attr in (FULL if full else LIGHT):
            fn = getattr(module, attr)
            wrapped = self.span(f"{module.__name__.rsplit('.', 1)[1]}.{attr}",
                                fn, hooks.get(attr))
            for owner in MODULES:          # every binding, e.g. cli.run_sweep
                if getattr(owner, attr, None) is fn:
                    patch(owner, attr, wrapped)
        patch(harness, "_run_chunk", self._chunk(harness._run_chunk))
        patch(harness, "ProcessPoolExecutor", self._pool())
        if full:
            patch(bp.SlotMachine, "advance",
                  self.span(ADVANCE, bp.SlotMachine.advance, self._count_slot))
        return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def _us(stats, name):
    calls, total, _ = stats.get(name, (0, 0.0, 0.0))
    return total / calls * 1e6 if calls else 0.0


def layer_metrics(full, light, workers):
    """Per-layer metrics from summed full-trace and light-trace rounds.

    full and light are (stats, counts, rounds) triples.
    """
    stats, counts, _ = full
    busy = sum(own for name, (_, _, own) in stats.items() if name != POOL_WAIT)
    layer_self = Counter()
    for name, (_, _, own) in stats.items():
        if name != POOL_WAIT:
            layer_self[_layer(name)] += own
    slots = counts["slots"]
    packets = counts["packets"]

    def calls(name):
        return stats.get(name, (0,))[0]

    out = {
        "signal_model.share": _ratio(layer_self["signal_model"], busy),
        "signal_model.draw_channel.us": _us(stats, "signal_model.draw_channel"),
        "signal_model.synthesize_first_phase.us":
            _us(stats, "signal_model.synthesize_first_phase"),
        "signal_model.synthesize_second_phase.us":
            _us(stats, "signal_model.synthesize_second_phase"),
        "signal_model.noise_samples_per_packet": _ratio(counts["noise_samples"], packets),
        "receivers.share": _ratio(layer_self["receivers"], busy),
        "receivers.source_relay_filter_bank.us":
            _us(stats, "receivers.source_relay_filter_bank"),
        "receivers.source_relay_filter_bank.calls_per_slot":
            _ratio(calls("receivers.source_relay_filter_bank"), slots),
        "receivers.source_dest_filter_bank.us":
            _us(stats, "receivers.source_dest_filter_bank"),
        "receivers.relay_dest_filter_bank.us":
            _us(stats, "receivers.relay_dest_filter_bank"),
        "network_coding.share": _ratio(layer_self["network_coding"], busy),
        "network_coding.select_G_mmse.us": _us(stats, "network_coding.select_G_mmse"),
        "network_coding.design_G_ml_for_channel.us":
            _us(stats, "network_coding.design_G_ml_for_channel"),
        "network_coding.design_G_mmse.us": _us(stats, "network_coding.design_G_mmse"),
        # decoder time per decoded packet, all decode paths together
        "network_coding.decode.us":
            _ratio(sum(stats.get(n, (0, 0.0))[1] for n in DECODERS), packets) * 1e6,
        "network_coding.mmse_fallback_count": _ratio(counts["mmse_fallback"], full[2]),
        "relay_selection.share": _ratio(layer_self["relay_selection"], busy),
        "relay_selection.build_sinr_table.us":
            _us(stats, "relay_selection.build_sinr_table"),
        "relay_selection.select_best.calls_per_slot":
            _ratio(calls("relay_selection.select_best"), slots),
        "buffer_protocol.self_share": _ratio(layer_self["buffer_protocol"], busy),
        "buffer_protocol.decide_action.us": _us(stats, "buffer_protocol.decide_action"),
        "buffer_protocol.reselections_per_slot": _ratio(counts["reselections"], slots),
        "buffer_protocol.idle_fraction": _ratio(counts["idle"], slots),
        "buffer_protocol.slots_per_packet": _ratio(slots, packets),
    }
    lstats, lcounts, lrounds = light
    for label in variant_labels():
        out[f"harness.variant.{label}.slot_us"] = (
            _ratio(lcounts[f"variant_s/{label}"],
                   lcounts[f"variant_slots/{label}"]) * 1e6)
    chunk_s = lstats.get("harness._run_chunk", (0, 0.0))[1]
    sweep_s = lstats.get("harness.run_sweep", (0, 0.0))[1]
    out["harness.parallel_efficiency"] = _ratio(chunk_s, workers * sweep_s)
    out["harness.trace_rows"] = _ratio(lcounts["trace_rows"], lrounds)
    out["harness.write_trace.s"] = _us(lstats, "harness.write_trace") / 1e6
    out["harness.emit_report.s"] = _us(lstats, "harness.emit_report") / 1e6
    return out
