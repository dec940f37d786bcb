"""Command line front end: `plnc-sim sweep ...`.

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from itertools import product

from .config import ReceiverKind, Scheme, SystemConfig, read_config_file
from .harness import emit_report, run_sweep, write_trace

_SCHEME_TOKENS = {s.value: s for s in Scheme}


def parse_snr_spec(spec):
    """Accept 'start:step:stop' (stop inclusive) or a comma list of
    points that the CSV prints apart."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad SNR range {spec!r}, expected start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0 or not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"SNR range {spec!r} needs finite values and a step > 0")
        out = []
        value = start
        while value <= stop + 1e-9:
            out.append(round(value, 10))
            # points rise, so a point that prints as the one before it
            # (or does not advance) is the first repeat: stop there
            if len(out) > 1 and f"{out[-1]:g}" == f"{out[-2]:g}":
                break
            value += step
    else:
        out = [float(tok) for tok in spec.split(",") if tok.strip()]
    if not out:
        raise ValueError(f"SNR spec {spec!r} gives no SNR points")
    labels = [f"{snr:g}" for snr in out]      # as the CSV prints them
    if len(set(labels)) != len(labels):
        raise ValueError(f"SNR spec {spec!r} repeats a point: {labels}")
    return out


def parse_schemes(spec):
    """Comma list of scheme names, each at most once."""
    out = []
    for tok in spec.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok not in _SCHEME_TOKENS:
            raise ValueError(f"unknown scheme {tok!r}; choose from "
                             f"{','.join(_SCHEME_TOKENS)}")
        if _SCHEME_TOKENS[tok] in out:
            raise ValueError(f"scheme {tok!r} listed twice")
        out.append(_SCHEME_TOKENS[tok])
    if not out:
        raise ValueError("empty scheme list")
    return out


class _Parser(argparse.ArgumentParser):
    """Maps usage errors onto the config-error exit code instead of
    argparse's default 2 (reserved for I/O errors here)."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(prog="plnc-sim",
                     description="Buffer-aided PLNC DS-CDMA "
                                 "link-level simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run a BER-vs-SNR sweep")
    sweep.add_argument("--config", help="flat key=value config file")
    sweep.add_argument("--snr", default="0:2:14",
                       help="SNR points, 'start:step:stop' or comma list (dB)")
    sweep.add_argument("--bits", type=int, default=200_000,
                       help="information bits per BER point")
    sweep.add_argument("--out", default="results.csv", help="output CSV path")
    sweep.add_argument("--schemes",
                       help="comma list of coding schemes to run (default: "
                            "the config file's schemes, else all four)")
    sweep.add_argument("--no-buffers", action="store_true",
                       help="run only the unbuffered baseline instead of "
                            "both buffer modes")
    sweep.add_argument("--buffers-only", action="store_true",
                       help="run only the buffered scheme")
    sweep.add_argument("--receiver", choices=["rake", "mmse"],
                       help="override the linear receiver type")
    sweep.add_argument("--seed", type=int, help="master RNG seed")
    sweep.add_argument("--trace", help="write a per-slot trace CSV here")
    sweep.add_argument("--workers", type=int, default=1,
                       help="processes in all, this one included: process "
                            "w runs task w of every SNR point")
    return parser


def _build_config(args):
    overrides = {}
    file_schemes = None
    if args.config:
        overrides = read_config_file(args.config)
        file_schemes = overrides.pop("schemes", None)
    if args.receiver:
        overrides["receiver"] = ReceiverKind(args.receiver)
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    config = SystemConfig(**overrides)
    spec = args.schemes if args.schemes is not None else file_schemes
    schemes = parse_schemes(spec) if spec is not None else list(Scheme)
    snr_list = parse_snr_spec(args.snr)
    for scheme, snr in product(schemes, snr_list):   # every variant and point,
        replace(config, nc_design=scheme, snr_db=snr)  # before any runs
    if args.no_buffers and args.buffers_only:
        raise ValueError("--no-buffers and --buffers-only are exclusive")
    if args.no_buffers:
        buffer_modes = [False]
    elif args.buffers_only:
        buffer_modes = [True]
    else:
        buffer_modes = [True, False]
    return config, schemes, buffer_modes, snr_list


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config, schemes, buffer_modes, snr_list = _build_config(args)
        if args.bits < 1:
            raise ValueError("--bits must be >= 1")
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        # the trace is written last: naming the report or its sidecar
        # would overwrite it
        outputs = {os.path.realpath(path)
                   for path in (args.out, f"{args.out}.config.txt")}
        if args.trace:
            if os.path.realpath(args.trace) in outputs:
                raise ValueError(f"--trace {args.trace!r} names the report "
                                 f"{args.out!r} or its sidecar")
            outputs.add(os.path.realpath(args.trace))
        # and no output may replace the config file it was made from
        if args.config and os.path.realpath(args.config) in outputs:
            raise ValueError(f"--config {args.config!r} names an output: the "
                             f"report {args.out!r}, its sidecar or the trace")
    except (ValueError, OSError) as exc:
        print(f"plnc-sim: config error: {exc}", file=sys.stderr)
        return 1

    bits_per_packet = config.group_size * config.packet_length
    n_packets = max(1, -(-args.bits // bits_per_packet))
    report = run_sweep(config, snr_list, n_packets, schemes=schemes,
                       buffer_modes=buffer_modes, workers=args.workers,
                       collect_trace=bool(args.trace))
    try:
        emit_report(report, args.out)
        if args.trace:
            write_trace(report, args.trace)
    except OSError as exc:
        print(f"plnc-sim: {exc}", file=sys.stderr)
        return 2

    for point in sorted(report.points, key=lambda p: (p.scheme_label, p.snr_db)):
        print(f"{point.scheme_label:28s} {point.snr_db:6.2f} dB  "
              f"ber={point.ber:.6g}  ({point.bit_errors}/{point.bits_total})")
    print(f"wrote {args.out} in {report.wall_clock_s:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
