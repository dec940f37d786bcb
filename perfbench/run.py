"""plnc-sim benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

repeats the workload's fixed sweep round (closed loop, one round at a
time) for about --seconds seconds, checks every BER point of every
round, and prints as its last line a JSON object with correct,
attempted, failed and the metrics: the end-to-end metrics untraced
(--trace 0) or the per-layer metrics from a traced run (--trace 1).
--out FILE also writes the full result: metrics, per-point simulated
statistics and their digest, failures and the environment.

Every workload, several seeds each, plus one traced run per workload:

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --out BENCH.json

runs RUNS seeds (1 to 10 here) and writes one result file that
compare.py reads, and prints every metric with its unit, median and
quartiles.
"""

import argparse
import functools
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"     # scratch files of running benchmarks
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
SETUP_PROBES = 9
MIN_ROUNDS = 3
RUNS = 10                                # seeds per workload with --workload all
MAX_REASONS = 20


def environment():
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "start_method": multiprocessing.get_start_method(),
            "platform": platform.platform()}


def _totals():
    return [{}, Counter(), 0]      # stats, counts, rounds


def _add(totals, stats, counts):
    for name, values in stats.items():
        merged = totals[0].setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(values):
            merged[i] += v
    totals[1].update(counts)
    totals[2] += 1


def report_worker_rss(spool):
    """Make every pool worker write its peak RSS (KiB) to spool/<pid>
    after each chunk; returns an undo list for tracer.uninstall."""
    from plnc_sim import harness

    chunk = harness._run_chunk
    parent = os.getpid()

    @functools.wraps(chunk)
    def reporting(task):
        result = chunk(task)
        if os.getpid() != parent:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            (spool / str(os.getpid())).write_text(str(rss))
        return result
    harness._run_chunk = reporting
    return [(harness, "_run_chunk", chunk)]


def take_worker_rss(spool):
    """Sum of the peak RSS (KiB) the round's workers reported."""
    total = 0
    for path in spool.iterdir():
        total += int(path.read_text())
        path.unlink()
    return total


def measure(wl, seed, seconds, trace, reference, workdir):
    """Run rounds for about `seconds`; returns the result dict without
    the set-up metric.  worker_rss_kib is the largest sum, over the
    rounds, of the pool workers' peak RSS."""
    from checks import digest, round_failures
    from tracer import Tracer, layer_metrics, uninstall

    tracer = None
    if trace:
        if wl.workers > 1 and multiprocessing.get_start_method() != "fork":
            raise RuntimeError("tracing pool workers needs the fork start method")
        spool = workdir / "spool"
        spool.mkdir()
        tracer = Tracer(str(spool))
    rss_spool = Path(tempfile.mkdtemp(prefix="rss-", dir=workdir))
    worker_rss = 0
    times = {"untraced": [], "light": [], "full": []}
    totals = {"light": _totals(), "full": _totals()}
    first = None
    attempted = failed = 0
    reasons = []
    def next_kind():
        if not trace:
            return "untraced"
        return "light" if len(times["light"]) <= len(times["full"]) else "full"

    start = perf_counter()
    while True:
        kind = next_kind()
        if trace:
            undo = tracer.install(full=kind == "full")
        else:
            undo = report_worker_rss(rss_spool) if wl.workers > 1 else []
        t0 = perf_counter()
        try:
            points, errors = wl.run_round(seed, workdir)
        except Exception as exc:     # a raising round fails all its points
            traceback.print_exc(file=sys.stderr)
            points, errors = [], [f"round raised {type(exc).__name__}: {exc}"]
        finally:
            times[kind].append(perf_counter() - t0)
            uninstall(undo)
            if trace:
                _add(totals[kind], *tracer.take())
            worker_rss = max(worker_rss, take_worker_rss(rss_spool))
        failures = round_failures(wl, points, errors, reference, first)
        if first is None:
            first = points
        attempted += len(wl.point_keys())
        failed += len(failures)
        for key_reasons in failures.values():
            reasons += key_reasons[:MAX_REASONS - len(reasons)]

        if trace:
            done = bool(times["light"] and times["full"])
        else:
            done = len(times["untraced"]) >= MIN_ROUNDS
        # stop when the next round would end after `seconds`
        if done and (perf_counter() - start
                     + statistics.median(times[next_kind()]) > seconds):
            break

    result = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "failures": reasons,
              "points": first, "digest": digest(first) if first else None,
              "round_s": {k: v for k, v in times.items() if v},
              "worker_rss_kib": worker_rss}
    if trace:
        light, full = totals["light"], totals["full"]
        result["metrics"] = layer_metrics(full, light, wl.workers)
        result["layer_stats"] = full[0]
    else:
        # Rounds run back to back, so this is measured time / rounds.  The
        # host alternates between a fast and a slow state for seconds at a
        # time; the median round jumps between the two, the mean does not.
        sweep_s = statistics.mean(times["untraced"])
        slots = sum(p["slots"] for p in first)
        packets = sum(p["bits"] for p in first) // wl.bits_per_packet
        result["metrics"] = {
            "sweep_s": sweep_s,
            "packets_per_s": packets / sweep_s,
            "slot_us": sweep_s / slots * 1e6 if slots else None,
        }
    return result


def peak_rss_mb(worker_rss_kib):
    """Peak resident set of this process plus the summed peaks of the
    pool workers of its largest round."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + worker_rss_kib) / 1024.0


def setup_seconds(name, seed):
    """Median of SETUP_PROBES fresh-interpreter set-up timings."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               name, str(seed)], capture_output=True,
                              text=True, timeout=120, check=True)
        values.append(float(proc.stdout.strip()))
    return statistics.median(values)


def run_one(name, seed, seconds, trace):
    from checks import load_reference
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    reference = load_reference(HERE / "reference_ber.json")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        result = measure(wl, seed, seconds, trace, reference, workdir)
    finally:
        shutil.rmtree(workdir)
    if not trace:
        result["metrics"]["peak_rss_mb"] = peak_rss_mb(result["worker_rss_kib"])
        result["metrics"]["setup_s"] = setup_seconds(name, seed)
    result["env"] = environment()
    return result


def summary_line(result, names_units):
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in names_units.items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_all(args):
    """Every workload: RUNS untraced runs on consecutive seeds,
    interleaved across workloads, and one traced run each right after
    the untraced run of its seed, so that the tracing overhead compares
    runs made close together."""
    from workloads import WORKLOADS

    def child(name, seed, trace):
        WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            out = Path(tmp) / "result.json"
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                            name, "--seed", str(seed), "--seconds",
                            str(args.seconds), "--trace", str(trace),
                            "--out", str(out)], check=True,
                           stdout=subprocess.DEVNULL, timeout=900)
            return json.loads(out.read_text())

    runs = {name: [] for name in WORKLOADS}
    traced_runs = {}
    for i in range(RUNS):
        for name in WORKLOADS:
            runs[name].append(child(name, args.seed + i, 0))
            if i == 0:
                traced_runs[name] = child(name, args.seed, 1)
    combined = {"env": None, "spec": SPEC, "runs": RUNS,
                "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        traced = traced_runs[name]
        combined["env"] = traced["env"]
        untraced = runs[name]
        end_to_end = {}
        for metric in END_TO_END:
            values = [r["metrics"][metric] for r in untraced]
            q1, med, q3 = quartiles(values)
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "values": values}
        combined["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in untraced + [traced]),
            "failed": sum(r["failed"] for r in untraced + [traced]),
            "failures": [f for r in untraced + [traced] for f in r["failures"]][:MAX_REASONS],
            "digests": {str(r["seed"]): r["digest"] for r in untraced},
            "traced_digest_matches": traced["digest"] == untraced[0]["digest"],
            "points": {str(r["seed"]): r["points"] for r in untraced},
            "round_s": {str(r["seed"]): r["round_s"]["untraced"] for r in untraced},
            "traced_round_s": traced["round_s"],
            # full-trace rounds against the untraced run of the same seed
            "trace_overhead": (statistics.mean(traced["round_s"]["full"])
                               / untraced[0]["metrics"]["sweep_s"] - 1.0),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "layer_stats": traced["layer_stats"],
        }
    print_table(combined)
    Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    print(f"wrote {args.out}")


def print_table(combined):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, wl in combined["workloads"].items():
        print(f"== {name}: {wl['failed']} of {wl['attempted']} points failed, "
              f"trace overhead {wl['trace_overhead']:+.1%}")
        for metric, s in wl["end_to_end"].items():
            bound = END_TO_END[metric]["bound"]
            flag = "" if s["spread"] <= bound / 3 else "  spread above bound/3"
            print(f"  {metric:14s} {s['median']:12.5g} {END_TO_END[metric]['unit']:5s}"
                  f" [q1 {s['q1']:.5g}, q3 {s['q3']:.5g}] spread {s['spread']:.3f}"
                  f" (bound {bound}){flag}")
        for metric, value in wl["per_layer"].items():
            print(f"  {metric:50s} {value:12.5g} {units[metric]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plnc_sim" / "__init__.py").is_file():
        print(f"run.py: no plnc-sim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # perfbench modules import plnc_sim, so they are imported only from here on
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        if not args.out:
            parser.error("--workload all needs --out")
        run_all(args)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    names = (SPEC["per_layer"] if args.trace else SPEC["end_to_end"])
    print(summary_line(result, {m["name"]: m["unit"] for m in names}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
