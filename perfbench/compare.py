"""Compare two result files written by ``run.py --workload all``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints, for every workload, each end-to-end metric's base and new
median with their ratio, flagging a move worse than the benchmark's
bound; then each per-layer metric side by side with its ratio; then
whether the simulated statistics are identical seed by seed.  A metric
whose spread (interquartile range / median) in either file is above
its bound is reported as unresolved instead, unless every new run reads
better than every base run.  Exits 1 when any end-to-end metric
regressed beyond its bound or any point failed in the new file, else 0.
"""

import argparse
import json
import sys


def _ratio(new, base):
    return f"{new / base:8.3f}" if base else "     n/a"


def _all_better(base, new, better):
    if better == "lower":
        return max(new["values"]) < min(base["values"])
    return min(new["values"]) > max(base["values"])


def compare(base, new, out=sys.stdout):
    """Write the comparison; returns the number of flagged problems."""
    bounds = {m["name"]: m for m in new["spec"]["end_to_end"]}
    directions = {m["name"]: m["better"] for m in new["spec"]["per_layer"]}
    problems = 0
    for name, nw in new["workloads"].items():
        bw = base["workloads"].get(name)
        if bw is None:
            print(f"== {name}: not in the base file", file=out)
            continue
        print(f"== {name}  (new / base; failed points {bw['failed']}/"
              f"{bw['attempted']} -> {nw['failed']}/{nw['attempted']})", file=out)
        if nw["failed"]:
            problems += 1
        print(f"  {'end-to-end metric':22s} {'base':>12s} {'new':>12s} {'ratio':>8s}",
              file=out)
        for metric, spec in bounds.items():
            bs, ns = bw["end_to_end"][metric], nw["end_to_end"][metric]
            b, n = bs["median"], ns["median"]
            worse = (n - b) / b if spec["better"] == "lower" else (b - n) / b
            spread = max(bs["spread"], ns["spread"])
            flag = ""
            if spread > spec["bound"] and not _all_better(bs, ns, spec["better"]):
                flag = f"  unresolved: spread {spread:.2f} above bound {spec['bound']:.0%}"
            elif worse > spec["bound"]:
                flag = f"  WORSE by {worse:.1%} (bound {spec['bound']:.0%})"
                problems += 1
            print(f"  {metric + ' [' + spec['unit'] + ']':22s} {b:12.5g} {n:12.5g} "
                  f"{_ratio(n, b)}{flag}", file=out)
        print(f"  {'per-layer metric':50s} {'base':>12s} {'new':>12s} {'ratio':>8s}",
              file=out)
        for metric, better in directions.items():
            b, n = bw["per_layer"].get(metric), nw["per_layer"].get(metric)
            if b is None or n is None:
                print(f"  {metric:50s} missing on one side", file=out)
                continue
            print(f"  {metric:50s} {b:12.5g} {n:12.5g} {_ratio(n, b)}"
                  f"  ({better} is better)", file=out)
        seeds = sorted(set(bw["digests"]) & set(nw["digests"]), key=int)
        changed = [s for s in seeds if bw["digests"][s] != nw["digests"][s]]
        if not seeds:
            print("  simulated statistics: no common seed", file=out)
        elif changed:
            print(f"  simulated statistics CHANGED for seeds {', '.join(changed)}",
                  file=out)
        else:
            print(f"  simulated statistics identical for {len(seeds)} seeds", file=out)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    return 1 if compare(base, new) else 0


if __name__ == "__main__":
    sys.exit(main())
