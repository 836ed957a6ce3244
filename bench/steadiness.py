"""Steadiness check: are the end-to-end metrics steady enough to gate on?

Runs every workload of ``BENCHMARK.json`` in two separate sets of
``--runs`` runs, each run with its own seed, and reports for each
end-to-end metric:

* the spread of each set: the distance between the first and third
  quartiles (``statistics.quantiles(values, n=4)``) as a share of the
  median, against the metric's bound;
* the drift between the sets: how much worse the second median is than
  the first, as a share of the first, against the same bound.

A spread must stay within the bound (``setup_s`` is exempt) and the
drift within the bound for every metric; the aim is a spread under a
third of the bound.  The report names every metric and workload that
misses, and the command exits with 1 if any does.  Run from the root of
a checkout::

    python3 bench/steadiness.py                  # 2 sets x 10 runs per workload
    python3 bench/steadiness.py --runs 5 --sets 1 --workloads dp_gram

The report is also written to ``.bench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(command, workload, seed, seconds) -> dict:
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect outputs:\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second, better: str) -> float:
    """How much worse the second median is than the first (0 if better)."""
    a, b = statistics.median(first), statistics.median(second)
    worse = (b - a) if better == "lower" else (a - b)
    return max(worse, 0.0) / a


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("quartiles need at least 4 runs")

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {"runs": args.runs, "sets": args.sets, "seconds": args.seconds, "workloads": {}}
    misses = []
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = [args.first_seed + 1000 * s + i for i in range(args.runs)]
            runs = [run_once(bench["command"], workload, seed, args.seconds) for seed in seeds]
            sets.append({name: [r[name] for r in runs] for name in metrics})
        rows = {}
        for name, m in metrics.items():
            row = {"bound": m["bound"], "medians": [statistics.median(st[name]) for st in sets],
                   "spreads": [spread(st[name]) for st in sets]}
            if args.sets == 2:
                row["drift"] = drift(sets[0][name], sets[1][name], m["better"])
            wide = name != "setup_s" and max(row["spreads"]) > m["bound"]
            drifted = row.get("drift", 0.0) > m["bound"]
            row["steady"] = not (wide or drifted)
            if not row["steady"]:
                misses.append(f"{workload}/{name}")
            rows[name] = row
            flag = "ok" if row["steady"] else "NOT STEADY"
            if row["steady"] and name != "setup_s" and max(row["spreads"]) > m["bound"] / 3:
                flag = "ok (spread above a third of the bound)"
            print(f"{workload:10s} {name:16s} median={row['medians'][0]:<12.6g} "
                  f"spread={'/'.join(f'{v:.3f}' for v in row['spreads'])} "
                  f"drift={row.get('drift', float('nan')):.3f} bound={m['bound']}  {flag}",
                  flush=True)
        report["workloads"][workload] = rows
    report["not_steady"] = misses
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if misses:
        print("not steady: " + ", ".join(misses))
        return 1
    print("all end-to-end metrics steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
