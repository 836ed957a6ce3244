"""One workload in one process: set up, measure, verify, report.

Started by ``run.py`` with BLAS threads pinned in the environment::

    python3 bench/worker.py --workload dp_gram --seed 1 --seconds 20 \
        --trace 0 --workdir .bench_work/x --out .bench_work/x/result.json

It prints ``READY`` on standard output once set-up (imports, input
synthesis, kernel construction and one untimed warm-up task) is done,
then runs the workload's job list round after round for ``--seconds``,
then runs the golden jobs and compares their outputs with
``golden/<workload>.json``.  With ``--setup-only`` it exits after
``READY``.  ``--record-golden`` rewrites the golden file instead of
measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import workloads as wl
from tracing import Tracer, layer_metrics

GOLDEN_SEED = 20230407
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: golden outputs and the tolerance each is compared under
GOLDEN_TOLERANCE = {
    "entries": (wl.KERNEL_RTOL, 0.0),
    "coefficients": (wl.COEF_RTOL, wl.COEF_ATOL),
    "predictions": (wl.PRED_RTOL, wl.PRED_ATOL),
    "predicted": (wl.PRED_RTOL, wl.PRED_ATOL),
    "normalized_rmse": (wl.PRED_RTOL, wl.PRED_ATOL),
    "statistic": (wl.MMD_RTOL, 1e-12),
    "p_value": (0.0, 0.0),
    "final_mmd": (wl.MMD_RTOL, 1e-12),
    "C": (wl.MMD_RTOL, 0.0),
}


def golden_misses(outputs: dict, golden: dict) -> list[str]:
    """Output keys whose value misses the golden one."""
    misses = []
    for key in sorted(set(outputs) | set(golden)):
        if key not in outputs or key not in golden:
            misses.append(f"{key}: missing")
            continue
        got, want = outputs[key], golden[key]
        kind = key.rsplit(".", 1)[-1]
        if kind == "final_sequence":
            ok = got == want
        else:
            rtol, atol = GOLDEN_TOLERANCE[kind]
            ok = _close_with_inf(got, want, rtol, atol)
        if not ok:
            misses.append(f"{key}: got {got!r}, golden {want!r}")
    return misses


def _close_with_inf(got, want, rtol, atol) -> bool:
    a = [float(v) for v in _flat(got)]
    b = [float(v) for v in _flat(want)]
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if math.isinf(y) or math.isinf(x):
            if x != y:
                return False
        elif abs(x - y) > atol + rtol * abs(y):
            return False
    return True


def _flat(v):
    if isinstance(v, (list, tuple)):
        for item in v:
            yield from _flat(item)
    else:
        yield v


def verify_golden(name: str, workdir: str, record: bool) -> tuple[int, int, list[str]]:
    """Run the golden jobs; return (attempted, failed, errors)."""
    gdir = os.path.join(workdir, "golden")
    os.makedirs(gdir, exist_ok=True)
    workload = wl.WORKLOADS[name](GOLDEN_SEED, gdir, golden=True)
    ctx = wl.Context()
    for job, fn in workload.jobs():
        ctx.run_job(job, fn)
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if record:
        if ctx.failed:
            raise SystemExit(f"golden jobs failed their own checks: {ctx.errors}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": GOLDEN_SEED, "outputs": ctx.outputs}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        return ctx.attempted, 0, []
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)["outputs"]
    misses = golden_misses(ctx.outputs, golden)
    failed_jobs = {m.split(":", 1)[0].rsplit(".", 1)[0] for m in misses}
    errors = [f"golden {e}" for e in ctx.errors] + [f"golden {m}" for m in misses]
    return ctx.attempted, ctx.failed + len(failed_jobs), errors


def measure(workload, seconds: float, traced: bool) -> dict:
    """Run rounds of the job list until ``seconds`` have passed.

    A new round starts only if the previous round's length still fits.
    In a traced run, rounds alternate untraced / traced, starting
    untraced; the untraced rounds give the tracing overhead.
    """
    jobs = workload.jobs()
    ctx = wl.Context()
    ctx.calibrating = True
    tracer = Tracer() if traced else None
    rounds = []
    start = time.perf_counter()
    while True:
        tracing = traced and len(rounds) % 2 == 1
        if tracing:
            tracer.install()
            ctx.tracer = tracer
        t0 = time.perf_counter()
        task0, pairs0 = ctx.task_time, ctx.pairs
        for job, fn in jobs:
            ctx.run_job(job, fn)
        if tracing:
            tracer.uninstall()
            ctx.tracer = None
        ctx.round += 1
        rounds.append({"task_s": ctx.task_time - task0, "pairs": ctx.pairs - pairs0,
                       "elapsed_s": time.perf_counter() - t0, "traced": tracing})
        used = time.perf_counter() - start
        if used + rounds[-1]["elapsed_s"] > seconds and (not traced or len(rounds) >= 2):
            break
    out = {"rounds": rounds, "records": ctx.records, "attempted": ctx.attempted,
           "failed": ctx.failed, "errors": ctx.errors[:20],
           "measured_s": time.perf_counter() - start}
    if traced:
        plain = [r["task_s"] for r in rounds if not r["traced"]]
        with_trace = [r["task_s"] for r in rounds if r["traced"]]
        overhead = statistics.median(with_trace) / statistics.median(plain)
        out["layers"] = layer_metrics(tracer, len(with_trace), sum(with_trace), overhead)
        out["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(os.path.dirname(workload.inputs.workdir), "spans.jsonl"))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)

    inputs_dir = os.path.join(args.workdir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    if args.record_golden:
        attempted, _, _ = verify_golden(args.workload, args.workdir, record=True)
        print(f"recorded {attempted} golden tasks for {args.workload}")
        return 0

    workload = wl.WORKLOADS[args.workload](args.seed, inputs_dir)
    warm = wl.Context()
    warm.run_job("warmup", workload.warmup())
    if warm.failed:
        print(f"warm-up failed: {warm.errors}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = measure(workload, args.seconds, bool(args.trace))
    g_attempted, g_failed, g_errors = verify_golden(args.workload, args.workdir, record=False)
    result["attempted"] += g_attempted
    result["failed"] += g_failed
    result["errors"] += g_errors[:20]
    result["golden_tasks"] = g_attempted
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["properties"] = workload.properties
    result["python_weight"] = workload.PYTHON_WEIGHT
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
