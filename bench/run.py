"""Benchmark entry point: one workload, one seed, one result.

Run from the root of a source checkout::

    python3 bench/run.py --workload dp_gram --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (``worker.py``) against the
library in ``src/``, with BLAS threads pinned to ``min(2, nproc)``.
With ``--trace 0`` the command prints every end-to-end metric with its
unit and sample count; with ``--trace 1`` it prints the per-layer
metrics of a traced run and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment, the input properties and a monotonic-clock timestamp, is
written to ``.bench_out/``.

``setup_s`` is the median of several set-ups: the worker that measures,
plus ``SETUP_REPEATS`` workers that only set up.  Each is timed from the
process launch to its ``READY`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import unit_of  # noqa: E402  (stdlib only; imports no seqkern)
WORKLOADS = ("dp_gram", "big_gram", "cli_tasks")
SETUP_REPEATS = 4
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: end-to-end metrics: name -> (unit, sample kind or None)
END_TO_END = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "pairs_per_s": ("pairs/s", None),
    "gram_s.p50": ("s", "gram"),
    "gram_s.tail": ("s", "gram"),
    "regress_s": ("s", "regress"),
    "mmd_test_s": ("s", "mmd_test"),
    "optimize_step_s": ("s/step", "optimize_step"),
    "diagnose_s": ("s", "diagnose"),
    "peak_rss_mb": ("MB", None),
}

#: seconds the worker's Python and numpy reference mixes take on this
#: host in its fast state; task times are reported at this speed
REFERENCE_S = (0.0005, 0.0021)

#: printed with the end-to-end metrics; not a gated metric, since it is 0
#: whenever the program is correct
FAILED_RATIO = "failed_ratio"

def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  Below 20 samples no percentile
    above the median has ten samples beyond it, so the median is
    reported, as percentile 50.
    """
    v = sorted(values)
    n = len(v)
    if n < 20:
        return statistics.median(v), 50.0
    return v[n - 11], 100.0 * (n - 10) / n


class Failed(Exception):
    """The run cannot produce a result."""


def launch(args, root: str, workdir: str, env: dict, deadline: float,
           setup_only: bool) -> float:
    """Run one worker; return the seconds from launch to its READY line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--out", os.path.join(workdir, "result.json")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    ready = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while ready is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(timeout=remaining):
                    raise Failed("worker ran past the deadline")
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == "READY":
                    ready = time.perf_counter() - t0
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise Failed("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise Failed(f"worker exited with code {rc}")
    return ready


def environment(threads: int, nproc: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": nproc, "blas_threads": threads, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "machine": platform.machine()}


def speed_factor(calibration, python_weight: float) -> float:
    """Rescaling of a task time to the reference host speed.

    ``calibration`` holds the seconds the worker's Python and numpy
    reference mixes took just before the task's job; the factor is the
    weighted geometric mean of their reference-to-measured ratios.
    """
    py, npy = calibration
    return ((REFERENCE_S[0] / py) ** python_weight
            * (REFERENCE_S[1] / npy) ** (1.0 - python_weight))


def samples_by_kind(records, python_weight=None) -> dict[str, list[float]]:
    """Task times by kind, rescaled unless ``python_weight`` is None."""
    out: dict[str, list[float]] = {}
    for kind, _, _, seconds, cal in records:
        scale = 1.0 if python_weight is None else speed_factor(cal, python_weight)
        out.setdefault(kind, []).append(seconds * scale)
    return out


def round_times(records, python_weight: float) -> list[float]:
    """Rescaled task time of each round."""
    per: dict[int, float] = {}
    for kind, r, _, seconds, cal in records:
        if kind != "optimize_step":
            per[r] = per.get(r, 0.0) + seconds * speed_factor(cal, python_weight)
    return [per[r] for r in sorted(per)]


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    """Metric values and sample counts from an untraced run."""
    rounds = res["rounds"]
    samples = samples_by_kind(res["records"], res["python_weight"])
    wall = round_times(res["records"], res["python_weight"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall),
        "pairs_per_s": sum(r["pairs"] for r in rounds) / sum(wall),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    counts = {"setup_s": len(setups), "wall_s": len(wall), "pairs_per_s": len(wall),
              "peak_rss_mb": 1}
    for name, (_, kind) in END_TO_END.items():
        if kind is None:
            continue
        if not samples.get(kind):
            raise Failed(f"no {kind} samples")
        counts[name] = len(samples[kind])
        values[name] = (tail(samples[kind])[0] if name.endswith(".tail")
                        else statistics.median(samples[kind]))
    return values, counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="seqkern benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "seqkern", "__init__.py")):
        print("bench/run.py must run from a checkout holding src/seqkern", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({var: str(threads) for var in BLAS_VARS})

    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS):
                setups.append(launch(args, root, os.path.join(work, f"setup{i}"), env,
                                     deadline, setup_only=True))
        run_dir = os.path.join(work, "run")
        setups.append(launch(args, root, run_dir, env, deadline, setup_only=False))
        with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.move(os.path.join(run_dir, "spans.jsonl"),
                        os.path.join(out_dir, f"spans-{stem}.jsonl"))
            values = res["layers"]
            units = {k: unit_of(k) for k in values}
            counts = {k: sum(r["traced"] for r in res["rounds"]) for k in values}
        else:
            values, counts = end_to_end(setups, res)
            units = {k: END_TO_END[k][0] for k in values}
    except (Failed, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_info = environment(threads, nproc)
    failed_ratio = res["failed"] / res["attempted"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, props in res["properties"]["inputs"].items():
        print(f"input {name}: " + " ".join(f"{k}={v}" for k, v in props.items()))
    for key, value in res["properties"].items():
        if key != "inputs":
            print(f"property {key}: {json.dumps(value)}")
    raw = samples_by_kind(res["records"])
    for name, v in values.items():
        extra = ""
        kind = END_TO_END.get(name, (None, None))[1] if not args.trace else None
        if name == "gram_s.tail":
            extra = " raw={:.6g} percentile={:.1f}".format(*tail(raw["gram"]))
        elif kind:
            extra = f" raw={statistics.median(raw[kind]):.6g}"
        print(f"metric {name} = {v:.6g} {units[name]} (n={counts[name]}){extra}")
    print(f"metric {FAILED_RATIO} = {failed_ratio:.6g} ratio "
          f"(n={res['attempted']}, golden={res['golden_tasks']})")
    for err in res["errors"]:
        print(f"error {err}")

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env_info, counts=counts,
                  failed_ratio=failed_ratio, properties=res["properties"],
                  rounds=res["rounds"], records=res["records"], setup_samples=setups,
                  monotonic_s=time.monotonic(), unix_time=time.time())
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
