"""Span tracer for the benchmark's traced runs.

The tracer wraps public entry points of each ``seqkern`` module at the
names their callers look up (module globals such as ``seqkern.cli.gram``
and class attributes such as ``AlignmentKernel.__call__``), so the
library under ``src/`` is measured without being edited.  Each call
becomes a span ``(id, name, start, end, parent, task)``; spans stay in
memory until :meth:`Tracer.dump` writes them out.  Counters are recorded
at the same boundaries.  :func:`layer_metrics` turns spans and counters
into the per-layer metrics.

The layers are the modules of ``src/seqkern/``; a span's layer is the
prefix of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("seqcore", "core", "positional", "alignment", "spectrum", "embedding",
          "rkhs", "stats", "optimize", "io", "config", "cli")

#: scalar ``__call__`` span of each dynamic-programming family
DP_CALL_SPANS = {
    "alignment": "alignment.AlignmentKernel.__call__",
    "local_alignment": "alignment.LocalAlignmentKernel.__call__",
    "ht_alignment_matches": "alignment.HeavyTailedAlignmentMatches.__call__",
    "ht_alignment_gaps": "alignment.HeavyTailedAlignmentGaps.__call__",
    "infinite_spectrum": "spectrum.InfiniteSpectrumKernel.__call__",
    "finite_spectrum": "spectrum.FiniteSpectrumKernel.__call__",
    "ht_gapped_spectrum": "spectrum.HeavyTailedGappedSpectrumKernel.__call__",
}

DP_FUNCTION_SPANS = ("alignment.alignment_value", "alignment.local_alignment_value",
                     "alignment.alignment_dp_R")

#: spans that assemble a block of kernel values; a Gram's assembly time
#: is the part of it these spans cover
PAIRWISE_SPANS = frozenset({
    "core.Kernel.pairwise", "core.TiltedKernel.pairwise", "core.SumKernel.pairwise",
    "positional.WeightedDegreeKernel.pairwise",
    "positional.BasePositionwiseKernel.pairwise",
    "positional.ImqHammingKernel.pairwise", "positional.ImqHammingLagKernel.pairwise",
    "embedding.EmbeddingKernel.pairwise",
})

SUBCOMMANDS = ("gram", "regress", "mmd-test", "optimize", "diagnose")

#: unit of each per-layer metric, by name suffix; the rest are seconds
UNITS = (("us_per_pair", "us"), ("ns_per_cell", "ns"), ("dp_cells", "count"),
         ("_calls", "count"), ("gram_builds", "count"), ("resamples", "count"),
         ("steps", "count"), ("neighbours", "count"), ("temp_bytes", "bytes"),
         ("bytes_written", "bytes"), ("peak_alloc_mb", "MB"), ("accept_ratio", "ratio"),
         ("kernel_share", "ratio"), ("overhead", "ratio"))


def unit_of(name: str) -> str:
    if name.startswith("self_share."):
        return "ratio"
    key = name.split(".")[1] if name.count(".") >= 2 else name
    return next((unit for suffix, unit in UNITS if key.endswith(suffix)), "s")


class Tracer:
    """In-memory span recorder.  One per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.task = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[(key, self.task.rsplit(".", 1)[-1])] += amount

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def span(self, name: str, fn, after=None, memory: bool = False):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``after(result, args, kwargs)`` records counters once the call
        returns.  ``memory`` measures the call's peak traced allocation.
        Calls made while no task is open (the benchmark's own output
        checks) pass through unrecorded.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.task:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            started_tm = memory and not tracemalloc.is_tracing()
            if started_tm:
                tracemalloc.start()
            elif memory:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, name, t0, t1, parent, tracer.task)
                if memory:
                    tracer.peak("alloc_bytes." + name, tracemalloc.get_traced_memory()[1])
                    if started_tm:
                        tracemalloc.stop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None, memory: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after, memory))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points of every layer."""
        import seqkern.alignment as al
        import seqkern.cli as cli
        import seqkern.config as config
        import seqkern.core as core
        import seqkern.embedding as emb
        import seqkern.io as sio
        import seqkern.optimize as opt
        import seqkern.positional as pos
        import seqkern.rkhs as rkhs
        import seqkern.spectrum as spec
        import seqkern.stats as stats

        def other(args):
            return args[2] if len(args) > 2 else None

        def pairs_of(args):
            n, ys = len(args[1]), other(args)
            return n * (n + 1) // 2 if ys is None else n * len(ys)

        def generic_loop(result, args, kwargs):
            self.count("core.scalar_calls", pairs_of(args))

        def self_sims(result, args, kwargs):
            self.count("core.scalar_calls", len(args[1]))

        def family_pairs(prefix):
            def after(result, args, kwargs):
                fam = args[0].family
                self.count(f"{prefix}.pairs.{fam}", pairs_of(args))
                if prefix == "positional":
                    xs = args[1]
                    ys = xs if other(args) is None else other(args)
                    width = max((len(s) for s in list(xs) + list(ys)), default=0)
                    self.peak("positional.temp_bytes", 8.0 * len(xs) * len(ys) * width)
            return after

        def dp_cells(result, args, kwargs):
            self.count("alignment.dp_cells", (len(args[0]) + 1) * (len(args[1]) + 1))

        def encode(result, args, kwargs):
            self.count("seqcore.encode_padded_calls")

        def eig_before(fn):
            @functools.wraps(fn)
            def wrapper(G):
                if self.task and G._eig is None:
                    self.count("rkhs.eig_calls")
                return fn(G)
            return wrapper

        def gram_built(result, args, kwargs):
            self.count("rkhs.gram_builds")

        def resamples(result, args, kwargs):
            self.count("stats.resamples", result.n_bootstrap)

        def neighbours(result, args, kwargs):
            self.count("optimize.neighbours", len(result))

        def steps(result, args, kwargs):
            self.count("optimize.steps", len(result.steps) - 1)

        def written(result, args, kwargs):
            path = args[0] if args else kwargs["path"]
            self.count("io.bytes_written", os.path.getsize(path))

        self.patch(core.Kernel, "pairwise", "core.Kernel.pairwise", generic_loop)
        self.patch(core.Kernel, "self_similarities", "core.Kernel.self_similarities", self_sims)
        self.patch(core.TiltedKernel, "pairwise", "core.TiltedKernel.pairwise")
        self.patch(core.SumKernel, "pairwise", "core.SumKernel.pairwise")

        for fam, span in DP_CALL_SPANS.items():
            module, cls_name = span.split(".")[:2]
            owner = getattr(al if module == "alignment" else spec, cls_name)
            self.patch(owner, "__call__", span)
        for fn_name in ("alignment_value", "local_alignment_value", "alignment_dp_R"):
            self.patch(al, fn_name, "alignment." + fn_name, dp_cells)
        # spectrum looks the R recursion up under its own name
        self.patch(spec, "alignment_dp_R", "alignment.alignment_dp_R", dp_cells)

        for cls_name in ("WeightedDegreeKernel", "BasePositionwiseKernel",
                         "ImqHammingKernel", "ImqHammingLagKernel"):
            self.patch(getattr(pos, cls_name), "pairwise", f"positional.{cls_name}.pairwise",
                       family_pairs("positional"), memory=True)
        self.patch(pos, "encode_padded", "seqcore.encode_padded", encode)

        self.patch(emb.EmbeddingKernel, "pairwise", "embedding.EmbeddingKernel.pairwise",
                   family_pairs("embedding"))
        self.patch(emb.Embedding, "matrix", "embedding.Embedding.matrix")

        for owner in (rkhs, cli):
            self.patch(owner, "gram", "rkhs.gram", gram_built)
            self.patch(owner, "fit_regression", "rkhs.fit_regression")
            self.patch(owner, "predict_many", "rkhs.predict_many")
            self.patch(owner, "discrete_mass_diagnostic", "rkhs.discrete_mass_diagnostic")
        self.patch(rkhs, "mmd", "rkhs.mmd")
        original_eig = rkhs.GramMatrix.__dict__["eig"]
        self._patched.append((rkhs.GramMatrix, "eig", original_eig))
        rkhs.GramMatrix.eig = eig_before(self.span("rkhs.GramMatrix.eig", original_eig))
        self.patch(rkhs.GramMatrix, "solve_ridge", "rkhs.GramMatrix.solve_ridge")
        self.patch(rkhs.GramMatrix, "solve_pinv", "rkhs.GramMatrix.solve_pinv")

        for owner in (stats, cli):
            self.patch(owner, "mmd_two_sample_test", "stats.mmd_two_sample_test", resamples)
        for owner in (opt, cli):
            self.patch(owner, "greedy_mmd_optimize", "optimize.greedy_mmd_optimize", steps)
        self.patch(opt, "single_edit_neighbors", "optimize.single_edit_neighbors", neighbours)

        self.patch(sio, "read_fasta", "io.read_fasta")
        self.patch(sio, "write_csv", "io.write_csv", written)
        for owner in (config, cli):
            self.patch(owner, "build_kernel", "config.build_kernel")
        for sub in SUBCOMMANDS:
            fn_name = "cmd_" + sub.replace("-", "_")
            self.patch(cli, fn_name, "cli." + fn_name)


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Totals are per round (divided by ``rounds``); ``us_per_pair`` and
    ``ns_per_cell`` are per unit of work; ``self_share.<layer>`` is the
    layer's self time as a share of the traced task time ``traced_wall``.
    A layer that did no work on a workload reports 0.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    pairwise_child = defaultdict(float)
    for sid, name, t0, t1, parent, task in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name in PAIRWISE_SPANS:
                pairwise_child[parent] += t1 - t0

    total = defaultdict(float)
    calls = defaultdict(int)
    own_by_name = defaultdict(float)
    own_by_layer = defaultdict(float)
    assemble = validate = null_s = diagnostic = 0.0
    opt_total = opt_kernel = 0.0
    for sid, name, t0, t1, parent, task in spans:
        dur = t1 - t0
        total[name] += dur
        calls[name] += 1
        own = dur - child_time[sid]
        own_by_name[name] += own
        own_by_layer[name.split(".", 1)[0]] += own
        parent_name = spans[parent][1] if parent >= 0 else ""
        if name == "rkhs.gram":
            assemble += pairwise_child[sid]
            validate += dur - pairwise_child[sid]
        elif name == "stats.mmd_two_sample_test":
            null_s += dur - pairwise_child[sid]
        elif name == "optimize.greedy_mmd_optimize":
            opt_total += dur
        if parent_name == "optimize.greedy_mmd_optimize" and \
                name != "optimize.single_edit_neighbors":
            opt_kernel += dur
        # rkhs work of a diagnostic: the diagnostic itself plus any Gram
        # the caller builds outside it
        if task.endswith("diagnose") and name.startswith("rkhs.") and \
                not parent_name.startswith("rkhs."):
            diagnostic += dur

    def counted(key, kind=None):
        return sum(v for (k, t), v in tracer.counters.items()
                   if k == key and (kind is None or t == kind))

    def per_call_us(span):
        return 1e6 * total[span] / calls[span] if calls[span] else 0.0

    def per_pair_us(span, pairs):
        return 1e6 * total[span] / pairs if pairs else 0.0

    r = max(rounds, 1)
    m: dict[str, float] = {}
    for fam in ("alignment", "local_alignment", "ht_alignment_matches", "ht_alignment_gaps"):
        m[f"alignment.us_per_pair.{fam}"] = per_call_us(DP_CALL_SPANS[fam])
    cells = counted("alignment.dp_cells")
    m["alignment.dp_cells"] = cells / r
    m["alignment.ns_per_cell"] = (1e9 * sum(total[s] for s in DP_FUNCTION_SPANS) / cells
                                  if cells else 0.0)
    for fam in ("infinite_spectrum", "finite_spectrum", "ht_gapped_spectrum"):
        m[f"spectrum.us_per_pair.{fam}"] = per_call_us(DP_CALL_SPANS[fam])
    m["core.scalar_calls"] = counted("core.scalar_calls") / r
    m["core.generic_pairwise_s"] = (own_by_name["core.Kernel.pairwise"]
                                    + own_by_name["core.Kernel.self_similarities"]) / r
    for fam, cls_name in (("imq_hamming", "ImqHammingKernel"),
                          ("exp_hamming", "BasePositionwiseKernel"),
                          ("weighted_degree", "WeightedDegreeKernel")):
        # exp_hamming is the only BasePositionwiseKernel the workloads use
        m[f"positional.us_per_pair.{fam}"] = per_pair_us(
            f"positional.{cls_name}.pairwise", counted(f"positional.pairs.{fam}"))
    m["positional.temp_bytes"] = tracer.maxima["positional.temp_bytes"]
    m["positional.peak_alloc_mb"] = max(
        (v for k, v in tracer.maxima.items() if k.startswith("alloc_bytes.positional.")),
        default=0.0) / 2**20
    m["embedding.us_per_pair"] = per_pair_us("embedding.EmbeddingKernel.pairwise",
                                             counted("embedding.pairs.embedding"))
    m["embedding.vector_s"] = total["embedding.Embedding.matrix"] / r
    m["seqcore.encode_padded_s"] = total["seqcore.encode_padded"] / r
    m["seqcore.encode_padded_calls"] = counted("seqcore.encode_padded_calls") / r
    m["rkhs.assemble_s"] = assemble / r
    m["rkhs.validate_s"] = validate / r
    m["rkhs.solve_ridge_s"] = total["rkhs.GramMatrix.solve_ridge"] / r
    m["rkhs.solve_pinv_s"] = total["rkhs.GramMatrix.solve_pinv"] / r
    m["rkhs.predict_s"] = total["rkhs.predict_many"] / r
    m["rkhs.gram_builds"] = counted("rkhs.gram_builds", "diagnose") / r
    m["rkhs.eig_calls"] = counted("rkhs.eig_calls", "diagnose") / r
    m["rkhs.diagnostic_s"] = diagnostic / r
    m["stats.null_s"] = null_s / r
    m["stats.resamples"] = counted("stats.resamples") / r
    steps = counted("optimize.steps")
    neighbours = counted("optimize.neighbours")
    m["optimize.steps"] = steps / r
    m["optimize.neighbours"] = neighbours / r
    m["optimize.accept_ratio"] = steps / neighbours if neighbours else 0.0
    m["optimize.neighbour_gen_s"] = total["optimize.single_edit_neighbors"] / r
    m["optimize.kernel_share"] = opt_kernel / opt_total if opt_total else 0.0
    m["io.read_fasta_s"] = total["io.read_fasta"] / r
    m["io.write_csv_s"] = total["io.write_csv"] / r
    m["io.bytes_written"] = counted("io.bytes_written") / r
    m["config.build_kernel_s"] = own_by_name["config.build_kernel"] / r
    for sub in SUBCOMMANDS:
        m[f"cli.self_s.{sub}"] = own_by_name["cli.cmd_" + sub.replace("-", "_")] / r
    for layer in LAYERS:
        m[f"self_share.{layer}"] = own_by_layer[layer] / max(traced_wall, 1e-12)
    m["trace.overhead"] = overhead
    return m
