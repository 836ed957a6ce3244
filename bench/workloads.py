"""The benchmark's three workloads and the task context that times them.

Each workload is a closed loop with one client: a fixed list of jobs, in
an order derived from the seed, run back to back.  A job times one or
more *tasks* (``gram``, ``regress``, ``mmd_test``, ``optimize``,
``diagnose``) and checks every output after the clock stops.  Every
workload runs all five task kinds, each with the kernels and sizes that
make it stress its own layers:

* ``dp_gram`` -- many small Grams over tcr-like proteins for every
  dynamic-programming family; the alignment and spectrum recursions and
  the generic ``Kernel.pairwise`` loop do the work.
* ``big_gram`` -- Grams at n in the low thousands for the vectorised
  position-wise and embedding families; PSD validation, solves and
  n^2 x width temporaries do the work, and no DP code runs.
* ``cli_tasks`` -- in-process ``seqkern`` command-line runs on FASTA
  files written at set-up; file I/O, configuration, resampling, the
  optimizer and the diagnostic do the work, through many small
  rectangular kernel calls.

Inputs come only from the ``synth`` presets and the library's sequence
constructors.  Where a median is taken over several jobs of one kind,
the job count is odd, so the median falls inside one job's samples
instead of between two jobs of different cost.  Peak memory stays under
300 MB.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
import os
import time
import zlib
from collections import Counter, defaultdict

import numpy as np

import seqkern.cli as cli
import seqkern.config as config
import seqkern.io as sio
import seqkern.optimize as optimize
import seqkern.rkhs as rkhs
import seqkern.stats as stats
from seqkern.seqcore import DNA, PROTEIN, Sequence, enumerate_up_to

# Tolerances, none looser than the oracle tolerances in tests/:
KERNEL_RTOL = 1e-12        # kernel values (alignment oracles, CLI round trip)
COEF_RTOL, COEF_ATOL = 1e-9, 1e-12    # fit coefficients (direct-solve check)
PRED_RTOL, PRED_ATOL = 1e-8, 1e-10    # predictions against K @ alpha
MMD_RTOL = 1e-10           # MMD values and diagnostic C values
RESIDUAL_RTOL = 1e-9       # relative backward error of a solve

BOOTSTRAP = 1000


# The host this benchmark was built on switches between a fast and a
# slow state for seconds to minutes (interpreted code and numpy both run
# up to ~1.8x slower), which moved run medians by 15-40%.  So before each
# job the worker times a fixed reference mix -- a pure-Python edit
# distance and a numpy eigh plus broadcast, sharing no code with the
# library -- and run.py rescales the job's task times to the reference
# speed, weighting the two parts by each workload's ``PYTHON_WEIGHT``.
# Raw times are kept in every record.
_CAL_A = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRV"
_CAL_B = "MKVLAAGIVALLLAAGCSSSKEETTTATETPAPTEAPAAE"
_CAL_RNG = np.random.default_rng(0)
_CAL_M = _CAL_RNG.standard_normal((120, 120))
_CAL_M = _CAL_M @ _CAL_M.T
_CAL_CODES = _CAL_RNG.integers(20, size=(100, 17))


def _edit_distance() -> int:
    prev = list(range(len(_CAL_B) + 1))
    for i, ca in enumerate(_CAL_A, 1):
        cur = [i]
        for j, cb in enumerate(_CAL_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _numpy_mix() -> None:
    np.linalg.eigh(_CAL_M)
    (_CAL_CODES[:, None, :] != _CAL_CODES[None, :, :]).sum(axis=2)


def calibrate() -> tuple[float, float]:
    """Seconds the Python and the numpy reference take now (median of 3)."""
    out = []
    for fn in (_edit_distance, _numpy_mix):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out.append(sorted(times)[1])
    return out[0], out[1]


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from ``seed`` and ``keys``."""
    return int(np.random.SeedSequence((seed, *keys)).generate_state(1)[0] >> 1)


class Context:
    """Times tasks, counts kernel pairs and records check misses."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        #: one (kind, round, job, seconds, calibration) record per timed task
        self.records: list[tuple] = []
        self.calibrating = False
        self._cal = (0.0, 0.0)
        self.outputs: dict[str, object] = {}
        self.pairs = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.task_time = 0.0
        self.job = ""
        self.round = 0
        self._current = ""
        self._missed: set[str] = set()

    @contextlib.contextmanager
    def timed(self, kind: str):
        """Time one task; an exception inside fails it and ends the job."""
        self.attempted += 1
        self._current = f"{self.round}.{self.job}.{kind}"
        if self.tracer is not None:
            self.tracer.task = self._current
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.task = ""
        self.task_time += dt
        self.records.append((kind, self.round, self.job, dt, self._cal))

    def per_step(self, steps: int) -> None:
        """Record the last optimize task's time per step taken."""
        kind, r, job, dt, cal = self.records[-1]
        self.records.append(("optimize_step", r, job, dt / max(steps, 1), cal))

    def expect(self, ok: bool, what: str) -> None:
        """Count a check miss against the most recent task."""
        if not ok and self._current not in self._missed:
            self._missed.add(self._current)
            self.failed += 1
            self.errors.append(f"{self._current}: {what}")

    def output(self, key: str, value) -> None:
        self.outputs[f"{self.job}.{key}"] = value

    def run_job(self, name: str, fn) -> None:
        self.job = name
        if self.calibrating:
            self._cal = calibrate()
        try:
            fn(self)
        except Exception as exc:  # a failing task must not stop the run
            self.expect(False, f"raised {type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# checks shared by the workloads

def close(a, b, rtol, atol=0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def check_entries(ctx, kernel, xs, entries, rng, count: int) -> list:
    """Compare sampled Gram entries with scalar evaluations."""
    n = len(xs)
    idx = [(int(i), int(j)) for i, j in rng.integers(n, size=(count, 2))]
    sampled = [[i, j, float(entries[i, j])] for i, j in idx]
    for i, j, v in sampled:
        ctx.expect(close(v, kernel(xs[i], xs[j]), KERNEL_RTOL),
                   f"entry ({i},{j}) differs from the scalar kernel")
    return sampled


def check_ridge(ctx, G, fit, y, ridge) -> None:
    K = G.entries
    a = fit.coefficients
    r = K @ a + ridge * a - y
    scale = np.abs(K).max() * np.abs(a).max() + np.abs(y).max()
    ctx.expect(bool(np.all(np.isfinite(a))) and np.abs(r).max() <= RESIDUAL_RTOL * scale,
               "ridge coefficients do not solve (K + ridge I) a = y")


def check_pinv(ctx, G, fit, y) -> None:
    K = G.entries
    a = fit.coefficients
    r = K @ (K @ a - y)
    k = np.abs(K).max() * len(K)
    scale = k * (k * np.abs(a).max() + np.abs(y).max())
    ctx.expect(bool(np.all(np.isfinite(a))) and np.abs(r).max() <= RESIDUAL_RTOL * scale,
               "min-norm coefficients fail the normal equations")


def check_prediction(ctx, kernel, fit, x, value) -> None:
    row = np.array([kernel(x, s) for s in fit.support])
    ctx.expect(close(value, row @ fit.coefficients, PRED_RTOL, PRED_ATOL),
               "prediction differs from sum_n a_n k(s_n, x)")


def check_test(ctx, statistic, p_value, n_bootstrap) -> None:
    count = p_value * (1 + n_bootstrap)
    ctx.expect(math.isfinite(statistic)
               and abs(count - round(count)) < 1e-6 and 1 <= round(count) <= n_bootstrap + 1,
               "p-value is not (1 + #exceedances) / (1 + resamples)")


def check_trace(ctx, values) -> None:
    ctx.expect(all(b < a for a, b in zip(values, values[1:])),
               "optimizer trace is not strictly decreasing")


def check_diagnostic(ctx, C, k_tt) -> None:
    finite = [c for c in C if math.isfinite(c)]
    ctx.expect(all(b >= a * (1 - MMD_RTOL) for a, b in zip(finite, finite[1:])),
               "finite C values decrease")
    # (K^-1)_tt >= 1 / K_tt for any PSD Gram containing the target
    ctx.expect(all(c >= k_tt ** -0.5 * (1 - MMD_RTOL) for c in finite),
               "a C value is below k(t, t)**-0.5")


def optimizer_work(trace_sequences, n_atoms: int, max_steps: int) -> tuple[int, int]:
    """(kernel pairs, neighbours) a greedy run asks for, from its trace.

    Every trace step but a last one cut off by ``max_steps`` evaluated
    its single-edit neighbourhood against the target atoms.
    """
    neighbours = sum(len(optimize.single_edit_neighbors(x))
                     for x in trace_sequences[:max_steps])
    return sym_pairs(n_atoms) + (neighbours + 1) * (n_atoms + 1), neighbours


def job_rng(seed: int, job: str) -> np.random.Generator:
    """Sampling stream for a job's checks, the same in every round."""
    return np.random.default_rng(sub_seed(seed, zlib.crc32(job.encode())))


def flags_config(flags: list[str]) -> dict:
    """Kernel configuration from ``--key value`` command-line flags."""
    return {f[2:].replace("-", "_"): v for f, v in zip(flags[::2], flags[1::2])}


def sym_pairs(n: int) -> int:
    return n * (n + 1) // 2


# --------------------------------------------------------------------------
# inputs

class Inputs:
    """Writes ``synth`` presets to a work directory and reads them back."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.sets: dict[str, dict] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def synth(self, name: str, preset: str, seed: int, **opts) -> list:
        path = self.path(name + ".fasta")
        argv = ["synth", "--preset", preset, "--seed", str(seed), "--output", path]
        run_cfg = {}
        for key, value in opts.items():
            if key in ("n", "length"):
                argv += [f"--{key}", str(value)]
            else:
                run_cfg[key] = value
        if preset == "toy-regression":
            argv += ["--labels-output", self.path(name + "_labels.csv")]
        if run_cfg:
            ini = self.path(name + ".ini")
            with open(ini, "w", encoding="utf-8") as fh:
                fh.write("[run]\n" + "".join(f"{k} = {v}\n" for k, v in run_cfg.items()))
            argv += ["--config", ini]
        with contextlib.redirect_stdout(_io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"synth {preset} exited with {rc}")
        _, seqs = sio.read_fasta(path, PROTEIN if preset == "tcr-like" else DNA)
        self.describe(name, preset, seed, seqs)
        return seqs

    def describe(self, name: str, preset: str, seed: int, seqs) -> None:
        """Record the properties of the input set the workload uses."""
        self.sets[name] = {"preset": preset, "seed": seed,
                           "alphabet": "".join(seqs[0].alphabet.letters), "n": len(seqs),
                           "distinct": len(set(seqs)),
                           "length_histogram": dict(sorted(Counter(map(len, seqs)).items()))}

    def distinct(self, name: str, preset: str, seed: int, n: int, **opts) -> list:
        """``n`` distinct sequences from a preset (Grams need distinct inputs)."""
        seqs = list(dict.fromkeys(self.synth(name, preset, seed, n=n + n // 10 + 5, **opts)))
        if len(seqs) < n:
            raise RuntimeError(f"{name}: only {len(seqs)} distinct sequences")
        self.describe(name, preset, seed, seqs[:n])
        return seqs[:n]

    def by_length(self, name: str, seed: int, layouts: list[tuple[int, ...]]) -> list[list]:
        """Distinct tcr-like sequences with the given lengths, one list per
        layout, drawn from ``tcr-like`` pools until every length is filled.

        Fixing the length multiset fixes a DP Gram's cell count, so its
        cost does not vary with the seed.
        """
        need = Counter(L for layout in layouts for L in layout)
        pool: dict[int, list] = defaultdict(list)
        seen: set = set()
        k = 0
        while any(len(pool[L]) < c for L, c in need.items()):
            for s in self.synth(f"{name}_{k}", "tcr-like", sub_seed(seed, k),
                                n=2 * sum(need.values())):
                if s not in seen:
                    seen.add(s)
                    pool[len(s)].append(s)
            del self.sets[f"{name}_{k}"]
            k += 1
        take = {L: iter(pool[L]) for L in need}
        out = [[next(take[L]) for L in layout] for layout in layouts]
        self.describe(name, "tcr-like", seed, [s for layout in out for s in layout])
        return out


def labels_of(seqs) -> np.ndarray:
    """The toy-regression label: count of the most frequent letter."""
    return np.array([float(cli.most_common_letter_count(s)) for s in seqs])


def ridge_for(G) -> float:
    return 1e-3 * float(np.trace(G.entries)) / len(G)


# --------------------------------------------------------------------------
# library workloads

class LibraryWorkload:
    """Shared task bodies for the workloads that call the library directly."""

    name = ""
    alphabet = PROTEIN

    def __init__(self, seed: int, workdir: str, golden: bool = False):
        self.seed = seed
        self.golden = golden
        self.inputs = Inputs(workdir)
        self.properties: dict = {}
        self.build_inputs()
        # construct every kernel once, so a bad configuration fails set-up
        for cfg in self.kernel_configs():
            self.kernel(cfg)

    def kernel(self, cfg: dict, alphabet=None):
        return config.build_kernel(alphabet or self.alphabet, cfg)

    def gram_job(self, cfg, batches, fits=("ridge",), entry_checks=2):
        """Gram over a training batch, then one regress task: the fits in
        ``fits`` and a held-out prediction from the first.  Round ``r``
        uses batch ``r mod len(batches)``."""
        def job(ctx):
            train, held = batches[ctx.round % len(batches)]
            rng = job_rng(self.seed, ctx.job)
            y = labels_of(train)
            with ctx.timed("gram"):
                kernel = self.kernel(cfg)
                G = rkhs.gram(kernel, train)
            ctx.pairs += sym_pairs(len(train))
            ctx.output("entries", check_entries(ctx, kernel, train, G.entries, rng, entry_checks))
            with ctx.timed("regress"):
                done = [(kind, rkhs.fit_regression(G, y, ridge_for(G) if kind == "ridge" else 0.0))
                        for kind in fits]
                pred = rkhs.predict_many(done[0][1], held)
            ctx.pairs += len(held) * len(train)
            for kind, fit in done:
                if kind == "ridge":
                    check_ridge(ctx, G, fit, y, fit.ridge)
                else:
                    check_pinv(ctx, G, fit, y)
                pick = rng.choice(len(train), size=min(8, len(train)), replace=False)
                ctx.output(f"{kind}.coefficients", [[int(j), float(fit.coefficients[j])]
                                                    for j in pick])
            i = int(rng.integers(len(held)))
            check_prediction(ctx, kernel, done[0][1], held[i], pred[i])
            ctx.output("predictions", [float(v) for v in pred[:8]])
        return job

    def test_job(self, cfg, xs, ys, recompute: bool):
        def job(ctx):
            with ctx.timed("mmd_test"):
                kernel = self.kernel(cfg)
                result = stats.mmd_two_sample_test(kernel, xs, ys, n_bootstrap=BOOTSTRAP,
                                                   seed=sub_seed(self.seed, 7))
            ctx.pairs += sym_pairs(len(xs) + len(ys))
            check_test(ctx, result.mmd_observed, result.p_value, BOOTSTRAP)
            if recompute:
                K = kernel.pairwise(list(xs) + list(ys))
                ctx.expect(close(result.mmd_observed, stats.mmd2_u_statistic(K, len(xs)),
                                 MMD_RTOL, 1e-12), "MMD statistic differs from its Gram")
            ctx.output("statistic", result.mmd_observed)
            ctx.output("p_value", result.p_value)
        return job

    def optimize_job(self, cfg, target, init, max_steps, alphabet):
        def job(ctx):
            measure = rkhs.EmpiricalMeasure.uniform(target)
            with ctx.timed("optimize"):
                kernel = self.kernel(cfg, alphabet)
                trace = optimize.greedy_mmd_optimize(kernel, measure, init, max_steps=max_steps)
            ctx.per_step(len(trace.steps) - 1)
            pairs, neighbours = optimizer_work([s.sequence for s in trace.steps], len(target),
                                               max_steps)
            ctx.pairs += pairs
            self.properties.setdefault("target_atom_reuse", {})[ctx.job] = neighbours + 1
            check_trace(ctx, [s.mmd for s in trace.steps])
            final = rkhs.mmd(kernel, measure, rkhs.EmpiricalMeasure.point(trace.final.sequence))
            ctx.expect(close(trace.final.mmd, final, MMD_RTOL, 1e-12),
                       "final MMD differs from a direct evaluation")
            ctx.output("final_mmd", trace.final.mmd)
            ctx.output("final_sequence", str(trace.final.sequence))
        return job

    def diagnose_job(self, cfg, target, cutoffs):
        sets = [enumerate_up_to(DNA, c) for c in cutoffs]

        def job(ctx):
            with ctx.timed("diagnose"):
                kernel = self.kernel(cfg, DNA)
                C = rkhs.discrete_mass_diagnostic(kernel, target, sets)
            ctx.pairs += sum(sym_pairs(len(s)) for s in sets)
            check_diagnostic(ctx, C, kernel(target, target))
            ctx.output("C", [float(c) for c in C])
        return job

    def shuffled(self, jobs):
        """The job list in the seed's fixed order."""
        order = np.random.default_rng(sub_seed(self.seed, 6)).permutation(len(jobs))
        return [jobs[i] for i in order]


PROTEIN_DP_FAMILIES = [
    ("alignment", {"family": "alignment", "mu": "0.2", "delta_mu": "0", "lambda": "1"}),
    ("normalized_alignment", {"family": "alignment", "mu": "0.2", "delta_mu": "0",
                              "lambda": "1", "normalize": "true"}),
    ("local_alignment", {"family": "local_alignment", "mu": "0.2", "delta_mu": "0",
                         "lambda": "1"}),
    ("ht_alignment_matches", {"family": "ht_alignment_matches", "C": "1", "beta": "2",
                              "mu": "0.2", "delta_mu": "0"}),
    ("ht_alignment_gaps", {"family": "ht_alignment_gaps", "C": "1", "beta": "2",
                           "delta_mu": "0", "lambda": "1"}),
    ("ht_gapped_spectrum", {"family": "ht_gapped_spectrum", "C": "1", "beta": "2",
                            "delta_mu": "0"}),
    ("infinite_spectrum", {"family": "infinite_spectrum"}),
    ("finite_spectrum", {"family": "finite_spectrum", "L_max": "3"}),
]

NORMALIZED_ALIGNMENT = dict(PROTEIN_DP_FAMILIES[1][1])


class DpGram(LibraryWorkload):
    """Many equal-size Grams for every dynamic-programming family.

    A round holds nine Grams: one per family, plus a second normalized
    alignment Gram (the kernel the test, optimizer and diagnostic also
    use).  An odd count puts the Gram-time median inside one family's
    samples instead of between two families of different cost.  Rounds
    cycle through ``BATCHES`` input batches per Gram.
    """

    name = "dp_gram"
    # interpreted DP code that indexes numpy arrays cell by cell: both
    # references track it (chosen by spread over 20 runs: <= 0.08)
    PYTHON_WEIGHT = 0.5
    BATCHES = 6
    TRAIN = (10, 11, 12, 13, 13, 14, 14, 15, 16, 17)
    HELD = (10, 12, 13, 15, 17)
    TEST = (10, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 17)
    TARGET_N, TARGET_LEN, MAX_STEPS = 6, 6, 3
    CUTOFFS = (2, 3)
    GRAMS = PROTEIN_DP_FAMILIES + [("normalized_alignment_2", NORMALIZED_ALIGNMENT)]

    def kernel_configs(self):
        return [cfg for _, cfg in PROTEIN_DP_FAMILIES]

    def build_inputs(self):
        s, inp = self.seed, self.inputs
        batches = 1 if self.golden else self.BATCHES
        count = batches * len(self.GRAMS)
        seqs = inp.by_length("tcr", sub_seed(s, 1),
                             [self.TRAIN, self.HELD] * count + [self.TEST, self.TEST])
        pairs = list(zip(seqs[0:2 * count:2], seqs[1:2 * count:2]))
        self.batches = [pairs[g::len(self.GRAMS)] for g in range(len(self.GRAMS))]
        self.test_x, self.test_y = seqs[-2:]
        self.target = inp.distinct("dna_target", "mirrored-halves", sub_seed(s, 4),
                                   self.TARGET_N, length=self.TARGET_LEN)
        rng = np.random.default_rng(sub_seed(s, 5))
        atom = self.target[int(rng.integers(self.TARGET_N))]
        self.init = atom + atom
        self.diag_target = Sequence(DNA, tuple(int(c) for c in rng.integers(4, size=2)))
        self.properties = {"inputs": inp.sets, "target_atoms": self.TARGET_N,
                           "batches_per_gram": batches,
                           "batch_lengths": {"train": self.TRAIN, "held_out": self.HELD,
                                             "test_sample": self.TEST}}

    def jobs(self):
        out = [(f"gram.{name}", self.gram_job(cfg, self.batches[g]))
               for g, (name, cfg) in enumerate(self.GRAMS)]
        out.append(("mmd_test", self.test_job(NORMALIZED_ALIGNMENT, self.test_x, self.test_y,
                                              recompute=True)))
        out.append(("optimize", self.optimize_job(NORMALIZED_ALIGNMENT, self.target, self.init,
                                                  self.MAX_STEPS, DNA)))
        out.append(("diagnose", self.diagnose_job(NORMALIZED_ALIGNMENT, self.diag_target,
                                                  self.CUTOFFS)))
        return self.shuffled(out)

    def warmup(self):
        train, held = self.batches[-2][0]
        return self.gram_job(PROTEIN_DP_FAMILIES[-1][1], [(train[:4], held[:2])])


IMQ = {"family": "imq_hamming", "C": "1", "beta": "2"}

BIG_GRAMS = [
    # (name, config, n): four Grams of about equal cost and one at a
    # larger n, where eager eigh validation dominates assembly.  The odd
    # count keeps the Gram-time median inside one Gram's samples.
    ("imq_hamming", IMQ, 1000),
    ("exp_hamming", {"family": "exp_hamming", "lambda": "0.5"}, 1000),
    ("weighted_degree", {"family": "weighted_degree", "L": "3"}, 1100),
    ("embedding", {"family": "embedding", "base": "random_ball", "D": "16",
                   "scale_epsilon": "0.1", "seed": "3"}, 1000),
    ("imq_hamming_large", IMQ, 1600),
]


class BigGram(LibraryWorkload):
    """Grams at n in the low thousands for the vectorised families."""

    name = "big_gram"
    # numpy and BLAS bound: the numpy reference alone tracks it (spread
    # over 20 runs <= 0.08, against <= 0.19 with both)
    PYTHON_WEIGHT = 0.0
    HELD = 300
    TEST_N = 500
    TARGET_N, INIT_LEN, MAX_STEPS = 300, 28, 3
    CUTOFFS = (2, 3, 4, 5)
    GOLDEN_SCALE = 8

    def kernel_configs(self):
        return [cfg for _, cfg, _ in BIG_GRAMS]

    def build_inputs(self):
        s, inp = self.seed, self.inputs
        k = self.GOLDEN_SCALE if self.golden else 1
        self.sized = []
        for i, (name, cfg, n) in enumerate(BIG_GRAMS):
            seqs = inp.distinct(f"tcr_{name}", "tcr-like", sub_seed(s, 10 + i),
                                (n + self.HELD) // k)
            self.sized.append((name, cfg, seqs[:n // k], seqs[n // k:]))
        self.test_x = inp.distinct("tcr_test_x", "tcr-like", sub_seed(s, 2), self.TEST_N // k)
        self.test_y = inp.distinct("tcr_test_y", "tcr-like", sub_seed(s, 3), self.TEST_N // k)
        self.target = inp.distinct("tcr_target", "tcr-like", sub_seed(s, 4), self.TARGET_N // k)
        rng = np.random.default_rng(sub_seed(s, 5))
        # a fixed-length start, so the cost of a step does not depend on the seed
        self.init = Sequence(PROTEIN, tuple(int(c) for c in rng.integers(20, size=self.INIT_LEN)))
        self.diag_target = Sequence(DNA, tuple(int(c) for c in rng.integers(4, size=2)))
        self.cutoffs = self.CUTOFFS[:-1] if self.golden else self.CUTOFFS
        self.properties = {"inputs": inp.sets, "target_atoms": len(self.target)}

    def jobs(self):
        out = [(f"gram.{name}", self.gram_job(cfg, [(train, held)], fits=("ridge", "pinv"),
                                              entry_checks=4))
               for name, cfg, train, held in self.sized]
        out.append(("mmd_test", self.test_job(IMQ, self.test_x, self.test_y, recompute=False)))
        out.append(("optimize", self.optimize_job(IMQ, self.target, self.init,
                                                  self.MAX_STEPS, PROTEIN)))
        out.append(("diagnose", self.diagnose_job(IMQ, self.diag_target, self.cutoffs)))
        return self.shuffled(out)

    def warmup(self):
        name, cfg, train, held = self.sized[0]
        return self.gram_job(cfg, [(train[:200], held[:20])], fits=("ridge", "pinv"))


# --------------------------------------------------------------------------
# command-line workload

class CliTasks:
    """In-process ``seqkern`` runs of five subcommands on FASTA files.

    A round runs ``gram`` at n = 1000, one held-out ``regress``, an
    ``mmd-test`` by permutation and one by multiplier, three
    ``optimize`` runs (the README's embedding kernel from two random
    starts and ``imq_hamming`` from one; the odd count keeps the per-step
    median in one kernel's samples) and ``diagnose`` for two kernels.
    """

    name = "cli_tasks"
    # eigh, broadcasts and file output dominate: the numpy reference alone
    PYTHON_WEIGHT = 0.0
    GRAM_N = 1000
    TEST_N, TEST_LEN = 500, 8
    TARGET_N = 100
    # step budgets the searches from a random start reach before stalling,
    # so every run takes the same number of steps
    INIT_LEN, EMBEDDING_STEPS, IMQ_STEPS = 28, 1, 6
    CUTOFFS = "2,3,4,5"
    IMQ_FLAGS = ["--family", "imq_hamming", "--C", "1", "--beta", "2"]
    WD_FLAGS = ["--family", "weighted_degree", "--L", "2"]
    # the README's optimisation example
    EMBEDDING_FLAGS = ["--family", "embedding", "--base", "random_ball", "--D", "64",
                       "--scale-epsilon", "0.1", "--k-E", "imq"]

    def __init__(self, seed: int, workdir: str, golden: bool = False):
        self.seed = seed
        self.inputs = inp = Inputs(workdir)
        k = 4 if golden else 1
        self.gram_seqs = inp.distinct("tcr_gram", "tcr-like", sub_seed(seed, 1), self.GRAM_N // k)
        sio.write_fasta(inp.path("gram.fasta"), [f"g{i:05d}" for i in range(len(self.gram_seqs))],
                        self.gram_seqs)
        self.toy = inp.synth("toy", "toy-regression", seed)
        inp.synth("mirrored", "mirrored-halves", sub_seed(seed, 2), n=self.TEST_N // k,
                  length=self.TEST_LEN)
        inp.synth("uniform", "mirrored-halves", sub_seed(seed, 3), n=self.TEST_N // k,
                  length=self.TEST_LEN, which="uniform")
        inp.synth("target", "tcr-like", sub_seed(seed, 4), n=self.TARGET_N)
        rng = np.random.default_rng(sub_seed(seed, 5))
        self.diag_target = "".join(DNA.letters[int(c)] for c in rng.integers(4, size=2))
        # fixed-length starts, so the cost of a step does not depend on the seed
        self.inits = ["".join(PROTEIN.letters[int(c)] for c in rng.integers(20, size=self.INIT_LEN))
                      for _ in range(2)]
        self.properties = {"inputs": inp.sets, "target_atoms": self.TARGET_N}
        # every kernel the subcommands build, constructed once
        for flags, alphabet in ((self.IMQ_FLAGS, PROTEIN), (self.WD_FLAGS, DNA),
                                (self.EMBEDDING_FLAGS, PROTEIN)):
            config.build_kernel(alphabet, flags_config(flags))

    def _run(self, ctx, kind, argv, out):
        path = self.inputs.path(out)
        # a fresh file each time, so no run pays for truncating the last one
        if os.path.exists(path):
            os.remove(path)
        with ctx.timed(kind):
            buf = _io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_io.StringIO()):
                rc = cli.main(argv + ["--output", path])
        ctx.expect(rc == 0, f"exit code {rc}")
        return path, buf.getvalue()

    def gram_job(self):
        def job(ctx):
            path, _ = self._run(ctx, "gram", ["gram", "--fasta", self.inputs.path("gram.fasta"),
                                              "--alphabet", "protein"] + self.IMQ_FLAGS,
                                "gram.csv")
            n = len(self.gram_seqs)
            ctx.pairs += sym_pairs(n)
            data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, n + 1), ndmin=2)
            ctx.expect(data.shape == (n, n), "gram CSV has the wrong shape")
            kernel = config.build_kernel(PROTEIN, flags_config(self.IMQ_FLAGS))
            ctx.output("entries", check_entries(ctx, kernel, self.gram_seqs, data,
                                                job_rng(self.seed, ctx.job), 4))
        return job

    def regress_job(self):
        def job(ctx):
            path, printed = self._run(ctx, "regress", [
                "regress", "--fasta", self.inputs.path("toy.fasta"),
                "--labels", self.inputs.path("toy_labels.csv"), "--ridge", "0.001",
                "--train-fraction", "0.75", "--seed", str(self.seed)] + self.IMQ_FLAGS,
                "regress.csv")
            with open(path, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh if line[0] not in "#i"]
            n = len(self.toy)
            n_train = sum(r[3].strip() == "train" for r in rows)
            ctx.pairs += sym_pairs(n_train) + n * n_train
            ctx.expect(len(rows) == n, "regress CSV has the wrong number of rows")
            ctx.output("predicted", [float(r[2]) for r in rows[:16]])
            ctx.output("normalized_rmse", float(printed.strip().split("=")[1]))
        return job

    def test_job(self, method):
        def job(ctx):
            path, _ = self._run(ctx, "mmd_test", [
                "mmd-test", "--fasta-x", self.inputs.path("mirrored.fasta"),
                "--fasta-y", self.inputs.path("uniform.fasta"), "--n-bootstrap",
                str(BOOTSTRAP), "--method", method, "--seed", str(self.seed)] + self.IMQ_FLAGS,
                f"test_{method}.csv")
            ctx.pairs += sym_pairs(2 * self.inputs.sets["mirrored"]["n"])
            with open(path, encoding="utf-8") as fh:
                row = fh.read().splitlines()[1].split(",")
            stat, p = float(row[0]), float(row[1])
            check_test(ctx, stat, p, BOOTSTRAP)
            ctx.output("statistic", stat)
            ctx.output("p_value", p)
        return job

    def optimize_job(self, name, flags, init, max_steps):
        def job(ctx):
            path, _ = self._run(ctx, "optimize", [
                "optimize", "--target-fasta", self.inputs.path("target.fasta"),
                "--alphabet", "protein", "--init", init,
                "--max-steps", str(max_steps), "--seed", str(self.seed)] + flags,
                f"opt_{name}.csv")
            with open(path, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh if line[0] not in "#s"]
            values = [float(r[2]) for r in rows]
            ctx.per_step(len(rows) - 1)
            check_trace(ctx, values)
            pairs, neighbours = optimizer_work(
                [Sequence.from_letters(PROTEIN, r[1]) for r in rows], self.TARGET_N, max_steps)
            ctx.pairs += pairs
            self.properties.setdefault("target_atom_reuse", {})[ctx.job] = neighbours + 1
            ctx.output("final_mmd", values[-1])
            ctx.output("final_sequence", rows[-1][1])
        return job

    def diagnose_job(self, name, flags):
        def job(ctx):
            path, _ = self._run(ctx, "diagnose", [
                "diagnose", "--alphabet", "dna", "--target", self.diag_target,
                "--cutoffs", self.CUTOFFS] + flags, f"diag_{name}.csv")
            with open(path, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            C = [float(r[1]) for r in rows]
            ctx.pairs += sum(sym_pairs(int(r[0])) for r in rows)
            kernel = config.build_kernel(DNA, flags_config(flags))
            target = Sequence.from_letters(DNA, self.diag_target)
            check_diagnostic(ctx, C, kernel(target, target))
            ctx.output("C", C)
        return job

    def jobs(self):
        a, b = self.inits
        out = [("gram", self.gram_job()), ("regress", self.regress_job()),
               ("mmd_test.permutation", self.test_job("permutation")),
               ("mmd_test.multiplier", self.test_job("multiplier")),
               ("optimize.embedding.0", self.optimize_job("emb0", self.EMBEDDING_FLAGS, a,
                                                          self.EMBEDDING_STEPS)),
               ("optimize.embedding.1", self.optimize_job("emb1", self.EMBEDDING_FLAGS, b,
                                                          self.EMBEDDING_STEPS)),
               ("optimize.imq_hamming", self.optimize_job("imq", self.IMQ_FLAGS, a,
                                                          self.IMQ_STEPS)),
               ("diagnose.imq_hamming", self.diagnose_job("imq", self.IMQ_FLAGS)),
               ("diagnose.weighted_degree", self.diagnose_job("wd", self.WD_FLAGS))]
        return LibraryWorkload.shuffled(self, out)

    def warmup(self):
        return self.regress_job()


WORKLOADS = {w.name: w for w in (DpGram, BigGram, CliTasks)}
