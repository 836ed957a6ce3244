"""Command-line front end.

Subcommands: ``gram``, ``regress``, ``mmd-test``, ``optimize``,
``diagnose``, ``synth``.  Configuration comes from an INI file with
``[kernel]``, ``[data]``, and ``[run]`` sections.  Each named flag sets
one key of one section (its ``dest`` is ``section.key``) and overrides
the file; ``--kernel KEY=VALUE`` sets any kernel key and is applied
last.  ``--kernel-seed`` sets the kernel's ``seed`` key, since
``--seed`` is the global seed.  Keys without a flag are set in the
file: ``min_improvement``, ``which``, ``min_length`` and ``max_length``;
``normalize`` and the ``inner_*`` kernel keys also through ``--kernel``.
``diagnose`` writes ``set_size,C``; ``--min-eigenvalue`` adds each
set's minimum Gram eigenvalue, the one eigen-solve a certified Gram's C
values do not need.  Its ``--cutoffs`` must strictly increase.
Values in every section are type- and range-checked where they are
read, and a malformed or out-of-range one is a configuration error that
names its key; the contents of files a key names (a ``k_s`` letter
matrix, an embedding table) are data.  FASTA in, CSV out.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from typing import Optional

import numpy as np

from . import io
from .config import KEYS, PAIR_FAMILIES, _to_bool, _to_float, _to_int, build_kernel
from .errors import ConfigError, DataError, NumericalError
from .optimize import greedy_mmd_optimize
from .rkhs import (EmpiricalMeasure, discrete_mass_diagnostic, fit_regression, gram,
                   nested_order, predict_many)
from .seqcore import DNA, PROTEIN, Alphabet, Sequence, enumerate_sequences, enumerate_up_to
from .stats import MIN_BOOTSTRAP, mmd_two_sample_test


# --------------------------------------------------------------------------
# configuration plumbing

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI file with [kernel]/[data]/[run] sections")
    parser.add_argument("--seed", type=int, dest="run.seed", help="global random seed")
    parser.add_argument("--alphabet", dest="run.alphabet",
                        help="'dna', 'protein', or explicit letters (default dna)")
    parser.add_argument("--output", dest="run.output", help="output CSV path")
    # every kernel key of config.KEYS has a hidden flag; `normalize` has none because it
    # would collide with optimize's --normalize trace option
    for key in sorted({"family", *KEYS}):
        flag = "--kernel-seed" if key == "seed" else "--" + key.replace("_", "-")
        parser.add_argument(flag, dest="kernel." + key, help=argparse.SUPPRESS)
    parser.add_argument("--kernel", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra kernel key (repeatable), e.g. inner_family=exp_hamming")


def _load_config(path: Optional[str]) -> dict[str, dict]:
    sections: dict[str, dict] = {"kernel": {}, "data": {}, "run": {}}
    if path is None:
        return sections
    # values are read literally: a '%' in a path or a number is not interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive (C vs c)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}")
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        sections[section] = dict(parser.items(section))
    return sections


def _gather(args) -> tuple[dict, dict, dict, Alphabet, int]:
    """The [kernel], [data] and [run] sections, the alphabet and the seed.

    Precedence: INI file < named flag < ``--kernel KEY=VALUE``.
    """
    sections = _load_config(args.config)
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            sections[section][key] = value
    for item in args.kernel:
        if "=" not in item:
            raise ConfigError(f"--kernel expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        sections["kernel"][key.strip()] = value.strip()
    run_cfg = sections["run"]
    seed = _to_int("seed", run_cfg.get("seed", 0), minimum=0)
    alphabet = io.parse_alphabet(str(run_cfg.get("alphabet", "dna")))
    return sections["kernel"], sections["data"], run_cfg, alphabet, seed


def _need(cfg: dict, key: str, what: str) -> str:
    if key not in cfg or not str(cfg[key]).strip():
        raise ConfigError(f"missing {what} (key {key!r})")
    return str(cfg[key]).strip()


def _is_pair_family(kernel_cfg: dict) -> bool:
    return str(kernel_cfg.get("family", "")).strip() in PAIR_FAMILIES


# --------------------------------------------------------------------------
# subcommands

def cmd_gram(args) -> int:
    kernel_cfg, data_cfg, run_cfg, alphabet, seed = _gather(args)
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    ids, seqs = io.read_fasta(_need(data_cfg, "fasta", "input FASTA"), alphabet,
                              allow_pairs=_is_pair_family(kernel_cfg))
    seen: dict = {}
    for rec_id, s in zip(ids, seqs):
        if s in seen:
            raise DataError(
                f"records {seen[s]!r} and {rec_id!r} hold the same sequence; "
                f"Gram matrices are defined over distinct sequences")
        seen[s] = rec_id
    # only the entries: a Gram's kept factor is freed before the CSV is written
    entries = gram(kernel, seqs).entries
    out = _need(run_cfg, "output", "output path")
    io.write_csv(out, ["id"] + ids, zip(ids, entries))
    return 0


def cmd_regress(args) -> int:
    kernel_cfg, data_cfg, run_cfg, alphabet, seed = _gather(args)
    ridge = _to_float("ridge", run_cfg.get("ridge", 0.0), minimum=0)
    frac = _to_float("train_fraction", run_cfg.get("train_fraction", 1.0))
    if not 0.0 < frac <= 1.0:
        raise ConfigError(f"key 'train_fraction' must be in (0, 1], got {frac}")
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    ids, seqs = io.read_fasta(_need(data_cfg, "fasta", "input FASTA"), alphabet,
                              allow_pairs=_is_pair_family(kernel_cfg))
    labels = io.read_labels(_need(data_cfg, "labels", "labels CSV"))
    missing = [i for i in ids if i not in labels]
    if missing:
        raise DataError(f"labels missing for FASTA IDs: {', '.join(missing[:5])}")
    y = np.array([labels[i] for i in ids])

    rng = np.random.default_rng(seed)
    n = len(seqs)
    n_train = max(2, int(round(frac * n))) if frac < 1.0 else n
    order = rng.permutation(n) if frac < 1.0 else np.arange(n)
    train_idx = np.sort(order[:n_train])
    eval_idx = np.sort(order[n_train:]) if n_train < n else train_idx

    G = gram(kernel, [seqs[i] for i in train_idx])
    fit = fit_regression(G, y[train_idx], ridge)
    pred = predict_many(fit, seqs)

    y_eval, p_eval = y[eval_idx], pred[eval_idx]
    std = float(np.std(y_eval))
    rmse = float(np.sqrt(np.mean((p_eval - y_eval) ** 2)))
    if std == 0.0:
        print("warning: labels have zero spread; reporting normalized RMSE 0",
              file=sys.stderr)
        nrmse = 0.0
    else:
        nrmse = rmse / std
    out = _need(run_cfg, "output", "output path")
    trained = set(train_idx.tolist())
    split = ["train" if i in trained else "heldout" for i in range(n)]
    rows = [(ids[i], y[i], pred[i], split[i]) for i in range(n)]
    io.write_csv(out, ["id", "true", "predicted", "split"], rows,
                 footer_comments=[f"normalized_rmse={io.fmt(nrmse)}"])
    print(f"normalized_rmse={io.fmt(nrmse)}")
    return 0


def cmd_mmd_test(args) -> int:
    kernel_cfg, data_cfg, run_cfg, alphabet, seed = _gather(args)
    n_bootstrap = _to_int("n_bootstrap", run_cfg.get("n_bootstrap", 200),
                          minimum=MIN_BOOTSTRAP)
    level = _to_float("level", run_cfg.get("level", 0.05))
    if not 0.0 < level < 1.0:
        raise ConfigError(f"key 'level' must be in (0, 1), got {level:g}")
    method = str(run_cfg.get("method", "permutation")).strip()
    if method not in ("permutation", "multiplier"):
        raise ConfigError(
            f"key 'method' must be 'permutation' or 'multiplier', got {method!r}")
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    pairs = _is_pair_family(kernel_cfg)
    _, xs = io.read_fasta(_need(data_cfg, "fasta_x", "first sample FASTA"),
                          alphabet, allow_pairs=pairs)
    _, ys = io.read_fasta(_need(data_cfg, "fasta_y", "second sample FASTA"),
                          alphabet, allow_pairs=pairs)
    result = mmd_two_sample_test(kernel, xs, ys, n_bootstrap=n_bootstrap, level=level,
                                 seed=seed, method=method)
    out = _need(run_cfg, "output", "output path")
    io.write_csv(
        out,
        ["mmd_observed", "p_value", "rejected", "seed", "n_bootstrap", "level"],
        [(result.mmd_observed, result.p_value, int(result.rejected),
          result.seed, result.n_bootstrap, result.level)],
    )
    print(f"mmd_observed={io.fmt(result.mmd_observed)} "
          f"p_value={io.fmt(result.p_value)} rejected={int(result.rejected)}")
    return 0


def cmd_optimize(args) -> int:
    kernel_cfg, data_cfg, run_cfg, alphabet, seed = _gather(args)
    max_steps = _to_int("max_steps", run_cfg.get("max_steps", 100), minimum=1)
    min_improvement = _to_float("min_improvement", run_cfg.get("min_improvement", 1e-12),
                                minimum=0)
    normalize = _to_bool("normalize_trace", run_cfg.get("normalize_trace", False))
    if _is_pair_family(kernel_cfg):
        raise ConfigError("optimize does not support kernels on sequence pairs")
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    _, targets = io.read_fasta(
        _need(data_cfg, "target_fasta", "target FASTA"), alphabet)
    target = EmpiricalMeasure.uniform(targets)
    init_spec = run_cfg.get("init", "double_random_atom")
    if init_spec == "double_random_atom":
        rng = np.random.default_rng(seed)
        atom = targets[int(rng.integers(len(targets)))]
        init = atom + atom
    else:
        init = Sequence.from_letters(alphabet, init_spec)
    trace = greedy_mmd_optimize(kernel, target, init, max_steps=max_steps,
                                min_improvement=min_improvement)
    base = trace.steps[0].mmd
    scale = base if (normalize and base > 0) else 1.0
    out = _need(run_cfg, "output", "output path")
    rows = [(s.index, str(s.sequence), s.mmd / scale, str(s.edit))
            for s in trace.steps]
    io.write_csv(out, ["step", "sequence", "mmd", "edit"], rows,
                 footer_comments=[f"converged={int(trace.converged)}"])
    print(f"final_length={len(trace.final.sequence)} "
          f"final_mmd={io.fmt(trace.final.mmd)} converged={int(trace.converged)}")
    return 0


def cmd_diagnose(args) -> int:
    kernel_cfg, data_cfg, run_cfg, alphabet, seed = _gather(args)
    if "cutoffs" in run_cfg and "set_files" in data_cfg:
        raise ConfigError("give either length cutoffs or explicit set files")
    cutoffs = [_to_int("cutoffs", c, minimum=0)
               for c in str(run_cfg.get("cutoffs", "1,2,3")).split(",")]
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError(f"key 'cutoffs' must strictly increase, got {run_cfg['cutoffs']!r}")
    with_min_eigenvalue = _to_bool("min_eigenvalue", run_cfg.get("min_eigenvalue", False))
    if _is_pair_family(kernel_cfg):
        raise ConfigError("diagnose does not support kernels on sequence pairs")
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    target = Sequence.from_letters(alphabet, _need(run_cfg, "target", "target sequence"))
    if "set_files" in data_cfg:
        sets = [list(io.read_fasta(path.strip(), alphabet)[1])
                for path in str(data_cfg["set_files"]).split(",")]
    else:
        sets = [enumerate_up_to(alphabet, c) for c in cutoffs]
    # one Gram, over the largest set ordered so that each set is a prefix
    G = gram(kernel, nested_order(target, sets))
    values = discrete_mass_diagnostic(kernel, target, sets, G)
    header = ["set_size", "C"]
    rows = [(len(s), c) for s, c in zip(sets, values)]
    if with_min_eigenvalue:
        # a certified Gram's C values need no eigen-solve; these do
        header.append("min_eigenvalue")
        rows = [(size, c, G.leading(size).min_eigenvalue) for size, c in rows]
    out = _need(run_cfg, "output", "output path")
    io.write_csv(out, header, rows)
    for size, *floats in rows:
        print(" ".join([f"set_size={size}"] + [f"{key}={io.fmt(float(v))}"
                                               for key, v in zip(header[1:], floats)]))
    return 0


def cmd_synth(args) -> int:
    _, _, run_cfg, alphabet, seed = _gather(args)
    preset = _need(run_cfg, "preset", "synth preset")
    out = _need(run_cfg, "output", "output path")
    rng = np.random.default_rng(seed)
    if preset == "toy-regression":
        seqs = enumerate_sequences(DNA, _to_int("length", run_cfg.get("length", 4), minimum=0))
        ids = [f"s{i:04d}" for i in range(len(seqs))]
        io.write_fasta(out, ids, seqs)
        labels_out = _need(run_cfg, "labels_output", "labels output path")
        rows = [(i, most_common_letter_count(s)) for i, s in zip(ids, seqs)]
        io.write_csv(labels_out, ["id", "label"], rows)
    elif preset == "mirrored-halves":
        n = _to_int("n", run_cfg.get("n", 200), minimum=1)
        length = _to_int("length", run_cfg.get("length", 4), minimum=0)
        if length % 2:
            raise ConfigError("mirrored-halves needs an even length")
        which = run_cfg.get("which", "mirrored")
        if which not in ("uniform", "mirrored"):
            raise ConfigError("'which' must be 'uniform' or 'mirrored'")
        seqs = []
        for _ in range(n):
            if which == "uniform":
                codes = rng.integers(alphabet.size, size=length)
            else:
                half = rng.integers(alphabet.size, size=length // 2)
                codes = np.concatenate([half, half])
            seqs.append(Sequence(alphabet, tuple(int(c) for c in codes)))
        io.write_fasta(out, [f"s{i:05d}" for i in range(n)], seqs)
    elif preset == "tcr-like":
        n = _to_int("n", run_cfg.get("n", 100), minimum=1)
        lo = _to_int("min_length", run_cfg.get("min_length", 10), minimum=0)
        hi = _to_int("max_length", run_cfg.get("max_length", 17), minimum=lo)
        seqs = []
        for _ in range(n):
            length = int(rng.integers(lo, hi + 1))
            codes = rng.integers(PROTEIN.size, size=length)
            seqs.append(Sequence(PROTEIN, tuple(int(c) for c in codes)))
        io.write_fasta(out, [f"s{i:05d}" for i in range(n)], seqs)
    else:
        raise ConfigError(
            "preset must be toy-regression, mirrored-halves, or tcr-like")
    return 0


def most_common_letter_count(x: Sequence) -> int:
    """Occurrences of the most frequent letter in the sequence."""
    if len(x) == 0:
        return 0
    return int(np.bincount(np.array(x.codes)).max())


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqkern",
        description="Sequence kernels: Gram matrices, regression, two-sample "
                    "tests, greedy MMD optimization, flexibility diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="write the Gram matrix of a FASTA file")
    _add_common(p)
    p.add_argument("--fasta", dest="data.fasta")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("regress", help="kernel (ridge) regression on labelled sequences")
    _add_common(p)
    p.add_argument("--fasta", dest="data.fasta")
    p.add_argument("--labels", dest="data.labels")
    p.add_argument("--ridge", type=float, dest="run.ridge")
    p.add_argument("--train-fraction", type=float, dest="run.train_fraction")
    p.set_defaults(fn=cmd_regress)

    p = sub.add_parser("mmd-test", help="two-sample test between two FASTA files")
    _add_common(p)
    p.add_argument("--fasta-x", dest="data.fasta_x")
    p.add_argument("--fasta-y", dest="data.fasta_y")
    p.add_argument("--n-bootstrap", type=int, dest="run.n_bootstrap")
    p.add_argument("--level", type=float, dest="run.level")
    p.add_argument("--method", choices=("permutation", "multiplier"), dest="run.method")
    p.set_defaults(fn=cmd_mmd_test)

    p = sub.add_parser("optimize", help="greedy single-edit MMD minimisation")
    _add_common(p)
    p.add_argument("--target-fasta", dest="data.target_fasta")
    p.add_argument("--init", dest="run.init",
                   help="initial sequence letters or 'double_random_atom'")
    p.add_argument("--max-steps", type=int, dest="run.max_steps")
    p.add_argument("--normalize", action="store_true", default=None, dest="run.normalize_trace",
                   help="normalise the MMD column to the step-0 value")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("diagnose", help="flexibility diagnostic over nested sets")
    _add_common(p)
    p.add_argument("--target", dest="run.target", help="target sequence letters")
    p.add_argument("--cutoffs", dest="run.cutoffs",
                   help="comma-separated length cutoffs, e.g. 1,2,3")
    p.add_argument("--set-files", dest="data.set_files",
                   help="comma-separated FASTA paths (explicit nested sets, smallest "
                        "first; each file may list its sequences in any order)")
    p.add_argument("--min-eigenvalue", action="store_true", default=None,
                   dest="run.min_eigenvalue",
                   help="add each set's minimum Gram eigenvalue, one eigen-solve per set")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("synth", help="write synthetic data sets")
    _add_common(p)
    p.add_argument("--preset", dest="run.preset",
                   choices=("toy-regression", "mirrored-halves", "tcr-like"))
    p.add_argument("--n", type=int, dest="run.n")
    p.add_argument("--length", type=int, dest="run.length")
    p.add_argument("--labels-output", dest="run.labels_output")
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
