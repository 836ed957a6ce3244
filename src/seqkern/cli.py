"""Command-line front end.

Subcommands: ``gram``, ``regress``, ``mmd-test``, ``optimize``,
``diagnose``, ``synth``.  Configuration comes from an INI file with
``[kernel]``, ``[data]``, and ``[run]`` sections, every key of which can
be overridden by a flag of the same name.  FASTA in, CSV out.  Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from typing import Optional

import numpy as np

from . import io
from .config import PAIR_FAMILIES, build_kernel
from .errors import ConfigError, DataError, NumericalError
from .optimize import greedy_mmd_optimize
from .rkhs import EmpiricalMeasure, discrete_mass_diagnostic, fit_regression, gram, predict_many
from .seqcore import Alphabet, Sequence, enumerate_sequences, enumerate_up_to
from .stats import mmd_two_sample_test


# --------------------------------------------------------------------------
# configuration plumbing

KERNEL_FLAGS = [
    "family", "L", "C", "beta", "lambda", "mu", "delta_mu", "k_s", "L_max",
    "shift_max", "base", "D", "scale_epsilon", "k_E", "gamma", "kernel_seed",
]
# `normalize` stays reachable through --kernel normalize=true; a named
# flag would collide with optimize's --normalize trace option


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI file with [kernel]/[data]/[run] sections")
    parser.add_argument("--seed", type=int, default=None, help="global random seed")
    parser.add_argument("--alphabet", default=None,
                        help="'dna', 'protein', or explicit letters (default dna)")
    parser.add_argument("--output", default=None, help="output CSV path")
    for key in KERNEL_FLAGS:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=f"kernel_{key}", default=None,
                            help=argparse.SUPPRESS)
    parser.add_argument("--kernel", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra kernel key (repeatable), e.g. inner_family=exp_hamming")


def _load_config(path: Optional[str]) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {"kernel": {}, "data": {}, "run": {}}
    if path is None:
        return sections
    parser = configparser.ConfigParser()
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
    sections = _load_config(args.config)
    kernel_cfg = dict(sections["kernel"])
    for key in KERNEL_FLAGS:
        value = getattr(args, f"kernel_{key}", None)
        if value is not None:
            if key == "kernel_seed":
                kernel_cfg["seed"] = value
            else:
                kernel_cfg[key] = value
    for item in args.kernel:
        if "=" not in item:
            raise ConfigError(f"--kernel expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        kernel_cfg[key.strip()] = value.strip()
    data_cfg = dict(sections["data"])
    run_cfg = dict(sections["run"])
    if args.seed is not None:
        run_cfg["seed"] = str(args.seed)
    seed = int(run_cfg.get("seed", 0))
    alphabet_spec = args.alphabet or run_cfg.get("alphabet", "dna")
    alphabet = io.parse_alphabet(alphabet_spec)
    if args.output is not None:
        run_cfg["output"] = args.output
    return kernel_cfg, data_cfg, run_cfg, alphabet, seed


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
    if getattr(args, "fasta", None):
        data_cfg["fasta"] = args.fasta
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
    G = gram(kernel, seqs)
    out = _need(run_cfg, "output", "output path")
    io.write_csv(out, ["id"] + ids, zip(ids, G.entries))
    return 0


def cmd_regress(args) -> int:
    kernel_cfg, data_cfg, run_cfg, alphabet, seed = _gather(args)
    if getattr(args, "fasta", None):
        data_cfg["fasta"] = args.fasta
    if getattr(args, "labels", None):
        data_cfg["labels"] = args.labels
    if getattr(args, "ridge", None) is not None:
        run_cfg["ridge"] = str(args.ridge)
    if getattr(args, "train_fraction", None) is not None:
        run_cfg["train_fraction"] = str(args.train_fraction)
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    ids, seqs = io.read_fasta(_need(data_cfg, "fasta", "input FASTA"), alphabet,
                              allow_pairs=_is_pair_family(kernel_cfg))
    labels = io.read_labels(_need(data_cfg, "labels", "labels CSV"))
    missing = [i for i in ids if i not in labels]
    if missing:
        raise DataError(f"labels missing for FASTA IDs: {', '.join(missing[:5])}")
    y = np.array([labels[i] for i in ids])

    ridge = float(run_cfg.get("ridge", 0.0))
    frac = float(run_cfg.get("train_fraction", 1.0))
    if not 0.0 < frac <= 1.0:
        raise ConfigError("train_fraction must be in (0, 1]")
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
    if getattr(args, "fasta_x", None):
        data_cfg["fasta_x"] = args.fasta_x
    if getattr(args, "fasta_y", None):
        data_cfg["fasta_y"] = args.fasta_y
    for key in ("n_bootstrap", "level", "method"):
        value = getattr(args, key, None)
        if value is not None:
            run_cfg[key] = str(value)
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    pairs = _is_pair_family(kernel_cfg)
    _, xs = io.read_fasta(_need(data_cfg, "fasta_x", "first sample FASTA"),
                          alphabet, allow_pairs=pairs)
    _, ys = io.read_fasta(_need(data_cfg, "fasta_y", "second sample FASTA"),
                          alphabet, allow_pairs=pairs)
    result = mmd_two_sample_test(
        kernel, xs, ys,
        n_bootstrap=int(run_cfg.get("n_bootstrap", 200)),
        level=float(run_cfg.get("level", 0.05)),
        seed=seed,
        method=run_cfg.get("method", "permutation"),
    )
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
    if getattr(args, "target_fasta", None):
        data_cfg["target_fasta"] = args.target_fasta
    if getattr(args, "init", None):
        run_cfg["init"] = args.init
    if getattr(args, "max_steps", None) is not None:
        run_cfg["max_steps"] = str(args.max_steps)
    if getattr(args, "normalize_trace", False):
        run_cfg["normalize_trace"] = "true"
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
    trace = greedy_mmd_optimize(
        kernel, target, init,
        max_steps=int(run_cfg.get("max_steps", 100)),
        min_improvement=float(run_cfg.get("min_improvement", 1e-12)),
    )
    normalize = str(run_cfg.get("normalize_trace", "false")).lower() in (
        "1", "true", "yes", "on")
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
    if getattr(args, "target", None):
        run_cfg["target"] = args.target
    if getattr(args, "cutoffs", None):
        run_cfg["cutoffs"] = args.cutoffs
    if getattr(args, "set_files", None):
        data_cfg["set_files"] = args.set_files
    if _is_pair_family(kernel_cfg):
        raise ConfigError("diagnose does not support kernels on sequence pairs")
    kernel = build_kernel(alphabet, kernel_cfg, default_seed=seed)
    target = Sequence.from_letters(alphabet, _need(run_cfg, "target", "target sequence"))
    if "cutoffs" in run_cfg and "set_files" in data_cfg:
        raise ConfigError("give either length cutoffs or explicit set files")
    sets: list[list[Sequence]] = []
    if "set_files" in data_cfg:
        for path in str(data_cfg["set_files"]).split(","):
            _, seqs = io.read_fasta(path.strip(), alphabet)
            sets.append(list(seqs))
    else:
        cutoffs = [int(c) for c in str(run_cfg.get("cutoffs", "1,2,3")).split(",")]
        for c in cutoffs:
            sets.append(enumerate_up_to(alphabet, c))
    for s in sets:
        if target not in s:
            raise DataError(
                f"target {target} is absent from a nested set (size {len(s)})")
    grams = [gram(kernel, s) for s in sets]
    values = discrete_mass_diagnostic(kernel, target, grams)
    rows = [(len(G), c, G.min_eigenvalue) for G, c in zip(grams, values)]
    out = _need(run_cfg, "output", "output path")
    io.write_csv(out, ["set_size", "C", "min_eigenvalue"], rows)
    for size, c, ev in rows:
        print(f"set_size={size} C={io.fmt(float(c))} min_eigenvalue={io.fmt(ev)}")
    return 0


def cmd_synth(args) -> int:
    _, data_cfg, run_cfg, alphabet, seed = _gather(args)
    if getattr(args, "preset", None):
        run_cfg["preset"] = args.preset
    for key in ("n", "length"):
        value = getattr(args, key, None)
        if value is not None:
            run_cfg[key] = str(value)
    if getattr(args, "labels_output", None):
        run_cfg["labels_output"] = args.labels_output
    preset = _need(run_cfg, "preset", "synth preset")
    out = _need(run_cfg, "output", "output path")
    rng = np.random.default_rng(seed)
    if preset == "toy-regression":
        dna = io.parse_alphabet("dna")
        seqs = enumerate_sequences(dna, int(run_cfg.get("length", 4)))
        ids = [f"s{i:04d}" for i in range(len(seqs))]
        io.write_fasta(out, ids, seqs)
        labels_out = _need(run_cfg, "labels_output", "labels output path")
        rows = [(i, most_common_letter_count(s)) for i, s in zip(ids, seqs)]
        io.write_csv(labels_out, ["id", "label"], rows)
    elif preset == "mirrored-halves":
        n = int(run_cfg.get("n", 200))
        length = int(run_cfg.get("length", 4))
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
        protein = io.parse_alphabet("protein")
        n = int(run_cfg.get("n", 100))
        lo = int(run_cfg.get("min_length", 10))
        hi = int(run_cfg.get("max_length", 17))
        seqs = []
        for _ in range(n):
            length = int(rng.integers(lo, hi + 1))
            codes = rng.integers(protein.size, size=length)
            seqs.append(Sequence(protein, tuple(int(c) for c in codes)))
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
    p.add_argument("--fasta")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("regress", help="kernel (ridge) regression on labelled sequences")
    _add_common(p)
    p.add_argument("--fasta")
    p.add_argument("--labels")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--train-fraction", type=float, default=None, dest="train_fraction")
    p.set_defaults(fn=cmd_regress)

    p = sub.add_parser("mmd-test", help="two-sample test between two FASTA files")
    _add_common(p)
    p.add_argument("--fasta-x", dest="fasta_x")
    p.add_argument("--fasta-y", dest="fasta_y")
    p.add_argument("--n-bootstrap", type=int, default=None, dest="n_bootstrap")
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--method", choices=("permutation", "multiplier"), default=None)
    p.set_defaults(fn=cmd_mmd_test)

    p = sub.add_parser("optimize", help="greedy single-edit MMD minimisation")
    _add_common(p)
    p.add_argument("--target-fasta", dest="target_fasta")
    p.add_argument("--init", help="initial sequence letters or 'double_random_atom'")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--normalize", action="store_true", dest="normalize_trace",
                   help="normalise the MMD column to the step-0 value")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("diagnose", help="flexibility diagnostic over nested sets")
    _add_common(p)
    p.add_argument("--target", help="target sequence letters")
    p.add_argument("--cutoffs", help="comma-separated length cutoffs, e.g. 1,2,3")
    p.add_argument("--set-files", dest="set_files",
                   help="comma-separated FASTA paths (explicit nested sets)")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("synth", help="write synthetic data sets")
    _add_common(p)
    p.add_argument("--preset",
                   choices=("toy-regression", "mirrored-halves", "tcr-like"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--labels-output", dest="labels_output")
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
