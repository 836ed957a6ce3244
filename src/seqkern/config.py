"""Kernel construction from flat key-value configuration sections.

Every kernel family has a declared key set; unknown keys are rejected
and missing required keys are reported by name.  Values arrive as
strings (INI sections or command-line flags) and are coerced here.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import alignment as al
from . import embedding as emb
from . import positional as pos
from . import spectrum as spec
from .core import IdentityKernel, Kernel
from .errors import ConfigError, DataError
from .seqcore import Alphabet

# family -> (required keys, optional keys)
FAMILIES: dict[str, tuple[set, set]] = {
    "identity": (set(), set()),
    "weighted_degree": ({"L"}, set()),
    "exp_hamming": ({"lambda"}, set()),
    "imq_hamming": ({"C", "beta"}, set()),
    "imq_hamming_lag": ({"C", "beta", "L"}, set()),
    "centre_justified": (set(), set()),          # + inner_* keys
    "shifted": ({"shift_max"}, set()),           # + inner_* keys
    "alignment": ({"mu", "delta_mu"}, {"lambda", "k_s"}),
    "local_alignment": ({"mu", "delta_mu"}, {"lambda", "k_s"}),
    "ht_alignment_matches": ({"C", "beta", "mu", "delta_mu"}, set()),
    "ht_alignment_gaps": ({"C", "beta", "delta_mu"}, {"lambda", "k_s"}),
    "finite_spectrum": ({"L_max"}, set()),
    "infinite_spectrum": (set(), set()),
    "ht_gapped_spectrum": ({"C", "beta", "delta_mu"}, set()),
    "embedding": ({"base", "D"}, {"seed", "scale_epsilon", "k_E", "gamma"}),
}

GENERIC_KEYS = {"family", "normalize"}

#: families whose kernels act on (left, right) sequence pairs
PAIR_FAMILIES = {"centre_justified"}


def _to_float(key: str, value: str, minimum: Optional[float] = None) -> float:
    """``value`` as a finite float, at least ``minimum`` when given;
    anything else is a :class:`ConfigError` naming ``key``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r} must be a finite number, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"key {key!r} must be at least {minimum:g}, got {number:g}")
    return number


def _to_int(key: str, value: str, minimum: Optional[int] = None) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"key {key!r} must be at least {minimum}, got {number}")
    return number


def _to_delta_mu(value: str) -> float:
    if str(value).strip().lower() in ("inf", "infinity"):
        return math.inf
    return _to_float("delta_mu", value, minimum=0)


def _positive(cfg: dict, key: str) -> float:
    number = _to_float(key, cfg[key])
    if not number > 0:
        raise ConfigError(f"key {key!r} must be positive, got {number:g}")
    return number


def _to_bool(key: str, value) -> bool:
    s = str(value).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r} must be a boolean, got {value!r}")


def _letter_matrix(alphabet: Alphabet, cfg: dict) -> np.ndarray:
    """Letter kernel from either a mismatch rate or an explicit CSV matrix."""
    if "k_s" in cfg and "lambda" in cfg:
        raise ConfigError("give either 'lambda' or 'k_s', not both")
    if "k_s" in cfg:
        try:
            return np.loadtxt(cfg["k_s"], delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read letter matrix {cfg['k_s']!r}: {exc}")
    return al.exponential_letter_matrix(alphabet.size, _positive(cfg, "lambda"))


def _split_inner(cfg: dict) -> tuple[dict, dict]:
    inner = {}
    outer = {}
    for key, value in cfg.items():
        if key.startswith("inner_"):
            inner[key[len("inner_"):]] = value
        else:
            outer[key] = value
    return outer, inner


def build_kernel(alphabet: Alphabet, cfg: dict,
                 default_seed: int = 0) -> Kernel:
    """Build a kernel from a flat configuration mapping.

    ``cfg`` must contain ``family``; family-specific keys are validated
    strictly.  ``normalize = true`` wraps the result so the diagonal
    becomes one.  Wrapper families take their inner kernel's keys with
    an ``inner_`` prefix (``inner_family = exp_hamming`` etc.).
    """
    cfg = {str(k): v for k, v in cfg.items()}
    family = cfg.get("family")
    if not family:
        raise ConfigError("kernel configuration needs a 'family' key")
    family = str(family).strip()
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"unknown kernel family {family!r} (known: {known})")
    outer_cfg, inner_cfg = _split_inner(cfg)
    required, optional = FAMILIES[family]
    keys = set(outer_cfg) - GENERIC_KEYS
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(
            f"unknown keys for family {family!r}: {', '.join(sorted(unknown))}"
        )
    missing = required - keys
    # alignment families: 'lambda'/'k_s' are an either-or requirement
    if family in ("alignment", "local_alignment", "ht_alignment_gaps"):
        if "lambda" not in keys and "k_s" not in keys:
            missing = missing | {"lambda|k_s"}
    if missing:
        raise ConfigError(
            f"family {family!r} is missing keys: {', '.join(sorted(missing))}"
        )
    if inner_cfg and family not in ("centre_justified", "shifted"):
        raise ConfigError(f"family {family!r} does not take inner_* keys")

    kernel = _build(family, alphabet, outer_cfg, inner_cfg, default_seed)
    if "normalize" in cfg and _to_bool("normalize", cfg["normalize"]):
        kernel = kernel.normalized()
    return kernel


def _build(family: str, alphabet: Alphabet, cfg: dict, inner_cfg: dict,
           default_seed: int) -> Kernel:
    if family == "identity":
        return IdentityKernel()
    if family == "weighted_degree":
        return pos.weighted_degree_kernel(_to_int("L", cfg["L"], minimum=1))
    if family == "exp_hamming":
        return pos.exp_hamming_kernel(alphabet, _positive(cfg, "lambda"))
    if family == "imq_hamming":
        return pos.imq_hamming_kernel(_positive(cfg, "C"), _positive(cfg, "beta"))
    if family == "imq_hamming_lag":
        return pos.imq_hamming_lag_kernel(_positive(cfg, "C"), _positive(cfg, "beta"),
                                          _to_int("L", cfg["L"], minimum=1))
    if family in ("centre_justified", "shifted"):
        if "family" not in inner_cfg:
            raise ConfigError(f"family {family!r} needs an 'inner_family' key")
        inner = build_kernel(alphabet, inner_cfg, default_seed)
        if family == "centre_justified":
            return pos.centre_justified_kernel(inner)
        return pos.shifted_kernel(inner, _to_int("shift_max", cfg["shift_max"], minimum=0))
    if family in ("alignment", "local_alignment"):
        params = al.AlignmentParams(alphabet, _letter_matrix(alphabet, cfg),
                                    _to_float("mu", cfg["mu"], minimum=0),
                                    _to_delta_mu(cfg["delta_mu"]))
        if family == "alignment":
            return al.alignment_kernel(params)
        return al.local_alignment_kernel(params)
    if family == "ht_alignment_matches":
        return al.HeavyTailedAlignmentMatches(
            alphabet, _positive(cfg, "C"), _positive(cfg, "beta"),
            _to_float("mu", cfg["mu"], minimum=0), _to_delta_mu(cfg["delta_mu"]),
        )
    if family == "ht_alignment_gaps":
        return al.HeavyTailedAlignmentGaps(
            alphabet, _positive(cfg, "C"), _positive(cfg, "beta"),
            _to_delta_mu(cfg["delta_mu"]), _letter_matrix(alphabet, cfg),
        )
    if family == "finite_spectrum":
        return spec.finite_spectrum_kernel(_to_int("L_max", cfg["L_max"], minimum=1))
    if family == "infinite_spectrum":
        return spec.infinite_spectrum_kernel()
    if family == "ht_gapped_spectrum":
        return spec.heavy_tailed_gapped_spectrum(
            alphabet.size, _positive(cfg, "C"), _positive(cfg, "beta"),
            _to_delta_mu(cfg["delta_mu"]),
        )
    if family == "embedding":
        return _build_embedding(alphabet, cfg, default_seed)
    raise ConfigError(f"unhandled family {family!r}")


def _build_embedding(alphabet: Alphabet, cfg: dict, default_seed: int) -> Kernel:
    dim = _to_int("D", cfg["D"], minimum=1)
    seed = _to_int("seed", cfg.get("seed", default_seed))
    base_spec = str(cfg["base"]).strip()
    if base_spec == "random_ball":
        base: emb.Embedding = emb.random_ball_embedding(seed, dim)
    elif base_spec.startswith("table:"):
        base = emb.load_embedding_table(base_spec[len("table:"):], dim)
    else:
        raise ConfigError(
            "embedding 'base' must be 'random_ball' or 'table:<path>'"
        )
    # 0 disables scaling
    eps = _to_float("scale_epsilon", cfg.get("scale_epsilon", 0.0), minimum=0)
    embedding: emb.Embedding = base
    if eps > 0:
        embedding = emb.scaled_embedding(base, eps, alphabet.size)
    form = str(cfg.get("k_E", "imq")).strip()
    gamma = _to_float("gamma", cfg.get("gamma", 1.0))
    try:
        euclidean = emb.EuclideanKernel(form, gamma)
    except DataError as exc:
        raise ConfigError(str(exc))
    return emb.embedding_kernel(embedding, euclidean)
