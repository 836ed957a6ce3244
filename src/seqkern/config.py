"""Kernel construction from flat key-value configuration sections.

Each kernel family is declared once, as a row of :data:`FAMILIES`: its
required keys, its optional keys and a builder ``(alphabet, values) ->
Kernel``.  Each kernel key has one reader in :data:`KEYS`, which turns
its value (a string from an INI section or a command-line flag) into
what the builders read, or raises a :class:`ConfigError` naming the key.
Unknown keys are rejected and missing required keys are reported by
name.  A required key ``a|b`` is satisfied by either alternative.  A
wrapper family requires ``inner``: the kernel that its ``inner_*`` keys
configure (``inner_family = exp_hamming`` etc.).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import alignment as al
from . import embedding as emb
from . import positional as pos
from . import spectrum as spec
from .core import IdentityKernel, Kernel
from .errors import ConfigError, DataError
from .seqcore import Alphabet


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


def _to_bool(key: str, value) -> bool:
    s = str(value).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r} must be a boolean, got {value!r}")


def _positive(key: str, value: str) -> float:
    number = _to_float(key, value)
    if not number > 0:
        raise ConfigError(f"key {key!r} must be positive, got {number:g}")
    return number


def _to_delta_mu(key: str, value: str) -> float:
    if str(value).strip().lower() in ("inf", "infinity"):
        return math.inf
    return _to_float(key, value, minimum=0)


def _read_letter_matrix(key: str, path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read letter matrix {path!r}: {exc}")


def _to_base(key: str, value: str) -> str:
    base = str(value).strip()
    if base != "random_ball" and not base.startswith("table:"):
        raise ConfigError("embedding 'base' must be 'random_ball' or 'table:<path>'")
    return base


def _to_form(key: str, value: str) -> str:
    form = str(value).strip()
    if form not in ("imq", "rbf"):
        raise ConfigError(f"key {key!r} must be 'imq' or 'rbf', got {form!r}")
    return form


#: kernel key -> its reader ``(key, value) -> value``
KEYS: dict[str, Callable[[str, str], object]] = {
    **dict.fromkeys(("C", "beta", "lambda"), _positive),
    "mu": partial(_to_float, minimum=0),
    "delta_mu": _to_delta_mu,
    **dict.fromkeys(("L", "L_max", "D"), partial(_to_int, minimum=1)),
    "shift_max": partial(_to_int, minimum=0),
    "scale_epsilon": partial(_to_float, minimum=0),
    "seed": _to_int,
    "gamma": _to_float,
    "k_s": _read_letter_matrix,
    "base": _to_base,
    "k_E": _to_form,
}


def _letter_matrix(alphabet: Alphabet, v: dict) -> np.ndarray:
    """Letter kernel from either a mismatch rate or an explicit CSV matrix."""
    if "k_s" in v:
        return v["k_s"]
    return al.exponential_letter_matrix(alphabet.size, v["lambda"])


def _alignment_params(alphabet: Alphabet, v: dict) -> al.AlignmentParams:
    return al.AlignmentParams(alphabet, _letter_matrix(alphabet, v), v["mu"], v["delta_mu"])


def _embedding(alphabet: Alphabet, v: dict) -> Kernel:
    """An embedding kernel; keys that its base or form would not read
    are refused rather than ignored."""
    form = v.get("k_E", "imq")
    if "gamma" in v and form != "rbf":
        raise ConfigError(f"key 'gamma' is read only with k_E = rbf, not {form!r}")
    if v["base"] == "random_ball":
        embedding: emb.Embedding = emb.random_ball_embedding(
            v.get("seed", v["default_seed"]), v["D"])
    elif "seed" in v:
        raise ConfigError("key 'seed' is read only with base = random_ball, not a table")
    else:
        embedding = emb.load_embedding_table(v["base"][len("table:"):], v["D"])
    if v.get("scale_epsilon", 0.0) > 0:  # 0 disables scaling
        embedding = emb.scaled_embedding(embedding, v["scale_epsilon"], alphabet.size)
    try:
        euclidean = emb.EuclideanKernel(form, v.get("gamma", 1.0))
    except DataError as exc:
        raise ConfigError(f"key 'gamma': {exc}")
    return emb.embedding_kernel(embedding, euclidean)


# family -> (required keys, optional keys, builder)
FAMILIES: dict[str, tuple[set, set, Callable[[Alphabet, dict], Kernel]]] = {
    "identity": (set(), set(), lambda a, v: IdentityKernel()),
    "weighted_degree": ({"L"}, set(), lambda a, v: pos.weighted_degree_kernel(v["L"])),
    "exp_hamming": ({"lambda"}, set(), lambda a, v: pos.exp_hamming_kernel(a, v["lambda"])),
    "imq_hamming": ({"C", "beta"}, set(),
                    lambda a, v: pos.imq_hamming_kernel(v["C"], v["beta"])),
    "imq_hamming_lag": ({"C", "beta", "L"}, set(),
                        lambda a, v: pos.imq_hamming_lag_kernel(v["C"], v["beta"], v["L"])),
    "centre_justified": ({"inner"}, set(),
                         lambda a, v: pos.centre_justified_kernel(v["inner"])),
    "shifted": ({"inner", "shift_max"}, set(),
                lambda a, v: pos.shifted_kernel(v["inner"], v["shift_max"])),
    "alignment": ({"mu", "delta_mu", "lambda|k_s"}, set(),
                  lambda a, v: al.alignment_kernel(_alignment_params(a, v))),
    "local_alignment": ({"mu", "delta_mu", "lambda|k_s"}, set(),
                        lambda a, v: al.local_alignment_kernel(_alignment_params(a, v))),
    "ht_alignment_matches": ({"C", "beta", "mu", "delta_mu"}, set(),
                             lambda a, v: al.HeavyTailedAlignmentMatches(
                                 a, v["C"], v["beta"], v["mu"], v["delta_mu"])),
    "ht_alignment_gaps": ({"C", "beta", "delta_mu", "lambda|k_s"}, set(),
                          lambda a, v: al.HeavyTailedAlignmentGaps(
                              a, v["C"], v["beta"], v["delta_mu"], _letter_matrix(a, v))),
    "finite_spectrum": ({"L_max"}, set(), lambda a, v: spec.finite_spectrum_kernel(v["L_max"])),
    "infinite_spectrum": (set(), set(), lambda a, v: spec.infinite_spectrum_kernel()),
    "ht_gapped_spectrum": ({"C", "beta", "delta_mu"}, set(),
                           lambda a, v: spec.heavy_tailed_gapped_spectrum(
                               a.size, v["C"], v["beta"], v["delta_mu"])),
    "embedding": ({"base", "D"}, {"seed", "scale_epsilon", "k_E", "gamma"}, _embedding),
}

GENERIC_KEYS = {"family", "normalize"}

#: families whose kernels act on (left, right) sequence pairs
PAIR_FAMILIES = {"centre_justified"}


def build_kernel(alphabet: Alphabet, cfg: dict,
                 default_seed: int = 0) -> Kernel:
    """Build a kernel from a flat configuration mapping.

    ``cfg`` must contain ``family``; family-specific keys are validated
    strictly.  ``normalize = true`` wraps the result so the diagonal
    becomes one.  Wrapper families take their inner kernel's keys with
    an ``inner_`` prefix.  ``default_seed`` is the ``seed`` of a family
    whose configuration gives none.
    """
    cfg = {str(k): v for k, v in cfg.items()}
    family = cfg.get("family")
    if not family:
        raise ConfigError("kernel configuration needs a 'family' key")
    family = str(family).strip()
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"unknown kernel family {family!r} (known: {known})")
    required, optional, build = FAMILIES[family]
    inner = {k[len("inner_"):]: v for k, v in cfg.items() if k.startswith("inner_")}
    keys = {k for k in cfg if not k.startswith("inner_")} - GENERIC_KEYS
    alternatives = [key.split("|") for key in required - {"inner"}]
    unknown = keys - optional.union(*alternatives)
    if unknown:
        raise ConfigError(
            f"unknown keys for family {family!r}: {', '.join(sorted(unknown))}"
        )
    missing = {"|".join(alts) for alts in alternatives if keys.isdisjoint(alts)}
    if missing:
        raise ConfigError(
            f"family {family!r} is missing keys: {', '.join(sorted(missing))}"
        )
    for alts in alternatives:
        if len(keys.intersection(alts)) > 1:
            raise ConfigError(f"give either {' or '.join(map(repr, alts))}, not both")
    if inner and "inner" not in required:
        raise ConfigError(f"family {family!r} does not take inner_* keys")
    if "inner" in required and "family" not in inner:
        raise ConfigError(f"family {family!r} needs an 'inner_family' key")

    values = {"default_seed": default_seed,
              **{key: KEYS[key](key, value) for key, value in cfg.items() if key in keys}}
    if inner:
        values["inner"] = build_kernel(alphabet, inner, default_seed)
    kernel = build(alphabet, values)
    if "normalize" in cfg and _to_bool("normalize", cfg["normalize"]):
        kernel = kernel.normalized()
    return kernel
