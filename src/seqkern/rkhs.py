"""Gram matrices, kernel regression, MMD, and the flexibility diagnostic.

The diagnostic realises the Gram-matrix criterion for discrete masses:
over a growing family of finite sets ``B`` containing a target sequence,
``C = sqrt((K_B^{-1})_{target, target})`` is nondecreasing, and the
delta function at the target lives in the kernel's space iff the values
stay bounded.  Stabilising C values are evidence of flexibility;
blow-ups or singular Grams expose degenerate kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence as Seq

import numpy as np

from .core import Kernel
from .errors import DataError, NumericalError

#: relative eigenvalue floor below which a Gram matrix counts as singular
SINGULAR_RTOL = 1e-10

#: relative cutoff for the minimum-norm pseudo-inverse solve
PINV_RTOL = 1e-10

#: PSD validation slack: smallest eigenvalue >= -PSD_RTOL * trace
PSD_RTOL = 1e-8


class GramMatrix:
    """Dense symmetric PSD matrix of pairwise kernel values.

    Validates symmetry and positive semidefiniteness (to round-off) at
    construction and caches the eigendecomposition for solves.
    """

    def __init__(self, kernel: Kernel, sequences: list, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        n = len(sequences)
        if entries.shape != (n, n):
            raise DataError("Gram entries must be square over the sequences")
        scale = np.abs(entries).max() if n else 0.0
        if scale and np.abs(entries - entries.T).max() > 1e-12 * scale:
            raise NumericalError("Gram matrix is not symmetric")
        entries = 0.5 * (entries + entries.T)
        self.kernel = kernel
        self.sequences = list(sequences)
        self.entries = entries
        self._eig: Optional[tuple[np.ndarray, np.ndarray]] = None
        tr = float(np.trace(entries))
        if n and self.eig()[0].min() < -PSD_RTOL * max(tr, 1e-300):
            raise NumericalError(
                f"Gram matrix is not positive semidefinite "
                f"(min eigenvalue {self.eig()[0].min():.3e}, trace {tr:.3e})"
            )

    def __len__(self) -> int:
        return len(self.sequences)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            w, V = np.linalg.eigh(self.entries)
            self._eig = (w, V)
        return self._eig

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eig()[0].min()) if len(self) else 0.0

    def is_singular(self, rtol: float = SINGULAR_RTOL) -> bool:
        w, _ = self.eig()
        wmax = float(w.max()) if len(self) else 0.0
        return wmax <= 0.0 or float(w.min()) <= rtol * wmax

    def solve_ridge(self, b: np.ndarray, ridge: float) -> np.ndarray:
        """Solve ``(K + ridge I) a = b`` by Cholesky with jitter escalation."""
        K = self.entries
        n = len(self)
        tr = max(float(np.trace(K)), 1e-300)
        jitter = 0.0
        while True:
            try:
                L = np.linalg.cholesky(K + (ridge + jitter) * np.eye(n))
                z = np.linalg.solve(L, b)
                return np.linalg.solve(L.T, z)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * tr if jitter == 0.0 else jitter * 10.0
                if jitter > 1e-6 * tr:
                    break
        # eigendecomposition fallback
        w, V = self.eig()
        w = np.maximum(w + ridge, 0.0)
        inv = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), 0.0)
        return V @ (inv * (V.T @ b))

    def solve_pinv(self, b: np.ndarray, rtol: float = PINV_RTOL) -> np.ndarray:
        """Minimum-norm least-squares solution of ``K a = b``."""
        w, V = self.eig()
        wmax = float(w.max()) if len(self) else 0.0
        cut = rtol * max(wmax, 1e-300)
        inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
        return V @ (inv * (V.T @ b))


def gram(kernel: Kernel, sequences: Seq) -> GramMatrix:
    """Assemble and validate the Gram matrix over distinct sequences."""
    sequences = list(sequences)
    if len(set(sequences)) != len(sequences):
        raise DataError("gram() requires distinct sequences")
    return GramMatrix(kernel, sequences, kernel.pairwise(sequences))


@dataclass
class RegressionFit:
    """Kernel (ridge) regression coefficients over a support set."""

    kernel: Kernel
    support: list
    coefficients: np.ndarray
    ridge: float

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (len(self.support),):
            raise DataError("one coefficient per support sequence required")


def fit_regression(G: GramMatrix, y: np.ndarray, ridge: float = 0.0) -> RegressionFit:
    """Fit ``f = sum_n a_n k(s_n, .)`` to labels ``y``.

    ``ridge > 0`` solves ``(K + ridge I) a = y``; ``ridge = 0`` returns
    the minimum-norm least-squares coefficients, which is what exposes
    degenerate kernels: labels orthogonal to the Gram's column space
    simply project to zero.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (len(G),):
        raise DataError("label vector must match the Gram dimension")
    if ridge < 0:
        raise DataError("ridge must be nonnegative")
    if ridge > 0:
        alpha = G.solve_ridge(y, ridge)
    else:
        alpha = G.solve_pinv(y)
    return RegressionFit(G.kernel, G.sequences, alpha, ridge)


def predict(fit: RegressionFit, x) -> float:
    """Evaluate the fitted function at one sequence."""
    return float(predict_many(fit, [x])[0])


def predict_many(fit: RegressionFit, xs) -> np.ndarray:
    k = fit.kernel.pairwise(list(xs), fit.support)
    return k @ fit.coefficients


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted finite collection of sequences.

    Probability measures carry weights summing to one; signed weights are
    allowed internally (differences of measures).
    """

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.atoms),):
            raise DataError("one weight per atom required")
        if not np.all(np.isfinite(w)):
            raise DataError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, sequences) -> "EmpiricalMeasure":
        sequences = tuple(sequences)
        if not sequences:
            raise DataError("empirical measure needs at least one atom")
        return cls(sequences, np.full(len(sequences), 1.0 / len(sequences)))

    @classmethod
    def point(cls, x) -> "EmpiricalMeasure":
        return cls((x,), np.array([1.0]))

    def __len__(self) -> int:
        return len(self.atoms)


def mmd(kernel: Kernel, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Maximum mean discrepancy between two empirical measures.

    ``sqrt(E_mumu k + E_nunu k - 2 E_munu k)`` with the square clamped at
    zero against round-off.  Zero for equal measures; for degenerate
    kernels it can also vanish on genuinely different measures, which is
    exactly the failure mode the flexible kernels rule out.
    """
    a = list(mu.atoms)
    b = list(nu.atoms)
    K_aa = kernel.pairwise(a)
    K_bb = kernel.pairwise(b)
    K_ab = kernel.pairwise(a, b)
    wa, wb = mu.weights, nu.weights
    m2 = wa @ K_aa @ wa + wb @ K_bb @ wb - 2.0 * (wa @ K_ab @ wb)
    return math.sqrt(max(float(m2), 0.0))


def discrete_mass_diagnostic(kernel: Kernel, target, nested_sets) -> np.ndarray:
    """C values of the Gram-matrix flexibility criterion over nested sets.

    For each set ``B`` (each containing the target, each containing its
    predecessor) returns ``sqrt((K_B^{-1})_{target, target})``, or
    ``inf`` where the Gram matrix is numerically singular.  The finite
    values are nondecreasing; a stabilising sequence is desk-scale
    evidence that the delta function at the target has finite norm.
    """
    nested_sets = [list(s) for s in nested_sets]
    prev: set = set()
    for i, s in enumerate(nested_sets):
        if target not in s:
            raise DataError("every nested set must contain the target sequence")
        cur = set(s)
        if not prev.issubset(cur) or (i > 0 and len(cur) <= len(prev)):
            raise DataError("sets must be strictly growing supersets")
        prev = cur
    out = np.empty(len(nested_sets))
    for i, s in enumerate(nested_sets):
        G = gram(kernel, s)
        if G.is_singular():
            out[i] = math.inf
            continue
        idx = s.index(target)
        w, V = G.eig()
        out[i] = math.sqrt(float((V[idx] ** 2 / w).sum()))
    return out
