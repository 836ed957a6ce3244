"""Gram matrices, kernel regression, MMD, and the flexibility diagnostic.

The diagnostic realises the Gram-matrix criterion for discrete masses:
over a growing family of finite sets ``B`` containing a target sequence,
``C = sqrt((K_B^{-1})_{target, target})`` is nondecreasing, and the
delta function at the target lives in the kernel's space iff the values
stay bounded.  Stabilising C values are evidence of flexibility;
blow-ups or singular Grams expose degenerate kernels.

A :class:`GramMatrix` pays only for the factorisations its tasks use:
validation is one Cholesky factorisation, ridge fits another, and
minimum-norm fits and the diagnostic use a Cholesky factor of ``K``
whenever a shifted factorisation certifies that ``K`` is nonsingular
at their tolerance.  The eigendecomposition runs when validation or the
certificate fails, or when a caller asks for it.  Triangular solves are
blocked substitutions in numpy, O(n^2) per right-hand side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence as Seq

import numpy as np

from .core import Kernel
from .errors import DataError, NumericalError

#: relative eigenvalue floor below which a Gram matrix counts as
#: singular; the minimum-norm solve drops eigenvalues below it too
SINGULAR_RTOL = 1e-10

#: PSD validation slack: smallest eigenvalue >= -PSD_RTOL * trace
PSD_RTOL = 1e-8


class GramMatrix:
    """Dense symmetric PSD matrix of pairwise kernel values.

    Construction rejects non-finite and asymmetric entries and checks
    positive semidefiniteness (to round-off) with one Cholesky
    factorisation of ``K + PSD_RTOL tr(K) I``.  Only when that fails
    does the eigendecomposition decide, and name the minimum eigenvalue
    in the error; otherwise it is computed on demand and cached.

    Solves avoid it where a Cholesky certificate allows.  If
    ``K - 2 rtol ||K||_inf I`` factorises (``rtol = SINGULAR_RTOL``),
    every eigenvalue exceeds ``2 rtol ||K||_inf >= 2 rtol lambda_max``
    up to round-off, so the Gram is nonsingular at relative tolerance
    ``rtol``:
    :meth:`is_singular`, :meth:`solve_pinv` and the diagnostic's
    ``(K^-1)_tt`` then use a Cholesky factor of ``K``.  Without the
    certificate they use the eigendecomposition, so every answer means
    what the eigenvalue rule says it means.
    """

    def __init__(self, kernel: Kernel, sequences: list, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        n = len(sequences)
        if entries.shape != (n, n):
            raise DataError("Gram entries must be square over the sequences")
        if not np.isfinite(entries).all():
            i, j = np.argwhere(~np.isfinite(entries))[0]
            raise NumericalError(f"Gram entry ({i}, {j}) is not finite: {entries[i, j]}")
        scale = np.abs(entries).max() if n else 0.0
        if scale and np.abs(entries - entries.T).max() > 1e-12 * scale:
            raise NumericalError("Gram matrix is not symmetric")
        entries = 0.5 * (entries + entries.T)
        self.kernel = kernel
        self.sequences = list(sequences)
        self.entries = entries
        self._eig: Optional[tuple[np.ndarray, np.ndarray]] = None
        tr = float(np.trace(entries))
        slack = PSD_RTOL * max(tr, 1e-300)
        if n and _cholesky(entries, slack) is None and self.eig()[0].min() < -slack:
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

    @functools.cached_property
    def _certified_factor(self) -> Optional[np.ndarray]:
        """Cholesky factor of ``K`` if the certificate holds, else None."""
        n = len(self)
        norm = float(np.abs(self.entries).sum(axis=1).max()) if n else 0.0
        if n and _cholesky(self.entries, -2.0 * SINGULAR_RTOL * norm) is not None:
            return _cholesky(self.entries, 0.0)
        return None

    def is_singular(self) -> bool:
        if self._certified_factor is not None:
            return False
        w, _ = self.eig()
        wmax = float(w.max()) if len(self) else 0.0
        return wmax <= 0.0 or float(w.min()) <= SINGULAR_RTOL * wmax

    def solve_ridge(self, b: np.ndarray, ridge: float) -> np.ndarray:
        """Solve ``(K + ridge I) a = b`` by Cholesky with jitter escalation."""
        K = self.entries
        tr = max(float(np.trace(K)), 1e-300)
        jitter = 0.0
        while True:
            L = _cholesky(K, ridge + jitter)
            if L is not None:
                return _cholesky_solve(L, b)
            jitter = 1e-12 * tr if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-6 * tr:
                break
        # eigendecomposition fallback
        w, V = self.eig()
        w = np.maximum(w + ridge, 0.0)
        inv = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), 0.0)
        return V @ (inv * (V.T @ b))

    def solve_pinv(self, b: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of ``K a = b``."""
        L = self._certified_factor
        if L is not None:
            return _cholesky_solve(L, b)
        w, V = self.eig()
        wmax = float(w.max()) if len(self) else 0.0
        cut = SINGULAR_RTOL * max(wmax, 1e-300)
        inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
        return V @ (inv * (V.T @ b))

    def _inverse_diagonal(self, i: int) -> float:
        """``(K^-1)_ii`` of a Gram that is not singular."""
        L = self._certified_factor
        if L is not None:
            # rows above i of L^-1 e_i vanish
            unit = np.zeros(len(self) - i)
            unit[0] = 1.0
            z = _solve_lower(L[i:, i:], unit)
            return float(z @ z)
        w, V = self.eig()
        return float((V[i] ** 2 / w).sum())


#: row block of the triangular solves; their cost is O(n^2 + n * block^2)
_TRIANGULAR_BLOCK = 64


def _cholesky(K: np.ndarray, shift: float) -> Optional[np.ndarray]:
    """Lower Cholesky factor of ``K + shift I``, or None if it fails."""
    M = K.copy()
    M.flat[:: len(K) + 1] += shift
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^-1 b`` by blocked forward substitution."""
    x = np.array(b, dtype=float)
    for lo in range(0, len(L), _TRIANGULAR_BLOCK):
        hi = lo + _TRIANGULAR_BLOCK
        x[lo:hi] -= L[lo:hi, :lo] @ x[:lo]
        x[lo:hi] = np.linalg.solve(L[lo:hi, lo:hi], x[lo:hi])
    return x


def _solve_upper(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^-T b`` by blocked back substitution."""
    x = np.array(b, dtype=float)
    for hi in range(len(L), 0, -_TRIANGULAR_BLOCK):
        lo = max(hi - _TRIANGULAR_BLOCK, 0)
        x[lo:hi] -= L[hi:, lo:hi].T @ x[hi:]
        x[lo:hi] = np.linalg.solve(L[lo:hi, lo:hi].T, x[lo:hi])
    return x


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(L L^T)^-1 b`` in O(n^2) work."""
    return _solve_upper(L, _solve_lower(L, b))


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

    A set may also be given as a :class:`GramMatrix` of ``kernel`` over
    it, which is used as it is instead of being built again.
    """
    grams = [s if isinstance(s, GramMatrix) else None for s in nested_sets]
    nested_sets = [g.sequences if g is not None else list(s)
                   for g, s in zip(grams, nested_sets)]
    if any(g is not None and g.kernel is not kernel for g in grams):
        raise DataError("a given Gram matrix belongs to another kernel")
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
        G = grams[i] if grams[i] is not None else gram(kernel, s)
        if G.is_singular():
            out[i] = math.inf
            continue
        out[i] = math.sqrt(G._inverse_diagonal(s.index(target)))
    return out
