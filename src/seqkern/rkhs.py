"""Gram matrices, kernel regression, MMD, and the flexibility diagnostic.

The diagnostic realises the Gram-matrix criterion for discrete masses:
over a growing family of finite sets ``B`` containing a target sequence,
``C = sqrt((K_B^{-1})_{target, target})`` is nondecreasing, and the
delta function at the target lives in the kernel's space iff the values
stay bounded.  Stabilising C values are evidence of flexibility;
blow-ups or singular Grams expose degenerate kernels.

A :class:`GramMatrix` pays only for the factorisations its tasks use:
construction tries one shifted Cholesky factorisation, which both
validates ``K`` and certifies it nonsingular; a large Gram tries its
leading quarter first, so a degenerate one is refused within its first
pivots.  An uncertified Gram decides its PSD and singularity rules by
two more shifted factorisations, and lets the eigenvalues decide only
where those are inconclusive.  Ridge fits factor once more, and
minimum-norm fits and the diagnostic use one Cholesky factor of a
certified ``K``.  Eigenvalues serve the minimum eigenvalue, which is
computed only when asked for, and the inconclusive rules; eigenvectors
are computed only for the solves that need them.  The diagnostic builds
one Gram, over the largest set, and reads every smaller set's Gram as a
leading block of it.  Triangular solves are blocked substitutions in
numpy, O(n^2) per right-hand side.

A Gram holds its entries, the cached Cholesky factor of ``K`` once a
solve or the diagnostic asks for it, and an eigendecomposition only on
demand.  A factorisation peaks at three n x n arrays: the entries, the
factor and numpy's LAPACK work buffer.  A shifted factorisation adds its
shift to the diagonal of the entries in place and writes the saved
diagonal back afterwards, so no shifted copy is made, but one Gram, and
its leading blocks, which are views of it, must not be factorised from
two threads at once.
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

    The constructor copies the entries (:func:`gram` keeps the fresh
    array of ``kernel.pairwise`` instead) and rejects non-finite and
    asymmetric ones; an exactly symmetric array is kept as it is, one
    off by round-off is averaged with its transpose.  It then tries the
    certificate: if ``K - 2 rtol ||K||_inf I`` factorises
    (``rtol = SINGULAR_RTOL``), every eigenvalue exceeds
    ``2 rtol ||K||_inf >= 2 rtol lambda_max`` up to round-off, so the
    Gram is positive definite and nonsingular at relative tolerance
    ``rtol``.  A Gram of ``_PROBE_ROWS`` rows or more first tries the
    certificate on its leading quarter, which holds whenever the whole
    one does.  Otherwise positive semidefiniteness, the eigenvalue rule
    ``lambda_min >= -PSD_RTOL tr(K)``, is proved if ``K + PSD_RTOL
    tr(K) I`` factorises; only if it does not do the eigenvalues
    decide, naming the minimum one in the error.

    A certified Gram's :meth:`is_singular`, :meth:`solve_pinv` and the
    diagnostic's ``(K^-1)_tt`` use a Cholesky factor of ``K``.  Without
    the certificate, :meth:`is_singular` tries a shifted factorisation
    first and reads the cached :attr:`eigenvalues` (no eigenvectors)
    only when that succeeds, and the solves use the eigendecomposition
    :meth:`eig`, so every answer means what the eigenvalue rule says it
    means, up to round-off at its thresholds.  No Gram computes an
    eigenvalue unless :attr:`min_eigenvalue` or :attr:`eigenvalues` is
    read or a rule's factorisation is inconclusive.  :meth:`leading`
    gives the Gram of the first ``n`` sequences as a block of this one.
    """

    def __init__(self, kernel: Kernel, sequences: list, entries: np.ndarray):
        self._adopt(kernel, sequences, np.array(entries, dtype=float))

    def _adopt(self, kernel: Kernel, sequences: list, entries: np.ndarray) -> None:
        """Validate ``entries`` and keep them, not a copy.

        The public constructor hands this its own copy; :func:`gram`
        hands it the fresh array of ``kernel.pairwise``, which nothing
        else holds.
        """
        entries = np.require(entries, dtype=float, requirements="W")
        n = len(sequences)
        if entries.shape != (n, n):
            raise DataError("Gram entries must be square over the sequences")
        if not np.isfinite(entries).all():
            i, j = np.argwhere(~np.isfinite(entries))[0]
            raise NumericalError(f"Gram entry ({i}, {j}) is not finite: {entries[i, j]}")
        if not np.array_equal(entries, entries.T):
            if np.abs(entries - entries.T).max() > 1e-12 * np.abs(entries).max():
                raise NumericalError("Gram matrix is not symmetric")
            entries = 0.5 * (entries + entries.T)
        self._init(kernel, sequences, entries, _certifies(entries))
        # K - sI > 0 with s > 0: certified Grams are positive definite
        if not self._certified:
            self._check_psd()

    def _init(self, kernel: Kernel, sequences: list, entries: np.ndarray,
              certified: bool) -> None:
        self.kernel = kernel
        self.sequences = list(sequences)
        self.entries = entries
        self._certified = certified
        self._eig: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._blocks: dict[int, GramMatrix] = {}

    def _check_psd(self) -> None:
        """The eigenvalue rule: min eigenvalue >= -PSD_RTOL * trace.

        A factorisation of ``K + PSD_RTOL tr(K) I`` proves it; the
        eigenvalues decide only when that fails.
        """
        trace = float(np.trace(self.entries))
        slack = PSD_RTOL * max(trace, 1e-300)
        if _factorises(self.entries, slack):
            return
        if self.min_eigenvalue < -slack:
            raise NumericalError(
                f"Gram matrix is not positive semidefinite "
                f"(min eigenvalue {self.min_eigenvalue:.3e}, trace {trace:.3e})"
            )

    def __len__(self) -> int:
        return len(self.sequences)

    def leading(self, n: int) -> "GramMatrix":
        """The Gram of the first ``n`` sequences: a leading block, cached.

        A block keeps the checks its own construction would make.  The
        nonempty blocks of a certified Gram are certified too: by Cauchy
        interlacing ``lambda_min(K_B) >= lambda_min(K)``, and
        ``||K_B||_inf <= ||K||_inf``; the empty block is uncertified,
        like the empty Gram.  Otherwise a block tries its own
        certificate, and without one applies the PSD rule with its own
        trace, by factorisation and, if that fails, by eigenvalues.
        """
        if not 0 <= n <= len(self):
            raise DataError(f"a leading block of a Gram of {len(self)} cannot hold {n}")
        if n == len(self):
            return self
        if n not in self._blocks:
            K = self.entries[:n, :n]
            block = GramMatrix.__new__(GramMatrix)
            block._init(self.kernel, self.sequences[:n], K,
                        (n > 0 and self._certified) or _certifies(K))
            if not block._certified:
                block._check_psd()
            self._blocks[n] = block
        return self._blocks[n]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            w, V = np.linalg.eigh(self.entries)
            self._eig = (w, V)
        return self._eig

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order, without eigenvectors."""
        return np.linalg.eigvalsh(self.entries)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0]) if len(self) else 0.0

    @functools.cached_property
    def _certified_factor(self) -> Optional[np.ndarray]:
        """Cholesky factor of ``K`` if the certificate holds, else None."""
        return _cholesky(self.entries, 0.0) if self._certified else None

    def is_singular(self) -> bool:
        """The eigenvalue rule: ``lambda_min <= SINGULAR_RTOL lambda_max``.

        A certified Gram is not singular.  Otherwise, with ``mu`` the
        larger of the largest diagonal entry and the mean row sum, both
        at most ``lambda_max``, a failed factorisation of
        ``K - SINGULAR_RTOL mu I`` proves the Gram singular, as does one
        of a leading block by Cauchy interlacing; the eigenvalues decide
        only when it succeeds.
        """
        if self._certified:
            return False
        K = self.entries
        if not len(K):
            return True
        mu = max(float(K.diagonal().max()), float(K.sum()) / len(K))
        if not _factorises(K, -SINGULAR_RTOL * mu):
            return True
        w = self.eigenvalues
        return float(w[0]) <= SINGULAR_RTOL * float(w[-1])

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
            return float(_leading_inverse_diagonals(L, i)[-1])
        w, V = self.eig()
        return float((V[i] ** 2 / w).sum())


#: row block of the triangular solves; their cost is O(n^2 + n * block^2)
_TRIANGULAR_BLOCK = 64


def _cholesky(K: np.ndarray, shift: float) -> Optional[np.ndarray]:
    """Lower Cholesky factor of ``K + shift I``, or None if it fails.

    A nonzero shift is added to ``K``'s diagonal in place, and the saved
    diagonal is written back however the factorisation ends, so ``K``
    (a Gram's entries, or a leading block of them) is left bit for bit
    as it was and no shifted copy is made.
    """
    diagonal = K.diagonal().copy() if shift else None
    try:
        if shift:
            np.fill_diagonal(K, diagonal + shift)
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None
    finally:
        if shift:
            np.fill_diagonal(K, diagonal)


#: a shifted factorisation of at least this many rows first tries its
#: leading quarter
_PROBE_ROWS = 256


def _certifies(K: np.ndarray) -> bool:
    """Whether ``K - 2 SINGULAR_RTOL ||K||_inf I`` factorises.

    A Gram refused here is decided by the rules of an uncertified one.
    """
    if not len(K):
        return False
    norm = float(np.abs(K).sum(axis=1).max())
    return _factorises(K, -2.0 * SINGULAR_RTOL * norm)


def _factorises(K: np.ndarray, shift: float) -> bool:
    """Whether ``K + shift I`` factorises, its leading quarter tried first.

    Every leading block of a positive definite matrix is positive
    definite, so a matrix of at least ``_PROBE_ROWS`` rows first tries
    its leading quarter under the same shift, and so on down: a
    degenerate Gram is refused within the block where its first pivots
    fail, and one that factorises pays about 1/64 more factorisation
    work.  A probe rounds differently from the whole factorisation, so
    near the margin it can refuse a matrix the whole would factorise,
    never the reverse.
    """
    n = len(K)
    if n >= _PROBE_ROWS and not _factorises(K[: n // 4, : n // 4], shift):
        return False
    return _cholesky(K, shift) is not None


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^-1 b`` by blocked forward substitution."""
    x = np.array(b, dtype=float)
    for lo in range(0, len(L), _TRIANGULAR_BLOCK):
        hi = lo + _TRIANGULAR_BLOCK
        x[lo:hi] -= L[lo:hi, :lo] @ x[:lo]
        x[lo:hi] = np.linalg.solve(L[lo:hi, lo:hi], x[lo:hi])
    return x


def _leading_inverse_diagonals(L: np.ndarray, i: int) -> np.ndarray:
    """``(K_n^-1)_ii`` for ``n = i + 1, ..., len(L)``, where ``K = L L^T``.

    ``K_n``, the leading n x n block of ``K``, is factored by the leading
    block of ``L``, and rows above ``i`` of ``L^-1 e_i`` vanish, so one
    solve gives every value as a running sum of squares.
    """
    unit = np.zeros(len(L) - i)
    unit[0] = 1.0
    return np.cumsum(_solve_lower(L[i:, i:], unit) ** 2)


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
    G = GramMatrix.__new__(GramMatrix)
    G._adopt(kernel, sequences, kernel.pairwise(sequences))
    return G


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


def nested_order(target, nested_sets) -> list:
    """The largest of the nested sets, ordered so every set is a prefix.

    Each set's new sequences follow those of its predecessor, in the
    order the set lists them, so the Gram over the result holds every
    set's Gram as a leading block.  Raises :class:`DataError` unless
    every set contains the target, repeats no sequence, and strictly
    contains its predecessor.
    """
    order: list = []
    prev: set = set()
    for s in nested_sets:
        s = list(s)
        cur = set(s)
        if target not in cur:
            raise DataError("every nested set must contain the target sequence")
        if len(cur) != len(s):
            raise DataError("a nested set lists a sequence twice")
        if not prev < cur:
            raise DataError("sets must be strictly growing supersets")
        order += [x for x in s if x not in prev]
        prev = cur
    return order


def discrete_mass_diagnostic(kernel: Kernel, target, nested_sets,
                             G: Optional[GramMatrix] = None) -> np.ndarray:
    """C values of the Gram-matrix flexibility criterion over nested sets.

    For each set ``B`` (each containing the target, each containing its
    predecessor) returns ``sqrt((K_B^{-1})_{target, target})``, or
    ``inf`` where the Gram matrix is numerically singular.  The finite
    values are nondecreasing; a stabilising sequence is desk-scale
    evidence that the delta function at the target has finite norm.

    One Gram is built, over :func:`nested_order` of the sets, and each
    ``K_B`` is a leading block of it; ``G``, that Gram of ``kernel``, is
    used as it is if given.  When ``G`` is certified, one Cholesky factor
    ``L`` and one triangular solve give every value: with
    ``z = L^-1 e_t``, ``(K_B^-1)_tt`` is the sum of the first
    ``|B| - t`` terms of ``z**2``.  Otherwise each block decides for
    itself (see :meth:`GramMatrix.leading`).
    """
    nested_sets = [list(s) for s in nested_sets]
    order = nested_order(target, nested_sets)
    if not nested_sets:
        return np.empty(0)
    if G is None:
        G = gram(kernel, order)
    elif G.kernel is not kernel:
        raise DataError("the given Gram matrix belongs to another kernel")
    elif G.sequences != order:
        raise DataError("the given Gram matrix is not over the nested order of the sets")
    t = order.index(target)
    sizes = [len(s) for s in nested_sets]
    L = G._certified_factor
    if L is not None:
        return np.sqrt(_leading_inverse_diagonals(L, t)[np.array(sizes) - t - 1])
    out = np.empty(len(sizes))
    for i, n in enumerate(sizes):
        B = G.leading(n)
        out[i] = math.inf if B.is_singular() else math.sqrt(B._inverse_diagonal(t))
    return out
