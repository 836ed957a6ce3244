"""Gram matrices, kernel regression, MMD, and the flexibility diagnostic.

The diagnostic realises the Gram-matrix criterion for discrete masses:
over a growing family of finite sets ``B`` containing a target sequence,
``C = sqrt((K_B^{-1})_{target, target})`` is nondecreasing, and the
delta function at the target lives in the kernel's space iff the values
stay bounded.  Stabilising C values are evidence of flexibility;
blow-ups or singular Grams expose degenerate kernels.

A :class:`GramMatrix` pays only for the factorisations its tasks use:
construction tries one shifted Cholesky factorisation, of ``K - cI``,
which both validates ``K`` and certifies it nonsingular.  An
uncertified Gram decides its PSD and singularity rules by two more
shifted factorisations, and lets the eigenvalues decide only where
those are inconclusive.  Every factorisation is one routine, and
``REFINE_ROWS`` (128) is its one size rule: fewer rows are one LAPACK
call, and a larger matrix is factored left-looking in 64-column panels,
each shifted on its own diagonal, keeping the inverses of its diagonal
blocks and stopping at the first diagonal block that fails, so a
degenerate Gram is refused within the panel of its first failing
pivot.

Ridge fits, minimum-norm fits and the diagnostic's ``(K^-1)_tt`` are
one solve of ``(K + sI) x = b``, :meth:`GramMatrix._solve`, and ridge 0
is the minimum-norm fit.  A certified Gram of at least ``REFINE_ROWS``
rows keeps its certificate's factor ``F`` and solves by fixed-precision
iterative refinement, ``x <- x + F^-T F^-1 (b - (K + sI) x)``, which
contracts by ``(c + s) / (lambda_min - c)``, a bound that grows with
``s``; a refinement that stops contracting gives up on that system
alone, which is solved as without the factor, and the Gram keeps it.
A provably positive definite system (a certified Gram, or a shift
above the PSD rule's slack) is solved directly: by one LAPACK
``gesv`` below ``REFINE_ROWS`` rows, which is backward stable on it,
and from there on by :meth:`_ShiftedFactor.solve` on a factor of
``K + sI`` in panels.  Every other system solves by the
eigendecomposition, dropping the eigenvalues of ``K + sI`` at or below
``SINGULAR_RTOL`` times the largest, so a singular Gram still gives the
minimum-norm answer.  Eigenvalues serve the minimum eigenvalue, which
is computed only when asked for, and the inconclusive rules;
eigenvectors are computed only for the solves that need them.  The
diagnostic builds one Gram, over the largest set, and reads every
smaller set's Gram as a leading block of it, which shares the kept
factor whatever its size.

A Gram holds its entries, the kept factor of a large certified Gram
with the inverses of its 64-row diagonal blocks from construction, and
an eigendecomposition only on demand.  No factorisation writes the
entries.  One of fewer than ``REFINE_ROWS`` rows peaks at the entries,
a shifted copy, the factor and numpy's LAPACK work buffer; a larger one
at the entries, the factor and one n x 64 panel.
"""

from __future__ import annotations

import collections
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

#: the one size rule of the factorisations: at least this many rows are
#: factored in 64-column panels that keep their inverted diagonal blocks,
#: and a certified Gram keeps that factor and solves on it by refinement;
#: fewer are one LAPACK call, and each solve is one ``np.linalg.solve``.
#: A certificate, a ridge fit, a minimum-norm fit and one ``(K^-1)_tt`` of
#: a tcr-like ``imq_hamming`` Gram, 2 vCPUs, 2 BLAS threads, median of
#: 200, in us (the certificate and the ridge fit alone in brackets):
#:   rows          96         128          160          192          256
#:   refined  560 (441)   743 (605)    986 (809)  1229 (1031)  1654 (1418)
#:   direct   295 (159)   707 (408)   1054 (617)   1683 (999)  2889 (1648)
#: The four tasks cross over between 144 and 160 rows, but every further
#: solve costs a refinement O(n^2) and a direct solve O(n^3).
REFINE_ROWS = 128


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
    ``rtol``.  Otherwise positive semidefiniteness, the eigenvalue rule
    ``lambda_min >= -PSD_RTOL tr(K)``, is proved if ``K + PSD_RTOL
    tr(K) I`` factorises; only if it does not do the eigenvalues
    decide, naming the minimum one in the error.  No factorisation
    writes the entries, and a blocked one stops at its first failing
    panel (:func:`_cholesky`).

    A certified Gram of at least ``REFINE_ROWS`` rows keeps the
    certificate's factor, which :func:`_cholesky` built in panels with
    the inverses of its diagonal blocks: it holds two n x n arrays from
    construction.  :meth:`solve_ridge`, :meth:`solve_pinv` and the
    diagnostic's ``(K^-1)_tt`` are each one call of :meth:`_solve`,
    which refines on that factor without factorising again, as do the
    leading blocks; a refinement that gives up keeps the factor.  Without
    the certificate, :meth:`is_singular` tries a shifted factorisation
    first and reads the cached :attr:`eigenvalues` (no eigenvectors)
    only when that succeeds, and a solve that the PSD rule's slack does
    not prove positive definite uses the eigendecomposition :meth:`eig`,
    so every answer means what the eigenvalue rule says it means, up to
    round-off at its thresholds.  No Gram computes an eigenvalue unless
    :attr:`min_eigenvalue` or :attr:`eigenvalues` is read or a rule's
    factorisation is inconclusive.  :meth:`leading` gives the Gram of the
    first ``n`` sequences as a block of this one.

    :attr:`solve_routes`, a :class:`collections.Counter` shared with the
    leading blocks, counts each solve by the route that answered it:
    ``refined``, ``factorised`` (``gesv``, or a factor in panels, of
    ``K + sI``) or ``eigen``.  :attr:`factorisations`, shared alike,
    counts each factorisation: a Cholesky one by the key of
    :func:`_cholesky`, an eigen-solve by ``("eigh" | "eigvalsh", rows)``.
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
        factorisations = collections.Counter()
        certificate = _certificate(entries, factorisations)
        self._init(kernel, sequences, entries, certificate is not None, certificate,
                   collections.Counter(), factorisations)
        # K - sI > 0 with s > 0: certified Grams are positive definite
        if not self._certified:
            self._check_psd()

    def _init(self, kernel: Kernel, sequences: list, entries: np.ndarray,
              certified: bool, factor: Optional[_ShiftedFactor],
              solve_routes: collections.Counter, factorisations: collections.Counter) -> None:
        self.kernel = kernel
        self.sequences = list(sequences)
        self.entries = entries
        self._certified = certified
        # kept exactly when it holds inverses, from at least REFINE_ROWS rows
        self._factor = factor if factor and factor.inverses else None
        self.solve_routes = solve_routes
        self.factorisations = factorisations
        self._eig: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._blocks: dict[int, GramMatrix] = {}

    def _check_psd(self) -> None:
        """The eigenvalue rule: min eigenvalue >= -PSD_RTOL * trace.

        A factorisation of ``K + PSD_RTOL tr(K) I`` proves it; the
        eigenvalues decide only when that fails.
        """
        trace = float(np.trace(self.entries))
        slack = PSD_RTOL * max(trace, 1e-300)
        if _cholesky(self.entries, slack, "psd", self.factorisations):
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
        like the empty Gram.  The leading block of a kept factor factors
        the leading block of the Gram, so a block of any size refines on a
        view of this Gram's factor.  Otherwise a block tries its own
        certificate, keeps its factor by the rule of a whole Gram, and
        without one applies the PSD rule with its own trace, by
        factorisation and, if that fails, by eigenvalues.
        """
        if not 0 <= n <= len(self):
            raise DataError(f"a leading block of a Gram of {len(self)} cannot hold {n}")
        if n == len(self):
            return self
        if n not in self._blocks:
            K = self.entries[:n, :n]
            if n > 0 and self._certified:
                certified, factor = True, self._factor
            else:
                factor = _certificate(K, self.factorisations)
                certified = factor is not None
            block = GramMatrix.__new__(GramMatrix)
            block._init(self.kernel, self.sequences[:n], K, certified, factor,
                        self.solve_routes, self.factorisations)
            if not block._certified:
                block._check_psd()
            self._blocks[n] = block
        return self._blocks[n]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            self.factorisations["eigh", len(self)] += 1
            self._eig = np.linalg.eigh(self.entries)
        return self._eig

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order, without eigenvectors."""
        self.factorisations["eigvalsh", len(self)] += 1
        return np.linalg.eigvalsh(self.entries)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0]) if len(self) else 0.0

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
        if not _cholesky(K, -SINGULAR_RTOL * mu, "singular", self.factorisations):
            return True
        w = self.eigenvalues
        return float(w[0]) <= SINGULAR_RTOL * float(w[-1])

    def solve_ridge(self, b: np.ndarray, ridge: float) -> np.ndarray:
        """Solve ``(K + ridge I) a = b``; ridge 0 is :meth:`solve_pinv`."""
        return self._solve(b, ridge)

    def solve_pinv(self, b: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of ``K a = b``."""
        return self._solve(b, 0.0)

    def _inverse_diagonal(self, i: int) -> float:
        """``(K^-1)_ii`` of a Gram that is not singular."""
        unit = np.zeros(len(self))
        unit[i] = 1.0
        return float(self._solve(unit, 0.0)[i])

    def _solve(self, b: np.ndarray, shift: float) -> np.ndarray:
        """``(K + shift I)^-1 b``, minimum-norm where ``K + shift I`` is
        singular, by the first route that applies:

        - ``refined`` on the kept factor, if the refinement does not
          give up;
        - ``factorised`` where ``K + shift I`` is provably positive
          definite, for a certified Gram or a shift above the PSD rule's
          slack ``PSD_RTOL tr(K)``: one ``np.linalg.solve`` below
          ``REFINE_ROWS`` rows, else a factor in panels, if it factorises;
        - ``eigen``, dropping the eigenvalues of ``K + shift I`` at or
          below ``SINGULAR_RTOL`` times the largest.
        """
        b = np.asarray(b, dtype=float)
        if b.shape != (len(self),):
            raise DataError(f"a right-hand side of shape {b.shape} "
                            f"does not fit a Gram of {len(self)} rows")
        if not (math.isfinite(shift) and shift >= 0):
            raise DataError(f"ridge must be finite and nonnegative, got {shift}")
        if not np.isfinite(b).all():
            i = int(np.argmax(~np.isfinite(b)))
            raise DataError(f"right-hand side entry {i} is not finite: {b[i]}")
        K = self.entries
        if self._factor is not None:
            x = self._factor.refine(K, b, shift)
            if x is not None:
                self.solve_routes["refined"] += 1
                return x
        if self._certified or shift > PSD_RTOL * float(np.trace(K)):
            if len(K) < REFINE_ROWS:
                self.solve_routes["factorised"] += 1
                return np.linalg.solve(_shifted(K, shift), b)
            factor = _cholesky(K, shift, "solve", self.factorisations)
            if factor is not None:
                self.solve_routes["factorised"] += 1
                return factor.solve(b)
        self.solve_routes["eigen"] += 1
        w, V = self.eig()
        w = w + shift
        kept = w > SINGULAR_RTOL * w.max(initial=0.0)
        inv = np.where(kept, 1.0 / np.where(kept, w, 1.0), 0.0)
        return V @ (inv * (V.T @ b))


#: row block of the triangular solves and panel of the blocked
#: factorisation; their cost is O(n^2 + n * block^2)
_TRIANGULAR_BLOCK = 64


def _cholesky(K: np.ndarray, shift: float, purpose: str,
              record: collections.Counter) -> Optional[_ShiftedFactor]:
    """Lower Cholesky factor of ``K + shift I``, or None if it fails.

    ``K`` is only read.  Fewer than ``REFINE_ROWS`` rows are one
    ``np.linalg.cholesky`` of a shifted copy.  More are factored
    left-looking in panels of ``_TRIANGULAR_BLOCK`` columns (Golub and
    Van Loan, *Matrix Computations*, 4th ed., 4.2.9; LAPACK xPOTRF): the
    panel ``P = K[j:, j:e] - F[j:, :j] F[j:e, :j]^T`` takes the shift on
    its diagonal, its diagonal block ``D`` is factored by one call, and
    the rows below are ``P inv(D)^T``.  The first diagonal block that
    fails returns None, so a degenerate Gram is refused within the panel
    of its first failing pivot.  A panel reads only earlier columns, so
    the factor of a leading block of whole panels is the leading block of
    the factor, bit for bit; the inverted diagonal blocks are kept for
    :meth:`_ShiftedFactor.solve`.  Each call counts one ``record[purpose,
    n, blocks, succeeded]``: ``purpose`` is ``certificate``, ``psd``,
    ``singular`` or ``solve``, ``blocks`` those tried, a failing one too.
    """
    n, blocks = len(K), 1
    try:
        if n < REFINE_ROWS:
            factor = _ShiftedFactor(np.linalg.cholesky(_shifted(K, shift)))
        else:
            B = _TRIANGULAR_BLOCK
            F = np.zeros((n, n))
            inverses = []
            for blocks, lo in enumerate(range(0, n, B), start=1):
                hi = min(lo + B, n)
                P = K[lo:, lo:hi] - F[lo:, :lo] @ F[lo:hi, :lo].T
                D = P[: hi - lo]
                np.fill_diagonal(D, D.diagonal() + shift)
                F[lo:hi, lo:hi] = np.linalg.cholesky(D)
                inverses.append(np.tril(np.linalg.inv(F[lo:hi, lo:hi])))
                F[hi:, lo:hi] = P[hi - lo:] @ inverses[-1].T
            factor = _ShiftedFactor(F, inverses)
    except np.linalg.LinAlgError:
        factor = None
    record[purpose, n, blocks, factor is not None] += 1
    return factor


def _shifted(K: np.ndarray, shift: float) -> np.ndarray:
    """``K + shift I`` in a new array, or ``K`` itself for no shift."""
    if not shift:
        return K
    K = np.array(K)
    np.fill_diagonal(K, K.diagonal() + shift)
    return K


def _certificate(K: np.ndarray, record: collections.Counter) -> Optional[_ShiftedFactor]:
    """The factor of ``K - 2 SINGULAR_RTOL ||K||_inf I``, or None.

    A Gram refused here is decided by the rules of an uncertified one.
    """
    if not len(K):
        return None
    norm = float(np.abs(K).sum(axis=1).max())
    factor = _cholesky(K, -2.0 * SINGULAR_RTOL * norm, "certificate", record)
    if factor is not None:
        factor.norm = norm
    return factor


#: corrections a refinement may spend, its first solve included
_REFINE_STEPS = 10

_EPS = float(np.finfo(float).eps)


class _ShiftedFactor:
    """A lower Cholesky factor ``F`` of ``K + shift I``, from :func:`_cholesky`.

    A factor of fewer than ``REFINE_ROWS`` rows is only a pass or fail of
    the certificate, PSD and singularity rules.  One of at least
    ``REFINE_ROWS`` rows holds :attr:`inverses`, the inverted 64-row
    diagonal blocks of its panels, and :meth:`solve` multiplies by them.
    A certified Gram keeps its certificate's factor for :meth:`refine`,
    which solves ``(K + sI) x = b`` for any ``s >= 0``, with ``K`` the
    certified Gram or a leading block of it, whose factor is the leading
    block of ``F``.  Each correction costs one product with ``K`` and one
    :meth:`solve`.  No n x n array is allocated.
    """

    #: ``||K||_inf`` of the certified Gram, at least that of a block; set
    #: by :func:`_certificate`
    norm: float

    def __init__(self, F: np.ndarray, inverses: Optional[list[np.ndarray]] = None):
        self.F = F
        # the leading block of a lower triangle's inverse inverts its
        # leading block, so a truncated last block needs no inverse of its own
        self.inverses = inverses

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``(F_n F_n^T)^-1 b`` for ``F_n`` the leading n x n block of ``F``
        and ``n = len(b)``: forward and back sweeps in 64-row blocks."""
        F, B, n = self.F, _TRIANGULAR_BLOCK, len(b)
        blocks = [(lo, min(lo + B, n)) for lo in range(0, n, B)]
        diagonal = [D[: hi - lo, : hi - lo] for D, (lo, hi) in zip(self.inverses, blocks)]
        x = np.array(b, dtype=float)
        for (lo, hi), D in zip(blocks, diagonal):
            x[lo:hi] -= F[lo:hi, :lo] @ x[:lo]
            x[lo:hi] = D @ x[lo:hi]
        for (lo, hi), D in reversed(list(zip(blocks, diagonal))):
            x[lo:hi] -= F[hi:n, lo:hi].T @ x[hi:]
            x[lo:hi] = D.T @ x[lo:hi]
        return x

    def refine(self, K: np.ndarray, b: np.ndarray, s: float) -> Optional[np.ndarray]:
        """``(K + sI)^-1 b`` by fixed-precision iterative refinement, or None.

        ``x <- x + F^-T F^-1 (b - (K + sI) x)`` from ``x = 0`` contracts
        by ``(c + s) / (lambda_min - c)``.  It stops by LAPACK's xPORFS
        rule on the normwise backward error
        ``||r||_inf / ((||K||_inf + s) ||x||_inf + ||b||_inf)``: done
        once it reaches machine epsilon, given up (None) when a
        correction fails to halve it or ``_REFINE_STEPS`` are spent.
        """
        n = len(K)
        b = np.asarray(b, dtype=float)
        scale = float(np.abs(b).max())
        x = np.zeros(n)
        r = b
        last = math.inf
        for _ in range(_REFINE_STEPS):
            x += self.solve(r)
            r = b - (K @ x + s * x)
            residual = float(np.abs(r).max())
            bound = (self.norm + s) * float(np.abs(x).max()) + scale
            if residual <= _EPS * bound:
                return x
            if not 2.0 * residual <= last * bound:
                return None
            last = residual / bound
        return None


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

    Solves ``(K + ridge I) a = y`` for a finite ``ridge >= 0``; ridge 0
    is the minimum-norm least-squares fit, which is what exposes
    degenerate kernels: labels orthogonal to the Gram's column space
    simply project to zero.  :meth:`GramMatrix._solve` refuses labels not
    one per support sequence and any other ridge with :class:`DataError`.
    """
    # the same solve either way; the names let a profile tell the fits apart
    alpha = G.solve_pinv(y) if ridge == 0 else G.solve_ridge(y, ridge)
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
            raise DataError(f"target {target!r} is absent from a nested set (size {len(s)})")
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
    ``K_B`` is a leading block of it (see :meth:`GramMatrix.leading`);
    ``G``, that Gram of ``kernel``, is used as it is if given.  The
    blocks of a certified Gram that keeps its factor refine on views of
    it, so no set is factorised again.
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
    out = np.empty(len(nested_sets))
    for i, s in enumerate(nested_sets):
        B = G.leading(len(s))
        out[i] = math.inf if B.is_singular() else math.sqrt(B._inverse_diagonal(t))
    return out
