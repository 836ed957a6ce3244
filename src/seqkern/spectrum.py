"""Kmer spectrum kernels: similarity through shared substring content.

The finite spectrum kernel counts shared kmers up to a length cap and is
the classic baseline; its feature space is finite, which caps its
flexibility; its matrices are products of kmer count features.  The
infinite spectrum kernel counts shared kmers of every length (plus an
empty-kmer unit term) and coincides with a tilted local alignment
kernel whose insertions are forbidden, which is how it earns discrete
masses and an O(|x| |y|) evaluation.  Gapped kmer features
generalise substring occurrence to subsequence occurrence with a
per-gap-run weight; the heavy-tailed gapped spectrum kernel re-weights
those features with a power law in kmer length.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .alignment import (alignment_dp_R, alignment_R_pairs, local_alignment_value,
                        power_law_mixture)
from .core import HAS_MASSES, LACKS_MASSES, Kernel
from .errors import DataError
from .seqcore import PAD_CODE, Sequence, element_blocks, encode_padded


class FiniteSpectrumKernel(Kernel):
    """Shared-kmer count kernel with kmer lengths capped at ``L_max``.

    ``k(x, y) = sum_{1 <= |V| <= L_max} occ(V, x) occ(V, y)``.  The
    feature space has dimension ``sum_{l<=L_max} |B|**l``; Gram matrices
    over more sequences than that are necessarily singular.

    Matrices are products of count features, ``K = sum_l F_l F_l^T``
    with ``F_l[n, V] = occ(V, x_n)`` over the kmers ``V`` of length
    ``l`` that occur (Leslie, Eskin & Noble 2002).  Kmer ids come from
    the stop-free windows, grown one letter at a time and renumbered by
    ``np.unique`` after each, so they are exact for any length and
    alphabet.  ``F_l`` is built in column blocks under
    ``BLOCK_ELEMENTS``, so memory does not grow as n times the number of
    distinct kmers.  Every sum is an integer, so the values are exact
    and a symmetric matrix is exactly symmetric.
    """

    family = "finite_spectrum"
    mass_status = LACKS_MASSES

    def __init__(self, L_max: int):
        if L_max < 1:
            raise DataError("L_max must be >= 1")
        self.L_max = int(L_max)

    @property
    def params(self) -> dict:
        return {"L_max": self.L_max}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        total = 0
        for length in range(1, min(len(x), len(y), self.L_max) + 1):
            in_x = Counter(x.codes[p : p + length] for p in range(len(x) - length + 1))
            total += sum(in_x[y.codes[p : p + length]] for p in range(len(y) - length + 1))
        return float(total)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        seqs = xs if ys is None else xs + list(ys)
        n, total = len(xs), len(seqs)
        out = np.zeros((n, n if ys is None else total - n))
        for rows, ids, count in _kmer_windows(seqs, self.L_max):
            for blk in element_blocks(count, total):
                width = blk.stop - blk.start
                keep = (ids >= blk.start) & (ids < blk.stop)
                F = np.bincount(rows[keep] * width + (ids[keep] - blk.start),
                                minlength=total * width).reshape(total, width).astype(float)
                out += F[:n] @ (F if ys is None else F[n:]).T
        return out

    def self_similarities(self, xs) -> np.ndarray:
        """Per sequence, the sum over kmers of its squared kmer counts."""
        xs = list(xs)
        out = np.zeros(len(xs))
        for rows, ids, count in _kmer_windows(xs, self.L_max):
            # one key per (sequence, kmer); its multiplicity is the count
            keys, counts = np.unique(rows * count + ids, return_counts=True)
            out += np.bincount(keys // count, weights=counts.astype(float) ** 2,
                               minlength=len(xs))
        return out


def _kmer_windows(seqs, L_max: int):
    """``(rows, ids, count)`` for each kmer length ``l = 1 .. L_max``.

    Over the stop-free length-``l`` windows of ``seqs``: the sequence
    index of each window and its kmer id in ``[0, count)``; two windows
    share an id iff they spell the same kmer.  Stops at the first length
    no sequence reaches.
    """
    size = max((s.alphabet.size for s in seqs), default=1)
    codes = encode_padded(seqs)
    ids = np.zeros_like(codes)  # id of the window starting at each position
    for l in range(1, L_max + 1):
        rows, pos = np.nonzero(codes[:, l - 1:] != PAD_CODE)
        if not rows.size:
            return
        uniq, window_ids = np.unique(ids[rows, pos] * size + codes[rows, pos + l - 1],
                                     return_inverse=True)
        yield rows, window_ids, len(uniq)
        ids[rows, pos] = window_ids


def finite_spectrum_kernel(L_max: int) -> FiniteSpectrumKernel:
    return FiniteSpectrumKernel(L_max)


class InfiniteSpectrumKernel(Kernel):
    """Shared-kmer count kernel over kmers of every length.

    ``k(x, y) = 1 + sum_{V != empty} occ(V, x) occ(V, y)``; the unit term
    is the empty kmer's contribution, forced by the identity with the
    tilted insertion-free local alignment kernel (each shared-substring
    occurrence pair corresponds to exactly one contiguous match block,
    and the matchless alignment gives the 1).  It is computed by that
    identity: the local alignment engine with identity letters, ``mu = 0``
    and ``delta_mu = inf``, in O(|x| |y|) and exactly (every sum is an
    integer).
    """

    family = "infinite_spectrum"
    mass_status = HAS_MASSES

    def __call__(self, x: Sequence, y: Sequence) -> float:
        return local_alignment_value(x, y, np.eye(x.alphabet.size), 0.0, math.inf)

    def batch(self, seqs, i, j) -> np.ndarray:
        letters = np.eye(seqs[0].alphabet.size if seqs else 1)
        return alignment_R_pairs(seqs, i, j, letters, 0.0, math.inf, local=True)[:, 0]


def infinite_spectrum_kernel() -> InfiniteSpectrumKernel:
    return InfiniteSpectrumKernel()


@dataclass(frozen=True)
class GappedKmerIndex:
    """A strictly increasing selection of positions within ``[0, L)``.

    ``gap_runs`` counts the maximal unselected runs, including a leading
    run before the first selected position and a trailing run after the
    last one.
    """

    positions: tuple[int, ...]
    length: int

    def __post_init__(self):
        pos = self.positions
        if any(p < 0 or p >= self.length for p in pos):
            raise DataError("positions must lie in [0, length)")
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise DataError("positions must be strictly increasing")

    @property
    def gap_runs(self) -> int:
        selected = set(self.positions)
        runs = 0
        in_run = False
        for p in range(self.length):
            if p not in selected:
                if not in_run:
                    runs += 1
                in_run = True
            else:
                in_run = False
        return runs


def gapped_kmer_feature(v: Sequence, x: Sequence, zeta: float,
                        delta_mu: float, max_len: int = 8) -> float:
    """Gapped-occurrence feature of ``x`` indexed by the kmer ``v``.

    ``exp(zeta |v| / 2) * sum_J exp(-delta_mu * gap_runs(J)) 1(x_(J) = v)``
    over all increasing position selections ``J`` of size ``|v|`` in
    ``[0, |x|)``; ``delta_mu = inf`` keeps only gap-free selections.
    Exact enumeration, exponential in ``|x|``: an oracle for short
    sequences.
    """
    n = len(x)
    if n > max_len:
        raise DataError(
            f"gapped feature enumeration limited to |x| <= {max_len}, got {n}"
        )
    if len(v) > n:
        return 0.0
    total = 0.0
    target = v.codes
    for J in itertools.combinations(range(n), len(v)):
        if tuple(x.codes[j] for j in J) != target:
            continue
        g = GappedKmerIndex(J, n).gap_runs
        if delta_mu == math.inf:
            w = 1.0 if g == 0 else 0.0
        else:
            w = math.exp(-delta_mu * g)
        total += w
    return math.exp(0.5 * zeta * len(v)) * total


class HeavyTailedGappedSpectrumKernel(Kernel):
    """Gapped-kmer kernel with power-law weights in kmer length.

    ``k(x, y) = sum_V (C + (|x|+|y|)/2 - |V|)**-beta u~_V(x) u~_V(y)``
    where ``u~_V`` is the unscaled gapped-occurrence feature.  Computed
    by the match-count-resolved alignment recursion with an exact-match
    letter kernel, zero gap-extension penalty, and ``delta_mu`` as the
    per-gap-run weight; the Gamma-mixture structure over the length
    weight gives it discrete masses.
    """

    family = "ht_gapped_spectrum"
    mass_status = HAS_MASSES

    def __init__(self, alphabet_size: int, C: float, beta: float, delta_mu: float):
        if C <= 0 or beta <= 0:
            raise DataError("C and beta must be positive")
        if not (delta_mu >= 0):
            raise DataError("delta_mu must be >= 0 or inf")
        self.C = float(C)
        self.beta = float(beta)
        self.delta_mu = float(delta_mu)
        self._eye = np.eye(alphabet_size)

    @property
    def params(self) -> dict:
        return {"C": self.C, "beta": self.beta, "delta_mu": self.delta_mu}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        R = alignment_dp_R(x, y, self._eye, 0.0, self.delta_mu, "all")
        return float(self._mix(R, [len(x)], [len(y)])[0])

    def batch(self, seqs, i, j) -> np.ndarray:
        R = alignment_R_pairs(seqs, i, j, self._eye, 0.0, self.delta_mu, "all")
        n = np.array([len(s) for s in seqs])
        return self._mix(R, n[i], n[j])

    def _mix(self, R, nx, ny) -> np.ndarray:
        return power_law_mixture(R, nx, ny,
                                 lambda L, nx, ny: self.C + 0.5 * (nx + ny) - L,
                                 self.beta)


def heavy_tailed_gapped_spectrum(alphabet_size: int, C: float, beta: float,
                                 delta_mu: float) -> HeavyTailedGappedSpectrumKernel:
    return HeavyTailedGappedSpectrumKernel(alphabet_size, C, beta, delta_mu)
