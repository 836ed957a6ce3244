"""Position-wise comparison kernels.

Two groups live here: classic kernels that compare sequences position by
position but have limited flexibility (the weighted-degree / lag-L
Hamming kernel), and their flexible replacements built from the same
notion of similarity (exponential Hamming, inverse-multiquadric Hamming,
centre-justified and shifted variants).

Matrices of the position-wise kernels are assembled without an
``n x m x width`` temporary: Hamming-type kernels sum a letter table
over stop-padded positions as BLAS products of one-hot encodings (a
mismatch table counts Hamming distances exactly; a log letter table
gives the products), in blocks of positions under ``BLOCK_ELEMENTS``.
The two window kernels (weighted degree and lag-L Hamming) give every
stop-padded L-window an exact integer id and count equal ids one
position at a time; for the lag kernel stop is a letter, for the
weighted degree a window reaching past its sequence matches nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .alignment import check_positive, checked_letter_matrix, exponential_letter_matrix
from .core import (
    HAS_MASSES,
    LACKS_MASSES,
    Kernel,
    tensor_kernel,
)
from .errors import DataError
from .seqcore import PAD_CODE, Alphabet, Sequence, element_blocks, encode_padded


class LetterKernel:
    """A strictly positive-definite similarity on letters plus stop.

    Holds the ``|B| x |B|`` letter matrix, the letter-vs-stop column, and
    fixes ``k(stop, stop) = 1``.  Strict positive definiteness of the
    extended ``(|B|+1)``-dimensional matrix is required; it is what makes
    the induced position-wise product kernel fully flexible.
    """

    def __init__(self, alphabet: Alphabet, matrix, stop_row=None):
        n = alphabet.size
        t = np.zeros(n) if stop_row is None else np.asarray(stop_row, dtype=float)
        if t.shape != (n,):
            raise DataError("stop row must have one entry per letter")
        try:
            ext = np.block([[np.asarray(matrix, dtype=float), t[:, None]], [t, 1.0]])
        except ValueError:
            raise DataError(f"letter matrix must be {n}x{n}")
        self.alphabet = alphabet
        self.extended = checked_letter_matrix(ext, n + 1)
        self.matrix = self.extended[:n, :n]
        self.stop_row = t

    @classmethod
    def exponential(cls, alphabet: Alphabet, lam: float) -> "LetterKernel":
        """Mismatch kernel ``exp(-lam * 1(b != b'))`` with stop as a letter."""
        check_positive(**{"lambda": lam})
        n = alphabet.size
        return cls(alphabet, exponential_letter_matrix(n, lam),
                   stop_row=np.full(n, math.exp(-lam)))

    def value(self, a: int, b: int) -> float:
        """Evaluate on letter codes; ``PAD_CODE`` stands for stop."""
        ext = self.extended
        n = self.alphabet.size
        ia = n if a == PAD_CODE else a
        ib = n if b == PAD_CODE else b
        return ext[ia, ib]


class WeightedDegreeKernel(Kernel):
    """Count of positions where two sequences share the same L-mer.

    ``k(x, y) = #{l : x[l:l+L] == y[l:l+L], both windows inside}``.  For
    ``L = 1`` this equals ``max(|x|,|y|) - d_H(x,y)``.  The feature space
    is indexed by (position, L-mer) pairs; windows overlapping the stop
    padding match nothing.  The kernel is a useful similarity but a
    degenerate one: averages of its features over certain sequence sets
    coincide, so it cannot represent arbitrary functions or distinguish
    arbitrary distributions.
    """

    family = "weighted_degree"
    mass_status = LACKS_MASSES

    def __init__(self, L: int):
        if L < 1:
            raise DataError("window length L must be >= 1")
        self.L = int(L)

    @property
    def params(self) -> dict:
        return {"L": self.L}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        L = self.L
        n = min(len(x), len(y)) - L + 1
        count = 0
        for l in range(max(n, 0)):
            if x.codes[l : l + L] == y.codes[l : l + L]:
                count += 1
        return float(count)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        ys_ = xs if ys is None else list(ys)
        ix, iy = _window_ids(xs, ys, self.L)
        nwin = max(ix.shape[1] - self.L + 1, 0)
        # windows reaching past their sequence match nothing: -1 on the
        # left, -2 on the right
        end = np.arange(nwin) + self.L
        ix = np.where(end <= np.array([len(s) for s in xs])[:, None], ix[:, :nwin], -1)
        iy = np.where(end <= np.array([len(s) for s in ys_])[:, None], iy[:, :nwin], -2)
        return _count_equal(ix, iy).astype(float)

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x)``: every window inside ``x`` matches itself."""
        lengths = np.array([len(s) for s in xs], dtype=float)
        return np.maximum(lengths - (self.L - 1), 0.0)


def _window_ids(xs, ys, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the stop-padded L-windows of ``xs`` and ``ys`` (``xs``
    again when ``None``) at every position below the longest length.

    Two windows share an id iff they are equal as strings over the
    letters plus stop.  Ids grow one letter at a time and are renumbered
    after each, so they stay below the number of windows and are exact
    for any ``L`` and alphabet.
    """
    xs = list(xs)
    seqs = xs + ([] if ys is None else list(ys))
    size = max((s.alphabet.size for s in seqs), default=0)
    cx, cy = _stop_coded(xs, ys, size)
    codes = cx if ys is None else np.vstack([cx, cy])
    width = codes.shape[1]
    codes = np.pad(codes, ((0, 0), (0, L - 1)), constant_values=size)
    ids = codes[:, :width]
    for t in range(1, L):
        ids = ids * (size + 1) + codes[:, t : t + width]
        ids = np.unique(ids.ravel(), return_inverse=True)[1].reshape(ids.shape)
    return (ids, ids) if ys is None else (ids[: len(xs)], ids[len(xs):])


def _count_equal(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """``out[i, j] = #{l : ix[i, l] == iy[j, l]}``, one position at a time."""
    out = np.zeros((len(ix), len(iy)), dtype=np.int32)
    for l in range(ix.shape[1]):
        out += ix[:, l, None] == iy[None, :, l]
    return out


def weighted_degree_kernel(L: int) -> WeightedDegreeKernel:
    return WeightedDegreeKernel(L)


class BasePositionwiseKernel(Kernel):
    """Product of a letter kernel over stop-padded positions.

    ``k(x, y) = prod_l k_s(x_(l), y_(l))``; the product truncates at
    ``max(|x|, |y|)`` because ``k_s(stop, stop) = 1``.  Strict positive
    definiteness of the letter kernel gives the product kernel discrete
    masses.
    """

    family = "base_positionwise"
    mass_status = HAS_MASSES

    def __init__(self, letter_kernel: LetterKernel):
        self.letter_kernel = letter_kernel

    @property
    def params(self) -> dict:
        return {"alphabet": "".join(self.letter_kernel.alphabet.letters)}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        lk = self.letter_kernel
        n = max(len(x), len(y))
        v = 1.0
        for l in range(n):
            a = x.codes[l] if l < len(x) else PAD_CODE
            b = y.codes[l] if l < len(y) else PAD_CODE
            v *= lk.value(a, b)
        return v

    def pairwise(self, xs, ys=None) -> np.ndarray:
        ext = self.letter_kernel.extended
        cx, cy = _stop_coded(xs, ys, self.letter_kernel.alphabet.size)
        mag = np.abs(ext)
        out = _position_sum(cx, cy, np.log(np.where(mag > 0, mag, 1.0)))
        np.exp(out, out=out)
        # the log table drops zeros and signs; their counts are exact
        if (ext == 0).any():
            out[_position_sum(cx, cy, (ext == 0).astype(float)) > 0] = 0.0
        if (ext < 0).any():
            out[_position_sum(cx, cy, (ext < 0).astype(float)) % 2 == 1] *= -1.0
        return out

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x)``: the letter diagonal multiplied over positions left
        to right, as the scalar call does; stop pads multiply by
        ``k_s(stop, stop) = 1``, which is exact."""
        cx, _ = _stop_coded(xs, None, self.letter_kernel.alphabet.size)
        factors = np.diag(self.letter_kernel.extended)[cx]
        out = np.ones(len(cx))
        for l in range(cx.shape[1]):
            out *= factors[:, l]
        return out


def _stop_coded(xs, ys, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Letter codes of ``xs`` and ``ys`` (``xs`` again when ``None``) at
    one common width, with the stop symbol as code ``size``."""
    xs = list(xs)
    ys_ = xs if ys is None else list(ys)
    width = max(map(len, xs + ys_), default=0)
    cx = encode_padded(xs, width, pad=size)
    cy = cx if ys is None else encode_padded(ys_, width, pad=size)
    return cx, cy


def _position_sum(cx: np.ndarray, cy: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``S[i, j] = sum_l table[cx[i, l], cy[j, l]]`` over equally wide codes.

    Each block of positions is one BLAS product: the rows of ``table``
    picked by ``cx`` (one-hot of ``cx`` times ``table``) against the
    one-hot encoding of ``cy``.  No ``n x m x width`` array is formed;
    blocks of positions keep both encodings under ``BLOCK_ELEMENTS``.
    Positions past both sequences add ``table[stop, stop]``, so callers
    keep that entry 0.  Sums of small integers are exact.
    """
    n, m, size = len(cx), len(cy), len(table)
    onehot = np.eye(size)
    out = np.zeros((n, m))
    for blk in element_blocks(cx.shape[1], max(n, m) * size):
        cols = (blk.stop - blk.start) * size
        hx = table[cx[:, blk]].reshape(n, cols)
        hy = onehot[cy[:, blk]].reshape(m, cols)
        out += hx @ hy.T
    return out


def base_positionwise_kernel(letter_kernel: LetterKernel) -> BasePositionwiseKernel:
    return BasePositionwiseKernel(letter_kernel)


class ExpHammingKernel(BasePositionwiseKernel):
    """``exp(-lam * d_H(x, y))``: the mismatch-rate position-wise kernel."""

    family = "exp_hamming"
    mass_status = HAS_MASSES

    def __init__(self, alphabet: Alphabet, lam: float):
        super().__init__(LetterKernel.exponential(alphabet, lam))
        self.lam = float(lam)

    @property
    def params(self) -> dict:
        return {"lambda": self.lam}


def exp_hamming_kernel(alphabet: Alphabet, lam: float) -> ExpHammingKernel:
    return ExpHammingKernel(alphabet, lam)


class ImqHammingKernel(Kernel):
    """Inverse-multiquadric Hamming kernel ``(C + d_H(x, y))**-beta``.

    The same similarity as the exponential Hamming kernel, but with a
    power-law (heavy) tail in the Hamming distance: the closed form of a
    Gamma-weighted mixture of exponential Hamming kernels over all
    mismatch rates.  Heavy tails avoid diagonal dominance, and the
    mixture contains arbitrarily flexible members, so the kernel keeps
    discrete masses.
    """

    family = "imq_hamming"
    mass_status = HAS_MASSES

    def __init__(self, C: float = 1.0, beta: float = 2.0):
        check_positive(C=C, beta=beta)
        self.C = float(C)
        self.beta = float(beta)

    @property
    def params(self) -> dict:
        return {"C": self.C, "beta": self.beta}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        m = min(len(x), len(y))
        d = max(len(x), len(y)) - m
        d += sum(a != b for a, b in zip(x.codes[:m], y.codes[:m]))
        return (self.C + d) ** -self.beta

    def pairwise(self, xs, ys=None) -> np.ndarray:
        d = _hamming_matrix(xs, ys)
        d += self.C
        return np.power(d, -self.beta, out=d)

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x) = C**-beta``: a sequence is at distance 0 from itself."""
        return np.full(len(xs), self.C ** -self.beta)


def _hamming_matrix(xs, ys=None) -> np.ndarray:
    """Exact stop-padded Hamming distances, as floats."""
    seqs = list(xs) + ([] if ys is None else list(ys))
    size = max((s.alphabet.size for s in seqs), default=0)
    cx, cy = _stop_coded(xs, ys, size)
    return _position_sum(cx, cy, 1.0 - np.eye(size + 1))


def imq_hamming_kernel(C: float = 1.0, beta: float = 2.0) -> ImqHammingKernel:
    return ImqHammingKernel(C, beta)


class ImqHammingLagKernel(Kernel):
    """Lag-L inverse-multiquadric Hamming kernel.

    ``(C + sum_l 1(x[l:l+L] != y[l:l+L]))**-beta`` where ``l`` runs over
    ``[0, max(|x|, |y|))`` and windows are compared as stop-padded
    strings.  Counting window mismatches instead of letter mismatches
    makes the underlying similarity the lag-L window-match count; the
    power-law form keeps discrete masses.  ``L = 1`` reduces to
    :class:`ImqHammingKernel` exactly.
    """

    family = "imq_hamming_lag"
    mass_status = HAS_MASSES

    def __init__(self, C: float = 1.0, beta: float = 2.0, L: int = 1):
        check_positive(C=C, beta=beta)
        if L < 1:
            raise DataError("lag L must be >= 1")
        self.C = float(C)
        self.beta = float(beta)
        self.L = int(L)

    @property
    def params(self) -> dict:
        return {"C": self.C, "beta": self.beta, "L": self.L}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        d = lag_window_mismatches(x, y, self.L)
        return (self.C + d) ** -self.beta

    def pairwise(self, xs, ys=None) -> np.ndarray:
        ix, iy = _window_ids(xs, ys, self.L)
        d = (ix.shape[1] - _count_equal(ix, iy)).astype(float)
        d += self.C
        return np.power(d, -self.beta, out=d)

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x) = C**-beta``: no window differs from itself."""
        return np.full(len(xs), self.C ** -self.beta)


def lag_window_mismatches(x: Sequence, y: Sequence, L: int) -> int:
    """Number of positions whose stop-padded L-windows differ.

    Positions run over ``[0, max(|x|, |y|))``; a window is the padded
    slice ``x_(l:l+L)``, so windows past both ends agree and windows
    overlapping the padding compare padded letters.  For ``L = 1`` this
    is the Hamming distance.
    """
    n = max(len(x), len(y))
    cx, cy = x.codes, y.codes
    d = 0
    for l in range(n):
        for t in range(L):
            a = cx[l + t] if l + t < len(cx) else PAD_CODE
            b = cy[l + t] if l + t < len(cy) else PAD_CODE
            if a != b:
                d += 1
                break
    return d


def imq_hamming_lag_kernel(C: float = 1.0, beta: float = 2.0, L: int = 1) -> ImqHammingLagKernel:
    return ImqHammingLagKernel(C, beta, L)


def centre_justified_kernel(base: Kernel) -> Kernel:
    """Kernel on (left, right) sequence pairs around a reference point.

    Evaluates ``base(xL, yL) * base(xR, yR)``.  Left components should be
    reversed by the caller before construction of the pairs, so that both
    halves are compared outward from the reference point.
    """
    return tensor_kernel(base, base)


class ShiftedKernel(Kernel):
    """Sum of a base kernel over relative offsets of the two sequences.

    ``k_S(x, y) = sum_{l=0}^{shift_max} base(x[l:], y) + base(x, y[l:])``;
    the ``l = 0`` term appears in both sums, contributing ``2 base(x, y)``.

    Caution: the one-sided shift terms are not kernels themselves, and
    the sum can fail positive semidefiniteness when the base kernel
    decays fast (exponential Hamming with a large mismatch rate).  Use
    moderate bandwidths; Gram construction validates.
    """

    family = "shifted"

    def __init__(self, base: Kernel, shift_max: int):
        if shift_max < 0:
            raise DataError("shift_max must be >= 0")
        self.base = base
        self.shift_max = int(shift_max)
        self.mass_status = base.mass_status

    @property
    def params(self) -> dict:
        return {"base": self.base.family, "shift_max": self.shift_max}

    def __call__(self, x: Sequence, y: Sequence) -> float:
        total = 0.0
        for l in range(self.shift_max + 1):
            total += self.base(x[l:], y) + self.base(x, y[l:])
        return total

    def pairwise(self, xs, ys=None) -> np.ndarray:
        ys_ = xs if ys is None else ys
        total = np.zeros((len(xs), len(ys_)))
        for l in range(self.shift_max + 1):
            xs_l = [x[l:] for x in xs]
            ys_l = [y[l:] for y in ys_]
            total += self.base.pairwise(xs_l, list(ys_))
            total += self.base.pairwise(list(xs), ys_l)
        return total


def shifted_kernel(base: Kernel, shift_max: int) -> ShiftedKernel:
    return ShiftedKernel(base, shift_max)
