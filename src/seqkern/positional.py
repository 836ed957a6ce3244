"""Position-wise comparison kernels.

Two groups live here: classic kernels that compare sequences position by
position but have limited flexibility (the weighted-degree / lag-L
Hamming kernel), and their flexible replacements built from the same
notion of similarity (exponential Hamming, inverse-multiquadric Hamming,
centre-justified and shifted variants).

Matrices of the position-wise kernels are assembled without an
``n x m x width`` temporary; ``base_positionwise`` multiplies its
letter table over positions left to right.  Sequences are stop-padded
with the stop code ``|B|`` (``seqcore.encode_padded``), which indexes
the stop row and column of a ``(|B|+1)``-dimensional letter table
directly.  The Hamming and window kernels count equal codes position by
position in the narrowest integer types that hold them
(:func:`_count_equal`): exact integer ids of the stop-padded L-windows
from ``seqcore.window_ids``, which at ``L = 1``, for the Hamming
kernels, are the stop-padded letters themselves.  The
inverse-multiquadric and exponential families then look ``f`` of the
distance up by match count in a table of ``width + 1`` values.  For the
lag kernel stop is a letter, for the weighted degree a window reaching
past its sequence matches nothing.

Each family here implements ``pairwise``, and most also
``self_similarities``; ``k(x, y)`` is the one-pair block of ``pairwise``
(``core.Kernel.__call__``), so a scalar value and a matrix entry come
from the same code.  Build matrices, not loops of scalar calls.
"""

from __future__ import annotations

import numpy as np

from .alignment import check_positive, checked_letter_matrix
from .core import (
    HAS_MASSES,
    LACKS_MASSES,
    Kernel,
    tensor_kernel,
)
from .errors import DataError
from .seqcore import Alphabet, element_blocks, encode_padded, shared_alphabet, window_ids


class LetterKernel:
    """A strictly positive-definite similarity on letters plus stop.

    Holds the ``|B| x |B|`` letter matrix, the letter-vs-stop column, and
    fixes ``k(stop, stop) = 1``; :attr:`extended` is indexed by letter
    codes with stop as code ``|B|``.  Strict positive definiteness of the
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

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        ys_ = xs if ys is None else list(ys)
        ix, iy = _window_ids(xs, None if ys is None else ys_, self.L)
        nwin = max(ix.shape[1] - self.L + 1, 0)
        # windows reaching past their sequence match nothing: -1 on the
        # left, -2 on the right
        end = np.arange(nwin) + self.L
        ix = np.where(end <= np.array([len(s) for s in xs])[:, None], ix[:, :nwin], -1)
        iy = np.where(end <= np.array([len(s) for s in ys_])[:, None], iy[:, :nwin], -2)
        return _count_equal(ix, iy).astype(float)

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x)``: every window inside ``x`` matches itself."""
        xs = list(xs)
        _check_alphabet(xs, None)
        lengths = np.array([len(s) for s in xs], dtype=float)
        return np.maximum(lengths - (self.L - 1), 0.0)


def _window_ids(xs, ys, L: int, alphabet=None) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the stop-padded L-windows of ``xs`` and ``ys`` (``xs``
    again when ``None``) at every position below the longest length,
    from :func:`seqcore.window_ids` over both sides at once; at ``L = 1``
    the stop-coded letters themselves.  Sequences must be over
    ``alphabet``, any when ``None``."""
    xs = list(xs)
    cx, cy, stop = _stop_coded(xs, ys, alphabet)
    codes = cx if ys is None else np.vstack([cx, cy])
    for ids in window_ids(codes, stop, L):
        pass
    return (ids, ids) if ys is None else (ids[: len(xs)], ids[len(xs):])


def _count_equal(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """``out[i, j] = #{l : ix[i, l] == iy[j, l]}`` for ids of at least -2.

    The ids are cast once, position-major, to the narrowest signed type
    that holds them, each position is compared into one reused bool
    buffer, and the counts add up in the narrowest unsigned type that
    holds the number of positions: exact integers, which the caller
    converts to float.
    """
    top = max(ix.max(initial=0), iy.max(initial=0))
    ids = _narrowest((np.int8, np.int16, np.int32, np.int64), top)
    ax = np.ascontiguousarray(ix.T, dtype=ids)
    ay = ax if iy is ix else np.ascontiguousarray(iy.T, dtype=ids)
    counts = _narrowest((np.uint8, np.uint16, np.uint32), ix.shape[1])
    out = np.zeros((len(ix), len(iy)), dtype=counts)
    equal = np.empty(out.shape, dtype=bool)
    for a, b in zip(ax, ay):
        np.equal(a[:, None], b, out=equal)
        out += equal.view(np.uint8)  # bools are bytes of 0 or 1: added without a cast
    return out


def _narrowest(types, top: int):
    """The first of ``types`` whose largest value is at least ``top``."""
    return next(t for t in types if np.iinfo(t).max >= top)


def weighted_degree_kernel(L: int) -> WeightedDegreeKernel:
    return WeightedDegreeKernel(L)


class BasePositionwiseKernel(Kernel):
    """Product of a letter kernel over stop-padded positions.

    ``k(x, y) = prod_l k_s(x_(l), y_(l))``; the product truncates at
    ``max(|x|, |y|)`` because ``k_s(stop, stop) = 1``.  Strict positive
    definiteness of the letter kernel gives the product kernel discrete
    masses.  Values multiply the table over positions left to right, so
    a Gram is exactly symmetric and its diagonal is ``self_similarities``.
    """

    family = "base_positionwise"
    mass_status = HAS_MASSES

    def __init__(self, letter_kernel: LetterKernel):
        self.letter_kernel = letter_kernel

    def pairwise(self, xs, ys=None) -> np.ndarray:
        ext = self.letter_kernel.extended
        cx, cy, _ = _stop_coded(xs, ys, self.letter_kernel.alphabet)
        out = np.ones((len(cx), len(cy)))
        for l in range(cx.shape[1]):
            out *= np.take(ext[cx[:, l]], cy[:, l], axis=1)
        return out

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x)``: the letter diagonal multiplied over positions."""
        cx, _, _ = _stop_coded(xs, None, self.letter_kernel.alphabet)
        factors = np.diag(self.letter_kernel.extended)[cx]
        out = np.ones(len(cx))
        for l in range(cx.shape[1]):
            out *= factors[:, l]
        return out


def _stop_coded(xs, ys, alphabet=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Stop-padded letter codes of ``xs`` and ``ys`` (``xs`` again when
    ``None``) at one common width, and the stop code ``|B|``.  Both
    sides are packed by one :func:`seqcore.encode_padded` call, which
    rejects a second alphabet; so does ``alphabet``, when given."""
    xs = list(xs)
    seqs = xs if ys is None else xs + list(ys)
    codes = encode_padded(seqs)
    _check_alphabet(seqs[:1], alphabet)
    cy = codes if ys is None else codes[len(xs):]
    return codes[:len(xs)], cy, seqs[0].alphabet.size if seqs else 0


def _check_alphabet(seqs, alphabet) -> None:
    """:class:`DataError` naming both unless ``seqs`` share one alphabet
    and it is ``alphabet`` (any when ``None``)."""
    found = shared_alphabet(seqs)
    if None not in (found, alphabet) and found != alphabet:
        raise DataError(f"sequences over {found!r} given to a kernel over {alphabet!r}")


def base_positionwise_kernel(letter_kernel: LetterKernel) -> BasePositionwiseKernel:
    return BasePositionwiseKernel(letter_kernel)


class _OfHammingDistance(Kernel):
    """``f(d_H(x, y))`` of the exact stop-padded Hamming distance between
    the ``L``-windows, ``f`` applied in place by ``_of_distances``.  A
    matrix looks up the match count ``m`` of the window ids
    (:func:`_window_ids`, the stop-coded letters at ``L = 1``;
    :func:`_count_equal`) in the table ``f(width - m)`` over their
    common width; a diagonal is ``f(0)``, the same ``f`` of the same
    exact zero as the Gram's.  Sequences must be over ``alphabet``, any
    when ``None``."""

    mass_status = HAS_MASSES
    alphabet = None
    L = 1

    def pairwise(self, xs, ys=None) -> np.ndarray:
        ix, iy = _window_ids(xs, ys, self.L, self.alphabet)
        return self._of_matches(_count_equal(ix, iy), ix.shape[1])

    def _of_matches(self, counts: np.ndarray, width: int) -> np.ndarray:
        """``f(width - counts)``, looked up in a table of ``width + 1`` values."""
        return self._of_distances(np.arange(width, -1, -1, dtype=float))[counts]

    def self_similarities(self, xs) -> np.ndarray:
        xs = list(xs)
        _check_alphabet(xs, self.alphabet)
        return self._of_distances(np.zeros(len(xs)))

    def neighbour_values(self, edits, ys) -> tuple[np.ndarray, np.ndarray]:
        """Values of the neighbours that ``edits`` reach, from the match
        counts of the edited sequence (:func:`_edit_distances`); no
        neighbour is built.  Equal to ``pairwise`` over the built
        neighbours, bit for bit."""
        d = _edit_distances(edits, ys, self.alphabet)
        return self._of_distances(d), self._of_distances(np.zeros(len(d)))


class ExpHammingKernel(_OfHammingDistance):
    """``exp(-lam * d_H(x, y))``: the position-wise product of the
    mismatch kernel ``exp(-lam * 1(b != b'))`` with stop as a letter."""

    family = "exp_hamming"

    def __init__(self, alphabet: Alphabet, lam: float):
        check_positive(**{"lambda": lam})
        self.alphabet = alphabet
        self.lam = float(lam)

    def _of_distances(self, d: np.ndarray) -> np.ndarray:
        d *= -self.lam
        return np.exp(d, out=d)


def exp_hamming_kernel(alphabet: Alphabet, lam: float) -> ExpHammingKernel:
    return ExpHammingKernel(alphabet, lam)


class ImqHammingKernel(_OfHammingDistance):
    """Inverse-multiquadric Hamming kernel ``(C + d_H(x, y))**-beta``.

    The same similarity as the exponential Hamming kernel, but with a
    power-law (heavy) tail in the Hamming distance: the closed form of a
    Gamma-weighted mixture of exponential Hamming kernels over all
    mismatch rates.  Heavy tails avoid diagonal dominance, and the
    mixture contains arbitrarily flexible members, so the kernel keeps
    discrete masses.
    """

    family = "imq_hamming"
    pairwise = _OfHammingDistance.pairwise  # bench/tracing.py wraps it in this __dict__

    def __init__(self, C: float = 1.0, beta: float = 2.0):
        check_positive(C=C, beta=beta)
        self.C = float(C)
        self.beta = float(beta)

    def _of_distances(self, d: np.ndarray) -> np.ndarray:
        d += self.C
        return np.power(d, -self.beta, out=d)


def _edit_distances(edits, ys, alphabet=None) -> np.ndarray:
    """Stop-padded Hamming distances, as floats, from each neighbour that
    single-letter ``edits`` of ``x`` reach to each of ``ys``.

    Against an atom ``a`` of length ``m``, let ``e_s[l] = [x_l ==
    a_(l+s)]``, ``E(p)`` count the matches ``e_0`` before ``p`` and
    ``S_s(p)`` those of ``e_s`` from ``p`` to ``n = |x|``.  A neighbour's
    distance is its stop-padded length ``max(., m)`` less its matches:

    - substitution of ``c`` at ``p``: ``E(n) - e_0[p] + [c == a_p]``
      over length ``n``;
    - deletion at ``p``: ``E(p) + S_-1(p + 1)`` over ``n - 1``;
    - insertion of ``c`` at ``p``: ``E(p) + [c == a_p] + S_+1(p)`` over
      ``n + 1``;

    with ``[c == a_p] = 0`` past the atom's end (a letter never equals
    stop).  Each edit is one row of a ``(3n + 1) x |ys|`` table of
    length less shared matches, minus its letter's one-hot row: exact
    integers, equal to the built neighbours' distances, ``width - m`` in
    :meth:`_OfHammingDistance.pairwise`.
    """
    x = edits.x
    n, size, m = len(x), x.alphabet.size, len(ys)
    codes = encode_padded([x, *ys], max(n + 1, max(map(len, ys), default=0)))
    _check_alphabet([x], alphabet)
    xc, at = codes[0, :n, None], codes[1:].T  # at[l, j]: letter l of atom j, or stop
    lengths = np.array([len(y) for y in ys])
    e0 = at[:n] == xc
    E = np.zeros((n + 1, m), dtype=np.int64)
    np.cumsum(e0, axis=0, out=E[1:])
    S_plus = _suffix_sums(at[1:n + 1] == xc)  # S_+1(p), p = 0..n
    S_minus = _suffix_sums(at[:max(n - 1, 0)] == xc[1:])[:n]  # S_-1(p + 1), p = 0..n-1
    table = np.concatenate([np.maximum(n, lengths) - (E[n] - e0),
                            np.maximum(n - 1, lengths) - (E[:n] + S_minus),
                            np.maximum(n + 1, lengths) - (E + S_plus)]).astype(float)
    # one-hot rows of the atoms' letters at p = 0..n, then a zero row for deletions
    hits = np.zeros(((n + 1) * size + 1, m), dtype=bool)
    hits[:-1] = (at[:n + 1, None, :] == np.arange(size)[:, None]).reshape(-1, m)
    kind, position, code = edits.kind, edits.position, edits.code
    offset = np.zeros(3, dtype=np.intp)
    offset[edits.DELETION], offset[edits.INSERTION] = n, 2 * n
    d = table.take(position + offset[kind], axis=0)
    d -= hits.take(np.where(code < 0, len(hits) - 1, position * size + code), axis=0)
    return d


def _suffix_sums(e: np.ndarray) -> np.ndarray:
    """``out[p] = e[p:].sum(axis=0)`` for ``p = 0 .. len(e)``."""
    out = np.zeros((len(e) + 1, e.shape[1]), dtype=np.int64)
    np.cumsum(e[::-1], axis=0, out=out[-2::-1])
    return out


def imq_hamming_kernel(C: float = 1.0, beta: float = 2.0) -> ImqHammingKernel:
    return ImqHammingKernel(C, beta)


class ImqHammingLagKernel(ImqHammingKernel):
    """Lag-L inverse-multiquadric Hamming kernel.

    ``(C + sum_l 1(x[l:l+L] != y[l:l+L]))**-beta`` where ``l`` runs over
    ``[0, max(|x|, |y|))`` and windows are compared as stop-padded
    strings.  Counting window mismatches instead of letter mismatches
    makes the underlying similarity the lag-L window-match count; the
    power-law form keeps discrete masses.  ``L = 1`` reduces to
    :class:`ImqHammingKernel` exactly.
    """

    family = "imq_hamming_lag"
    pairwise = _OfHammingDistance.pairwise  # bench/tracing.py wraps it in this __dict__
    neighbour_values = Kernel.neighbour_values  # an edit moves windows: build the neighbours

    def __init__(self, C: float = 1.0, beta: float = 2.0, L: int = 1):
        super().__init__(C, beta)
        if L < 1:
            raise DataError("lag L must be >= 1")
        self.L = int(L)


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

    def pairwise(self, xs, ys=None) -> np.ndarray:
        """A Gram is ``sum_l B_l + B_l^T`` with ``B_l = base(x[l:], x)``
        over the rows: one base call per offset, exactly symmetric.  A
        block asks the base for both one-sided terms at each offset."""
        xs = list(xs)
        if ys is None:
            total = np.zeros((len(xs), len(xs)))
            for l in range(self.shift_max + 1):
                B = self.base.pairwise([x[l:] for x in xs], xs)
                total += B + B.T  # the sum first keeps the total exactly symmetric
            return total
        ys = list(ys)
        total = np.zeros((len(xs), len(ys)))
        for l in range(self.shift_max + 1):
            total += self.base.pairwise([x[l:] for x in xs], ys)
            total += self.base.pairwise(xs, [y[l:] for y in ys])
        return total

    def self_similarities(self, xs) -> np.ndarray:
        """``sum_l 2 base(x[l:], x)``, the diagonals of the Gram's base
        matrices, computed in row blocks under ``BLOCK_ELEMENTS``."""
        xs = list(xs)
        out = np.zeros(len(xs))
        for l in range(self.shift_max + 1):
            for blk in element_blocks(len(xs), len(xs)):
                rows = xs[blk]
                out[blk] += 2 * np.diag(self.base.pairwise([x[l:] for x in rows], rows))
        return out


def shifted_kernel(base: Kernel, shift_max: int) -> ShiftedKernel:
    return ShiftedKernel(base, shift_max)
