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
distance up by match count in a table of ``width + 1`` values, and the
weighted degree the count itself, one row block of
``seqcore.ROW_BLOCK_ELEMENTS`` at a time (:func:`_of_counts`), so the
counts never take an ``n x m`` array.  For the
lag kernel stop is a letter, for the weighted degree a window reaching
past its sequence matches nothing.

Each family here implements ``pairwise``, and most also
``self_similarities``; ``k(x, y)`` is the one-pair block of ``pairwise``
(``core.Kernel.__call__``), so a scalar value and a matrix entry come
from the same code.  Build matrices, not loops of scalar calls.

The Hamming families, the lag kernel and the weighted degree score the
optimizer's single-letter edits without building a neighbour
(:func:`_edit_windows`): a neighbour's matching windows against an atom
are prefix and suffix sums over the current sequence's windows, plus at
most ``L`` windows across the edit, against the atoms' stop-padded codes
that ``prepare_target`` encodes once per run (:class:`_StopPadded`).
"""

from __future__ import annotations

import numpy as np

from .alignment import checked_letter_matrix
from .core import (
    HAS_MASSES,
    LACKS_MASSES,
    Kernel,
    tensor_kernel,
)
from .errors import DataError, check_integer, check_positive
from .seqcore import (ROW_BLOCK_ELEMENTS, Alphabet, element_blocks, encode_padded, shared_alphabet,
                      window_ids)


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
        self.L = check_integer("L", L, 1)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        ys_ = xs if ys is None else list(ys)
        ix, iy = _window_ids(xs, None if ys is None else ys_, self.L)
        nwin = max(ix.shape[1] - self.L + 1, 0)
        # windows reaching past their sequence match nothing: -1 on the
        # left, -2 on the right
        end = np.arange(self.L, self.L + nwin)
        ix = np.where(end <= np.array([len(s) for s in xs])[:, None], ix[:, :nwin], -1)
        iy = np.where(end <= np.array([len(s) for s in ys_])[:, None], iy[:, :nwin], -2)
        return _of_counts(ix, iy, np.arange(nwin + 1, dtype=float))

    def self_similarities(self, xs) -> np.ndarray:
        """``k(x, x)``: every window inside ``x`` matches itself."""
        xs = list(xs)
        _check_alphabet(xs, None)
        return self._windows_inside(np.array([len(s) for s in xs], dtype=float))

    def _windows_inside(self, lengths: np.ndarray) -> np.ndarray:
        return np.maximum(lengths - (self.L - 1), 0.0)

    def prepare_target(self, atoms) -> "_StopPadded":
        return _StopPadded(atoms)

    def neighbour_values(self, edits, target) -> tuple[np.ndarray, np.ndarray]:
        """Values of the neighbours that ``edits`` reach, from the window
        match counts of the edited sequence (:func:`_edit_windows`); no
        neighbour is built.  Equal to ``pairwise`` over the built
        neighbours, bit for bit."""
        K = _edit_windows(edits, target, self.L, strict=True)
        return K, self._windows_inside(edits.lengths().astype(float))


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
    holds the number of positions: exact integers, which
    :func:`_of_counts` looks up, one row block of ``ix`` at a time.
    """
    top = max(ix.max(initial=0), iy.max(initial=0))
    ids = _narrowest((np.int8, np.int16, np.int32, np.int64), top)
    ax = np.ascontiguousarray(ix.T, dtype=ids)
    ay = np.ascontiguousarray(iy.T, dtype=ids)
    counts = _narrowest((np.uint8, np.uint16, np.uint32), ix.shape[1])
    out = np.zeros((len(ix), len(iy)), dtype=counts)
    equal = np.empty(out.shape, dtype=bool)
    for a, b in zip(ax, ay):
        np.equal(a[:, None], b, out=equal)
        out += equal.view(np.uint8)  # bools are bytes of 0 or 1: added without a cast
    return out


def _of_counts(ix: np.ndarray, iy: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table[_count_equal(ix, iy)]``, counted and looked up one row
    block at a time, so the counts and the compared bools never take
    more than ``ROW_BLOCK_ELEMENTS`` each."""
    out = np.empty((len(ix), len(iy)))
    for blk in element_blocks(len(ix), len(iy), ROW_BLOCK_ELEMENTS):
        np.take(table, _count_equal(ix[blk], iy), out=out[blk], mode="clip")
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
        width = ix.shape[1]
        return _of_counts(ix, iy, self._of_distances(np.arange(width, -1, -1, dtype=float)))

    def self_similarities(self, xs) -> np.ndarray:
        xs = list(xs)
        _check_alphabet(xs, self.alphabet)
        return self._of_distances(np.zeros(len(xs)))

    def prepare_target(self, atoms) -> "_StopPadded":
        return _StopPadded(atoms, self.alphabet)

    def neighbour_values(self, edits, target) -> tuple[np.ndarray, np.ndarray]:
        """Values of the neighbours that ``edits`` reach, from the window
        match counts of the edited sequence (:func:`_edit_windows`); no
        neighbour is built.  Equal to ``pairwise`` over the built
        neighbours, bit for bit."""
        d = _edit_windows(edits, target, self.L, alphabet=self.alphabet)
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


class _StopPadded:
    """A target's atoms as the window families' edit scoring reads them:
    stop-padded codes, position-major, and lengths.  :meth:`rows` pads
    the codes further with stop when a longer sequence asks for more
    positions, and keeps them."""

    def __init__(self, atoms, alphabet=None):
        atoms = list(atoms)
        self._codes = np.ascontiguousarray(encode_padded(atoms).T)
        _check_alphabet(atoms[:1], alphabet)
        self.alphabet = atoms[0].alphabet if atoms else None
        self.stop = self.alphabet.size if atoms else 0
        self.lengths = np.array([len(a) for a in atoms])

    def rows(self, width: int) -> np.ndarray:
        """``out[l, j]``: letter ``l`` of atom ``j``, or stop, for ``l < width``."""
        codes = self._codes  # read once: a concurrent call may replace it
        short = width - len(codes)
        if short > 0:
            pad = np.full((short, len(self.lengths)), self.stop, dtype=codes.dtype)
            codes = self._codes = np.concatenate([codes, pad])
        return codes[:width]


def _edit_windows(edits, target: _StopPadded, L: int = 1, strict: bool = False,
                  alphabet=None) -> np.ndarray:
    """For each neighbour ``z`` that single-letter ``edits`` of ``x``
    reach and each atom ``a`` of ``target``, as exact integers in floats:
    the stop-padded distance ``max(|z|, |a|) - M`` between their
    L-windows, or with ``strict`` the count ``M`` itself, where ``M``
    counts the positions ``l < |z|`` whose windows ``z[l:l+L]`` and
    ``a[l:l+L]`` are equal, as stop-padded strings or, with ``strict``,
    as windows inside both (stop matches nothing).  Sequences must be
    over ``alphabet``, any when ``None``.

    Let ``e_s[k] = [x_k == a_(k+s)]`` for the stop-padded ``x`` and ``a``,
    ``w_s[l]`` be 1 where all ``L`` of ``e_s[l .. l+L-1]`` are, ``E(p)``
    count the ``w_0`` before ``p`` and ``S_s(p)`` the ``w_s`` from ``p`` to
    ``n = |x|``.  A neighbour's ``M`` is the sum of its windows wholly
    before the edit at ``p``, ``E(p - L + 1)``; those wholly after it,
    which are ``x``'s shifted by the edit: ``S_0(p + 1)`` for a
    substitution, ``S_-1(p + 1)`` for a deletion and ``S_+1(p)`` for an
    insertion; and the at most ``L`` windows that cover the edit.  One of
    those matches when its letter-match count is ``L``: its letters before
    ``p`` from the prefix sums of ``e_0``, those after from the prefix
    sums of the same ``e_s``, and the written letter ``c`` from the atom's
    one-hot row, ``[c == a_p]``, which is 0 past the atom's end.

    Each edit is one row of a ``(3n + 1) x |target|`` table of the
    windows off the edit plus those covering a deletion, and one row of
    the written letter's hits times the count of covering windows whose
    other letters all match.  At ``L = 1``, ``w_s = e_s``, the only
    covering window is the letter itself, and the hits are the one-hot
    rows: the stop-padded Hamming distance of ``imq_hamming``.  A window
    of ``L`` at least the longest neighbour's or atom's length, plus one,
    reads every letter of both and stop beyond, so longer ones are cut to
    that, as ``seqcore.window_ids`` cuts them.
    """
    x = edits.x
    _check_alphabet([x], alphabet)
    _check_alphabet([x], target.alphabet)
    n, size, lengths = len(x), x.alphabet.size, target.lengths
    m = len(lengths)
    L = min(L, max(n + 1, lengths.max(initial=0)) + 1)
    K = n + L - 1  # positions of x read: its letters, then stop to the last window's end
    at = target.rows(K + 1)  # at[l, j]: letter l of atom j, or stop
    xc = np.array(x.codes + (size + strict,) * (L - 1), dtype=np.int64)[:, None]
    e0 = at[:K] == xc
    e_plus = at[1:K + 1] == xc
    e_minus = at[:max(K - 1, 0)] == xc[1:]  # e_-1[k], k = 1 .. K-1
    if L == 1:
        w0, w_plus, w_minus = e0, e_plus, e_minus
    else:
        C0, C_plus, C_minus = _prefix_sums(e0), _prefix_sums(e_plus), _prefix_sums(e_minus)
        w0 = C0[L:n + L] - C0[:n] == L
        w_plus = C_plus[L:n + L] - C_plus[:n] == L
        w_minus = C_minus[L:n - 1 + L] - C_minus[:max(n - 1, 0)] == L  # w_-1[l], l = 1 .. n-1
    E = _prefix_sums(w0)
    S_plus = _suffix_sums(w_plus)  # S_+1(p), p = 0..n
    S_minus = _suffix_sums(w_minus)[:n]  # S_-1(p + 1), p = 0..n-1
    # one-hot rows of the atoms' letters at p = 0..n, then a zero row for deletions
    hits = np.zeros(((n + 1) * size + 1, m), dtype=bool)
    hits[:-1] = (at[:n + 1, None, :] == np.arange(size)[:, None]).reshape(-1, m)
    if L == 1:
        before, covered = E, w0
    else:
        before = E[np.maximum(np.arange(n + 1) - (L - 1), 0)]  # E(p - L + 1)
        covered = E[1:] - before[:n]  # x's windows covering p
    # windows off the edit: of a substitution, a deletion and an insertion at p
    off_edit = [E[n] - covered, before[:n] + S_minus, before + S_plus]
    if L > 1:
        counts = _narrowest((np.uint8, np.uint16, np.uint32, np.uint64), L)
        cover = [np.zeros((n, m), counts), np.zeros((n, m), counts), np.zeros((n + 1, m), counts)]
        for t in range(min(L, n + 1)):  # the window starting t before the edit
            head = C0[t:n + 1] - C0[:n + 1 - t]  # e_0 over [p - t, p), p = t..n
            cover[0][t:] += head[:n - t] + C0[L:n - t + L] - C0[t + 1:n + 1] == L - 1
            cover[2][t:] += head + C_plus[L - 1:n - t + L] - C_plus[t:n + 1] == L - 1
            if t:
                cover[1][t:] += head[:n - t] + C_minus[L:n - t + L] - C_minus[t:n] == L
        off_edit[1] += cover[1]
        one_hot = hits[:-1].reshape(n + 1, size, m)
        hits = np.concatenate([(one_hot[:n] * cover[0][:, None]).reshape(-1, m),
                               (one_hot * cover[2][:, None]).reshape(-1, m),
                               np.zeros((1, m), counts)])
    if strict:
        table = np.concatenate(off_edit).astype(float)
    else:
        table = np.concatenate([np.maximum(n, lengths) - off_edit[0],
                                np.maximum(n - 1, lengths) - off_edit[1],
                                np.maximum(n + 1, lengths) - off_edit[2]]).astype(float)
    kind, position, code = edits.kind, edits.position, edits.code
    offset = np.zeros(3, dtype=np.intp)
    offset[edits.DELETION], offset[edits.INSERTION] = n, 2 * n
    d = table.take(position + offset[kind], axis=0)
    row = np.where(code < 0, len(hits) - 1, position * size + code)
    if L > 1:
        row[kind == edits.INSERTION] += n * size
    written = hits.take(row, axis=0)
    if strict:
        d += written
    else:
        d -= written
    return d


def _prefix_sums(e: np.ndarray) -> np.ndarray:
    """``out[p] = e[:p].sum(axis=0)`` for ``p = 0 .. len(e)``."""
    out = np.zeros((len(e) + 1, e.shape[1]), dtype=np.int64)
    np.cumsum(e, axis=0, out=out[1:])
    return out


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

    def __init__(self, C: float = 1.0, beta: float = 2.0, L: int = 1):
        super().__init__(C, beta)
        self.L = check_integer("L", L, 1)


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
        self.base = base
        self.shift_max = check_integer("shift_max", shift_max, 0)
        self.mass_status = base.mass_status

    def _offsets(self, seqs) -> list[tuple[int, int]]:
        """``(l, times)`` over the offsets whose terms differ: from the
        longest of ``seqs`` on, every offset cuts them all to empty, so
        the first such term stands for ``times`` equal ones."""
        last = min(self.shift_max, max(map(len, seqs), default=0))
        return [(l, 1) for l in range(last)] + [(last, self.shift_max - last + 1)]

    def pairwise(self, xs, ys=None) -> np.ndarray:
        """A Gram is ``sum_l B_l + B_l^T`` with ``B_l = base(x[l:], x)``
        over the rows: one base call per offset, exactly symmetric.  A
        block asks the base for both one-sided terms at each offset."""
        xs = list(xs)
        if ys is None:
            total = np.zeros((len(xs), len(xs)))
            for l, times in self._offsets(xs):
                B = self.base.pairwise([x[l:] for x in xs], xs)
                total += times * (B + B.T)  # the sum first keeps the total exactly symmetric
            return total
        ys = list(ys)
        total = np.zeros((len(xs), len(ys)))
        for l, times in self._offsets(xs + ys):
            total += times * self.base.pairwise([x[l:] for x in xs], ys)
            total += times * self.base.pairwise(xs, [y[l:] for y in ys])
        return total

    def self_similarities(self, xs) -> np.ndarray:
        """``sum_l 2 base(x[l:], x)``, the diagonals of the Gram's base
        matrices, computed in row blocks under ``BLOCK_ELEMENTS``."""
        xs = list(xs)
        out = np.zeros(len(xs))
        for l, times in self._offsets(xs):
            for blk in element_blocks(len(xs), len(xs)):
                rows = xs[blk]
                out[blk] += times * 2 * np.diag(self.base.pairwise([x[l:] for x in rows], rows))
        return out


def shifted_kernel(base: Kernel, shift_max: int) -> ShiftedKernel:
    return ShiftedKernel(base, shift_max)
