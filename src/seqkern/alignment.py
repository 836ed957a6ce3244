"""Alignment kernels: sums over all pairwise alignments.

An alignment matches an ordered subset of positions in one sequence to
an ordered subset in the other; unmatched letters are insertions.  The
global alignment kernel scores every alignment by a letter kernel on the
matched pairs and an affine gap weight ``exp(-delta_mu - mu * run)`` per
maximal insertion run, then sums the scores.  The local variant lets
runs at either end of either sequence skip the gap-start penalty.

Flexibility (discrete masses) holds iff the gap-extension penalty is
large enough relative to the letter kernel through the scalar
``sigma = 1' K^{-1} 1``; see :func:`has_discrete_masses_alignment`.

Every kernel here, and the spectrum kernels built on the same sums, runs
on one engine, :func:`alignment_R_pairs`.  It evaluates the O(|x||y|)
dynamic programme over tables ``M / I_X / I_Y`` (last column is a match
/ insertion in x / insertion in y) for a whole batch of pairs at once,
given as one list of sequences and two index arrays (the contract of
:meth:`Kernel.batch`).  Between adjacent matches the programme places
x-insertions before y-insertions, so each alignment is generated
exactly once.  Each cell holds a vector indexed by how many matched
pairs satisfy a marker predicate, which is what the heavy-tailed
variants integrate over.

The engine loops in Python over DP rows only, and updates buffers
allocated once per chunk in place.  Each matched pair adds at most one
mark, so row ``i`` reaches the counts ``0 .. i`` only, and a row's
operations run on the counts it reaches.  ``M`` and ``I_X`` read only
the previous row; they are laid out (count, column, pair), so the
reached counts are a leading block over which the row's letter scores
broadcast.  A marker splits the letter scores once into unmarked and
marked parts, so moving the marked matches up one count is a second
product, not a copy.  The in-row insertion recurrence
``I_Y[j] = u[j] + e I_Y[j-1]``, with ``u[j] = e_open (M + I_X)[j-1]``
and ``e = exp(-mu)``, is the lower-triangular product ``I_Y = T u`` with
``T[j, k] = e**(j - k)`` (the code folds ``e_open`` and the one-column
shift into ``T``).  ``M + I_X`` and ``I_Y`` are laid out (column,
count, pair), so the product over the reached counts is one matrix
product however few pairs a chunk holds.  With a nonnegative letter
kernel every term is nonnegative, so the product costs a few ulps
against the sequential recurrence and no cancellation.  How BLAS rounds
it can depend on the product's width, so values can differ in the last
place with the batch they are computed in.

Pairs of different lengths share padded tables.  A cell depends only on
cells with smaller indices, so a pair's result, read at its own
``(|x|, |y|)`` cell (or, for the local kernel, summed over its own
cells), never depends on padding.  Padding is the stop code ``|B|``
(``seqcore.encode_padded``), which indexes one zero row and column
appended to the letter matrix and one ``False`` row and column appended
to the marker matrix: padded letters score zero and are never marked.
Padded insertion inputs are masked out of ``T u``, so padding cannot
overflow or carry NaN into a real cell.  Pairs are sorted by length and
split into chunks under a fixed element cap, so memory stays bounded
whatever the batch.

The sequences are encoded once (``seqcore.encode_padded``), and each
chunk gathers its pairs' code rows by index, so no Python loop runs
over pairs.  The chunk cuts are found with numpy (a sort, then a
running maximum from each chunk start); a batch that fits under the
cap at its overall largest lengths, the usual case, is one chunk after
a constant number of numpy calls.  Every family on the engine is an
:class:`AlignmentSumKernel`, which owns its evaluation; the public
:func:`alignment_value`, :func:`local_alignment_value` and
:func:`alignment_dp_R` are the engine on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import HAS_MASSES, LACKS_MASSES, UNKNOWN_MASSES, Kernel
from .errors import DataError, NumericalError, ParameterError, check_nonnegative, check_positive
from .seqcore import Alphabet, Sequence, encode_padded


def exponential_letter_matrix(size: int, lam: float) -> np.ndarray:
    """Letter matrix ``exp(-lam * 1(b != b'))`` restricted to the alphabet,
    for a finite ``lam > 0``."""
    check_positive(**{"lambda": lam})
    K = np.full((size, size), math.exp(-lam))
    np.fill_diagonal(K, 1.0)
    return K


def checked_letter_matrix(matrix, size: int) -> np.ndarray:
    """``matrix`` as floats, checked to be a letter matrix over ``size`` letters.

    A letter matrix is ``size x size``, finite, symmetric and strictly
    positive definite; raises :class:`DataError` naming the first
    condition that fails; one symmetric to within 1e-12 comes back exactly
    symmetric.  Position-wise kernels pass the matrix extended by stop.
    """
    K = np.asarray(matrix, dtype=float)
    if K.shape != (size, size):
        raise DataError(f"letter matrix must be {size}x{size}, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise DataError("letter matrix entries must be finite")
    if not np.allclose(K, K.T, rtol=1e-12, atol=1e-12):
        raise DataError("letter matrix must be symmetric")
    if not np.array_equal(K, K.T):
        K = 0.5 * K + 0.5 * K.T
    eigmin = float(np.linalg.eigvalsh(K).min())
    if not eigmin > 0:
        raise DataError(f"letter matrix must be strictly positive definite "
                        f"(min eigenvalue {eigmin:.3e})")
    return K


def check_gap_penalties(mu: float, delta_mu: float) -> None:
    """:class:`ParameterError` unless ``mu >= 0`` is finite and ``delta_mu >= 0`` or inf."""
    check_nonnegative(**{"gap extension penalty mu": mu})
    if not delta_mu >= 0:
        raise ParameterError(f"gap start penalty delta_mu must be >= 0 or inf, got {delta_mu}")


def sigma_of(ks_matrix: np.ndarray) -> float:
    """The scalar ``1' K^{-1} 1`` controlling alignment-kernel flexibility."""
    K = np.asarray(ks_matrix, dtype=float)
    ones = np.ones(K.shape[0])
    return float(ones @ np.linalg.solve(K, ones))


@dataclass(frozen=True)
class AlignmentParams:
    """Letter kernel and affine gap penalties for alignment kernels.

    ``mu`` penalises each inserted letter, ``delta_mu`` each insertion
    run (``math.inf`` forbids insertions).  ``sigma = 1' K^{-1} 1`` is
    derived.
    """

    alphabet: Alphabet
    ks: np.ndarray
    mu: float
    delta_mu: float
    sigma: float = field(init=False)

    def __post_init__(self):
        K = checked_letter_matrix(self.ks, self.alphabet.size)
        check_gap_penalties(self.mu, self.delta_mu)
        object.__setattr__(self, "ks", K)
        object.__setattr__(self, "sigma", sigma_of(K))

    @classmethod
    def exponential(
        cls, alphabet: Alphabet, lam: float, mu: float, delta_mu: float
    ) -> "AlignmentParams":
        return cls(alphabet, exponential_letter_matrix(alphabet.size, lam), mu, delta_mu)


def has_discrete_masses_alignment(params: AlignmentParams) -> bool:
    """Flexibility condition for the global and the local alignment kernel.

    With a finite positive gap-start penalty the kernel has discrete
    masses iff ``2 mu >= log sigma``; with no gap-start penalty the
    inequality must be strict.  An infinite gap-start penalty reduces the
    global kernel to a position-wise product and forbids all but the
    boundary runs in the local one; both then have discrete masses for
    every ``mu`` and letter kernel.
    """
    if params.delta_mu == math.inf:
        return True
    if params.delta_mu > 0:
        return 2.0 * params.mu >= math.log(params.sigma)
    return 2.0 * params.mu > math.log(params.sigma)


#: the local kernel has the same thresholds
has_discrete_masses_local = has_discrete_masses_alignment


LType = Union[str, Callable[[int, int], int], np.ndarray]


def _ltype_matrix(ltype: LType, size: int) -> Optional[np.ndarray]:
    """Marker predicate on letter-code pairs as a 0/1 matrix (None = all zero)."""
    if ltype is None:
        return None
    if isinstance(ltype, str):
        if ltype == "none":
            return None
        if ltype == "mismatch":
            m = np.ones((size, size), dtype=bool)
            np.fill_diagonal(m, False)
            return m
        if ltype == "all":
            return np.ones((size, size), dtype=bool)
        raise DataError(f"unknown ltype {ltype!r}")
    if callable(ltype):
        return np.array(
            [[bool(ltype(a, b)) for b in range(size)] for a in range(size)]
        )
    m = np.asarray(ltype, dtype=bool)
    if m.shape != (size, size):
        raise DataError("ltype matrix must be |B| x |B|")
    return m


def _gap_factors(mu: float, delta_mu: float) -> tuple[float, float]:
    ext = math.exp(-mu)
    start = 0.0 if delta_mu == math.inf else math.exp(-delta_mu - mu)
    return ext, start


#: element cap per engine chunk, for each DP row table (a column, count
#: and pair each) and the (row, column, pair) letter scores alike: 2 MB
#: of float64 each
CHUNK_ELEMENTS = 2 ** 18


def alignment_R_pairs(seqs, i: np.ndarray, j: np.ndarray, ks: np.ndarray, mu: float,
                      delta_mu: float, ltype: LType = "none",
                      local: bool = False) -> np.ndarray:
    """Alignment sums of the pairs ``(seqs[i[p]], seqs[j[p]])``, split by
    marked-match count.

    ``seqs`` is encoded once; each chunk gathers its pairs' code rows by
    index.  Row ``p`` is pair ``p``'s vector ``R`` (see
    :func:`alignment_dp_R`) for the global kernel or, with ``local``,
    the local one.  Rows are zero-padded to one length: the batch's
    largest ``min(|x|, |y|) + 1``, or 1 when ``ltype`` marks nothing, so
    ``R[:, 0]`` is then the kernel value.  Raises :class:`DataError`
    unless ``ks`` is ``|B| x |B|`` for the sequences' alphabet and the gap
    penalties pass :func:`check_gap_penalties`, and
    :class:`NumericalError` naming the lengths of the first pair whose
    sums overflow.
    """
    check_gap_penalties(mu, delta_mu)
    K = np.asarray(ks, dtype=float)
    codes = encode_padded(seqs)
    size = seqs[0].alphabet.size if seqs else K.shape[0]
    if K.shape != (size, size):
        raise DataError(f"letter matrix has shape {K.shape}, but the sequences' "
                        f"alphabet has {size} letters")
    lmat = _ltype_matrix(ltype, size)
    # the stop code pads: it scores zero and marks nothing
    K = _with_stop(K)
    lmat = None if lmat is None else _with_stop(lmat)
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    nx, ny = lengths.take(i), lengths.take(j)
    width = 1 if lmat is None else int(np.minimum(nx, ny).max(initial=0)) + 1
    out = np.zeros((len(nx), width))
    for idx in _length_chunks(nx, ny, lmat is not None):
        R = _chunk_R(codes.take(i.take(idx), axis=0), codes.take(j.take(idx), axis=0),
                     nx.take(idx), ny.take(idx), K, lmat, mu, delta_mu, local)
        out[idx, : R.shape[1]] = R
    if not np.isfinite(out).all():
        p = int(np.argmax(~np.isfinite(out).all(axis=1)))
        raise NumericalError(
            f"alignment recursion overflowed on |x|={nx[p]}, |y|={ny[p]}"
        )
    return out


def _with_stop(table: np.ndarray) -> np.ndarray:
    """``table`` with a zero row and column appended for the stop code."""
    out = np.zeros((len(table) + 1, len(table) + 1), dtype=table.dtype)
    out[:-1, :-1] = table
    return out


def _per_pair(a, b, counted: bool):
    """Table elements per pair at the largest lengths ``a`` and ``b``."""
    return np.maximum((b + 1) * (np.minimum(a, b) + 1) if counted else b + 1, a * b)


def _length_chunks(nx: np.ndarray, ny: np.ndarray, counted: bool) -> list:
    """Pair indices sorted by length, cut where a chunk would pass the cap.

    Pairs are taken in ``(|x|, |y|)`` order; a chunk ends before the
    first pair that would bring its size times :func:`_per_pair` at its
    running largest lengths over ``CHUNK_ELEMENTS``.  A batch that fits
    whole at its overall largest lengths is one chunk; otherwise each
    cut is found by a running maximum over a window that doubles until
    it holds the cut.
    """
    P = len(nx)
    if P <= 1:
        return [np.arange(P)] if P else []
    order = np.lexsort((ny, nx))
    a, b = nx[order], ny[order]
    if P * _per_pair(a[-1], b.max(), counted) <= CHUNK_ELEMENTS:
        return [order]
    chunks, start, span = [], 0, 16
    while start < P:
        while True:
            stop = min(start + span, P)
            per = _per_pair(a[start:stop], np.maximum.accumulate(b[start:stop]), counted)
            over = np.arange(1, stop - start + 1) * per > CHUNK_ELEMENTS
            over[0] = False  # a chunk takes at least one pair
            if over.any() or stop == P:
                break
            span *= 2
        if over.any():
            stop = start + int(over.argmax())
        chunks.append(order[start:stop])
        span = 2 * (stop - start)
        start = stop
    return chunks


def _chunk_R(cx: np.ndarray, cy: np.ndarray, nx: np.ndarray, ny: np.ndarray,
             K: np.ndarray, lmat: Optional[np.ndarray], mu: float, delta_mu: float,
             local: bool) -> np.ndarray:
    """One chunk of :func:`alignment_R_pairs` on padded tables.

    ``cx`` and ``cy`` hold the pairs' code rows, stop past each length;
    ``K`` and ``lmat`` have a stop row and column that score zero and
    mark nothing.  Returns the chunk's rows of ``R``.

    A DP row lives in buffers allocated once and updated in place.  Row
    ``i`` reaches the counts ``0 .. min(i, nl - 1)`` only, since each
    matched pair adds at most one mark, so every row operation runs on
    the first ``c`` counts and the counts past them stay zero.  ``M``
    and ``I_X`` are ``(count, column, pair)`` arrays: the reached counts
    are a leading block, over which the letter scores ``S[i - 1]`` of
    row ``i``, ``(column, pair)``, broadcast.  ``M + I_X`` and ``I_Y``
    are ``(column, count * pair)`` arrays, so the insertion product over
    the reached counts is one matrix product however few the pairs.  A
    marker splits the scores once into unmarked and marked parts, so a
    row's count shift is two products.
    """
    P, mx, my = len(nx), int(nx.max()), int(ny.max())
    nl = 1 if lmat is None else int(np.minimum(nx, ny).max()) + 1
    X = cx[:, :mx].T
    Y = cy[:, :my].T
    rows = np.arange(mx + 1)[:, None, None]
    cols = np.arange(my + 1)[:, None]
    padded_col = cols > ny
    S = K[X[:, None, :], Y[None, :, :]]
    if lmat is not None:
        marked = lmat[X[:, None, :], Y[None, :, :]]
        S, S_marked = S * ~marked, S * marked  # unmarked and marked matches
    e_ext, e_open = _gap_factors(mu, delta_mu)
    gaps = e_open > 0
    if gaps:
        # I_Y[j] = sum_{k < j} e_open e_ext**(j - 1 - k) (M + I_X)[k]
        lag = cols - cols.T - 1
        T = np.where(lag >= 0, e_open * e_ext ** np.maximum(lag, 0), 0.0)

    M, IX, scratch = (np.zeros((nl, my + 1, P)) for _ in range(3))
    inner = np.zeros((nl, my, P))
    MX, IY = (np.zeros((my + 1, nl * P)) for _ in range(2))
    R = np.zeros((nl, P))
    if local:
        R[0] = np.exp(-mu * (nx + ny))  # the matchless alignment
        lead = np.exp(-mu * (rows[:-1, :, 0] + cols[:-1, 0]))[..., None]
        ends = (rows <= nx) & ~padded_col  # the pair's own cells ...
        tails = np.exp(-mu * np.where(ends, (nx - rows) + (ny - cols), 0))
    else:
        M[0, 0] = 1.0
        by_rows = np.argsort(nx, kind="stable")
        starts = np.searchsorted(nx[by_rows], np.arange(mx + 2))
    # an invalid value needs an overflow first, which warns and fails the
    # results check if it reaches a real cell; padded inputs are zero, so
    # a NaN from T's zeros can only meet a real cell that overflowed
    with np.errstate(invalid="ignore"):
        for i in range(mx + 1):
            if i < nl:  # the reach grows by one count per row
                c = i + 1
                m, ix, inn, tmp = M[:c], IX[:c], inner[:c], scratch[:c]
                mix, iy = MX[:, : c * P], IY[:, : c * P]
                # the same cells as (count, column, pair) views
                mix_c, iy_c = (a.reshape(my + 1, c, P).transpose(1, 0, 2) for a in (mix, iy))
            if i:
                np.add(mix_c[:, :-1], iy_c[:, :-1], out=inn)
                if local:
                    inn[0] += lead[i - 1]
                if gaps:
                    ix *= e_ext
                    ix += np.multiply(m, e_open, out=tmp)
                if i == 1:
                    m[0, 0] = 0.0  # the global start cell is row 0's alone
                np.multiply(S[i - 1], inn, out=m[:, 1:])
                if lmat is not None:
                    m[1:, 1:] += np.multiply(S_marked[i - 1], inn[:-1], out=tmp[1:, 1:])
            np.add(m, ix, out=mix_c)
            np.copyto(mix_c, 0.0, where=padded_col)
            if gaps:
                np.matmul(T, mix, out=iy)
            if local:
                # ... each weighted by the boundary runs that close it
                R[:c] += np.where(ends[i], m * tails[i], 0.0).sum(axis=1)
            elif starts[i] < starts[i + 1]:
                done = by_rows[starts[i] : starts[i + 1]]
                at = ny[done]
                R[:c, done] = mix_c[:, at, done] + iy_c[:, at, done]
    return R.T


#: index arrays of the one pair ``(seqs[0], seqs[1])``
_FIRST, _SECOND = np.array([0]), np.array([1])


def alignment_value(x: Sequence, y: Sequence, ks: np.ndarray, mu: float,
                    delta_mu: float) -> float:
    """Global alignment kernel value (sum over all alignments)."""
    return float(alignment_R_pairs([x, y], _FIRST, _SECOND, ks, mu, delta_mu)[0, 0])


def local_alignment_value(x: Sequence, y: Sequence, ks: np.ndarray, mu: float,
                          delta_mu: float) -> float:
    """Local alignment kernel value: boundary gap runs skip the start penalty."""
    return float(alignment_R_pairs([x, y], _FIRST, _SECOND, ks, mu, delta_mu,
                                   local=True)[0, 0])


def alignment_dp_R(x: Sequence, y: Sequence, ks: np.ndarray, mu: float,
                   delta_mu: float, ltype: LType = "none") -> np.ndarray:
    """Alignment sums split by marked-match count.

    Returns the vector ``R`` with ``R[L]`` the sum of alignment scores
    over alignments having exactly ``L`` matched pairs marked by
    ``ltype`` (a predicate on letter-code pairs: "mismatch", "all",
    "none", a callable, or a 0/1 matrix).  ``R.sum()`` is the plain
    alignment kernel value; ``len(R) == min(|x|, |y|) + 1``.
    """
    R = np.zeros(min(len(x), len(y)) + 1)
    row = alignment_R_pairs([x, y], _FIRST, _SECOND, ks, mu, delta_mu, ltype)[0]
    R[: len(row)] = row
    return R


def power_law_mixture(R: np.ndarray, nx, ny, base: Callable, beta: float) -> np.ndarray:
    """Per pair ``sum_L base(L, |x|, |y|)**-beta R[L]``, the heavy-tailed sums.

    ``R`` holds one count vector per row (as from
    :func:`alignment_R_pairs`), the arrays ``nx`` and ``ny`` the pairs'
    lengths;
    ``base`` is called on broadcast arrays and must be positive on every
    count ``L <= min(|x|, |y|)`` a pair can reach.  Counts past a pair's
    reach are masked out before the power, since ``base`` may be zero or
    negative there.
    """
    nx, ny = nx[:, None], ny[:, None]
    L = np.arange(R.shape[1])[None, :]
    reach = L <= np.minimum(nx, ny)
    b = np.where(reach, base(L, nx, ny), 1.0)
    return (np.where(reach, b ** -beta, 0.0) * R).sum(axis=1)


class AlignmentSumKernel(Kernel):
    """A sum over alignments: one :func:`alignment_R_pairs` call per batch.

    A family sets the engine arguments ``ks``, ``mu`` (default 0),
    ``delta_mu``, ``ltype`` and ``local``; its value is ``R[:, 0]``, or
    with ``beta`` set the :func:`power_law_mixture` by its
    ``base(L, nx, ny)``.
    """

    mu: float = 0.0
    ltype: LType = "none"
    local: bool = False
    beta: Optional[float] = None

    def letters(self, seqs: list) -> np.ndarray:
        """The letter matrix of a batch over ``seqs``."""
        return self.ks

    def batch(self, seqs, i, j) -> np.ndarray:
        R = alignment_R_pairs(seqs, i, j, self.letters(seqs), self.mu, self.delta_mu,
                              self.ltype, self.local)
        if self.beta is None:
            return R[:, 0]
        n = np.array([len(s) for s in seqs])
        return power_law_mixture(R, n[i], n[j], self.base, self.beta)


class AlignmentKernel(AlignmentSumKernel):
    """Global alignment kernel (all alignments, affine gap weights)."""

    family = "alignment"

    def __init__(self, params: AlignmentParams):
        self.ks, self.mu, self.delta_mu = params.ks, params.mu, params.delta_mu
        self.mass_status = (
            HAS_MASSES if has_discrete_masses_alignment(params) else LACKS_MASSES
        )

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__


class LocalAlignmentKernel(AlignmentKernel):
    """Local alignment kernel: no start penalty for boundary gap runs.

    It has the global kernel's parameters and flexibility thresholds.
    """

    family = "local_alignment"
    local = True

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__


class HeavyTailedAlignmentMatches(AlignmentSumKernel):
    """Alignment kernel with a power-law tail in matched-pair mismatches.

    Each alignment contributes ``(C + m)**-beta`` times its gap weight,
    where ``m`` is the number of mismatched matched pairs: the closed
    form of a Gamma mixture of alignment kernels over the mismatch rate.
    The mixture reaches arbitrarily flat letter kernels, so for
    ``mu > 0`` the kernel has discrete masses.
    """

    family = "ht_alignment_matches"
    ltype = "mismatch"

    def __init__(self, alphabet: Alphabet, C: float, beta: float, mu: float,
                 delta_mu: float):
        check_positive(C=C, beta=beta)
        check_gap_penalties(mu, delta_mu)
        self.alphabet = alphabet
        self.C = float(C)
        self.beta = float(beta)
        self.mu = float(mu)
        self.delta_mu = float(delta_mu)
        self.ks = np.ones((alphabet.size, alphabet.size))
        # mu = 0 keeps the whole mixture outside the flexible regime, so
        # the closed-form flag cannot assert either way.
        self.mass_status = HAS_MASSES if mu > 0 else UNKNOWN_MASSES

    def base(self, L, nx, ny):
        return self.C + L

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__


class HeavyTailedAlignmentGaps(AlignmentSumKernel):
    """Alignment kernel with a power-law tail in total inserted length.

    Each alignment contributes ``(C + |x| + |y| - 2 L)**-beta`` times its
    letter scores and gap-start weights, ``L`` being the number of
    matches: the closed form of a Gamma mixture over the gap-extension
    penalty, which always contains flexible members.
    """

    family = "ht_alignment_gaps"
    mass_status = HAS_MASSES
    ltype = "all"

    def __init__(self, alphabet: Alphabet, C: float, beta: float,
                 delta_mu: float, ks: np.ndarray):
        check_positive(C=C, beta=beta)
        check_gap_penalties(0.0, delta_mu)
        self.alphabet = alphabet
        self.C = float(C)
        self.beta = float(beta)
        self.delta_mu = float(delta_mu)
        self.ks = checked_letter_matrix(ks, alphabet.size)

    def base(self, L, nx, ny):
        return self.C + (nx + ny - 2 * L)

    __call__ = Kernel.__call__  # bench/tracing.py wraps it in this __dict__


def alignment_kernel(params: AlignmentParams) -> AlignmentKernel:
    return AlignmentKernel(params)


def local_alignment_kernel(params: AlignmentParams) -> LocalAlignmentKernel:
    return LocalAlignmentKernel(params)
