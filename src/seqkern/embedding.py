"""Embedding kernels: Euclidean kernels on vector representations.

An embedding maps sequences to points in ``R^D``; the kernel applies a
translation-invariant Euclidean kernel to the representations.  An
injective embedding makes the kernel universal and characteristic, but
using it to *optimise* distributions further requires the image to have
no accumulation points.  Representations drawn i.i.d. (here: uniformly
from the unit ball, keyed deterministically per sequence) accumulate;
rescaling them by ``|B|**((1+eps)|x|/D)`` spreads longer sequences onto
growing shells and removes accumulation almost surely.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional

import numpy as np

from .core import HAS_MASSES, Kernel, UNKNOWN_MASSES
from .errors import (MAX_FLOATS, DataError, NumericalError, ParameterError, check_integer,
                     check_positive)
from .seqcore import Sequence, element_blocks


class Embedding:
    """Deterministic map from sequences to vectors in ``R^D``, memoised.

    Vectors are computed in batches: subclasses implement
    :meth:`_compute` over a list of sequences, and :meth:`matrix` stacks
    the memoised rows and computes every miss in one such call.
    Memoisation is idempotent (the value is a pure function of the
    sequence), so concurrent first evaluations agree.  :meth:`vectors`
    computes without memoising; the optimizer's neighbours, each scored
    once, go that way through :meth:`neighbour_vectors`, so the memo
    holds only what is read again.  A batch must fit one numpy array.
    """

    def __init__(self, dim: int):
        # a vector must fit one numpy array
        self.dim = check_integer("dim", dim, 1, MAX_FLOATS)
        self._cache: dict[Sequence, np.ndarray] = {}

    def _compute(self, xs: list[Sequence]) -> np.ndarray:
        """The vectors of ``xs``, one row each."""
        raise NotImplementedError

    def _compute_edits(self, edits) -> np.ndarray:
        """The vectors of the neighbours that ``edits`` reach, one row
        each; by default the built neighbours' :meth:`_compute`."""
        return self._compute(edits.sequences())

    def vectors(self, xs) -> np.ndarray:
        """The ``(len(xs), D)`` vectors of ``xs``, neither read from nor
        added to the memo."""
        xs = list(xs)
        return self._batch(len(xs), lambda: self._compute(xs))

    def neighbour_vectors(self, edits) -> np.ndarray:
        """The vectors of the neighbours that single-letter ``edits``
        (an :class:`optimize.Edits`) reach, as :meth:`vectors` gives
        them; subclasses that can read the edits without building the
        neighbours override :meth:`_compute_edits`."""
        return self._batch(len(edits), lambda: self._compute_edits(edits))

    def _batch(self, count: int, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """``compute()``'s ``(count, D)`` vectors, refused as a
        :class:`ParameterError` when they cannot fit one numpy array."""
        if count * self.dim > MAX_FLOATS:
            raise ParameterError(f"dim must be at most {MAX_FLOATS // count} for a batch of "
                                 f"{count} sequences, got {self.dim}")
        if not count:
            return np.zeros((0, self.dim))
        v = np.asarray(compute(), dtype=float)
        if v.shape != (count, self.dim):
            raise DataError("embedding returned a vector of the wrong size")
        return v

    def vector(self, x: Sequence) -> np.ndarray:
        return self.matrix([x])[0]

    def matrix(self, xs) -> np.ndarray:
        xs = list(xs)
        cache = self._cache
        missing = list(dict.fromkeys(x for x in xs if x not in cache))
        if missing:
            cache.update(zip(missing, self.vectors(missing)))
        return np.stack([cache[x] for x in xs]) if xs else np.zeros((0, self.dim))


_SEP = b"\x1f"


def _utf8_letters(alphabet) -> list[bytes]:
    """The UTF-8 bytes of ``alphabet``'s letters, indexed by code."""
    return [b.encode() for b in alphabet.letters]


class RandomBallEmbedding(Embedding):
    """I.i.d.-style representations, uniform on the unit ball.

    Each sequence's vector is generated by a counter-based generator
    keyed on a cryptographic hash of the letters mixed with the seed, so
    the (infinite) sequence space never needs materialising and repeated
    lookups are identical.  Distinct sequences collide with probability
    zero in exact arithmetic, giving an almost surely injective map.
    """

    def __init__(self, dim: int, seed: int):
        super().__init__(dim)
        # hashed as 8 signed bytes
        self.seed = check_integer("seed", seed, -2**63, 2**63 - 1)
        self._seed_bytes = self.seed.to_bytes(8, "little", signed=True)

    def _compute(self, xs: list[Sequence]) -> np.ndarray:
        encoded = {}  # alphabet -> its UTF-8 letters, indexed by code

        def joined(x):
            letters = encoded.get(x.alphabet)
            if letters is None:
                letters = encoded[x.alphabet] = _utf8_letters(x.alphabet)
            return _SEP.join([letters[c] for c in x.codes])

        return self._draw(len(xs), map(joined, xs))

    def _compute_edits(self, edits) -> np.ndarray:
        """The neighbours' joined letters spliced from ``x``'s: the
        letters before the edit, each followed by the separator, then the
        written letter, then those after it, each preceded by one."""
        x = edits.x
        letters = _utf8_letters(x.alphabet)
        own = [letters[c] for c in x.codes]
        n = len(own)
        head = [b""] * (n + 1)  # head[p]: own[:p], each followed by the separator
        tail = [b""] * (n + 1)  # tail[p]: own[p:], each preceded by the separator
        for p in range(n):
            head[p + 1] = head[p] + own[p] + _SEP
            tail[n - 1 - p] = _SEP + own[n - 1 - p] + tail[n - p]

        def joined(kind, p, c):
            if kind == edits.DELETION:
                return head[p] + own[p + 1] + tail[p + 2] if p + 1 < n else head[p][:-1]
            return head[p] + letters[c] + tail[p + (kind == edits.SUBSTITUTION)]

        return self._draw(len(edits), (joined(*r) for r in edits.rows()))

    def _draw(self, count: int, keys) -> np.ndarray:
        """The vectors keyed by ``count`` joined letter strings ``keys``:
        one Philox, rekeyed per vector through one state dict and key
        buffer.  Philox is counter based, so key ``k`` with counter 0 and
        an empty buffer is the stream of ``Philox(key=k)``, whose
        constructor would also gather entropy for a seed it never uses.
        The key is the blake2b digest of the UTF-8 letters joined by the
        byte 0x1f, keyed by the seed, read as a little-endian 128-bit
        integer: its two 64-bit words in order."""
        bit_generator = np.random.Philox(key=0)
        rng = np.random.Generator(bit_generator)
        state = bit_generator.state
        key = np.zeros(2, dtype="<u8")
        key_bytes = memoryview(key).cast("B")
        state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": key}
        state["buffer_pos"] = 4
        keyed = hashlib.blake2b(digest_size=16, key=self._seed_bytes)
        out = np.empty((count, self.dim))
        for row, joined in zip(out, keys):
            h = keyed.copy()
            h.update(joined)
            key_bytes[:] = h.digest()
            bit_generator.state = state
            rng.standard_normal(out=row)
            row /= math.sqrt(row.dot(row))  # np.linalg.norm of a vector, inlined
            row *= rng.random() ** (1.0 / self.dim)
        return out


class ScaledEmbedding(Embedding):
    """Length-dependent rescaling ``|B|**((1+eps)|x|/D) * base(x)``.

    Gives each length class its own shell so representations cannot
    accumulate; the base map's injectivity is preserved.
    """

    def __init__(self, base: Embedding, epsilon: float, alphabet_size: int):
        check_positive(epsilon=epsilon)
        super().__init__(base.dim)
        self.base = base
        self.epsilon = float(epsilon)
        self.alphabet_size = check_integer("alphabet_size", alphabet_size, 1)

    def _compute(self, xs: list[Sequence]) -> np.ndarray:
        # base.vectors, not base.matrix: only the scaled vector is read
        # again, from this memo
        return self._scaled([len(x) for x in xs], lambda: self.base.vectors(xs))

    def _compute_edits(self, edits) -> np.ndarray:
        return self._scaled(edits.lengths().tolist(), lambda: self.base.neighbour_vectors(edits))

    def _scaled(self, lengths: list[int], base: Callable[[], np.ndarray]) -> np.ndarray:
        """The ``base()`` vectors of sequences of ``lengths``, scaled."""
        try:
            scales = {n: self.alphabet_size ** ((1.0 + self.epsilon) * n / self.dim)
                      for n in set(lengths)}
        except OverflowError:
            raise NumericalError(f"the scale of length {max(lengths)} overflows "
                                 f"at epsilon {self.epsilon:g}, dim {self.dim}") from None
        scale = np.array([scales[n] for n in lengths])
        return scale[:, None] * base()


class FunctionEmbedding(Embedding):
    """Wrap an arbitrary deterministic function as an embedding."""

    def __init__(self, fn: Callable[[Sequence], np.ndarray], dim: int):
        super().__init__(dim)
        self._fn = fn

    def _compute(self, xs: list[Sequence]) -> np.ndarray:
        rows = [np.atleast_1d(np.asarray(self._fn(x), dtype=float)) for x in xs]
        if any(r.shape != (self.dim,) for r in rows):
            raise DataError("embedding returned a vector of the wrong size")
        return np.stack(rows)


class TableEmbedding(Embedding):
    """Finite-support embedding backed by an explicit table.

    Raises on lookup of a sequence outside the table.
    """

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        super().__init__(dim)
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        for k, v in self.table.items():
            if v.shape != (self.dim,):
                raise DataError(f"table row {k!r} has wrong dimension")

    def _compute(self, xs: list[Sequence]) -> np.ndarray:
        rows = []
        for x in xs:
            key = str(x)
            if key not in self.table:
                raise DataError(f"sequence {key!r} is not in the embedding table")
            rows.append(self.table[key])
        return np.stack(rows)


class EuclideanKernel:
    """Translation-invariant kernel on ``R^D`` with unit diagonal."""

    def __init__(self, form: str, gamma: float = 1.0):
        if form not in ("imq", "rbf"):
            raise ParameterError(f"Euclidean kernel form must be 'imq' or 'rbf', got {form!r}")
        check_positive(gamma=gamma)
        self.form = form
        self.gamma = float(gamma)

    def of_sqdist(self, d2):
        """The kernel at squared distances ``d2``, computed in one fresh
        array, so a Gram peaks at ``d2`` and its values."""
        d2 = np.asarray(d2, dtype=float)
        f = np.empty_like(d2)
        if self.form == "imq":
            np.divide(1.0, np.add(d2, 1.0, out=f), out=f)
        else:
            np.exp(np.multiply(d2, -self.gamma, out=f), out=f)
        return f[()]  # a scalar for a scalar d2


#: Element cap on each ``rows x len(B) x D`` difference block of
#: :func:`_squared_distances`.  Blocks that stay in cache beat the
#: library-wide ``BLOCK_ELEMENTS`` (2**20): on 2 vCPUs, 1112 x 100 at
#: D = 64 took 9.2 ms against 11.2, and 1000 x 1000 at D = 16 took 25
#: ms against 32; 2**15 and 2**17 were slower than 2**16 on both.
DIFFERENCE_BLOCK_ELEMENTS = 2**16


def _squared_distances(A: np.ndarray, B: Optional[np.ndarray] = None) -> np.ndarray:
    """``d2[i, j] = |A[i] - B[j]|^2`` from exact differences, not
    ``|a|^2 + |b|^2 - 2 a.b``, which cancels on the long shells of
    scaled embeddings; row blocks bound the memory.  Without ``B``
    (``B = A``) a row block is computed on and right of the diagonal
    and mirrored: ``(a - b)^2 = (b - a)^2`` exactly, so the mirror is
    the entries it stands for, bit for bit."""
    upper = B is None
    B = A if upper else B
    d2 = np.empty((len(A), len(B)))
    for blk in element_blocks(len(A), B.size, DIFFERENCE_BLOCK_ELEMENTS):
        lo = blk.start if upper else 0
        diff = A[blk, None, :] - B[None, lo:, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=d2[blk, lo:])
        if upper:
            d2[lo:, blk] = d2[blk, lo:].T
    return d2


class EmbeddingKernel(Kernel):
    """``k(x, y) = k_E(F(x), F(y))`` for an embedding ``F``.

    ``k(x, x) = 1`` because ``k_E`` is translation invariant.  The
    ``mass_status`` flag reflects the embedding's spread: scaled random
    embeddings earn discrete masses (almost surely), plain i.i.d. ones
    accumulate and stay unflagged.
    """

    family = "embedding"

    def __init__(self, embedding: Embedding, euclidean: EuclideanKernel):
        self.embedding = embedding
        self.euclidean = euclidean
        spread = (isinstance(embedding, ScaledEmbedding)
                  and isinstance(embedding.base, RandomBallEmbedding))
        self.mass_status = HAS_MASSES if spread else UNKNOWN_MASSES

    def pairwise(self, xs, ys=None) -> np.ndarray:
        A = self.embedding.matrix(xs)
        B = None if ys is None else self.embedding.matrix(ys)
        return self.euclidean.of_sqdist(_squared_distances(A, B))

    def prepare_target(self, atoms) -> np.ndarray:
        """The atoms' vectors."""
        return self.embedding.matrix(atoms)

    def neighbour_values(self, edits, target) -> tuple[np.ndarray, np.ndarray]:
        """Values of the neighbours that ``edits`` reach, from one batch
        of their vectors (:meth:`Embedding.neighbour_vectors`), not
        memoised: each is scored once.  Equal to ``pairwise`` over the
        built neighbours, bit for bit."""
        A = self.embedding.neighbour_vectors(edits)
        return self.euclidean.of_sqdist(_squared_distances(A, target)), np.ones(len(A))

    def self_similarities(self, xs) -> np.ndarray:
        return np.ones(len(list(xs)))


def random_ball_embedding(seed: int, dim: int) -> RandomBallEmbedding:
    return RandomBallEmbedding(dim, seed)


def scaled_embedding(base: Embedding, epsilon: float, alphabet_size: int) -> ScaledEmbedding:
    return ScaledEmbedding(base, epsilon, alphabet_size)


def embedding_kernel(embedding: Embedding, euclidean: EuclideanKernel) -> EmbeddingKernel:
    return EmbeddingKernel(embedding, euclidean)


def load_embedding_table(path, dim: Optional[int] = None) -> TableEmbedding:
    """Read a CSV of ``sequence, v0, v1, ...`` rows into a table embedding.

    A malformed or non-finite entry is a :class:`DataError` naming
    ``path:line``; a ``dim`` that breaks its rule is refused before the
    file is read.
    """
    if dim is not None:
        dim = Embedding(dim).dim  # the dim rule, before the file is read
    table = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read embedding table {path!r}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected 'sequence,v0,...'")
            key = parts[0].strip()
            try:
                vec = np.array([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad vector entry") from exc
            if not np.isfinite(vec).all():
                raise DataError(f"{path}:{lineno}: vector entry is not finite")
            if dim is None:
                dim = vec.size
            if vec.size != dim:
                raise DataError(f"{path}:{lineno}: inconsistent vector size")
            if key in table:
                raise DataError(f"{path}:{lineno}: duplicate sequence {key!r}")
            table[key] = vec
    if not table:
        raise DataError(f"{path}: empty embedding table")
    return TableEmbedding(table, dim)
