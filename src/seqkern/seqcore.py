"""Alphabets, variable-length sequences, and stop-padding semantics.

Sequences are finite strings over a fixed alphabet.  All comparisons act
as if every sequence were followed by an infinite tail of the reserved
stop symbol ``$``; the padding is purely a comparison-time convention and
is never stored.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DataError

STOP = "$"

#: Element cap on each temporary of the vectorised kernels' blocked loops.
BLOCK_ELEMENTS = 2**20


class Alphabet:
    """An ordered set of distinct letters with a reserved stop symbol.

    Letters are arbitrary string tokens (single characters in all the
    file formats handled by the CLI).  The stop symbol ``$`` may not be a
    letter; it denotes the implicit padding past the end of a sequence.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if len(letters) == 0:
            raise DataError("alphabet must contain at least one letter")
        if len(set(letters)) != len(letters):
            raise DataError("alphabet letters must be distinct")
        if STOP in letters:
            raise DataError(f"the stop symbol {STOP!r} is reserved")
        self.letters = letters
        self._index = {b: i for i, b in enumerate(letters)}

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def stop(self) -> str:
        return STOP

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise DataError(f"letter {letter!r} is not in the alphabet") from None

    def codes(self, letters: Iterable[str]) -> tuple[Optional[int], ...]:
        """The code of each letter, ``None`` for one outside the alphabet.

        One dictionary lookup per letter, so a caller checks a whole
        string with one ``None in codes`` instead of a lookup per letter.
        """
        return tuple(map(self._index.get, letters))

    def __contains__(self, letter: str) -> bool:
        return letter in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


DNA = Alphabet("ACGT")
PROTEIN = Alphabet("ACDEFGHIKLMNPQRSTVWY")
BINARY = Alphabet("AB")


class Sequence:
    """An immutable string of letters over one :class:`Alphabet`.

    Stored as integer letter codes for fast comparison.  The empty
    sequence is valid.  Slicing returns a new :class:`Sequence`.
    """

    __slots__ = ("alphabet", "codes", "_hash")

    def __init__(self, alphabet: Alphabet, codes: tuple[int, ...]):
        self.alphabet = alphabet
        self.codes = codes
        self._hash = hash((alphabet.letters, codes))

    @classmethod
    def from_letters(cls, alphabet: Alphabet, letters: Iterable[str]) -> "Sequence":
        if not isinstance(letters, str):
            letters = tuple(letters)
        codes = alphabet.codes(letters)
        if None in codes:
            alphabet.index(letters[codes.index(None)])  # raises, naming the first
        return cls(alphabet, codes)

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(self.alphabet.letters[c] for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Sequence(self.alphabet, self.codes[item])
        return self.alphabet.letters[self.codes[item]]

    def __add__(self, other: "Sequence") -> "Sequence":
        shared_alphabet((self, other))
        return Sequence(self.alphabet, self.codes + other.codes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sequence)
            and self.alphabet.letters == other.alphabet.letters
            and self.codes == other.codes
        )

    def __lt__(self, other: "Sequence") -> bool:
        return (len(self), self.codes) < (len(other), other.codes)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if all(len(b) == 1 for b in self.alphabet.letters):
            return "".join(self.letters)
        return ",".join(self.letters)

    def __repr__(self) -> str:
        return f"Sequence({str(self) or chr(8709)!r})"


def seq(alphabet: Alphabet, letters: str | Iterable[str]) -> Sequence:
    """Convenience constructor: ``seq(DNA, "ATGC")``."""
    return Sequence.from_letters(alphabet, letters)


def empty(alphabet: Alphabet) -> Sequence:
    return Sequence(alphabet, ())


def shared_alphabet(seqs: Iterable[Sequence]) -> Optional[Alphabet]:
    """The one alphabet of ``seqs`` (``None`` when there are none).

    Letter codes mean different letters in different alphabets, and
    code ``|B|`` is the stop of one alphabet but a letter of a larger
    one, so codes of two alphabets must never be compared: two that
    differ raise :class:`DataError` naming both.
    """
    first = None
    for s in seqs:
        a = s.alphabet
        if first is None:
            first = a
        elif a is not first and a.letters != first.letters:
            raise DataError(f"sequences use different alphabets: {first!r} and {a!r}")
    return first


def enumerate_sequences(alphabet: Alphabet, L: int) -> list[Sequence]:
    """All ``|B|**L`` sequences of length exactly ``L``, lexicographic."""
    n = alphabet.size
    return [
        Sequence(alphabet, codes)
        for codes in itertools.product(range(n), repeat=L)
    ]


def enumerate_up_to(alphabet: Alphabet, L_max: int) -> list[Sequence]:
    """All sequences of length at most ``L_max``, shortest first."""
    out: list[Sequence] = []
    for L in range(L_max + 1):
        out.extend(enumerate_sequences(alphabet, L))
    return out


def encode_padded(seqs: list[Sequence], width: Optional[int] = None) -> np.ndarray:
    """Pack sequences into an ``(n, width)`` int array padded with stop.

    The stop code is the alphabet size ``|B|``, one past the letters, so
    a table over the letters plus stop is indexed by codes directly.
    The sequences must share one alphabet (:func:`shared_alphabet`).
    Every code is read in one pass over the padded tuples.
    """
    alphabet = shared_alphabet(seqs)
    if width is None:
        width = max(map(len, seqs), default=0)
    elif any(len(s) > width for s in seqs):
        raise ValueError("sequence longer than requested width")
    tail = (alphabet.size if seqs else 0,) * width
    flat = itertools.chain.from_iterable([s.codes + tail[len(s):] for s in seqs])
    return np.fromiter(flat, dtype=np.int64, count=len(seqs) * width).reshape(len(seqs), width)


def window_ids(codes: np.ndarray, stop: int, L: int) -> Iterator[np.ndarray]:
    """For ``l = 1 .. L``, the ids of the windows ``codes[i, p : p + l]``.

    ``codes`` is stop-padded and read as ``stop`` past its end too; two
    windows share an id iff they are equal as strings over the letters
    plus stop.  Ids grow one letter at a time and are renumbered by
    ``np.unique`` after each, so they stay below the number of windows
    and are exact for any ``L`` and alphabet.
    """
    width = codes.shape[1]
    padded = np.pad(codes, ((0, 0), (0, L - 1)), constant_values=stop)
    ids = codes
    yield ids
    for t in range(1, L):
        ids = ids * (stop + 1) + padded[:, t : t + width]
        ids = np.unique(ids.ravel(), return_inverse=True)[1].reshape(ids.shape)
        yield ids


def element_blocks(count: int, per_item: int, cap: Optional[int] = None) -> list[slice]:
    """Cut ``range(count)`` into near-equal slices for a blocked loop.

    Each slice holds at most ``cap // per_item`` items (and at least
    one), so a temporary of ``per_item`` elements per item stays under
    the cap whatever ``count`` is.  ``cap`` defaults to
    ``BLOCK_ELEMENTS``, read at call time.
    """
    if count <= 0:
        return []
    if cap is None:
        cap = BLOCK_ELEMENTS
    step = max(1, cap // max(per_item, 1))
    nblocks = -(-count // step)
    step = -(-count // nblocks)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]
