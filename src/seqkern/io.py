"""FASTA and CSV input/output used by the command-line interface.

FASTA records: ``>`` header lines start a record (the ID is the first
whitespace-separated token), sequence lines are concatenated with
whitespace stripped, and letters are validated against the alphabet.
For kernels on sequence pairs, a single ``|`` marker may split a record
into a left and right part.

CSV output uses '.' decimals, 17 significant digits, and LF endings.
A row may hand :func:`write_csv` a whole float array (a Gram row) as
one cell; each distinct value of those arrays is formatted once and
looked up, so a matrix costs one ``format`` per distinct value instead
of one per entry, and the bytes are those of formatting every entry.
The distinct values come from one sort of the entries' bit patterns.
When some 16-bit field of those patterns differs between every two of
them, as it does for the dozen or so values of a Hamming-family Gram,
a 65,536-entry table indexed by that field maps each entry to its
value without a second sort; otherwise ``np.unique``'s inverse does.
``seqkern gram`` on 1,000 tcr-like proteins (``imq_hamming``, a
19.7 MB CSV with 13 distinct values; 2 vCPUs, 2 BLAS threads, medians
of 15 in two runs) took 80-91 ms: :func:`write_csv` 47-55 ms,
``gram()`` 23-28, :func:`read_fasta` 3-4 and the argument parser 3-4.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .errors import DataError
from .seqcore import DNA, PROTEIN, Alphabet, Sequence

PAIR_MARKER = "|"

#: Bytes buffered between :func:`write_csv` and its file, so a file of
#: Gram rows goes out in 1 MB writes rather than one per row.  Writing
#: the 1,001 lines of a 19.7 MB Gram CSV took 22 ms through 256 KB to
#: 4 MB buffers and 27 ms through 8 KB or 64 KB ones (median of 31).
WRITE_BUFFER = 2**20


def parse_alphabet(spec: str) -> Alphabet:
    """Resolve an alphabet name or explicit letter string.

    ``dna`` is :data:`seqcore.DNA` (ACGT), ``protein`` is
    :data:`seqcore.PROTEIN` (the 20 amino acids), either name in any
    case; any other string is its distinct characters.
    """
    name = spec.strip()
    return {"dna": DNA, "protein": PROTEIN}.get(name.lower()) or Alphabet(name)


def read_fasta(path, alphabet: Alphabet,
               allow_pairs: bool = False) -> tuple[list[str], list]:
    """Read FASTA records as (ids, sequences).

    With ``allow_pairs`` a record may contain one ``|`` marker and is
    returned as a (left, right) sequence pair with the left part
    reversed, so both halves read outward from the marker.
    """
    ids: list[str] = []
    seen: set[str] = set()
    records: list[list[str]] = []
    current: Optional[list[str]] = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read FASTA {path!r}: {exc}") from exc
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                header = line[1:].strip()
                if not header:
                    raise DataError(f"{path}: FASTA record with empty header")
                rec_id = header.split()[0]
                if rec_id in seen:
                    raise DataError(f"{path}: duplicate FASTA ID {rec_id!r}")
                seen.add(rec_id)
                ids.append(rec_id)
                current = []
                records.append(current)
            else:
                if current is None:
                    raise DataError(f"{path}: sequence data before any '>' header")
                current.extend(line.split())
    if not ids:
        raise DataError(f"{path}: no FASTA records found")

    def to_seq(rec_id: str, letters: str) -> Sequence:
        codes = alphabet.codes(letters)
        if None in codes:
            raise DataError(
                f"{path}: record {rec_id!r} contains letter "
                f"{letters[codes.index(None)]!r} outside the alphabet"
            )
        return Sequence(alphabet, codes)

    out = []
    for rec_id, parts in zip(ids, records):
        letters = "".join(parts)
        if allow_pairs and PAIR_MARKER in letters:
            if letters.count(PAIR_MARKER) != 1:
                raise DataError(
                    f"{path}: record {rec_id!r} must contain at most one "
                    f"'{PAIR_MARKER}' marker"
                )
            left, right = letters.split(PAIR_MARKER)
            out.append((to_seq(rec_id, left[::-1]), to_seq(rec_id, right)))
        elif PAIR_MARKER in letters:
            raise DataError(
                f"{path}: record {rec_id!r} contains '{PAIR_MARKER}' but this "
                f"command does not accept paired records"
            )
        else:
            out.append(to_seq(rec_id, letters))
    return ids, out


def write_fasta(path, ids: Iterable[str], sequences: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec_id, s in zip(ids, sequences):
            fh.write(f">{rec_id}\n{s}\n")


def read_labels(path) -> dict[str, float]:
    """Read an ``id,label`` CSV into a dict.

    Blank lines and ``#`` comment lines are skipped anywhere; the first
    other line may be a header, whose label column is named ``label``,
    ``y`` or ``value``.
    """
    out: dict[str, float] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read labels {path!r}: {exc}") from exc
    first = True
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id,label'")
            if first:
                first = False
                if parts[1].lower() in ("label", "y", "value"):
                    continue
            try:
                value = float(parts[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: label is not a number") from exc
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: label is not finite: {parts[1]}")
            if parts[0] in out:
                raise DataError(f"{path}:{lineno}: duplicate ID {parts[0]!r}")
            out[parts[0]] = value
    if not out:
        raise DataError(f"{path}: no labels found")
    return out


def fmt(value) -> str:
    """Full-precision, locale-independent number formatting."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _distinct_bits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``bits`` and each entry's index among them.

    The keys are the distinct values of one sort.  When some 16-bit
    field of the keys, scanning from the low end, holds a different
    value in every key, a table indexed by that field gives each entry's
    index: exact, because every entry is one of the keys.  Exact binary
    fractions (1, 1/4, 1/16) agree in their low bits, hence the scan.
    Keys that no field separates (many distinct values) take
    ``np.unique``'s inverse.
    """
    s = np.sort(bits)
    new = np.empty(s.size, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    keys = s[new]
    del s, new
    if keys.size <= 1 << 16:
        for shift in (0, 16, 32, 48):
            field = (keys >> shift) & 0xFFFF
            if np.unique(field).size == keys.size:
                table = np.zeros(1 << 16, dtype=np.min_scalar_type(keys.size))
                table[field] = np.arange(keys.size)
                field = bits >> shift
                field &= 0xFFFF
                return keys, table[field]
    return keys, np.unique(bits, return_inverse=True)[1]


def write_csv(path, header: list[str], rows: Iterable[Iterable],
              footer_comments: Iterable[str] = ()) -> None:
    """Write ``header``, one line per row, then ``# `` comment lines.

    A cell is a scalar, printed by :func:`fmt`, or a 1-D float64 array
    whose entries become consecutive cells.  Array entries are keyed by
    their bit pattern (so ``-0.0`` keeps printing ``-0``), each distinct
    key is printed once by :func:`fmt`, and each row is joined from the
    looked-up strings of its entries.
    """
    rows = [list(row) for row in rows]
    arrays = [cell for row in rows for cell in row if isinstance(cell, np.ndarray)]
    if arrays:
        flat = np.concatenate(arrays, dtype=np.float64)
        keys, inverse = _distinct_bits(flat.view(np.int64))
        del flat
        texts = np.array([fmt(v) for v in keys.view(np.float64).tolist()], dtype=object)
    at = 0
    with open(path, "w", encoding="utf-8", newline="\n", buffering=WRITE_BUFFER) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, np.ndarray):
                    cells += texts[inverse[at:at + v.size]].tolist()
                    at += v.size
                else:
                    cells.append(fmt(v))
            fh.write(",".join(cells) + "\n")
        for line in footer_comments:
            fh.write(f"# {line}\n")
