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
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .errors import DataError
from .seqcore import DNA, PROTEIN, Alphabet, Sequence

PAIR_MARKER = "|"


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
        for ch in letters:
            if ch not in alphabet:
                raise DataError(
                    f"{path}: record {rec_id!r} contains letter {ch!r} "
                    f"outside the alphabet"
                )
        return Sequence.from_letters(alphabet, letters)

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
    """Read an ``id,label`` CSV (header optional) into a dict."""
    out: dict[str, float] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read labels {path!r}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id,label'")
            if lineno == 1 and parts[1].lower() in ("label", "y", "value"):
                continue
            try:
                value = float(parts[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: label is not a number") from exc
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


def write_csv(path, header: list[str], rows: Iterable[Iterable],
              footer_comments: Iterable[str] = ()) -> None:
    """Write ``header``, one line per row, then ``# `` comment lines.

    A cell is a scalar, printed by :func:`fmt`, or a 1-D float64 array
    whose entries become consecutive cells.  Array entries are keyed by
    their bit pattern (so ``-0.0`` keeps printing ``-0``), each distinct
    key is printed once by :func:`fmt`, and the rows are joined from the
    looked-up strings.
    """
    rows = [list(row) for row in rows]
    arrays = [cell for row in rows for cell in row if isinstance(cell, np.ndarray)]
    texts: list[str] = []
    if arrays:
        flat = np.concatenate(arrays, dtype=np.float64)
        keys, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        table = np.array([fmt(v) for v in keys.view(np.float64).tolist()], dtype=object)
        texts = table[inverse].tolist()
    at = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, np.ndarray):
                    cells += texts[at:at + v.size]
                    at += v.size
                else:
                    cells.append(fmt(v))
            fh.write(",".join(cells) + "\n")
        for line in footer_comments:
            fh.write(f"# {line}\n")
