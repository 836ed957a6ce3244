"""Greedy MMD minimisation over single-letter edits.

Starting from an initial sequence, repeatedly evaluate
``MMD(delta_X', target)`` for every single-edit neighbour X' (all
substitutions, single-letter insertions, and deletions), move to the
best neighbour while it improves by at least ``min_improvement``, and
stop otherwise.  Different edits can reach the same neighbour (an
insertion next to an equal letter, for example); each distinct
neighbour is scored once and its value shared by every edit that
reaches it, so ties still go to the first edit in canonical order.

A step's edits are arrays (:class:`Edits`), and the duplicates follow
from the current sequence alone, so no neighbour is built to find them.
The kernel scores the distinct ones through
:meth:`Kernel.neighbour_values`, which by default builds those
neighbours for one ``pairwise`` and one ``self_similarities`` call.
Three kernels override it, each equal to the default bit for bit (times
per step from a 28-residue protein start, 2 vCPUs, BLAS at 2 threads):

- ``imq_hamming``: a neighbour's Hamming distance to an atom follows
  from the current sequence's prefix and suffix match counts against
  that atom at shifts -1, 0 and +1, exact integers, so only the
  accepted neighbour is ever built; against 300 atoms, about 4 ms
  instead of about 16.
- ``embedding``: the neighbours' vectors in one batch, not memoised;
  the README's kernel (D = 64) against 100 atoms, about 24 ms.
- normalized kernels: the base's values, tilted, so normalized
  ``imq_hamming`` keeps the match counts; about 2 ms instead of about
  6 against 100 atoms.

Sums and tilts by a weight function take the default.

Kernels that do not metrize the space of distributions can send the
walk off towards ever-longer (or degenerate) sequences; a metrizing
kernel stops that runaway.  It does not make the minimising point mass
share the target's lengths: that is a property of minimising MMD over
distributions (the minimiser of ``MMD(Q, target)`` is ``Q = target``).
With i.i.d. representations rescaled by length, for example,
``k(x, a)`` depends on ``x`` almost only through the representation
norm, which grows with ``|x|``, so the best single sequence is a short
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Kernel
from .errors import DataError
from .rkhs import EmpiricalMeasure
from .seqcore import Sequence, shared_alphabet


@dataclass(frozen=True)
class Edit:
    """A single-letter edit: kind is 'substitution', 'insertion',
    'deletion', or 'none' (the initial step)."""

    kind: str
    position: Optional[int] = None
    letter: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "deletion":
            return f"deletion@{self.position}"
        return f"{self.kind}@{self.position}:{self.letter}"


@dataclass(frozen=True)
class TraceStep:
    index: int
    sequence: Sequence
    mmd: float
    edit: Edit


@dataclass
class OptimizationTrace:
    """Greedy descent record; MMD values are nonincreasing by construction."""

    steps: list[TraceStep]
    converged: bool

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]


class Edits:
    """Single-letter edits of one sequence ``x``, as parallel arrays.

    ``kind`` holds :attr:`SUBSTITUTION`, :attr:`DELETION` or
    :attr:`INSERTION`, ``position`` the edited position and ``code`` the
    letter code written there (-1 for a deletion).  Nothing here builds a neighbour until :meth:`neighbour` or
    :meth:`sequences` is asked.
    """

    SUBSTITUTION, DELETION, INSERTION = 0, 1, 2
    KINDS = ("substitution", "deletion", "insertion")

    def __init__(self, x: Sequence, kind: np.ndarray, position: np.ndarray, code: np.ndarray):
        self.x = x
        self.kind = kind
        self.position = position
        self.code = code

    @classmethod
    def of(cls, x: Sequence) -> "Edits":
        """Every single-letter edit of ``x``, in canonical (tie-break)
        order: substitutions (by position, then letter), then deletions
        (by position), then insertions (by position, then letter)."""
        n, size = len(x), x.alphabet.size
        codes = np.array(x.codes, dtype=np.intp)
        sub_pos, sub_code = np.nonzero(np.arange(size) != codes[:, None])
        ins_pos, ins_code = np.divmod(np.arange((n + 1) * size), size)
        kind = np.repeat([cls.SUBSTITUTION, cls.DELETION, cls.INSERTION],
                         [len(sub_pos), n, len(ins_pos)])
        position = np.concatenate([sub_pos, np.arange(n), ins_pos])
        code = np.concatenate([sub_code, np.full(n, -1), ins_code])
        return cls(x, kind, position, code)

    def __len__(self) -> int:
        return len(self.kind)

    def take(self, rows: np.ndarray) -> "Edits":
        """The edits picked by an index array or a mask."""
        return Edits(self.x, self.kind[rows], self.position[rows], self.code[rows])

    def first_seen(self) -> tuple[np.ndarray, np.ndarray]:
        """Of every edit, as :meth:`of` orders them: a mask of the edits
        that reach each distinct neighbour first, and for each edit the
        index among those of the one that reaches its neighbour.

        Substitutions all differ.  Deleting at ``p`` and ``q > p`` gives
        the same neighbour iff ``x[p..q]`` is one letter repeated, and
        inserting ``c`` at both iff ``x[p..q-1]`` is ``c`` repeated; so
        a deletion at ``p > 0`` repeats one at ``p - 1`` when
        ``x[p] == x[p-1]``, an insertion of ``c`` at ``p > 0`` repeats
        one at ``p - 1`` when ``x[p-1] == c``, and each edit's first is
        the last first-seen edit of its kind (and letter) at or before
        its position.
        """
        x = self.x
        n, size = len(x), x.alphabet.size
        codes = np.array(x.codes, dtype=np.intp)
        n_sub = n * (size - 1)
        del_first = np.ones(n, dtype=bool)
        del_first[1:] = codes[1:] != codes[:-1]
        ins_first = np.ones((n + 1, size), dtype=bool)
        ins_first[1:] = codes[:, None] != np.arange(size)
        first = np.concatenate([np.ones(n_sub, dtype=bool), del_first, ins_first.ravel()])
        del_origin = np.maximum.accumulate(np.where(del_first, np.arange(n), 0))
        ins_origin = np.maximum.accumulate(
            np.where(ins_first, np.arange(n + 1)[:, None], 0), axis=0)
        origin = np.concatenate([np.arange(n_sub), n_sub + del_origin,
                                 n_sub + n + ins_origin * size + np.arange(size)], axis=None)
        return first, (np.cumsum(first) - 1)[origin]

    def _rows(self):
        return zip(self.kind.tolist(), self.position.tolist(), self.code.tolist())

    def neighbour(self, i: int) -> tuple[Edit, Sequence]:
        """Edit ``i`` and the neighbour it reaches."""
        x, k, p, c = self.x, int(self.kind[i]), int(self.position[i]), int(self.code[i])
        return _edit(x.alphabet, k, p, c), Sequence(x.alphabet, _applied(x.codes, k, p, c))

    def sequences(self) -> list[Sequence]:
        """The neighbours these edits reach, in order."""
        alphabet, codes = self.x.alphabet, self.x.codes
        return [Sequence(alphabet, _applied(codes, k, p, c)) for k, p, c in self._rows()]


def _edit(alphabet, kind: int, p: int, c: int) -> Edit:
    return Edit(Edits.KINDS[kind], p, None if kind == Edits.DELETION else alphabet.letters[c])


def _applied(codes: tuple, kind: int, p: int, c: int) -> tuple:
    """``codes`` with one edit applied."""
    if kind == Edits.DELETION:
        return codes[:p] + codes[p + 1:]
    return codes[:p] + (c,) + codes[p + (kind == Edits.SUBSTITUTION):]


def single_edit_neighbors(x: Sequence) -> list[tuple[Edit, Sequence]]:
    """All single-edit neighbours in canonical (tie-break) order.

    Substitutions first (by position, then letter), then deletions (by
    position), then insertions (by position, then letter); this order is
    the tie-break for equal MMD values.  The edits are :meth:`Edits.of`.
    """
    alphabet, codes = x.alphabet, x.codes
    return [(_edit(alphabet, k, p, c), Sequence(alphabet, _applied(codes, k, p, c)))
            for k, p, c in Edits.of(x)._rows()]


class _MmdToTarget:
    """MMD(delta_x, target) with the target-target double sum cached."""

    def __init__(self, kernel: Kernel, target: EmpiricalMeasure):
        self.kernel = kernel
        self.atoms = list(target.atoms)
        self.w = target.weights
        K_tt = kernel.pairwise(self.atoms)
        self.tt = float(self.w @ K_tt @ self.w)

    def __call__(self, x: Sequence) -> float:
        return self.many([x])[0]

    def many(self, xs: list[Sequence]) -> np.ndarray:
        return self._mmd(self.kernel.pairwise(xs, self.atoms), self.kernel.self_similarities(xs))

    def of_edits(self, edits: Edits) -> np.ndarray:
        """The MMD of each neighbour that ``edits`` reach, from the
        kernel's :meth:`Kernel.neighbour_values`."""
        return self._mmd(*self.kernel.neighbour_values(edits, self.atoms))

    def _mmd(self, K: np.ndarray, self_sim: np.ndarray) -> np.ndarray:
        m2 = self_sim + self.tt - 2.0 * (K @ self.w)
        return np.sqrt(np.maximum(m2, 0.0))


def greedy_mmd_optimize(kernel: Kernel, target: EmpiricalMeasure,
                        init: Sequence, max_steps: int = 100,
                        min_improvement: float = 1e-12) -> OptimizationTrace:
    """Greedy single-edit descent on ``MMD(delta_x, target)``.

    Accepts the strictly best neighbour while it improves the objective
    by at least ``min_improvement`` (finite and ``>= 0``; the default is
    strict descent up to round-off, which guarantees termination);
    otherwise stops with ``converged=True``.  ``converged=False`` means
    the step budget ran out first.  The start and the target atoms must
    share one alphabet.
    """
    if max_steps < 1:
        raise DataError("max_steps must be >= 1")
    if not (math.isfinite(min_improvement) and min_improvement >= 0):
        raise DataError(f"min_improvement must be finite and >= 0, got {min_improvement}")
    if len(target) == 0:
        raise DataError("target measure must be nonempty")
    shared_alphabet([init, *target.atoms])
    objective = _MmdToTarget(kernel, target)
    current = init
    current_mmd = float(objective(init))
    steps = [TraceStep(0, current, current_mmd, Edit("none"))]
    converged = False
    for step in range(1, max_steps + 1):
        # score each distinct neighbour once; values stay in canonical
        # order, so argmin's first-minimum tie-break is unchanged
        edits = Edits.of(current)
        first, slot = edits.first_seen()
        values = objective.of_edits(edits.take(first)).take(slot)
        best = int(np.argmin(values))
        if values[best] <= current_mmd - min_improvement:
            edit, current = edits.neighbour(best)
            current_mmd = float(values[best])
            steps.append(TraceStep(step, current, current_mmd, edit))
        else:
            converged = True
            break
    return OptimizationTrace(steps, converged)


@dataclass(frozen=True)
class LengthStatistics:
    final_length: int
    target_min: int
    target_mean: float
    target_max: int


def length_statistics(trace: OptimizationTrace,
                      target: EmpiricalMeasure) -> LengthStatistics:
    """Length summary used to judge whether optimisation matched the
    target's length distribution."""
    if not trace.steps:
        raise DataError("trace is empty")
    lens = [len(a) for a in target.atoms]
    return LengthStatistics(
        final_length=len(trace.final.sequence),
        target_min=min(lens),
        target_mean=float(np.mean(lens)),
        target_max=max(lens),
    )
