"""Greedy MMD minimisation over single-letter edits.

Starting from an initial sequence, repeatedly evaluate
``MMD(delta_X', target)`` for every single-edit neighbour X' (all
substitutions, single-letter insertions, and deletions), move to the
best neighbour while it improves by at least ``min_improvement``, and
stop otherwise.  Different edits can reach the same neighbour (an
insertion next to an equal letter, for example); each distinct
neighbour is scored once and its value shared by every edit that
reaches it, so ties still go to the first edit in canonical order.

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Kernel
from .errors import DataError
from .rkhs import EmpiricalMeasure
from .seqcore import Sequence


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


def single_edit_neighbors(x: Sequence) -> list[tuple[Edit, Sequence]]:
    """All single-edit neighbours in canonical (tie-break) order.

    Substitutions first (by position, then letter), then deletions (by
    position), then insertions (by position, then letter); this order is
    the tie-break for equal MMD values.
    """
    alphabet = x.alphabet
    out: list[tuple[Edit, Sequence]] = []
    codes = x.codes
    for pos in range(len(codes)):
        for c, letter in enumerate(alphabet.letters):
            if c != codes[pos]:
                out.append((
                    Edit("substitution", pos, letter),
                    Sequence(alphabet, codes[:pos] + (c,) + codes[pos + 1:]),
                ))
    for pos in range(len(codes)):
        out.append((
            Edit("deletion", pos),
            Sequence(alphabet, codes[:pos] + codes[pos + 1:]),
        ))
    for pos in range(len(codes) + 1):
        for c, letter in enumerate(alphabet.letters):
            out.append((
                Edit("insertion", pos, letter),
                Sequence(alphabet, codes[:pos] + (c,) + codes[pos:]),
            ))
    return out


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
        cross = self.kernel.pairwise(xs, self.atoms) @ self.w
        self_sim = self.kernel.self_similarities(xs)
        m2 = self_sim + self.tt - 2.0 * cross
        return np.sqrt(np.maximum(m2, 0.0))


def greedy_mmd_optimize(kernel: Kernel, target: EmpiricalMeasure,
                        init: Sequence, max_steps: int = 100,
                        min_improvement: float = 1e-12) -> OptimizationTrace:
    """Greedy single-edit descent on ``MMD(delta_x, target)``.

    Accepts the strictly best neighbour while it improves the objective
    by at least ``min_improvement`` (default: strict descent up to
    round-off, which guarantees termination); otherwise stops with
    ``converged=True``.  ``converged=False`` means the step budget ran
    out first.
    """
    if max_steps < 1:
        raise DataError("max_steps must be >= 1")
    if len(target) == 0:
        raise DataError("target measure must be nonempty")
    objective = _MmdToTarget(kernel, target)
    current = init
    current_mmd = float(objective(init))
    steps = [TraceStep(0, current, current_mmd, Edit("none"))]
    converged = False
    for step in range(1, max_steps + 1):
        neighbors = single_edit_neighbors(current)
        # score each distinct neighbour once; values stay in canonical
        # order, so argmin's first-minimum tie-break is unchanged
        ids: dict = {}
        slot = np.array([ids.setdefault(s, len(ids)) for _, s in neighbors], dtype=np.intp)
        values = objective.many(list(ids)).take(slot)
        best = int(np.argmin(values))
        if values[best] <= current_mmd - min_improvement:
            current = neighbors[best][1]
            current_mmd = float(values[best])
            steps.append(TraceStep(step, current, current_mmd, neighbors[best][0]))
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
