"""Kernel abstraction and mass-preserving combinators.

A kernel is a symmetric positive-semidefinite similarity over sequences.
Each kernel carries a ``mass_status`` flag recording whether delta
functions are known to live in its function space ("discrete masses") --
the property behind universality, characteristicness, and metrization of
the space of sequence distributions.  The flag is derived from
closed-form conditions on the kernel family, never probed at runtime.

:class:`Kernel` is the one generic way to turn a kernel into values.  A
family implements ``pairwise``, ``batch`` or ``__call__``, and
``k(x, y)`` is the one-pair block ``pairwise([x], [y])[0, 0]``, so
scalar and matrix values come from one evaluator.  The generic
``pairwise`` and ``self_similarities`` hand ``batch`` one list of the
sequences and two index arrays, the pairs ``(seqs[i[p]], seqs[j[p]])``
(the upper triangle, every row-column pair, or the diagonal); the
generic ``batch`` calls ``__call__`` per pair, for a family that
defines only that.  The six alignment-engine families share
``alignment.AlignmentSumKernel.batch``; families with vectorised matrix
assembly override ``pairwise`` and most also ``self_similarities``.
Build matrices, not loops of scalar calls: each scalar call is a whole
``pairwise`` call on one pair.

Combinators here (positive sums, tilting, tensor products) preserve the
discrete-mass property and build their matrices and diagonals from their
parts'; a normalizing tilt builds the optimizer's neighbour values
(:meth:`Kernel.neighbour_values`) from its base's the same way.
Normalisation, the tilt by ``k(x, x)**-0.5``, takes its weights from the
base values of the same call, so each call evaluates the base once;
those ``k(x, x)`` must be finite and positive.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence as Seq

import numpy as np

from .errors import DataError
from .seqcore import Sequence

HAS_MASSES = "has_discrete_masses"
LACKS_MASSES = "lacks_discrete_masses"
UNKNOWN_MASSES = "unknown"


class Kernel:
    """Base class: an evaluatable PSD similarity ``k(x, y)``.

    Subclasses implement :meth:`pairwise`, :meth:`batch` or
    :meth:`__call__`.  ``k(x, y)`` is the one-pair block of
    :meth:`pairwise`; the generic :meth:`pairwise` and
    :meth:`self_similarities` reach the kernel only through
    :meth:`batch`, as index pairs into one list of sequences, and the
    generic :meth:`batch` calls :meth:`__call__` once per pair.
    Evaluators must be pure and deterministic (any randomness happens at
    construction, behind a seed), so kernels are safe to share across
    threads.
    """

    family: str = "generic"
    mass_status: str = UNKNOWN_MASSES

    def __call__(self, x, y) -> float:
        """``k(x, y)``: the one-pair block ``pairwise([x], [y])[0, 0]``."""
        cls = type(self)
        if cls.pairwise is Kernel.pairwise and cls.batch is Kernel.batch:
            raise NotImplementedError(
                f"{cls.__name__} must implement __call__, batch or pairwise")
        return float(self.pairwise([x], [y])[0, 0])

    def batch(self, seqs: list, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Values ``k(seqs[i[p]], seqs[j[p]])`` for index arrays ``i``, ``j``.

        ``seqs`` is a list; ``i`` and ``j`` are equally long integer
        arrays into it.  Calls :meth:`__call__` once per index pair;
        families that evaluate many pairs at once override this.
        """
        return np.array([self(seqs[a], seqs[b]) for a, b in zip(i.tolist(), j.tolist())],
                        dtype=float)

    def pairwise(self, xs: Seq, ys: Optional[Seq] = None) -> np.ndarray:
        """Dense matrix of kernel values, ``out[i, j] = k(xs[i], ys[j])``.

        With ``ys=None`` the matrix is symmetric over ``xs``: one
        :meth:`batch` of the upper triangle's indices, mirrored, so it
        is exactly symmetric.  Otherwise one batch over ``xs + ys`` of
        every row-column index pair.  Families with vectorised matrix
        assembly override this.

        Every override returns a fresh, writable float64 array that
        shares no memory with anything the kernel keeps or returns
        again: :func:`rkhs.gram` keeps the array as its Gram's entries.
        """
        xs = list(xs)
        n = len(xs)
        if ys is None:
            i, j = np.triu_indices(n)
            out = np.empty((n, n))
            out[i, j] = out[j, i] = self.batch(xs, i, j)
            return out
        ys = list(ys)
        m = len(ys)
        i = np.repeat(np.arange(n), m)
        j = np.tile(np.arange(n, n + m), n)
        return self.batch(xs + ys, i, j).reshape(n, m)

    def self_similarities(self, xs: Seq) -> np.ndarray:
        """Diagonal values ``k(x, x)``, as one :meth:`batch`."""
        xs = list(xs)
        i = np.arange(len(xs))
        return self.batch(xs, i, i)

    def neighbour_values(self, edits, ys: Seq) -> tuple[np.ndarray, np.ndarray]:
        """``(K, d)`` for the neighbours ``z_i`` that single-letter
        ``edits`` (an :class:`optimize.Edits`) of one sequence reach:
        ``K[i, j] = k(z_i, ys[j])`` and ``d[i] = k(z_i, z_i)``.

        Builds the neighbours and asks :meth:`pairwise` and
        :meth:`self_similarities`; a family that can score edits without
        building them overrides this.
        """
        zs = edits.sequences()
        return self.pairwise(zs, ys), self.self_similarities(zs)

    def normalized(self) -> "Kernel":
        """Tilt by ``k(x, x)**-0.5`` so the diagonal becomes 1.

        The weights come from this kernel's values in the same call (see
        :class:`TiltedKernel`); a ``k(x, x)`` that is not finite and
        positive raises :class:`DataError` naming ``x``.
        """
        return TiltedKernel(self)

    def __repr__(self) -> str:
        """The class and its public attributes that are numbers, strings or kernels."""
        ps = ", ".join(f"{k}={v}" for k, v in vars(self).items()
                       if not k.startswith("_") and isinstance(v, (int, float, str, Kernel)))
        return f"{type(self).__name__}({ps})"


def _finite_positive(a: np.ndarray, item: Callable[[int], object], what: str) -> np.ndarray:
    """``a``, or :class:`DataError` naming ``item(i)`` for the first entry
    ``i`` that is not finite and positive."""
    bad = np.flatnonzero(~(np.isfinite(a) & (a > 0)))
    if bad.size:
        raise DataError(f"{what} must be finite and positive, got {a[bad[0]]} on {item(bad[0])!r}")
    return a


class SumKernel(Kernel):
    """Positive combination ``sum_n a_n * k_n``.

    Has discrete masses as soon as any summand does.
    """

    family = "sum"

    def __init__(self, parts: Iterable[tuple[float, Kernel]]):
        parts = [(float(w), k) for w, k in parts]
        if not parts:
            raise DataError("sum_kernel needs at least one part")
        if any(w <= 0 for w, _ in parts):
            raise DataError("sum_kernel weights must be positive")
        self.parts = parts
        if any(k.mass_status == HAS_MASSES for _, k in parts):
            self.mass_status = HAS_MASSES
        else:
            self.mass_status = UNKNOWN_MASSES

    def _total(self, values: Callable[[Kernel], np.ndarray]) -> np.ndarray:
        """``sum_n a_n * values(k_n)``, added up in the order of the parts."""
        total = None
        for w, k in self.parts:
            m = w * values(k)
            total = m if total is None else total + m
        return total

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        ys = None if ys is None else list(ys)
        return self._total(lambda k: k.pairwise(xs, ys))

    def self_similarities(self, xs) -> np.ndarray:
        xs = list(xs)
        return self._total(lambda k: k.self_similarities(xs))


def sum_kernel(parts: Iterable[tuple[float, Kernel]]) -> SumKernel:
    return SumKernel(parts)


class TiltedKernel(Kernel):
    """``k^A(x, y) = A(x) k(x, y) A(y)`` for a finite positive weight ``A``.

    Tilting rescales the kernel's view of sequence space and preserves
    discrete masses.  The weight is called once per sequence.  With
    ``weight=None`` the tilt normalizes (:meth:`Kernel.normalized`):
    ``A = k(x, x)**-0.5``, from the base values of the same call, so a
    Gram reads them off its own diagonal, a block asks one
    ``self_similarities`` batch over both sides, and
    ``self_similarities`` asks the base once.  Weights that are not
    finite and positive raise :class:`DataError`.
    """

    family = "tilt"

    def __init__(self, base: Kernel, weight: Optional[Callable[[Sequence], float]] = None):
        self.base = base
        self.weight = weight
        self.mass_status = base.mass_status

    def _weights(self, xs: list, d: Optional[np.ndarray] = None) -> np.ndarray:
        """Weights of ``xs``; a normalizing tilt takes them from the values
        ``d = k(x, x)`` when given and asks the base otherwise, checked
        before the power, so a zero or infinite ``k(x, x)`` raises."""
        if self.weight is not None:
            return _finite_positive(np.array([float(self.weight(x)) for x in xs]),
                                    xs.__getitem__, "tilt weight")
        if d is None:
            d = self.base.self_similarities(xs)
        return _normalizing(d, xs.__getitem__)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        ys = None if ys is None else list(ys)
        K = self.base.pairwise(xs, ys)
        if ys is None:
            ax = ay = self._weights(xs, K.diagonal())
        else:
            a = self._weights(xs + ys)
            ax, ay = a[:len(xs)], a[len(xs):]
        # the weight product first, so a symmetric base Gram stays exactly symmetric
        return (ax[:, None] * ay[None, :]) * K

    def self_similarities(self, xs) -> np.ndarray:
        xs = list(xs)
        d = self.base.self_similarities(xs)
        return self._weights(xs, d) ** 2 * d

    def neighbour_values(self, edits, ys) -> tuple[np.ndarray, np.ndarray]:
        """A normalizing tilt: the base's :meth:`Kernel.neighbour_values`,
        tilted as :meth:`pairwise` and :meth:`self_similarities` tilt,
        with the neighbours' weights from the base's ``k(x, x)``; a
        neighbour is built only to name a bad one.  A weight function
        needs the neighbours, so it takes the build-and-score default."""
        if self.weight is not None:
            return Kernel.neighbour_values(self, edits, ys)
        ys = list(ys)
        K, d = self.base.neighbour_values(edits, ys)
        az = _normalizing(d, lambda i: edits.neighbour(i)[1])
        ay = self._weights(ys)
        return (az[:, None] * ay[None, :]) * K, az ** 2 * d


def _normalizing(d: np.ndarray, item: Callable[[int], object]) -> np.ndarray:
    """The weights ``k(x, x)**-0.5`` of a normalizing tilt, from ``d``."""
    return _finite_positive(d, item, "k(x, x) of a normalized kernel") ** -0.5


def tilt_kernel(base: Kernel, weight: Callable[[Sequence], float]) -> TiltedKernel:
    return TiltedKernel(base, weight)


class TensorKernel(Kernel):
    """Product kernel on pairs: ``k((x1,x2),(y1,y2)) = k1(x1,y1) k2(x2,y2)``."""

    family = "tensor"

    def __init__(self, left: Kernel, right: Kernel):
        self.left = left
        self.right = right
        statuses = (left.mass_status, right.mass_status)
        if all(s == HAS_MASSES for s in statuses):
            self.mass_status = HAS_MASSES
        elif LACKS_MASSES in statuses:
            self.mass_status = LACKS_MASSES
        else:
            self.mass_status = UNKNOWN_MASSES

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        x1, x2 = [p[0] for p in xs], [p[1] for p in xs]
        if ys is None:
            return self.left.pairwise(x1) * self.right.pairwise(x2)
        ys = list(ys)
        y1, y2 = [p[0] for p in ys], [p[1] for p in ys]
        return self.left.pairwise(x1, y1) * self.right.pairwise(x2, y2)

    def self_similarities(self, xs) -> np.ndarray:
        xs = list(xs)
        return (self.left.self_similarities([p[0] for p in xs])
                * self.right.self_similarities([p[1] for p in xs]))


def tensor_kernel(left: Kernel, right: Kernel) -> TensorKernel:
    return TensorKernel(left, right)


class IdentityKernel(Kernel):
    """``k(x, y) = 1(x = y)``: maximally flexible, zero generalisation."""

    family = "identity"
    mass_status = HAS_MASSES

    def pairwise(self, xs, ys=None) -> np.ndarray:
        """Equality matrix: items are interned to integer ids by one dict
        and the ids compared by broadcasting."""
        ids: dict = {}
        a = np.array([ids.setdefault(x, len(ids)) for x in xs], dtype=np.int64)
        b = a if ys is None else np.array([ids.setdefault(y, len(ids)) for y in ys],
                                          dtype=np.int64)
        return (a[:, None] == b[None, :]).astype(float)

    def self_similarities(self, xs) -> np.ndarray:
        return np.ones(len(list(xs)))
