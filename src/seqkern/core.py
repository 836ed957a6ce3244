"""Kernel abstraction and mass-preserving combinators.

A kernel is a symmetric positive-semidefinite similarity over sequences.
Each kernel carries a ``mass_status`` flag recording whether delta
functions are known to live in its function space ("discrete masses") --
the property behind universality, characteristicness, and metrization of
the space of sequence distributions.  The flag is derived from
closed-form conditions on the kernel family, never probed at runtime.

:class:`Kernel` is the one generic way to turn a kernel into a matrix:
``pairwise`` and ``self_similarities`` hand ``batch`` one list of the
sequences and two index arrays, the pairs ``(seqs[i[p]], seqs[j[p]])``
(the upper triangle, every row-column pair, or the diagonal), so no
per-pair object lists are formed.  ``batch`` calls the scalar evaluator
per index pair unless a family evaluates them together (the six
alignment-engine families share ``alignment.AlignmentSumKernel.batch``).
Families with vectorised matrix assembly override ``pairwise`` itself,
and most also ``self_similarities``.

Combinators here (positive sums, tilting, tensor products) preserve the
discrete-mass property and build their matrices and diagonals from their
parts'.  Normalisation, the tilt by ``k(x, x)**-0.5``, takes its weights
from the base values of the same call, so each call evaluates the base
once; those ``k(x, x)`` must be finite and positive.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence as Seq

import numpy as np

from .errors import DataError
from .seqcore import Sequence, VectorSequence, enumerate_sequences

HAS_MASSES = "has_discrete_masses"
LACKS_MASSES = "lacks_discrete_masses"
UNKNOWN_MASSES = "unknown"


class Kernel:
    """Base class: an evaluatable PSD similarity ``k(x, y)``.

    Subclasses implement :meth:`__call__`, and also :meth:`batch` when
    their pairs can be evaluated together; :meth:`pairwise` and
    :meth:`self_similarities` reach the kernel only through
    :meth:`batch`, as index pairs into one list of sequences.
    Evaluators must be pure and deterministic (any randomness happens at
    construction, behind a seed), so kernels are safe to share across
    threads.
    """

    family: str = "generic"
    mass_status: str = UNKNOWN_MASSES

    @property
    def params(self) -> dict:
        return {}

    def __call__(self, x, y) -> float:
        raise NotImplementedError

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

    def normalized(self) -> "Kernel":
        """Tilt by ``k(x, x)**-0.5`` so the diagonal becomes 1.

        The weights come from this kernel's values in the same call (see
        :class:`TiltedKernel`); a ``k(x, x)`` that is not finite and
        positive raises :class:`DataError` naming ``x``.
        """
        return tilt_kernel(self, _NormalizingTilt(self))

    def __repr__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({ps})"


def _finite_positive(a: np.ndarray, xs: list, what: str) -> np.ndarray:
    """``a``, or :class:`DataError` naming the first sequence whose entry
    is not finite and positive."""
    bad = np.flatnonzero(~(np.isfinite(a) & (a > 0)))
    if bad.size:
        raise DataError(f"{what} must be finite and positive, got {a[bad[0]]} on {xs[bad[0]]!r}")
    return a


class _NormalizingTilt:
    """The weight ``k(x, x)**-0.5``, from ``k(x, x)`` finite and positive."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    def __call__(self, x) -> float:
        return float(self.many([x])[0])

    def many(self, xs) -> np.ndarray:
        xs = list(xs)
        return self.of_self_similarities(self.kernel.self_similarities(xs), xs)

    @staticmethod
    def of_self_similarities(d: np.ndarray, xs: list) -> np.ndarray:
        """Weights from the values ``d = k(x, x)`` of ``xs``; checked
        before the power, so a zero or infinite ``k(x, x)`` raises."""
        return _finite_positive(d, xs, "k(x, x) of a normalized kernel") ** -0.5


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

    @property
    def params(self) -> dict:
        return {"n_parts": len(self.parts)}

    def __call__(self, x, y) -> float:
        return sum(w * k(x, y) for w, k in self.parts)

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
    discrete masses.  A weight that also offers ``many(xs)`` is asked for
    the weights of a whole list at once.  Normalisation, the weight
    ``A = k(x,x)**-0.5`` of :meth:`Kernel.normalized`, takes its weights
    from the base values of the same call: a Gram reads them off its own
    diagonal, a block asks one ``self_similarities`` batch over both
    sides, and ``self_similarities`` asks the base once.  Weights that
    are not finite and positive raise :class:`DataError`.
    """

    family = "tilt"

    def __init__(self, base: Kernel, weight: Callable[[Sequence], float]):
        self.base = base
        self.weight = weight
        self.mass_status = base.mass_status
        self._normalizes = isinstance(weight, _NormalizingTilt) and weight.kernel is base

    @property
    def params(self) -> dict:
        return {"base": self.base.family}

    def _weights(self, xs) -> np.ndarray:
        """Weights of ``xs``, in one batch when the weight offers ``many``."""
        xs = list(xs)
        many = getattr(self.weight, "many", None)
        if many is not None:
            a = np.asarray(many(xs), dtype=float)
        else:
            a = np.array([float(self.weight(x)) for x in xs])
        return _finite_positive(a, xs, "tilt weight")

    def __call__(self, x, y) -> float:
        ax, ay = self._weights([x, y])
        return float(ax * self.base(x, y) * ay)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        xs = list(xs)
        ys = None if ys is None else list(ys)
        K = self.base.pairwise(xs, ys)
        if not self._normalizes:
            ax = self._weights(xs)
            ay = ax if ys is None else self._weights(ys)
        elif ys is None:
            ax = ay = self.weight.of_self_similarities(K.diagonal(), xs)
        else:
            a = self.weight.many(xs + ys)
            ax, ay = a[:len(xs)], a[len(xs):]
        # the weight product first, so a symmetric base Gram stays exactly symmetric
        return (ax[:, None] * ay[None, :]) * K

    def self_similarities(self, xs) -> np.ndarray:
        xs = list(xs)
        d = self.base.self_similarities(xs)
        a = self.weight.of_self_similarities(d, xs) if self._normalizes else self._weights(xs)
        return a ** 2 * d


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

    @property
    def params(self) -> dict:
        return {"left": self.left.family, "right": self.right.family}

    def __call__(self, x, y) -> float:
        (x1, x2), (y1, y2) = x, y
        return self.left(x1, y1) * self.right(x2, y2)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        x1, x2 = [p[0] for p in xs], [p[1] for p in xs]
        if ys is None:
            return self.left.pairwise(x1) * self.right.pairwise(x2)
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

    def __call__(self, x, y) -> float:
        return 1.0 if x == y else 0.0

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


def eval_vector_encoded(kernel: Kernel, v: VectorSequence, w: VectorSequence) -> float:
    """Evaluate a sequence kernel on vector-encoded (reparameterised) input.

    Expands each encoding as a formal linear combination of ordinary
    sequences of the same length and sums the kernel over the product
    basis:

        sum_{|X|=|v|} sum_{|Y|=|w|} (prod_l v[l, X_l]) (prod_l w[l, Y_l]) k(X, Y)

    One-hot inputs recover ``k`` exactly.  The double sum is one
    ``kernel.pairwise`` matrix over the two bases (sequences with a
    nonzero coefficient), between the two coefficient vectors; it holds
    up to ``|B|**(|v|+|w|)`` kernel values, so this is an exact
    small-scale oracle.
    """
    if v.alphabet.size != w.alphabet.size:
        raise DataError("vector encodings must share the alphabet dimension")

    def expansion(vs: VectorSequence) -> tuple[np.ndarray, list]:
        basis = enumerate_sequences(vs.alphabet, len(vs))
        coefs = np.array([math.prod(vs.columns[l, c] for l, c in enumerate(x.codes))
                          for x in basis])
        keep = np.flatnonzero(coefs)
        return coefs[keep], [basis[i] for i in keep]

    cv, basis_v = expansion(v)
    cw, basis_w = expansion(w)
    return float(cv @ kernel.pairwise(basis_v, basis_w) @ cw)
