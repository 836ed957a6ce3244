"""Kernel abstraction and mass-preserving combinators.

A kernel is a symmetric positive-semidefinite similarity over sequences.
Each kernel carries a ``mass_status`` flag recording whether delta
functions are known to live in its function space ("discrete masses") --
the property behind universality, characteristicness, and metrization of
the space of sequence distributions.  The flag is derived from
closed-form conditions on the kernel family, never probed at runtime.

:class:`Kernel` is the one generic way to turn a kernel into a matrix:
``pairwise`` and ``self_similarities`` hand lists of pairs to
``batch``, which calls the scalar evaluator per pair unless a family
batches them (the alignment and spectrum recursions do).  Families
with vectorised matrix assembly override ``pairwise`` itself.

Combinators here (positive sums, tilting, tensor products) preserve the
discrete-mass property.
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
    :meth:`batch`.  Evaluators must be pure and deterministic (any
    randomness happens at construction, behind a seed), so kernels are
    safe to share across threads.
    """

    family: str = "generic"
    mass_status: str = UNKNOWN_MASSES

    @property
    def params(self) -> dict:
        return {}

    def __call__(self, x, y) -> float:
        raise NotImplementedError

    def batch(self, xs: Seq, ys: Seq) -> np.ndarray:
        """Values ``k(xs[p], ys[p])`` of equally long lists of pairs.

        Calls :meth:`__call__` once per pair; families that evaluate
        many pairs at once override this.
        """
        return np.array([self(x, y) for x, y in zip(xs, ys)], dtype=float)

    def pairwise(self, xs: Seq, ys: Optional[Seq] = None) -> np.ndarray:
        """Dense matrix of kernel values, ``out[i, j] = k(xs[i], ys[j])``.

        With ``ys=None`` the matrix is symmetric over ``xs``: one
        :meth:`batch` of the upper triangle, mirrored, so it is exactly
        symmetric.  Otherwise one batch of every pair.  Families with
        vectorised matrix assembly override this.
        """
        xs = _objects(xs)
        if ys is None:
            i, j = np.triu_indices(len(xs))
            out = np.empty((len(xs), len(xs)))
            out[i, j] = out[j, i] = self.batch(xs[i].tolist(), xs[j].tolist())
            return out
        ys = _objects(ys)
        values = self.batch(np.repeat(xs, len(ys)).tolist(), np.tile(ys, len(xs)).tolist())
        return values.reshape(len(xs), len(ys))

    def self_similarities(self, xs: Seq) -> np.ndarray:
        """Diagonal values ``k(x, x)``, as one :meth:`batch`."""
        xs = list(xs)
        return self.batch(xs, xs)

    def normalized(self) -> "Kernel":
        """Tilt by ``k(x, x)**-0.5`` so the diagonal becomes 1."""
        return tilt_kernel(self, _NormalizingTilt(self))

    def __repr__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({ps})"


def _objects(items) -> np.ndarray:
    """``items`` as a 1-D object array, so pairs are gathered by index."""
    items = list(items)
    return np.fromiter(items, dtype=object, count=len(items))


class _NormalizingTilt:
    def __init__(self, kernel: Kernel):
        self._kernel = kernel

    def __call__(self, x) -> float:
        return self._kernel(x, x) ** -0.5

    def many(self, xs) -> np.ndarray:
        return self._kernel.self_similarities(xs) ** -0.5


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

    def pairwise(self, xs, ys=None) -> np.ndarray:
        total = None
        for w, k in self.parts:
            m = w * k.pairwise(xs, ys)
            total = m if total is None else total + m
        return total


def sum_kernel(parts: Iterable[tuple[float, Kernel]]) -> SumKernel:
    return SumKernel(parts)


class TiltedKernel(Kernel):
    """``k^A(x, y) = A(x) k(x, y) A(y)`` for a positive weight ``A``.

    Tilting rescales the kernel's view of sequence space (normalisation
    is the special case ``A = k(x,x)**-0.5``) and preserves discrete
    masses.  A weight that also offers ``many(xs)`` is asked for the
    weights of a whole list at once (normalisation answers with one
    ``self_similarities`` batch of the base kernel).
    """

    family = "tilt"

    def __init__(self, base: Kernel, weight: Callable[[Sequence], float]):
        self.base = base
        self.weight = weight
        self.mass_status = base.mass_status

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
        bad = np.flatnonzero(~(a > 0))
        if bad.size:
            raise DataError(
                f"tilt weight must be positive, got {a[bad[0]]} on {xs[bad[0]]!r}")
        return a

    def __call__(self, x, y) -> float:
        ax, ay = self._weights([x, y])
        return float(ax * self.base(x, y) * ay)

    def pairwise(self, xs, ys=None) -> np.ndarray:
        ax = self._weights(xs)
        ay = ax if ys is None else self._weights(ys)
        return ax[:, None] * self.base.pairwise(xs, ys) * ay[None, :]

    def self_similarities(self, xs) -> np.ndarray:
        return self._weights(xs) ** 2 * self.base.self_similarities(xs)


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
