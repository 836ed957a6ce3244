"""MMD two-sample testing via resampling for degenerate U-statistics.

The test statistic is the unbiased squared-MMD U-statistic.  Under the
null of equal distributions it is degenerate, so its null law is
approximated by resampling: by default, relabelling the pooled sample
(a permutation test, exact for exchangeable data); alternatively, by a
signed-multiplier scheme on the double-centred pooled Gram matrix.

The permutation test marks each resample's relabelled first sample in a
0/1 matrix ``S`` of N rows and B columns, one column per resample.  The
relabellings are drawn in cache-sized blocks of resamples, one
``Generator.permuted`` call per block, and equal one
``Generator.permutation`` call per resample bit for bit, so ``S``, the
generator's final state and every p-value are those of that loop.

Both methods' statistics are written over per-resample quadratic forms
``s^T K s``, the row sums, the diagonal and the total of ``K``.  The
forms come from :func:`_quadratic_forms`, which reads a symmetric
matrix as row blocks on and right of the diagonal, each off-diagonal
block counted twice, so the blocks below the diagonal are never
multiplied: with ``k`` equal row blocks it makes ``(k + 1) / 2k`` of the
multiply-adds of the full product, 0.625 at N = B = 1,000.  The
multiplier method centres ``K`` one row block at a time.  A row block
has at most ``seqcore.ROW_BLOCK_ELEMENTS / max(B, n)`` rows, for ``n``
the size of its form, so besides the N x N Gram either method holds
N x B for ``S`` or the signs and the temporaries of one row block: its
products with B columns and, for the multiplier, its centred rows.
There is no N x B product and no second N x N array.  One block that
covers the Gram gives the arithmetic of the full product bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Kernel
from .errors import MAX_FLOATS, DataError, ParameterError, check_finite, check_integer
from .seqcore import ROW_BLOCK_ELEMENTS, element_blocks

MIN_BOOTSTRAP = 100

#: Element cap on each block of relabellings drawn at once (int64, so
#: 2**15 is 256 KB).  Drawing 1,000 resamples with m = N/2 (median of 15
#: draws, two runs, 2 vCPUs) took 0.35 ms at N = 24 against 3.2-5.4 ms
#: for one ``permutation`` call per resample, 2.8-4.6 against 9.0-9.3 ms
#: at N = 200 and 15-16 against 18-28 ms at N = 1,000.  One whole block
#: took 27-28 ms at N = 1,000, and caps of 2**13 and 2**18 were slower
#: than 2**15 at N = 400 and 1,000.
RELABEL_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class TestResult:
    """Outcome of one two-sample test."""

    mmd_observed: float  # unbiased squared-MMD U-statistic (may be negative)
    p_value: float
    n_bootstrap: int
    rejected: bool
    seed: int
    level: float
    method: str


def mmd2_u_statistic(K: np.ndarray, m: int) -> float:
    """Unbiased squared-MMD U-statistic from a pooled Gram matrix.

    The first ``m`` rows are one sample, the rest the other; the
    within-sample diagonals are excluded.
    """
    n = K.shape[0] - m
    if m < 2 or n < 2:
        raise DataError("each sample needs at least two points")
    xx = K[:m, :m]
    yy = K[m:, m:]
    xy = K[:m, m:]
    s_xx = (xx.sum() - np.trace(xx)) / (m * (m - 1))
    s_yy = (yy.sum() - np.trace(yy)) / (n * (n - 1))
    return float(s_xx + s_yy - 2.0 * xy.sum() / (m * n))


def _relabellings(N: int, m: int, n_boot: int,
                  rng: np.random.Generator) -> np.ndarray:
    """N x n_boot 0/1 matrix: column b marks the first m of the b-th permutation.

    Each block's rows are permuted by one ``rng.permuted`` call, which
    shuffles row after row as ``rng.permutation(N)`` would once per
    resample, so ``S`` and the generator's final state equal that loop's.
    """
    S = np.zeros((N, n_boot))
    labels = np.arange(N)
    for blk in element_blocks(n_boot, N, RELABEL_BLOCK_ELEMENTS):
        cols = np.arange(blk.start, blk.stop)
        chosen = rng.permuted(np.broadcast_to(labels, (cols.size, N)), axis=1)[:, :m]
        S[chosen, cols[:, None]] = 1.0
    return S


def _quadratic_forms(rows: Callable[[slice], np.ndarray], n: int,
                     E: np.ndarray) -> np.ndarray:
    """``diag(E^T A E)`` for a symmetric n x n ``A`` given by its row blocks.

    ``rows(blk)`` returns the rows ``blk`` of ``A`` from column
    ``blk.start`` on, the block on the diagonal and the blocks right of
    it; columns past ``n`` are ignored.  Each block adds
    ``E_r * (A_rr E_r + 2 A_r,>r E_>r)`` summed over its rows, so a
    block below the diagonal is never read.  One block is
    ``(E * (A @ E)).sum(axis=0)`` bit for bit.
    """
    out = np.zeros(E.shape[1])
    for blk in element_blocks(n, max(E.shape[1], n), ROW_BLOCK_ELEMENTS):
        R, Er, w = rows(blk), E[blk], blk.stop - blk.start
        P = R[:, :w] @ Er
        if blk.stop < n:
            right = R[:, w : n - blk.start] @ E[blk.stop :]
            right *= 2.0
            P += right
        P *= Er
        out += P.sum(axis=0)
    return out


def _permutation_stats(K: np.ndarray, m: int, n_boot: int,
                       rng: np.random.Generator) -> np.ndarray:
    """U-statistics under random relabellings of the pooled sample."""
    N = K.shape[0]
    n = N - m
    S = _relabellings(N, m, n_boot, rng)
    diag = np.diag(K)
    tot = K.sum()
    rowsums = K.sum(axis=0)
    sum_x_rows = rowsums @ S              # sum over K(x, .)
    # sum over K(x, x') incl. diagonal
    sum_xx_d = _quadratic_forms(lambda blk: K[blk, blk.start :], N, S)
    tr_x = diag @ S
    sum_xx = sum_xx_d - tr_x
    sum_yy = (tot - 2.0 * sum_x_rows + sum_xx_d) - (diag.sum() - tr_x)
    sum_xy = sum_x_rows - sum_xx_d
    return (sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1))
            - 2.0 * sum_xy / (m * n))


def _multiplier_stats(K: np.ndarray, m: int, n_boot: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Signed-multiplier resampling on the double-centred pooled Gram.

    Centring removes the (estimated) mean embedding, leaving the
    degenerate part of the kernel; Rademacher signs then emulate draws
    of the limiting quadratic form while keeping the original group
    sizes and U-statistic weights.
    """
    N = K.shape[0]
    n = N - m
    # H K H with H = I - 1/N, without forming H, one row block at a time
    mean0, mean1, mean = K.mean(axis=0), K.mean(axis=1), K.mean()

    def centred(lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` of the centred Gram from column ``lo`` on."""
        Kt = K[lo:hi, lo:] - mean0[lo:]
        Kt -= mean1[lo:hi, None]
        Kt += mean
        return Kt

    # the centred Gram's diagonal, entry by entry as in ``centred``
    diag = np.diag(K) - mean0
    diag -= mean1
    diag += mean
    E = rng.integers(0, 2, size=(N, n_boot)) * 2.0
    E -= 1.0
    Ex, Ey = E[:m], E[m:]
    xy = np.zeros(n_boot)

    def x_rows(blk: slice) -> np.ndarray:
        # the X rows' blocks right of XX are XY's rows
        nonlocal xy
        Kt = centred(blk.start, blk.stop)
        P = Kt[:, m - blk.start :] @ Ey
        P *= Ex[blk]
        xy += P.sum(axis=0)
        return Kt

    # Rademacher signs square to one, so the diagonal correction is a constant trace
    xx = _quadratic_forms(x_rows, m, Ex) - diag[:m].sum()
    yy = (_quadratic_forms(lambda blk: centred(m + blk.start, m + blk.stop), n, Ey)
          - diag[m:].sum())
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)


def mmd_two_sample_test(kernel: Kernel, sample_x, sample_y,
                        n_bootstrap: int = 200, level: float = 0.05,
                        seed: int = 0, method: str = "permutation") -> TestResult:
    """Test the null that two sequence samples share a distribution.

    ``method`` selects the null approximation: ``"permutation"``
    (default; relabel the pooled sample) or ``"multiplier"`` (signed
    multipliers on the centred Gram).  The p-value uses the add-one
    correction ``(1 + #{resample >= observed}) / (1 + n_bootstrap)`` and
    the result is deterministic given the seed.  A pooled Gram entry
    that is not finite is a :class:`NumericalError`.
    """
    sample_x = list(sample_x)
    sample_y = list(sample_y)
    if not sample_x or not sample_y:
        raise DataError("both samples must be nonempty")
    # each resample is a column of the pooled sample's N x n_bootstrap arrays
    n_bootstrap = check_integer("n_bootstrap", n_bootstrap, MIN_BOOTSTRAP,
                                MAX_FLOATS // (len(sample_x) + len(sample_y)))
    seed = check_integer("seed", seed, 0)
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must be in (0, 1), got {level}")
    if method not in ("permutation", "multiplier"):
        raise ParameterError(f"method must be 'permutation' or 'multiplier', got {method!r}")
    pooled = sample_x + sample_y
    m = len(sample_x)
    K = kernel.pairwise(pooled)
    check_finite(K, "Gram")
    obs = mmd2_u_statistic(K, m)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    stats_fn = _permutation_stats if method == "permutation" else _multiplier_stats
    null_stats = stats_fn(K, m, n_bootstrap, rng)
    p = float((1 + (null_stats >= obs).sum()) / (1 + n_bootstrap))
    return TestResult(
        mmd_observed=obs,
        p_value=p,
        n_bootstrap=n_bootstrap,
        rejected=p < level,
        seed=seed,
        level=level,
        method=method,
    )


def power_curve(kernel: Kernel, sampler_p: Callable, sampler_q: Callable,
                sizes, trials: int, level: float = 0.05, seed: int = 0,
                n_bootstrap: int = 200,
                method: str = "permutation") -> list[tuple[int, float]]:
    """Rejection fraction of the test per sample size.

    ``sampler_p(rng, n)`` and ``sampler_q(rng, n)`` return lists of
    sequences.  Each (size, trial) cell consumes an independent
    seed-derived stream, so results are deterministic and independent
    of evaluation order.
    """
    trials = check_integer("trials", trials, 10)
    seed = check_integer("seed", seed, 0)
    sizes = [check_integer("sizes", n, 2) for n in sizes]
    out = []
    for si, n in enumerate(sizes):
        rejected = 0
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((seed, si, t)))
            xs = sampler_p(rng, n)
            ys = sampler_q(rng, n)
            res = mmd_two_sample_test(
                kernel, xs, ys, n_bootstrap=n_bootstrap, level=level,
                seed=int(rng.integers(2**31)), method=method,
            )
            rejected += res.rejected
        out.append((n, rejected / trials))
    return out
