"""MMD two-sample testing via resampling for degenerate U-statistics.

The test statistic is the unbiased squared-MMD U-statistic.  Under the
null of equal distributions it is degenerate, so its null law is
approximated by resampling: by default, relabelling the pooled sample
(a permutation test, exact for exchangeable data); alternatively, by a
signed-multiplier scheme on the double-centred pooled Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Kernel
from .errors import DataError

MIN_BOOTSTRAP = 100


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


def _permutation_stats(K: np.ndarray, m: int, n_boot: int,
                       rng: np.random.Generator) -> np.ndarray:
    """U-statistics under random relabellings of the pooled sample."""
    N = K.shape[0]
    n = N - m
    S = np.zeros((N, n_boot))
    for b in range(n_boot):
        S[rng.permutation(N)[:m], b] = 1.0
    KS = K @ S
    diag = np.diag(K)
    tot = K.sum()
    rowsums = K.sum(axis=0)
    sum_x_rows = rowsums @ S              # sum over K(x, .)
    sum_xx_d = (S * KS).sum(axis=0)       # sum over K(x, x') incl. diagonal
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
    # H K H with H = I - 1/N, without forming H
    Kt = K - K.mean(axis=0) - K.mean(axis=1)[:, None] + K.mean()
    E = rng.integers(0, 2, size=(N, n_boot)) * 2.0 - 1.0
    Ex, Ey = E[:m], E[m:]
    KtXX, KtYY, KtXY = Kt[:m, :m], Kt[m:, m:], Kt[:m, m:]
    # Rademacher signs square to one, so the diagonal correction is a constant trace
    xx = (Ex * (KtXX @ Ex)).sum(axis=0) - np.trace(KtXX)
    yy = (Ey * (KtYY @ Ey)).sum(axis=0) - np.trace(KtYY)
    xy = (Ex * (KtXY @ Ey)).sum(axis=0)
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)


def mmd_two_sample_test(kernel: Kernel, sample_x, sample_y,
                        n_bootstrap: int = 200, level: float = 0.05,
                        seed: int = 0, method: str = "permutation") -> TestResult:
    """Test the null that two sequence samples share a distribution.

    ``method`` selects the null approximation: ``"permutation"``
    (default; relabel the pooled sample) or ``"multiplier"`` (signed
    multipliers on the centred Gram).  The p-value uses the add-one
    correction ``(1 + #{resample >= observed}) / (1 + n_bootstrap)`` and
    the result is deterministic given the seed.
    """
    sample_x = list(sample_x)
    sample_y = list(sample_y)
    if not sample_x or not sample_y:
        raise DataError("both samples must be nonempty")
    if n_bootstrap < MIN_BOOTSTRAP:
        raise DataError(f"n_bootstrap must be at least {MIN_BOOTSTRAP}")
    if not 0.0 < level < 1.0:
        raise DataError("level must be in (0, 1)")
    if method not in ("permutation", "multiplier"):
        raise DataError("method must be 'permutation' or 'multiplier'")
    pooled = sample_x + sample_y
    m = len(sample_x)
    K = kernel.pairwise(pooled)
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
    if trials < 10:
        raise DataError("need at least 10 trials per size")
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
        out.append((int(n), rejected / trials))
    return out
