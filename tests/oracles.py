"""Independent brute-force oracles for the test suite.

Everything here computes kernel values by explicit enumeration or
numeric quadrature, sharing no code path with the library's dynamic
programmes or closed forms.  The one exception is
:func:`eval_vector_encoded`, a harness around ``kernel.pairwise`` that
expands vector encodings over ordinary sequences; it checks
reparameterisation identities, not the kernel's own values.
:func:`random_ball_vector` is the random-ball embedding built one
sequence at a time, with a generator constructed per sequence.
:func:`relabellings_loop`, :func:`permutation_stats_loop` and
:func:`multiplier_stats_expression` are the two-sample test's resampling
statistics as first written: one ``Generator.permutation`` call per
resample, and the multiplier path's centring and signs as single
expressions.  :func:`count_equal_loop` is the window families' match
count as first written: int64 ids compared one position at a time into
an int32 count.  :func:`hamming_matrix_onehot` is the Hamming families'
distances as first written: BLAS products of mismatch and one-hot
encodings of the library's stop-padded codes, in blocks of positions.
"""

from __future__ import annotations

import itertools
import math
import hashlib
from collections import Counter

import numpy as np
from scipy.integrate import quad

from seqkern.positional import _stop_coded
from seqkern.seqcore import Sequence, element_blocks, enumerate_sequences


def enum_alignments(nx: int, ny: int):
    """All alignments of [0,nx) x [0,ny) as lists of matched index pairs,
    strictly increasing in both coordinates."""
    pairs_all = [(i, j) for i in range(nx) for j in range(ny)]

    def rec(start, prev_i, prev_j):
        yield []
        for k in range(start, len(pairs_all)):
            i, j = pairs_all[k]
            if i > prev_i and j > prev_j:
                for rest in rec(k + 1, i, j):
                    yield [(i, j)] + rest

    yield from rec(0, -1, -1)


def _gap_weight(run_len: int, mu: float, dmu: float) -> float:
    if run_len == 0:
        return 1.0
    if dmu == math.inf:
        return 0.0
    return math.exp(-dmu - mu * run_len)


def score_alignment(x: Sequence, y: Sequence, pairs, ks_fn, mu, dmu,
                    local=False) -> float:
    """Weight of one alignment: letter scores times affine gap weights;
    in local mode the leading and trailing runs skip the start penalty."""
    nx, ny = len(x), len(y)
    w = 1.0
    for (i, j) in pairs:
        w *= ks_fn(x.codes[i], y.codes[j])
    bounds = [(-1, -1)] + list(pairs) + [(nx, ny)]
    for a in range(len(bounds) - 1):
        (i0, j0), (i1, j1) = bounds[a], bounds[a + 1]
        run_x = i1 - i0 - 1
        run_y = j1 - j0 - 1
        at_boundary = a == 0 or a == len(bounds) - 2
        if local and at_boundary:
            w *= math.exp(-mu * (run_x + run_y))
        else:
            w *= _gap_weight(run_x, mu, dmu) * _gap_weight(run_y, mu, dmu)
    return w


def alignment_sum_by_count(x: Sequence, y: Sequence, ks_fn, mu, dmu,
                           ell_fn=None, local=False) -> dict[int, float]:
    """Map from marked-match count to the total alignment weight."""
    out: dict[int, float] = {}
    for pairs in enum_alignments(len(x), len(y)):
        w = score_alignment(x, y, pairs, ks_fn, mu, dmu, local)
        count = 0
        if ell_fn is not None:
            count = sum(ell_fn(x.codes[i], y.codes[j]) for i, j in pairs)
        out[count] = out.get(count, 0.0) + w
    return out


def alignment_total(x, y, ks_fn, mu, dmu, local=False) -> float:
    return sum(alignment_sum_by_count(x, y, ks_fn, mu, dmu, local=local).values())


def gamma_quadrature(f, C: float, beta: float, upper: float = 80.0) -> float:
    """Adaptive quadrature of f against the Gamma(beta, C) density."""
    norm = math.gamma(beta)

    def integrand(t):
        return t ** (beta - 1.0) * math.exp(-C * t) / norm * f(t)

    value, _ = quad(integrand, 0.0, upper, limit=400)
    return value


def positionwise_product(x: Sequence, y: Sequence, extended) -> float:
    """``prod_l extended[x_(l), y_(l)]`` over stop-padded positions ``l <
    max(|x|, |y|)``, multiplied left to right; stop is code ``|B|``."""
    stop = len(extended) - 1
    v = 1.0
    for l in range(max(len(x), len(y))):
        a = x.codes[l] if l < len(x) else stop
        b = y.codes[l] if l < len(y) else stop
        v *= float(extended[a][b])
    return v


def padded_window_mismatches(x: Sequence, y: Sequence, L: int) -> int:
    """Count positions whose stop-padded width-L window strings differ."""
    n = max(len(x), len(y))
    sx = list(x.letters) + ["$"] * (n + L)
    sy = list(y.letters) + ["$"] * (n + L)
    return sum(sx[l : l + L] != sy[l : l + L] for l in range(n))


def window_matches(x: Sequence, y: Sequence, L: int) -> int:
    """Count positions whose width-L windows both lie inside and spell the same string."""
    sx, sy = str(x), str(y)
    return sum(sx[l : l + L] == sy[l : l + L] for l in range(min(len(sx), len(sy)) - L + 1))


def substring_counts(x: Sequence, length: int) -> Counter:
    """Occurrence counts of every length-``length`` substring of ``x``."""
    return Counter(x.codes[i : i + length] for i in range(len(x) - length + 1))


def finite_spectrum_value(x: Sequence, y: Sequence, L_max: int) -> int:
    """Shared kmers of lengths 1..L_max, from Counters of each side."""
    total = 0
    for length in range(1, L_max + 1):
        cx = substring_counts(x, length)
        total += sum(n * cx[codes] for codes, n in substring_counts(y, length).items())
    return total


def count_occurrences(v: Sequence, x: Sequence) -> int:
    """Contiguous occurrences of v in x by direct scanning."""
    if len(v) == 0:
        return len(x) + 1
    sv, sx = str(v), str(x)
    return sum(sx[i : i + len(sv)] == sv for i in range(len(sx) - len(sv) + 1))


def gapped_kmer_feature(v: Sequence, x: Sequence, zeta: float, delta_mu: float) -> float:
    """Gapped-occurrence feature of ``x`` indexed by the kmer ``v``.

    ``exp(zeta |v| / 2) * sum_J exp(-delta_mu * gap_runs(J)) 1(x_(J) = v)``
    over the increasing position selections ``J`` of size ``|v|`` in
    ``[0, |x|)``; ``gap_runs`` counts the maximal unselected runs, a
    leading and a trailing one included, and ``delta_mu = inf`` keeps
    only gap-free selections.  Exponential in ``|x|``.
    """
    n, total = len(x), 0.0
    for J in itertools.combinations(range(n), len(v)):
        if tuple(x.codes[j] for j in J) != v.codes:
            continue
        bounds = (-1, *J, n)
        g = sum(b - a > 1 for a, b in zip(bounds, bounds[1:]))
        total += (g == 0) if delta_mu == math.inf else math.exp(-delta_mu * g)
    return math.exp(0.5 * zeta * len(v)) * total


def eval_vector_encoded(kernel, alphabet, v: np.ndarray, w: np.ndarray) -> float:
    """``kernel`` on vector-encoded (reparameterised) input.

    ``v`` and ``w`` are ``(length, |B|)`` coefficient arrays, one column
    vector per position, expanded as formal linear combinations of the
    sequences of their length:

        sum_{|X|=|v|} sum_{|Y|=|w|} (prod_l v[l, X_l]) (prod_l w[l, Y_l]) k(X, Y)

    One-hot rows recover ``k``.  The double sum is one ``kernel.pairwise``
    over the sequences with a nonzero coefficient, between the two
    coefficient vectors.
    """
    def expansion(cols):
        basis = enumerate_sequences(alphabet, len(cols))
        coefs = np.array([math.prod(cols[l, c] for l, c in enumerate(x.codes))
                          for x in basis])
        keep = np.flatnonzero(coefs)
        return coefs[keep], [basis[i] for i in keep]

    cv, basis_v = expansion(v)
    cw, basis_w = expansion(w)
    return float(cv @ kernel.pairwise(basis_v, basis_w) @ cw)


def exhaustive_mmd_minimum(objective, alphabet, max_len: int):
    """Minimise an MMD objective by scanning every sequence up to max_len."""
    best_val, best_seq = math.inf, None
    for L in range(max_len + 1):
        for codes in itertools.product(range(alphabet.size), repeat=L):
            s = Sequence(alphabet, codes)
            v = objective(s)
            if v < best_val:
                best_val, best_seq = v, s
    return best_seq, best_val


def random_ball_vector(x: Sequence, seed: int, dim: int, scale_epsilon: float = 0.0) -> np.ndarray:
    """The random-ball vector of ``x``, scaled by
    ``|B|**((1 + eps)|x|/D)`` when ``scale_epsilon`` is positive, from a
    ``Generator(Philox(key=...))`` constructed for ``x`` alone.  The key
    is the blake2b digest of ``x``'s letters joined by ``"\\x1f"``,
    keyed by the seed's 8 signed little-endian bytes."""
    payload = "\x1f".join(x.letters).encode()
    digest = hashlib.blake2b(payload, digest_size=16,
                             key=seed.to_bytes(8, "little", signed=True)).digest()
    rng = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    v = direction * rng.random() ** (1.0 / dim)
    if scale_epsilon > 0:
        v = x.alphabet.size ** ((1.0 + scale_epsilon) * len(x) / dim) * v
    return v


def relabellings_loop(N: int, m: int, n_boot: int, rng) -> np.ndarray:
    """The relabelling matrix drawn by one ``rng.permutation(N)`` per resample."""
    S = np.zeros((N, n_boot))
    for b in range(n_boot):
        S[rng.permutation(N)[:m], b] = 1.0
    return S


def permutation_stats_loop(K: np.ndarray, m: int, n_boot: int, rng) -> np.ndarray:
    """U-statistics under the relabellings of :func:`relabellings_loop`."""
    N = K.shape[0]
    n = N - m
    S = relabellings_loop(N, m, n_boot, rng)
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


def multiplier_stats_expression(K: np.ndarray, m: int, n_boot: int, rng) -> np.ndarray:
    """Signed-multiplier statistics with the centring and signs as one expression each."""
    N = K.shape[0]
    n = N - m
    Kt = K - K.mean(axis=0) - K.mean(axis=1)[:, None] + K.mean()
    E = rng.integers(0, 2, size=(N, n_boot)) * 2.0 - 1.0
    Ex, Ey = E[:m], E[m:]
    KtXX, KtYY, KtXY = Kt[:m, :m], Kt[m:, m:], Kt[:m, m:]
    xx = (Ex * (KtXX @ Ex)).sum(axis=0) - np.trace(KtXX)
    yy = (Ey * (KtYY @ Ey)).sum(axis=0) - np.trace(KtYY)
    xy = (Ex * (KtXY @ Ey)).sum(axis=0)
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)


def count_equal_loop(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """``out[i, j] = #{l : ix[i, l] == iy[j, l]}``, one position at a time."""
    out = np.zeros((len(ix), len(iy)), dtype=np.int32)
    for l in range(ix.shape[1]):
        out += ix[:, l, None] == iy[None, :, l]
    return out


def hamming_matrix_onehot(xs, ys=None, alphabet=None) -> np.ndarray:
    """Exact stop-padded Hamming distances, as floats.

    Each block of positions is one BLAS product of mismatch rows picked
    by ``xs`` and the one-hot encoding of ``ys``, both under
    ``BLOCK_ELEMENTS``; positions past both sequences add 0.
    """
    cx, cy, stop = _stop_coded(xs, ys, alphabet)
    n, m, size = len(cx), len(cy), stop + 1
    onehot = np.eye(size)
    mismatch = 1.0 - onehot
    out = np.zeros((n, m))
    for blk in element_blocks(cx.shape[1], max(n, m) * size):
        cols = (blk.stop - blk.start) * size
        hx = mismatch[cx[:, blk]].reshape(n, cols)
        hy = onehot[cy[:, blk]].reshape(m, cols)
        out += hx @ hy.T
    return out
