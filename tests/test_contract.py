"""One contract for every kernel family, checked in one place.

Each row is a kernel built through ``config.build_kernel`` (every entry
of ``config.FAMILIES``, plain, normalized and inside a ``sum_kernel``),
a wrapper, or a ``base_positionwise`` kernel on a letter table whose
products round in their order.  For every row:

- ``k(x, y)`` is the one-pair block ``pairwise([x], [y])[0, 0]``;
- the Gram diagonal is ``self_similarities``;
- ``pairwise(xs)`` is exactly symmetric;
- a rectangular block is the matching block of the Gram;
- ``neighbour_values`` equals the build-and-score default;
- ``pairwise`` returns a writable float64 array that no other call
  shares, which :func:`rkhs.gram` keeps as its entries;
- one-shot iterables give the values of lists, and empty sides empty
  matrices.

Values compare bit for bit, except on the alignment-engine families,
whose values can differ in the last place with the batch they are
computed in, and float-valued ``shifted`` blocks, which add their
one-sided terms in another order than the Gram: those compare to
``ROUNDING_RTOL``, the tolerance the README states.
"""

import re
from functools import partial

import numpy as np
import pytest

from seqkern import (
    BINARY,
    DNA,
    PROTEIN,
    DataError,
    IdentityKernel,
    Kernel,
    LetterKernel,
    Sequence,
    base_positionwise_kernel,
    empty,
    seq,
    sum_kernel,
)
from seqkern.config import FAMILIES, PAIR_FAMILIES, build_kernel
from seqkern.optimize import Edits

from conftest import CONFIGS, SIGNED_LETTERS, random_distinct_sequences, uneven_letters

#: relative tolerance of the rows whose values round with the batch
ROUNDING_RTOL = 1e-15

ENGINE_FAMILIES = {"alignment", "local_alignment", "ht_alignment_matches",
                   "ht_alignment_gaps", "infinite_spectrum", "ht_gapped_spectrum"}


def _configured(cfg, in_sum=False):
    def make():
        k = build_kernel(DNA, cfg)
        return sum_kernel([(0.5, k), (1.5, IdentityKernel())]) if in_sum else k
    return make


def _inputs(pairs=False, min_len=0):
    """Rows ``xs`` and columns ``ys`` of mixed lengths, the empty sequence
    among them unless ``min_len`` is set; the columns share items with
    the rows.  ``pairs`` gives (left, right) pairs of them instead."""
    rng = np.random.default_rng(60)
    xs = [empty(DNA), seq(DNA, "A")] + random_distinct_sequences(rng, DNA, 11, 20, min_len=2)
    ys = random_distinct_sequences(rng, DNA, 4, 24, min_len=1) + [xs[0], xs[5]]
    xs, ys = ([s for s in side if len(s) >= min_len] for side in (xs, ys))
    if pairs:
        xs, ys = list(zip(xs, xs[::-1])), list(zip(ys, ys[1:] + ys[:1]))
    return xs, ys


# normalizing needs k(x, x) > 0, and these count no window of a shorter sequence
MIN_LEN_NORMALIZED = {"weighted_degree": int(CONFIGS["weighted_degree"]["L"]),
                      "finite_spectrum": 1}


def _rows():
    """``(id, make, inputs, rtol)``; ``inputs()`` gives the rows and the
    columns of the row's matrices."""
    rows = []
    for family, keys in CONFIGS.items():
        cfg = {"family": family, **keys}
        rtol = ROUNDING_RTOL if family in ENGINE_FAMILIES | {"shifted"} else 0.0
        pairs = family in PAIR_FAMILIES
        inputs = partial(_inputs, pairs)
        rows += [(family, _configured(cfg), inputs, rtol),
                 (f"{family}-normalized", _configured({**cfg, "normalize": "true"}),
                  partial(_inputs, pairs, MIN_LEN_NORMALIZED.get(family, 0)), rtol),
                 (f"{family}-in_sum", _configured(cfg, in_sum=True), inputs, rtol)]
    rows += [
        # integer values: the one-sided terms add up exactly in any order
        ("shifted-weighted_degree",
         _configured({"family": "shifted", "shift_max": "2", "inner_family": "weighted_degree",
                      "inner_L": "1"}), _inputs, 0.0),
        ("centre_justified-imq_hamming",
         _configured({"family": "centre_justified", "inner_family": "imq_hamming",
                      "inner_C": "1", "inner_beta": "2"}), partial(_inputs, True), 0.0),
        ("base_positionwise-signed",
         lambda: base_positionwise_kernel(LetterKernel(DNA, SIGNED_LETTERS)), _inputs, 0.0),
        ("base_positionwise-signed_stop",
         lambda: base_positionwise_kernel(LetterKernel(DNA, SIGNED_LETTERS,
                                                       stop_row=[0.0, 0.1, -0.1, 0.2])),
         _inputs, 0.0),
        ("base_positionwise-uneven", lambda: base_positionwise_kernel(uneven_letters()),
         _inputs, 0.0),
    ]
    return rows


ROWS = _rows()
IDS = [r[0] for r in ROWS]


def _assert_equal(got, expected, rtol):
    if rtol:
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=0)
    else:
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_every_configuration_family_has_rows():
    assert set(CONFIGS) == set(FAMILIES)


@pytest.mark.parametrize("name,make,inputs,rtol", ROWS, ids=IDS)
def test_scalar_is_the_one_pair_block(name, make, inputs, rtol):
    k = make()
    xs, ys = inputs()
    for x, y in [(xs[0], ys[0]), (xs[3], xs[3]), (xs[-1], ys[-2]), (ys[1], xs[0])]:
        assert k(x, y) == k.pairwise([x], [y])[0, 0]


@pytest.mark.parametrize("name,make,inputs,rtol", ROWS, ids=IDS)
def test_gram_diagonal_is_self_similarities(name, make, inputs, rtol):
    k = make()
    xs, _ = inputs()
    d = k.self_similarities(xs)
    assert d.dtype == np.float64
    _assert_equal(np.diag(k.pairwise(xs)), d, rtol)


@pytest.mark.parametrize("name,make,inputs,rtol", ROWS, ids=IDS)
def test_gram_is_exactly_symmetric(name, make, inputs, rtol):
    k = make()
    xs, ys = inputs()
    for items in (xs, xs + ys):
        K = k.pairwise(items)
        assert np.array_equal(K, K.T)


@pytest.mark.parametrize("name,make,inputs,rtol", ROWS, ids=IDS)
def test_block_is_the_matching_block_of_the_gram(name, make, inputs, rtol):
    k = make()
    xs, ys = inputs()
    n = len(xs)
    G = k.pairwise(xs + ys)
    _assert_equal(k.pairwise(xs, ys), G[:n, n:], rtol)
    _assert_equal(k.pairwise(ys, xs), G[n:, :n], rtol)


@pytest.mark.parametrize("name,make,inputs,rtol", ROWS, ids=IDS)
def test_pairwise_returns_a_fresh_writable_array(name, make, inputs, rtol):
    # gram() keeps what pairwise returns as its entries, so no two results
    # may share memory: writing one Gram's entries would change another's
    k = make()
    xs, ys = inputs()
    for call in (lambda: k.pairwise(xs), lambda: k.pairwise(xs, ys)):
        first, second = call(), call()
        for K in (first, second):
            assert K.dtype == np.float64 and K.flags.writeable
        assert not np.shares_memory(first, second)


# kernels on sequences with an override; the rest take the default itself
NEIGHBOUR_ROWS = [r for r in ROWS if isinstance(r[2]()[0][0], Sequence)
                  and type(r[1]()).neighbour_values is not Kernel.neighbour_values]


@pytest.mark.parametrize("name,make,inputs,rtol", NEIGHBOUR_ROWS,
                         ids=[r[0] for r in NEIGHBOUR_ROWS])
def test_neighbour_values_equal_building_the_neighbours(name, make, inputs, rtol):
    k = make()
    _, atoms = inputs()
    target, default_target = k.prepare_target(atoms), Kernel.prepare_target(k, atoms)
    for x in (empty(DNA), seq(DNA, "G"), seq(DNA, "ACGTTGCAACGT")):
        edits = Edits.of(x)
        try:
            K_ref, d_ref = Kernel.neighbour_values(k, edits, default_target)
        except DataError as err:  # a neighbour normalized kernels cannot take, named alike
            with pytest.raises(DataError, match=re.escape(str(err))):
                k.neighbour_values(edits, target)
            continue
        K, d = k.neighbour_values(edits, target)
        assert K.shape == (len(edits), len(atoms))
        _assert_equal(K, K_ref, rtol)
        _assert_equal(d, d_ref, rtol)


@pytest.mark.parametrize("name,make,inputs,rtol", ROWS, ids=IDS)
def test_one_shot_iterables_and_empty_sides(name, make, inputs, rtol):
    k = make()
    xs, ys = inputs()
    _assert_equal(k.pairwise(iter(xs)), k.pairwise(xs), 0.0)
    _assert_equal(k.pairwise(iter(xs), iter(ys)), k.pairwise(xs, ys), 0.0)
    _assert_equal(k.self_similarities(iter(xs)), k.self_similarities(xs), 0.0)
    assert k.pairwise([]).shape == (0, 0)
    assert k.pairwise([], ys).shape == (0, len(ys))
    assert k.pairwise(xs, []).shape == (len(xs), 0)
    assert k.self_similarities([]).shape == (0,)


ALPHABET_ROWS = [r for r in ROWS if r[0].startswith(("exp_hamming", "base_positionwise"))]


@pytest.mark.parametrize("name,make,inputs,rtol", ALPHABET_ROWS,
                         ids=[r[0] for r in ALPHABET_ROWS])
@pytest.mark.parametrize("other", [BINARY, PROTEIN], ids=["binary", "protein"])
def test_sequences_over_another_alphabet_are_rejected(name, make, inputs, rtol, other):
    # BINARY's stop code 2 is the DNA letter G; protein codes run past the table
    k = make()
    xs = [Sequence(other, (0, 1)), Sequence(other, (1, 0, other.size - 1)), empty(other)]
    calls = (lambda: k.pairwise(xs), lambda: k.pairwise(xs[:1], xs[1:]),
             lambda: k.self_similarities(xs), lambda: k(xs[0], xs[1]),
             lambda: k.neighbour_values(Edits.of(xs[1]), k.prepare_target(xs)),
             lambda: k.neighbour_values(Edits.of(xs[1]), k.prepare_target([seq(DNA, "AC")])))
    for call in calls:
        with pytest.raises(DataError, match=re.escape(repr(other))) as err:
            call()
        assert repr(DNA) in str(err.value)
