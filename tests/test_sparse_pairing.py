"""Sparse one-particle pairings and gram rows against dense oracles.

The dense loops below are the oracle: they read every gram entry and share no
code with the sparse int gram rows of OneParticleSpace, which `fraction_rows`
reads back as Fractions.  The model grams are
written out densely from their formulas: for the grid, delta_AB |A| r_{j+k}
between the monomial letters x_A^j and x_B^k, which the model's orthogonal
basis must reproduce, and for a point set the weights on the diagonal.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qfock.errors import UsageError
from qfock.fock import (FockOperator, FockVector, OneParticleSpace, SparseVector,
                        apply, sparse_vector)
from qfock.model import (MomentSequence, ProcessModel, TimeGrid,
                         WeightedPointAlgebra, letter_pair)
from qfock.qscalar import EXACT, ScalarRing, const, q_pow
from one_form import assert_one_form, rationals

RINGS = (EXACT, ScalarRing(Fraction(3, 10)))
DEPTH = 4

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def dense_pair(gram, zeta, i):
    return sum((zeta[j] * gram[j][i] for j in range(len(gram))), Fraction(0))


def dense_pair_vec(gram, zeta, eta):
    return sum((zeta[j] * dense_pair(gram, eta, j) for j in range(len(gram))),
               Fraction(0))


def fraction_rows(space):
    """The space's int gram rows over gram_den as sparse Fraction rows."""
    return tuple(tuple((i, Fraction(g, space.gram_den)) for i, g in row.items())
                 for row in space.int_rows)


def dense_annihilation(space, gram, zeta, v):
    out = FockVector(space, v.depth)
    for w, c in v.terms.items():
        for k in range(len(w)):
            g = dense_pair(gram, zeta, w[k])
            if g:
                out.add_term(w[:k] + w[k + 1:], c * q_pow(k) * const(g))
    return out


@st.composite
def grams(draw):
    """Symmetric grams, block-diagonal over random classes; a class's block
    may be entirely zero."""
    dim = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
    zero_class = draw(st.sampled_from((None, 0, 1, 2)))
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            if labels[i] == labels[j] != zero_class:
                gram[i][j] = gram[j][i] = draw(fractions)
    return gram


def vectors(dim):
    """Dense vectors, mostly sparse: each entry is zero half the time."""
    entry = st.one_of(st.just(Fraction(0)), fractions)
    return st.lists(entry, min_size=dim, max_size=dim)


@st.composite
def cases(draw):
    gram = draw(grams())
    dim = len(gram)
    zeta, eta = draw(vectors(dim)), draw(vectors(dim))
    words = draw(st.lists(
        st.lists(st.integers(0, dim - 1), max_size=DEPTH).map(tuple),
        min_size=1, max_size=6))
    coeffs = draw(st.lists(fractions, min_size=len(words), max_size=len(words)))
    ring = draw(st.sampled_from(RINGS))
    return gram, zeta, eta, list(zip(words, coeffs)), ring


@settings(max_examples=150, deadline=None)
@given(cases())
def test_sparse_pairing_matches_dense_oracle(case):
    gram, zeta, eta, terms, ring = case
    space = OneParticleSpace(len(gram), gram, ring)
    sz, se = sparse_vector(zeta), sparse_vector(eta)
    for i in range(space.dim):
        assert space.pair(sz, i) == dense_pair(gram, zeta, i)
    assert space.pair_vec(sz, se) == dense_pair_vec(gram, zeta, eta)
    den, row = space.pair_ints(sz)
    assert {i: Fraction(g, den) for i, g in row.items()} == {
        i: g for i in range(space.dim) if (g := dense_pair(gram, zeta, i))}

    v = FockVector(space, DEPTH)
    for w, c in terms:
        v.add_term(w, const(c))
    expected = dense_annihilation(space, gram, zeta, v)
    # the constructor takes either form and stores the sparse one
    for given_form in (zeta, sz):
        op = FockOperator.annihilation(given_form)
        assert op.payload == sz
        assert apply(op, v) == expected


@given(st.lists(fractions, max_size=6))
def test_sparse_vector_round_trip(dense):
    sv = sparse_vector(dense)
    assert_one_form(sv)
    back = [Fraction(0)] * len(dense)
    for i, z in sv.entries:
        back[i] = Fraction(z, sv.den)
    assert back == dense
    assert sparse_vector(sv) is sv


def reference_sparse_vector(zeta):
    """The accumulate-and-sort form: every entry made a Fraction and added
    into its index, zeros dropped, sorted by index."""
    zeta = tuple(zeta)
    entries = zeta if zeta and isinstance(zeta[0], tuple) else enumerate(zeta)
    acc = {}
    for i, c in entries:
        acc[i] = acc.get(i, Fraction(0)) + Fraction(c)
    return tuple(sorted((i, c) for i, c in acc.items() if c))


coefficients = st.one_of(fractions, st.integers(-3, 3),
                         fractions.map(str), st.integers(-3, 3).map(str))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), coefficients), max_size=8),
       st.lists(coefficients, max_size=6))
def test_sparse_vector_matches_reference(pairs, dense):
    """Unsorted pairs, repeated indices, zero coefficients, int or str
    coefficients, and dense input give the one form of what the
    accumulate-and-sort form gives; a SparseVector comes back as it is."""
    for given_form in (pairs, tuple(pairs), dense, tuple(dense)):
        got = sparse_vector(given_form)
        assert_one_form(got)
        assert rationals(got) == reference_sparse_vector(given_form)
        assert sparse_vector(got) is got


@pytest.mark.parametrize("zeta", [
    ((1, Fraction(1)), (0, Fraction(2))),
    ((0, Fraction(1)), (0, Fraction(2))),
    ((0, Fraction(1)), (1, Fraction(0))),
    ((0, Fraction(1)), (1, 2)),
    ((0, Fraction(1)), (1, "1/2")),
    (Fraction(1), Fraction(2)),
], ids=["unsorted", "repeated", "zero", "int", "str", "dense"])
def test_sparse_vector_normalises_near_canonical_tuples(zeta):
    # each is one entry away from a sorted tuple of nonzero Fraction pairs,
    # which is not the one form either: every tuple is rebuilt
    got = sparse_vector(zeta)
    assert_one_form(got)
    assert rationals(got) == reference_sparse_vector(zeta) and got is not zeta


def test_sparse_vector_adds_repeated_indices():
    sv = sparse_vector([(2, Fraction(1)), (0, 3), (2, Fraction(-1, 2)), (1, 0)])
    assert sv == (2, ((0, 6), (2, 1)))
    assert sparse_vector([]) == (1, ()) == sparse_vector([(0, 1), (0, -1)])


def test_pair_ints_rejects_out_of_range_index():
    space = OneParticleSpace.orthonormal(2)
    with pytest.raises(UsageError, match="basis index 2 out of range"):
        space.pair_ints(SparseVector(1, ((2, 1),)))


def test_gram_rows_follow_blocks():
    g = [[Fraction(x) for x in row] for row in
         ([2, 0, 1], [0, 0, 0], [1, 0, 3])]
    space = OneParticleSpace(3, g)
    assert space.int_rows == ({0: 2, 2: 1}, {}, {0: 1, 2: 3}) and space.gram_den == 1
    assert not space.diagonal
    # a zero row holds no index, so it leaves the gram diagonal
    assert OneParticleSpace(3, [[2, 0, 0], [0, 0, 0], [0, 0, 3]]).diagonal


@settings(max_examples=60, deadline=None)
@given(grams(), st.data(), st.sampled_from(RINGS))
def test_annihilation_payload_is_pair_row_over_one_denominator(gram, data, ring):
    """An annihilation keeps, keyed by the space itself, its pairing row as
    int numerators over their least common denominator, built on first use
    and reused."""
    space = OneParticleSpace(len(gram), gram, ring)
    dense = data.draw(vectors(len(gram)))
    op = FockOperator.annihilation(dense)
    v = FockVector.basis_word(space, DEPTH, (0,))
    apply(op, v)
    (key, (den, row)), = op.payloads.items()
    assert key is space
    assert {i: Fraction(g, den) for i, g in row.items()} == {
        i: g for i in range(space.dim) if (g := dense_pair(gram, dense, i))}
    assert gcd(den, *row.values()) == 1
    apply(op, v)
    assert op.payloads[space][1] is row


def dense_rows(gram):
    return tuple(tuple((i, g) for i, g in enumerate(row) if g) for row in gram)


@settings(max_examples=60, deadline=None)
@given(grams(), st.sampled_from(RINGS), st.data())
def test_dense_and_sparse_rows_give_one_space(gram, ring, data):
    # sparse rows in any entry order normalise to the rows of the dense form
    sparse = [data.draw(st.permutations(
        [(i, g) for i, g in enumerate(row) if g])) for row in gram]
    dense_space = OneParticleSpace(len(gram), gram, ring)
    sparse_space = OneParticleSpace(len(gram), sparse, ring)
    assert fraction_rows(dense_space) == fraction_rows(sparse_space) == dense_rows(gram)
    assert dense_space.int_rows == sparse_space.int_rows
    assert dense_space.gram_den == sparse_space.gram_den
    assert dense_space.diagonal == sparse_space.diagonal == all(
        not g for j, row in enumerate(gram) for i, g in enumerate(row) if i != j)


def test_sparse_rows_add_repeated_indices():
    half = Fraction(1, 2)
    space = OneParticleSpace(2, [[(1, half), (0, 2), (1, half)], [(0, 1)]], EXACT)
    dense = OneParticleSpace(2, [[2, 1], [1, 0]])
    assert space.int_rows == dense.int_rows == ({0: 2, 1: 1}, {0: 1})
    assert space.gram_den == dense.gram_den == 1


def vector(*entries):
    return SparseVector(1, entries)



@pytest.mark.parametrize("rows,message", [
    ([[(0, 1)], [(2, 1)]], "basis index 2 out of range"),
    ([[(0, 1)], [(-1, 1)]], "basis index -1 out of range"),
    ([[1, 0, 1], [0, 1]], "basis index 2 out of range"),
    ([[(0, 1), (1, 2)], [(1, 1)]], "symmetric"),
    ([[(0, 1), (1, 2)], [(0, 3), (1, 1)]], "symmetric"),
    ([[(0, 1)]], "2 rows"),
    ([[1, 0], [0, 1], [0, 0]], "2 rows"),
    # rows already in the one form, which sparse_vector returns as they
    # are, are checked all the same
    ([vector((0, 1)), vector((1, 1), (2, 1))], "basis index 2 out of range"),
    ([vector((0, 1)), vector((1, 1), (5, 1))], "basis index 5 out of range"),
    ([vector((0, 1), (1, 2)), vector((1, 1))], "symmetric"),
    ([vector((0, 1), (1, 2)), vector((0, 3), (1, 1))], "symmetric"),
], ids=["index_past_dim", "negative_index", "dense_row_too_long",
        "asymmetric_missing", "asymmetric_value", "too_few_rows",
        "too_many_rows", "canonical_index_past_dim",
        "canonical_index_far_past_dim", "canonical_asymmetric_missing",
        "canonical_asymmetric_value"])
def test_constructor_rejects_bad_rows(rows, message):
    with pytest.raises(UsageError, match=message):
        OneParticleSpace(2, rows)


def test_space_keeps_only_rows():
    # one form of the gram: int rows over one denominator
    space = OneParticleSpace(2, [[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
    assert not hasattr(space, "gram") and not hasattr(space, "rows")
    assert space.int_rows == ({0: 3}, {1: 4}) and space.gram_den == 6
    assert fraction_rows(space) == (((0, Fraction(1, 2)),), ((1, Fraction(2, 3)),))


def dense_model_gram(widths, r, d):
    """<x_A^j, x_B^k> = delta_AB |A| r_{j+k} at (A*d + j - 1, B*d + k - 1);
    r[0] is r_1."""
    dim = len(widths) * d
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for a, width in enumerate(widths):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                gram[a * d + j - 1][a * d + k - 1] = width * r[j + k - 1]
    return gram


# measures nu as (x, weight) atoms: delta_0 is the Gaussian, whose moments
# past r_2 are all zero, and the symmetric ones have zero odd moments
MEASURES = (
    [(0, 1)],
    [(-1, Fraction(1, 2)), (1, Fraction(1, 2))],
    [(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4))],
    [(1, 1)],
)
points = st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                   st.fractions(min_value=Fraction(1, 4), max_value=2,
                                max_denominator=4))


@st.composite
def grid_models(draw):
    d = draw(st.integers(1, 4))
    atoms = draw(st.one_of(st.sampled_from(MEASURES),
                           st.lists(points, min_size=1, max_size=3)))
    # r_1 = 0 and r_{k+2} = sum_x w x^k, written out here
    r = [Fraction(0)] + [sum((Fraction(w) * Fraction(x) ** k for x, w in atoms),
                             Fraction(0)) for k in range(2 * d - 1)]
    widths = draw(st.lists(st.fractions(min_value=Fraction(1, 8), max_value=2,
                                        max_denominator=8),
                           min_size=1, max_size=5))
    boundaries = [Fraction(0)]
    for width in widths:
        boundaries.append(boundaries[-1] + width)
    return (d, r, widths, boundaries), len({Fraction(x) for x, _ in atoms})


@settings(max_examples=80, deadline=None)
@given(grid_models(), st.sampled_from(RINGS))
def test_model_rows_match_dense_formula(case, ring):
    """The basis is orthogonal, one positive diagonal entry per vector and
    min(support, cutoff) vectors per atom, and the monomial letters pair as
    the dense formula says."""
    (d, r, widths, boundaries), support = case
    model = ProcessModel(ring, MomentSequence(r), TimeGrid(boundaries), d, 3)
    assert model.space.dim == len(widths) * min(support, d)
    assert all(len(row) == 1 and row[0][0] == i and row[0][1] > 0
               for i, row in enumerate(fraction_rows(model.space)))
    assert model.space.diagonal
    gram = dense_model_gram(widths, r, d)
    letters = [model.atom_letter(a, k) for a in range(len(widths))
               for k in range(1, d + 1)]
    assert [[letter_pair(x, y) for y in letters] for x in letters] == gram


@pytest.mark.parametrize("boundaries", [
    [0, Fraction(1, 4), Fraction(1, 2), 1],
    [0, Fraction(1, 8), Fraction(1, 2), Fraction(2, 3), 1, Fraction(7, 4)],
], ids=["widths_quarter_quarter_half", "widths_all_distinct"])
@pytest.mark.parametrize("r,d,norms", [
    # nu = (delta_1 + delta_2) / 2: every moment nonzero; P_1 = x - 3/2
    ([0, 1, Fraction(3, 2), Fraction(5, 2), Fraction(9, 2), Fraction(17, 2)], 3,
     [1, Fraction(1, 4)]),
    # the symmetric two-point measure: every odd moment is zero; P_1 = x
    ([0, 1, 0, 1, 0, 1, 0, 1], 4, [1, 1]),
    ([0, 1, 0, 1, 0, 1, 0, 1], 1, [1]),
    ([0, Fraction(2, 3)], 1, [Fraction(2, 3)]),
], ids=["all_moments_nonzero", "zero_odd_moments", "zero_odd_cutoff_1",
        "cutoff_1"])
def test_grid_gram_blocks_follow_each_width(boundaries, r, d, norms):
    """On grids whose widths repeat or all differ, each atom's rows are its
    own width times the norms ||P_k||² of nu's orthogonal polynomials, in
    the rows read as Fractions and in int_rows: a row kept for one width and given
    to another atom of a different width shows here."""
    bounds = [Fraction(b) for b in boundaries]
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    model = ProcessModel(EXACT, MomentSequence(r), TimeGrid(bounds), d, 3)
    # <P_j, P_k> on atom A = delta_jk |A| ||P_k||², at index A len(norms) + k
    n = len(norms)
    want = tuple(((a * n + k, w * g),) for a, w in enumerate(widths)
                 for k, g in enumerate(norms))
    space = model.space
    assert fraction_rows(space) == want
    assert space.int_rows == tuple(
        {i: g * space.gram_den for i, g in row} for row in want)
    assert all(type(g) is int for row in space.int_rows for g in row.values())


def test_gaussian_model_rows_drop_zero_moments():
    model = ProcessModel(EXACT, MomentSequence([0, 1, 0, 0, 0, 0]),
                         TimeGrid([0, Fraction(1, 3), 1]), 3, 3)
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    # nu = delta_0: x and x^2 are null, so each atom keeps P_0 = 1 alone,
    # of norm² |A| r_2
    assert fraction_rows(model.space) == (((0, third),), ((1, two_thirds),))
    assert model.space.diagonal
    assert model.atom_letter(1, 2).is_zero and model.atom_letter(1, 3).is_zero


def test_point_set_rows_are_its_weights():
    weights = [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
    alg = WeightedPointAlgebra([-1, 0, 5], weights, EXACT)
    assert fraction_rows(alg.space) == tuple(((i, w),) for i, w in enumerate(weights))
    dense = OneParticleSpace(
        3, [[w if i == j else 0 for j in range(3)] for i, w in enumerate(weights)],
        EXACT)
    assert alg.space.int_rows == dense.int_rows == ({0: 1}, {1: 3}, {2: 2})
    assert alg.space.gram_den == dense.gram_den == 6
