"""Sparse one-particle pairings against the dense gram dot product.

The dense loops below are the oracle: they read every gram entry and share no
code with the sparse gram rows of OneParticleSpace.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfock.errors import UsageError
from qfock.fock import (FockOperator, FockVector, OneParticleSpace, apply,
                        sparse_vector)
from qfock.qscalar import EXACT, ScalarRing

RINGS = (EXACT, ScalarRing(Fraction(3, 10)))
DEPTH = 4

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def dense_pair(gram, zeta, i):
    return sum((zeta[j] * gram[j][i] for j in range(len(gram))), Fraction(0))


def dense_pair_vec(gram, zeta, eta):
    return sum((zeta[j] * dense_pair(gram, eta, j) for j in range(len(gram))),
               Fraction(0))


def dense_annihilation(space, gram, zeta, v):
    ring = space.ring
    out = FockVector(space, v.depth)
    for w, c in v.terms.items():
        for k in range(len(w)):
            g = dense_pair(gram, zeta, w[k])
            if g:
                out.add_term(w[:k] + w[k + 1:], c * ring.q_pow(k) * ring.of(g))
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
    assert space.pair_row(sz) == {
        i: g for i in range(space.dim) if (g := dense_pair(gram, zeta, i))}

    v = FockVector(space, DEPTH)
    for w, c in terms:
        v.add_term(w, ring.of(c))
    expected = dense_annihilation(space, gram, zeta, v)
    # the constructor takes either form and stores the sparse one
    for given_form in (zeta, sz):
        op = FockOperator.annihilation(given_form)
        assert op.payload == sz
        assert apply(op, v) == expected


@given(st.lists(fractions, max_size=6))
def test_sparse_vector_round_trip(dense):
    sv = sparse_vector(dense)
    assert all(c for _, c in sv)
    assert [i for i, _ in sv] == sorted({i for i, _ in sv})
    back = [Fraction(0)] * len(dense)
    for i, c in sv:
        back[i] = c
    assert back == dense
    assert sparse_vector(sv) == sv


def test_sparse_vector_adds_repeated_indices():
    sv = sparse_vector([(2, Fraction(1)), (0, 3), (2, Fraction(-1, 2)), (1, 0)])
    assert sv == ((0, Fraction(3)), (2, Fraction(1, 2)))
    assert sparse_vector([]) == ()


def test_pair_row_rejects_out_of_range_index():
    space = OneParticleSpace.orthonormal(2, EXACT)
    with pytest.raises(UsageError):
        space.pair_row(((2, Fraction(1)),))


def test_gram_rows_follow_blocks():
    g = [[Fraction(x) for x in row] for row in
         ([2, 0, 1], [0, 0, 0], [1, 0, 3])]
    space = OneParticleSpace(3, g, EXACT)
    assert space.rows == (((0, Fraction(2)), (2, Fraction(1))), (),
                          ((0, Fraction(1)), (2, Fraction(3))))
    assert space.gram_classes() == (0, 1, 0)


@settings(max_examples=60, deadline=None)
@given(grams(), st.data(), st.sampled_from(RINGS))
def test_pair_scalars_memoises_pair_row(gram, data, ring):
    space = OneParticleSpace(len(gram), gram, ring)
    zeta = sparse_vector(data.draw(vectors(len(gram))))
    row = space.pair_scalars(zeta)
    assert row == {i: ring.of(g) for i, g in space.pair_row(zeta).items()}
    assert space.pair_scalars(zeta) is row
