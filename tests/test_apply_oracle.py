"""`fock.apply` on exact operator trees against a word-by-word reference.

The reference below shares no code with the kernel: a coefficient is a dict
{power of q: Fraction} with its own sum and product, a pairing is read from
the dense gram, and every node returns a fresh vector of its own, composed
factor by factor, with each scalar node applied where it stands.  Every
coefficient the kernel returns must also be canonical.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qfock.errors import DepthExceededError
from qfock.fock import FockOperator, FockVector, OneParticleSpace, apply
from qfock.qscalar import ONE, QScalar, const
from matrix_gauge import matrix_gauge
from one_form import rationals

MAX_WORD = 3


def p_add(a, b):
    out = dict(a)
    for k, x in b.items():
        out[k] = out.get(k, 0) + x
    return {k: x for k, x in out.items() if x}


def p_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: x for k, x in out.items() if x}


def v_add(vec, word, coeff):
    total = p_add(vec.get(word, {}), coeff)
    if total:
        vec[word] = total
    else:
        vec.pop(word, None)


def ref_apply(op, vec, gram):
    """op applied to vec = {word: poly}, one node and one word at a time."""
    kind = op.kind
    if kind == "sum":
        out = {}
        for sub in op.operands:
            for w, c in ref_apply(sub, vec, gram).items():
                v_add(out, w, c)
        return out
    if kind == "compose":
        for sub in reversed(op.operands):
            vec = ref_apply(sub, vec, gram)
        return vec
    out = {}
    for w, c in vec.items():
        if kind == "scalar":
            v_add(out, w, p_mul(c, dict(enumerate(op.payload.coeffs))))
        elif kind == "creation":
            for i, z in rationals(op.payload):
                v_add(out, (i,) + w, p_mul(c, {0: z}))
        elif kind == "annihilation":
            for k, i in enumerate(w):
                g = sum(z * gram[j][i] for j, z in rationals(op.payload))
                v_add(out, w[:k] + w[k + 1:], p_mul(c, {k: g}))
        else:  # gauge (a MatrixGauge): matrix[j][i] is the coefficient of
            # e_j in T e_i
            m = op.payload.matrix
            for k, i in enumerate(w):
                for j in range(len(m)):
                    v_add(out, (j,) + w[:k] + w[k + 1:], p_mul(c, {k: m[j][i]}))
    return out


def creation_height(op):
    """The most creations any word meets on its way through op."""
    if op.kind == "creation":
        return 1
    if op.kind == "sum":
        return max(map(creation_height, op.operands), default=0)
    if op.kind == "compose":
        return sum(map(creation_height, op.operands))
    return 0


def as_polys(v):
    return {w: {k: x for k, x in enumerate(c.coeffs) if x} for w, c in v.terms.items()}


def assert_canonical(v):
    """No stored zero, no trailing zero numerator, gcd(den, *num) == 1."""
    for c in v.terms.values():
        assert c.num and c.num[-1] and c.den > 0
        assert gcd(c.den, *c.num) == 1


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
# denominators from 2, 3, 5 and 7, coprime or not
mixed = st.builds(Fraction, st.integers(-6, 6),
                  st.sampled_from((1, 2, 3, 4, 5, 6, 7, 10, 14, 15, 21, 35)))


def cancelling(parts):
    """c a + b - c a, the first copy of a scaled by `scale`, the second
    by a scalar node of its own."""
    a, b, c = parts
    return FockOperator("sum", None, (
        a.scale(const(c)),
        b,
        FockOperator("compose", None, (FockOperator.scalar(const(-c)), a))))


@st.composite
def spaces(draw, max_leaves=6, values=small, polys=False):
    """A gram, and strategies for operator trees of at most max_leaves
    leaves and for vector terms on it, their rationals drawn from values.
    With polys, vector coefficients are polynomials in q, and compositions
    often carry a factor of two or three nonzero powers of q."""
    dim = draw(st.integers(1, 3))
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = draw(values)
    index = st.integers(0, dim - 1)
    sparse = st.lists(st.tuples(index, values), max_size=dim)
    leaves = st.one_of(
        sparse.map(FockOperator.creation),
        sparse.map(FockOperator.annihilation),
        st.lists(st.lists(values, min_size=dim, max_size=dim),
                 min_size=dim, max_size=dim).map(matrix_gauge),
        st.lists(values, max_size=3).map(QScalar.exact).map(FockOperator.scalar),
        values.map(lambda c: FockOperator.scalar(const(c))))
    nonzero = values.filter(bool)
    spread = st.lists(nonzero, min_size=2, max_size=3).map(QScalar.exact)
    trees = st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda ops: FockOperator("sum", None, tuple(ops))),
        st.lists(kids, min_size=2, max_size=4).map(
            lambda ops: FockOperator("compose", None, tuple(ops))),
        st.tuples(kids, kids, values).map(cancelling),
        *([st.tuples(spread, kids).map(
            lambda p: node("compose", FockOperator.scalar(p[0]), p[1]))] if polys else [])),
        max_leaves=max_leaves)
    words = st.lists(index, max_size=MAX_WORD).map(tuple)
    coeffs = st.lists(values, min_size=1, max_size=3 if polys else 1)
    return gram, trees, st.lists(st.tuples(words, coeffs), max_size=5)


@st.composite
def cases(draw):
    gram, trees, vectors = draw(spaces())
    return gram, draw(trees), draw(vectors)


def vector(space, depth, terms):
    """The Fock vector of terms, (word, coefficients in increasing powers
    of q) pairs, and the same vector in the reference form."""
    v = FockVector(space, depth)
    ref = {}
    for w, cs in terms:
        v.add_term(w, QScalar.exact(cs))
        v_add(ref, w, {k: c for k, c in enumerate(cs) if c})
    assert as_polys(v) == ref
    return v, ref


@settings(max_examples=200, deadline=None)
@given(cases())
def test_apply_matches_word_by_word_reference(case):
    gram, op, terms = case
    space = OneParticleSpace(len(gram), gram)
    v, ref = vector(space, MAX_WORD + creation_height(op), terms)
    got = apply(op, v)
    assert as_polys(got) == ref_apply(op, ref, gram)
    assert_canonical(got)


@st.composite
def mixed_cases(draw):
    gram, trees, vectors = draw(spaces(values=mixed, polys=True))
    return gram, draw(trees), draw(vectors)


@settings(max_examples=200, deadline=None)
@given(mixed_cases())
def test_mixed_denominators_match_reference_and_stay_canonical(case):
    """Payloads, scalars and vector coefficients over denominators built
    from 2, 3, 5 and 7, polynomial vector coefficients, and compositions
    scaled by polynomials with several powers of q."""
    gram, op, terms = case
    space = OneParticleSpace(len(gram), gram)
    v, ref = vector(space, MAX_WORD + creation_height(op), terms)
    got = apply(op, v)
    assert as_polys(got) == ref_apply(op, ref, gram)
    assert_canonical(got)


def node(kind, *ops):
    return FockOperator(kind, None, ops)


def scaled(c, op):
    return op.scale(const(c))


@st.composite
def shared_cases(draw):
    """A tree whose sums reuse one node object many times: as sum operands,
    as the first factor of compositions, under scalar factors, in a
    cancelling pair, acting on another node's image, and inside a second
    shared node; and two vectors to apply it to, in a drawn order."""
    gram, trees, vectors = draw(spaces(max_leaves=4))
    pool = draw(st.lists(trees, min_size=2, max_size=3))
    inner = node("sum", *pool[1:])
    outer = node("sum", inner, pool[0])
    shared = st.sampled_from([inner, outer])
    trees = st.sampled_from(pool)
    use = st.one_of(
        shared,
        st.tuples(trees, shared).map(lambda p: node("compose", *p)),
        st.tuples(shared, trees).map(lambda p: node("compose", *p)),
        st.tuples(small, shared).map(lambda p: scaled(*p)),
        st.tuples(st.lists(small, max_size=3), shared).map(
            lambda p: node("compose", FockOperator.scalar(QScalar.exact(p[0])), p[1])),
        st.tuples(shared, trees, small).map(cancelling),
        st.tuples(small, shared).map(
            lambda p: node("sum", scaled(p[0], p[1]), scaled(-p[0], p[1]))))
    uses = st.lists(use, min_size=2, max_size=5).map(lambda ops: node("sum", *ops))
    op = draw(st.one_of(uses, st.tuples(trees, uses).map(lambda p: node("compose", *p))))
    return gram, op, draw(vectors), draw(vectors)


@settings(max_examples=100, deadline=None)
@given(shared_cases())
def test_shared_nodes_match_reference(case):
    """Each call keeps its own images of the shared nodes: applying the tree
    to one vector leaves nothing behind for the next."""
    gram, op, first, second = case
    space = OneParticleSpace(len(gram), gram)
    depth = MAX_WORD + creation_height(op)
    for terms in (first, second, first):
        v, ref = vector(space, depth, terms)
        got = apply(op, v)
        assert as_polys(got) == ref_apply(op, ref, gram)
        assert_canonical(got)


def test_shared_sum_cancels_to_zero():
    space = OneParticleSpace.orthonormal(2)
    s = FockOperator.creation([1, 2]) + FockOperator.annihilation([(1, 3)])
    v = FockVector(space, 3, {(0,): ONE, (1, 0): const(5)})
    image = apply(s, v)
    assert not image.is_zero
    op = node("sum", s, scaled(2, s), scaled(-3, s))
    assert apply(op, v).is_zero
    assert apply(node("sum", s, s, s), v) == image.scale(const(3))


def test_shared_sum_overflowing_depth_raises_on_first_use():
    space = OneParticleSpace.orthonormal(1)
    s = FockOperator.annihilation([1]) + FockOperator.creation([1])
    v = FockVector.basis_word(space, 1, (0,))
    for op in (node("sum", s, s),
               node("sum", scaled(2, s), node("compose", FockOperator.creation([1]), s)),
               node("sum", node("compose", FockOperator.annihilation([1]), s), s)):
        with pytest.raises(DepthExceededError):
            apply(op, v)
