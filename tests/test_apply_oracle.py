"""`fock.apply` on exact operator trees against a word-by-word reference.

The reference below shares no code with the kernel: a coefficient is a dict
{power of q: Fraction} with its own sum and product, a pairing is read from
the dense gram, and every node returns a fresh vector of its own, composed
factor by factor, with each scalar node applied where it stands.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qfock.fock import FockOperator, FockVector, OneParticleSpace, apply
from qfock.qscalar import EXACT, QScalar

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
        elif kind == "rational_scalar":
            v_add(out, w, p_mul(c, {0: op.payload}))
        elif kind == "creation":
            for i, z in op.payload:
                v_add(out, (i,) + w, p_mul(c, {0: z}))
        elif kind == "annihilation":
            for k, i in enumerate(w):
                g = sum(z * gram[j][i] for j, z in op.payload)
                v_add(out, w[:k] + w[k + 1:], p_mul(c, {k: g}))
        else:  # gauge: matrix[j][i] is the coefficient of e_j in T e_i
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


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def cancelling(parts):
    """c a + b - c a, the two copies of a scaled by the two scalar kinds."""
    a, b, c = parts
    return FockOperator("sum", None, (
        FockOperator("compose", None, (FockOperator("rational_scalar", c), a)),
        b,
        FockOperator("compose", None, (FockOperator.scalar(EXACT.of(-c)), a))))


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 3))
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = draw(small)
    index = st.integers(0, dim - 1)
    sparse = st.lists(st.tuples(index, small), max_size=dim)
    leaves = st.one_of(
        sparse.map(FockOperator.creation),
        sparse.map(FockOperator.annihilation),
        st.lists(st.lists(small, min_size=dim, max_size=dim),
                 min_size=dim, max_size=dim).map(FockOperator.gauge),
        st.lists(small, max_size=3).map(QScalar.exact).map(FockOperator.scalar),
        small.map(lambda c: FockOperator("rational_scalar", c)))
    op = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda ops: FockOperator("sum", None, tuple(ops))),
        st.lists(kids, min_size=2, max_size=4).map(
            lambda ops: FockOperator("compose", None, tuple(ops))),
        st.tuples(kids, kids, small).map(cancelling)), max_leaves=6))
    words = st.lists(index, max_size=MAX_WORD).map(tuple)
    terms = draw(st.lists(st.tuples(words, small), max_size=5))
    return gram, op, terms


@settings(max_examples=200, deadline=None)
@given(cases())
def test_apply_matches_word_by_word_reference(case):
    gram, op, terms = case
    space = OneParticleSpace(len(gram), gram, EXACT)
    depth = MAX_WORD + creation_height(op)
    v = FockVector(space, depth)
    ref = {}
    for w, c in terms:
        v.add_term(w, EXACT.of(c))
        v_add(ref, w, {0: c})
    assert as_polys(v) == ref
    got = apply(op, v)
    assert as_polys(got) == ref_apply(op, ref, gram)
    assert all(not c.is_zero for c in got.terms.values())
