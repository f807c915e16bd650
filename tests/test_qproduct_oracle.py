"""The q-inner product on int numerators against a per-term reference.

`fock.inner0` and `fock.apply_Pn` compute on int numerators over one
denominator and make each result canonical once.  The reference below is
the per-term form they replaced: every gram entry, product and sum is a
canonical QScalar of its own.  It pairs the words of one degree, and
drops a pair at its first zero gram entry; `dense_inner0` shares nothing
with either: it
sums every pair of words of one degree in Fractions, one list of
coefficients per power of q, and takes P_n as the sum over S_n
(`sn_oracle.apply_Pn_sum`).  The pairings are checked against a dense
Fraction sum over the gram.  `apply_Pn(v, u)`, which `innerq` builds, is
checked against `apply_Pn(v)` cut by hand to the words that can pair with u.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qfock import fock
from qfock.errors import ResourceBudgetError, UsageError
from qfock.fock import (PN_CAP, FockVector, OneParticleSpace, apply_Pn, inner0,
                        innerq)
from qfock.qscalar import ONE, ZERO, QScalar, const, q_pow
from sn_oracle import apply_Pn_sum

MAX_DEGREE = 4


def ref_inner0(u, v):
    """<u, v>_0 with a QScalar per gram entry and per product."""
    sp = u.space
    gram = tuple({i: const(Fraction(g, sp.gram_den)) for i, g in row.items()}
                 for row in sp.int_rows)
    by_degree = {}
    for w2, cv in v.terms.items():
        by_degree.setdefault(len(w2), []).append((w2, cv))
    total = ZERO
    for w, cu in u.terms.items():
        acc = None
        for w2, cv in by_degree.get(len(w), ()):
            g = None
            for a, b in zip(w, w2):
                x = gram[a].get(b)
                if x is None:
                    break
                g = x if g is None else g * x
            else:
                x = cv if g is None else cv * g
                acc = x if acc is None else acc + x
        if acc is not None:
            total = total + cu * acc
    return total


def ref_apply_Pn(v):
    """P_n by the Bozejko-Speicher factorisation, a QScalar per term."""
    top = v.top_degree()
    qp = [q_pow(k) for k in range(top)]
    cur = v.terms
    for s in range(top - 1):
        nxt = {}
        for w, c in cur.items():
            if len(w) <= s + 1:
                nxt[w] = c
                continue
            head = w[:s]
            for k in range(s, len(w)):
                u = head + w[k:k + 1] + w[s:k] + w[k + 1:]
                x = c * qp[k - s] if k > s else c
                prev = nxt.get(u)
                nxt[u] = x if prev is None else prev + x
        cur = nxt
    return FockVector(v.space, v.depth, cur)


def assert_canonical(c):
    """Zero is ((), 1); otherwise no trailing zero and gcd(den, *num) == 1."""
    assert isinstance(c, QScalar)
    if not c.num:
        assert c.den == 1
        return
    assert c.num[-1] and c.den > 0
    assert gcd(c.den, *c.num) == 1


# denominators from 2, 3, 5 and 7, coprime or not
mixed = st.builds(Fraction, st.integers(-6, 6),
                  st.sampled_from((1, 2, 3, 4, 5, 6, 7, 10, 14, 15, 21, 35)))


@st.composite
def grams(draw):
    """A symmetric gram over mixed denominators, off the diagonal too, with
    a block label per index: entries between blocks are zero, so the gram
    has zero blocks, and a drawn zero inside a block leaves more."""
    dim = draw(st.integers(1, 4))
    label = [draw(st.integers(0, 2)) for _ in range(dim)]
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            if label[i] == label[j]:
                gram[i][j] = gram[j][i] = draw(mixed)
    return gram


def vectors(dim):
    """Vector terms mixing degrees 0-4, each coefficient a polynomial in q
    with coefficients over mixed denominators."""
    words = st.lists(st.integers(0, dim - 1), max_size=MAX_DEGREE).map(tuple)
    coeffs = st.lists(mixed, min_size=1, max_size=3).map(QScalar.exact)
    return st.dictionaries(words, coeffs, max_size=6)


@st.composite
def cases(draw):
    gram = draw(grams())
    space = OneParticleSpace(len(gram), gram)
    u, v, w = (FockVector(space, MAX_DEGREE, draw(vectors(len(gram))))
               for _ in range(3))
    return u, v, w


@settings(max_examples=150, deadline=None)
@given(cases())
def test_q_product_matches_per_term_reference(case):
    u, v, w = case
    for a, b in ((u, v), (v, u), (u, w), (u, u)):
        got = apply_Pn(b)
        assert got == ref_apply_Pn(b)
        for c in got.terms.values():
            assert c and c.num
            assert_canonical(c)
        for x, want in ((inner0(a, b), ref_inner0(a, b)),
                        (innerq(a, b), ref_inner0(a, ref_apply_Pn(b)))):
            assert x == want
            assert_canonical(x)
    # y v - x w has q-product zero with u, each of its two parts not, so the
    # integer sums must cancel exactly
    x, y = innerq(u, v), innerq(u, w)
    d = v.scale(y) - w.scale(x)
    for got in (innerq(u, d), inner0(u, apply_Pn(d))):
        assert got.is_zero
        assert_canonical(got)


def test_zero_and_cancelling_results():
    # e0 and e1 are orthogonal, e2 pairs with e0; the degree-2 part of u
    # cancels the degree-1 part in <u, v>_0 only after each is put over the
    # top degree's denominator
    g = [[Fraction(1, 2), 0, Fraction(1, 3)],
         [0, Fraction(5, 7), 0],
         [Fraction(1, 3), 0, Fraction(2, 5)]]
    sp = OneParticleSpace(3, g)
    u = FockVector(sp, 2, {(0,): ONE, (0, 0): const(-3)})
    v = FockVector(sp, 2, {(0,): const(Fraction(1, 2)),
                           (0, 0): const(Fraction(1, 3))})
    assert ref_inner0(u, v) == ZERO
    assert inner0(u, v) == ZERO
    assert_canonical(inner0(u, v))
    e1 = FockVector(sp, 2, {(1,): ONE, (1, 1): q_pow(1)})
    for x in (inner0(u, e1), innerq(u, e1), innerq(e1, u)):
        assert x == ZERO
        assert_canonical(x)
    assert innerq(e1, e1) == ref_inner0(e1, ref_apply_Pn(e1))


def test_innerq_calls_inner0_and_apply_Pn_once_each(monkeypatch):
    # innerq goes through the module names, where the benchmark's tracer
    # finds them
    calls = []

    def counted(name):
        real = getattr(fock, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(fock, "inner0", counted("inner0"))
    monkeypatch.setattr(fock, "apply_Pn", counted("apply_Pn"))
    sp = OneParticleSpace.orthonormal(2)
    u = FockVector(sp, 2, {(0, 1): ONE, (1,): q_pow(1)})
    assert innerq(u, u) == ONE + q_pow(2)
    assert sorted(calls) == ["apply_Pn", "inner0"]


def dense_pair(gram, zeta, eta):
    """<zeta, eta> of (index, rational) pairs, repeated indices adding."""
    return sum((c * gram[j][i] * e for j, c in zeta for i, e in eta), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pairings_in_lowest_terms(data):
    gram = data.draw(grams())
    dim = len(gram)
    space = OneParticleSpace(dim, gram)
    pairs = st.lists(st.tuples(st.integers(0, dim - 1), mixed), max_size=dim)
    zeta_in, eta_in = data.draw(pairs), data.draw(pairs)
    zeta, eta = fock.sparse_vector(zeta_in), fock.sparse_vector(eta_in)
    den, row = space.pair_ints(zeta)
    assert den > 0 and gcd(den, *row.values()) == 1
    assert all(row.values())
    want = {i: dense_pair(gram, zeta_in, ((i, Fraction(1)),)) for i in range(dim)}
    assert {i: Fraction(g, den) for i, g in row.items()} == {
        i: x for i, x in want.items() if x}
    assert space.pair_vec(zeta, eta) == dense_pair(gram, zeta_in, eta_in)
    for i in range(dim):
        assert space.pair(zeta, i) == want[i]


def test_innerq_refuses_other_space_before_apply_Pn(monkeypatch):
    # the space check comes first: P_n v is never built for a refused pair
    calls = []
    real = fock.apply_Pn

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fock, "apply_Pn", counted)
    u = FockVector(OneParticleSpace.orthonormal(2), 3, {(0, 1, 1): ONE})
    v = FockVector(OneParticleSpace.orthonormal(3), 3, {(2, 1, 0): ONE})
    with pytest.raises(UsageError, match="vectors live on different spaces"):
        innerq(u, v)
    with pytest.raises(UsageError, match="vectors live on different spaces"):
        inner0(u, v)
    assert calls == []
    # apply_Pn keys v's words by the buckets of its own space: a `within`
    # on another space is refused too
    with pytest.raises(UsageError, match="vectors live on different spaces"):
        real(v, u)


def dense_gram(sp):
    """The gram of a space as a dense Fraction matrix."""
    gram = [[Fraction(0)] * sp.dim for _ in range(sp.dim)]
    for j, row in enumerate(sp.int_rows):
        for i, g in row.items():
            gram[j][i] = Fraction(g, sp.gram_den)
    return gram


def dense_inner0(u, v):
    """<u, v>_0 with no buckets: for every pair of words of one degree, the
    Fraction coefficients of u_w v_w' times the product of the gram
    entries g(w_k, w'_k), a zero entry included; the coefficients of q^j
    in one list."""
    gram = dense_gram(u.space)
    out = [Fraction(0)] * 64
    for (w, cu), (w2, cv) in product(u.terms.items(), v.terms.items()):
        if len(w) != len(w2):
            continue
        g = Fraction(1)
        for a, b in zip(w, w2):
            g *= gram[a][b]
        for i, x in enumerate(cu.coeffs):
            for j, y in enumerate(cv.coeffs):
                out[i + j] += g * x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# per word, a polynomial whose coefficients have their own denominators
word_coeffs = st.lists(mixed, min_size=1, max_size=3).map(QScalar.exact).filter(bool)


@st.composite
def oracle_cases(draw):
    """A diagonal gram or one with blocks of several indices, and two
    vectors of degrees 0-3.  Each side also holds a degree-4 word of one
    letter orthogonal to the letter of the other side's degree-4 word, so
    some word of v pairs with no word of u and some word of u with no word
    of v."""
    dim = draw(st.integers(2, 4))
    if draw(st.booleans()):
        diag = draw(st.lists(mixed.filter(bool), min_size=dim, max_size=dim))
        gram = [[diag[i] if i == j else Fraction(0) for j in range(dim)]
                for i in range(dim)]
    else:
        label = [0, 1] + [draw(st.integers(0, 1)) for _ in range(dim - 2)]
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1):
                if label[i] == label[j]:
                    gram[i][j] = gram[j][i] = draw(mixed)
    space = OneParticleSpace(dim, gram)
    a = draw(st.integers(0, dim - 1))
    b = draw(st.sampled_from([i for i in range(dim) if i != a and not gram[a][i]]))
    words = st.lists(st.integers(0, dim - 1), max_size=3).map(tuple)
    u, v = (FockVector(space, 4, draw(st.dictionaries(words, word_coeffs, max_size=5))
                       | {(x,) * 4: draw(word_coeffs)})
            for x in (a, b))
    return u, v


def fixed_case(gram):
    """Two vectors of degrees 0-3 over every index of a 3-dim gram."""
    sp = OneParticleSpace(3, gram)
    u = FockVector(sp, 4, {(): const(Fraction(2, 3)), (0, 1): ONE - q_pow(1),
                           (2, 0, 1): const(Fraction(-1, 5)), (1, 1, 0): q_pow(2)})
    v = FockVector(sp, 4, {(0, 1): const(Fraction(3, 7)), (1, 0): ONE + q_pow(1),
                           (0, 1, 2): const(Fraction(5, 2)), (1, 0, 1): const(-1)})
    return u, v


@settings(max_examples=120, deadline=None)
@given(oracle_cases())
# a diagonal gram with no entry 1, so inner0 keys buckets by the word; and
# a 2 x 2 block beside a 1 x 1 block, keyed by the degree
@example(fixed_case([[Fraction(2, 3), 0, 0], [0, Fraction(5), 0],
                     [0, 0, Fraction(-3, 7)]]))
@example(fixed_case([[Fraction(1, 2), Fraction(1, 3), 0],
                     [Fraction(1, 3), Fraction(5, 7), 0], [0, 0, Fraction(4)]]))
def test_q_product_matches_dense_sum(case):
    u, v = case
    gram = dense_gram(u.space)
    assert u.space.diagonal == all(not gram[i][j] for i in range(u.space.dim)
                                   for j in range(i))
    for a, b in ((u, v), (v, u), (u, u), (v, v)):
        assert inner0(a, b).coeffs == dense_inner0(a, b)
        assert innerq(a, b).coeffs == dense_inner0(a, apply_Pn_sum(b))


@st.composite
def restricted_cases(draw):
    """A diagonal gram, a 2 x 2 block beside a 1 x 1 block, or a
    drawn gram, and two vectors, each of its own top degree 0-4, with
    polynomial coefficients."""
    kind = draw(st.sampled_from(("diagonal", "block", "drawn")))
    if kind == "diagonal":
        diag = draw(st.lists(mixed.filter(bool), min_size=1, max_size=4))
        gram = [[x if i == j else Fraction(0) for j in range(len(diag))]
                for i, x in enumerate(diag)]
    elif kind == "block":
        a, b, c = (draw(mixed) for _ in range(3))
        d = draw(mixed.filter(bool))  # so the gram is not diagonal
        gram = [[a, d, 0], [d, b, 0], [0, 0, c]]
    else:
        gram = draw(grams())
    space = OneParticleSpace(len(gram), gram)
    assert kind == "drawn" or space.diagonal == (kind == "diagonal")

    def vector():
        words = st.lists(st.integers(0, space.dim - 1),
                         max_size=draw(st.integers(0, MAX_DEGREE))).map(tuple)
        return FockVector(space, MAX_DEGREE,
                          draw(st.dictionaries(words, word_coeffs, max_size=6)))
    return vector(), vector()


@settings(max_examples=150, deadline=None)
@given(restricted_cases())
def test_apply_Pn_within_keeps_only_the_words_that_can_pair(case):
    """apply_Pn(v, u) is apply_Pn(v) on the words whose bucket (the word on
    a diagonal gram, else its degree) holds a word of u, and on every word
    of degree 0 or 1, which no step moves; so innerq, which builds it, is
    inner0 against the whole of P v and the S_n sum."""
    u, v = case
    diag = u.space.diagonal

    def bucket(w):
        return w if diag else len(w)
    for a, b in ((u, v), (v, u), (u, u)):
        full = apply_Pn(b)
        ours = {bucket(w) for w in a.terms}
        got = apply_Pn(b, a)
        assert got.terms == {w: c for w, c in full.terms.items()
                             if len(w) <= 1 or bucket(w) in ours}
        assert innerq(a, b) == inner0(a, full) == inner0(a, got)
        assert innerq(a, b).coeffs == dense_inner0(a, apply_Pn_sum(b))


def test_apply_Pn_builds_one_getter_per_degree_step_and_slot(monkeypatch):
    # one word of repeated letters per degree 0-6, in one vector and one at
    # a time: every (n, s, k) move with k > s is made, and in one call each
    # is built once, as the slot order (0..s-1, k, s..k-1, k+1..n-1); slot
    # s stays in place, so no getter is built for k = s
    built = []
    real = fock.itemgetter

    def counted(*order):
        built.append(order)
        return real(*order)

    monkeypatch.setattr(fock, "itemgetter", counted)
    sp = OneParticleSpace.orthonormal(3)
    letters = (0, 1, 0, 2, 1, 0)
    words = [letters[:n] for n in range(7)]
    want = sorted((*range(s), k, *range(s, k), *range(k + 1, n))
                  for n in range(2, 7) for s in range(n - 1) for k in range(s + 1, n))
    v = FockVector(sp, 6, {w: const(Fraction(n + 1, 2 ** n)) + q_pow(n)
                           for n, w in enumerate(words)})
    assert apply_Pn(v) == apply_Pn_sum(v)
    assert sorted(built) == want
    for w in words:
        one = FockVector.basis_word(sp, 6, w)
        assert apply_Pn(one) == apply_Pn_sum(one)


def test_apply_Pn_refuses_degree_10_before_any_work(monkeypatch):
    assert PN_CAP == 9
    made = []
    monkeypatch.setattr(fock.IntImage, "of", staticmethod(made.append))
    monkeypatch.setattr(fock, "itemgetter", made.append)
    sp = OneParticleSpace.orthonormal(2)
    v = FockVector(sp, 10, {(0, 1) * 5: ONE, (1,): ONE})
    with pytest.raises(ResourceBudgetError,
                       match="apply_Pn degree 10, over the limit of 9"):
        apply_Pn(v)
    with pytest.raises(ResourceBudgetError, match="apply_Pn degree 10"):
        innerq(v, v)
    assert made == []
