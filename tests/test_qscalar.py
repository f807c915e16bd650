from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from qfock.errors import UsageError
from qfock.qscalar import (EXACT, ONE, ZERO, IntImage, QScalar, ScalarRing,
                           accumulate, add_scaled, addmul, const, pack, q_fact,
                           q_fact_ratio, q_int, q_pow, unpack)
from sn_oracle import inversions, sym_group


def poly(*coeffs):
    return QScalar.exact(coeffs)


class TestExactArithmetic:
    def test_add_sub(self):
        a, b = poly(1, 2), poly(0, -2, 3)
        assert a + b == poly(1, 0, 3)
        assert (a + b) - b == a

    def test_mul(self):
        # (1 + q)(1 - q) = 1 - q^2
        assert poly(1, 1) * poly(1, -1) == poly(1, 0, -1)

    def test_zero_normalizes(self):
        assert poly(1) - poly(1) == poly()
        assert (poly(1) - poly(1)).is_zero

    def test_trailing_zeros_trimmed(self):
        assert poly(1, 0, 0).coeffs == (Fraction(1),)

    def test_neg(self):
        assert -poly(1, -2) == poly(-1, 2)


class TestModes:
    def test_pin_out_of_range(self):
        # a ring's q0 is a point of (-1, 1)
        for q0 in (2, 1, -1):
            with pytest.raises(UsageError, match="q0 must lie in"):
                ScalarRing(q0)

    def test_subs_exact(self):
        assert poly(1, 1, 1).subs(Fraction(1, 2)) == Fraction(7, 4)


class TestSerialization:
    def test_str_examples(self):
        assert str(poly(1, Fraction(-1, 2), 1)) == "1 - 1/2*q + q^2"
        assert str(poly()) == "0"

    @given(st.lists(st.fractions(max_denominator=20), max_size=6))
    def test_parse_round_trip(self, coeffs):
        s = QScalar.exact(coeffs)
        assert QScalar.parse(str(s)) == s


class TestQCombinatorics:
    def test_q_int(self):
        assert q_int(0) == poly()
        assert q_int(3) == poly(1, 1, 1)

    def test_q_fact(self):
        # [3]_q! = (1)(1+q)(1+q+q^2)
        assert q_fact(3) == poly(1, 1, 1) * poly(1, 1)

    def test_q_fact_ratio(self):
        assert q_fact_ratio(4, 2) == q_int(3) * q_int(4)
        assert q_fact_ratio(4, 0) == ONE
        with pytest.raises(UsageError):
            q_fact_ratio(2, 3)

    def test_inversions(self):
        assert inversions((1, 2, 3)) == 0
        assert inversions((3, 2, 1)) == 3
        with pytest.raises(UsageError):
            inversions((1, 1))

    def test_sym_group_size(self):
        assert len(list(sym_group(4))) == 24

    @given(st.permutations(list(range(1, 6))))
    def test_inversions_reverse_complement(self, sigma):
        rev = tuple(reversed(sigma))
        n = len(sigma)
        assert inversions(tuple(sigma)) + inversions(rev) == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# the int-numerator form against a plain Fraction-tuple oracle


def o_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def o_add(a, b):
    n = max(len(a), len(b))
    return o_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def o_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return o_trim(out)


def o_neg(a):
    return tuple(-x for x in a)


def o_str(cs):
    """The text of a Fraction-tuple polynomial, as QScalar.__str__ printed
    it when it formatted its Fraction coefficients."""
    if not cs:
        return "0"
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            var = "q" if i == 1 else f"q^{i}"
            term = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)
coeff_lists = st.lists(fractions, max_size=6)
# zero, ±1 and ±1/d, large numerators and denominators other than 1
text_coeffs = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 4)]),
    fractions,
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12)))


def assert_canonical(s):
    assert s.den > 0
    assert all(type(x) is int for x in s.num)
    assert not s.num or s.num[-1] != 0
    assert gcd(s.den, *s.num) == 1
    if not s.num:
        assert s.den == 1


class TestAgainstFractionOracle:
    @given(coeff_lists, coeff_lists)
    def test_add_mul_neg(self, a, b):
        x, y = QScalar.exact(a), QScalar.exact(b)
        oa, ob = o_trim(a), o_trim(b)
        for got, want in ((x + y, o_add(oa, ob)), (x * y, o_mul(oa, ob)),
                          (-x, o_neg(oa)), (x - y, o_add(oa, o_neg(ob)))):
            assert_canonical(got)
            assert got.coeffs == want
            assert got == QScalar.exact(want)

    @given(coeff_lists, st.integers(1, 30), st.integers(0, 3))
    def test_canonical_across_routes(self, a, k, pad):
        direct = QScalar.exact(a)
        padded = QScalar.exact(list(a) + [0] * pad)
        summed = ZERO
        for i, c in enumerate(a):
            summed = summed + const(c) * q_pow(i)
        rescaled = direct * const(Fraction(1, k)) * const(k)
        # the canonical pair, read off the Fraction oracle: the least common
        # denominator and the int numerators over it
        coeffs = o_trim(a)
        den = lcm(1, *(c.denominator for c in coeffs))
        pair = (tuple(int(c * den) for c in coeffs), den)
        for s in (direct, padded, summed, rescaled):
            assert_canonical(s)
            assert s == direct
            assert hash(s) == hash(direct) == hash(pair)
            assert (s.num, s.den) == (direct.num, direct.den)

    def test_canonical_examples(self):
        assert const(Fraction(1, 2)) * const(2) == ONE
        assert (QScalar.exact([Fraction(2, 4), 0])
                == QScalar.exact([Fraction(1, 2)]))
        half = QScalar.exact([Fraction(1, 2), Fraction(1, 2)])
        assert (half.num, half.den) == ((1, 1), 2)
        assert (half + half).den == 1

    def test_constant_factor_examples(self):
        # a constant factor scales the other one, and 1 returns it as it is
        p = QScalar.exact([Fraction(1, 3), 0, 2])
        assert p * ONE is p and ONE * p is p
        for c in (Fraction(3), Fraction(3, 2), Fraction(-1), Fraction(1, 6)):
            for got in (p * const(c), const(c) * p):
                assert_canonical(got)
                assert got.coeffs == tuple(x * c for x in p.coeffs)

    @given(coeff_lists)
    def test_str_parse_round_trip(self, a):
        s = QScalar.exact(a)
        back = QScalar.parse(str(s))
        assert back == s and back.coeffs == o_trim(a)
        assert str(back) == str(s)

    @given(st.lists(text_coeffs, max_size=8))
    def test_str_matches_fraction_formatter(self, a):
        s = QScalar.exact(a)
        assert str(s) == o_str(o_trim(a))
        assert QScalar.parse(str(s)) == s

    def test_str_coefficient_examples(self):
        assert str(poly(0, -1, 0, Fraction(3, 6))) == "-q + 1/2*q^3"
        assert str(poly(-1, 1, Fraction(-5, 3))) == "-1 + q - 5/3*q^2"
        assert str(poly(Fraction(1, 3), Fraction(2, 3), 1)) == "1/3 + 2/3*q + q^2"

    @given(coeff_lists)
    def test_coeffs_view(self, a):
        s = QScalar.exact(a)
        assert s.coeffs == o_trim(a)
        assert all(type(c) is Fraction for c in s.coeffs)
        with pytest.raises(AttributeError):
            s.coeffs = ()

    @given(coeff_lists, st.fractions(min_value=-1, max_value=1,
                                     max_denominator=9).filter(lambda f: abs(f) < 1))
    def test_subs_matches_horner(self, a, q0):
        s = QScalar.exact(a)
        exact_v = Fraction(0)
        for c in reversed(o_trim(a)):
            exact_v = exact_v * q0 + c
        assert s.subs(q0) == exact_v


class TestPacked:
    """A polynomial packed as its value at q = 2^width: unpack inverts pack
    while each coefficient is below 2^(width-1) in size, and sums, int
    scalings and shifts by k·width bits act on the polynomial."""

    @staticmethod
    def fitting(width):
        half = 2 ** (width - 1) - 1
        return st.lists(st.one_of(st.integers(-half, half),
                                  st.sampled_from([0, 1, -1, half, -half])),
                        max_size=8)

    @given(st.sampled_from([2, 8, 64, 200]).flatmap(
        lambda w: st.tuples(st.just(w), TestPacked.fitting(w))))
    def test_round_trip(self, case):
        width, num = case
        trimmed = list(num)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert unpack(pack(num, width), width) == trimmed

    @given(coeff_lists.map(lambda a: QScalar.exact(a).num),
           coeff_lists.map(lambda a: QScalar.exact(a).num),
           st.integers(-50, 50), st.integers(0, 4))
    def test_operations_act_on_the_polynomial(self, a, b, z, k):
        width = 64
        got = unpack(pack(a, width) * z + (pack(b, width) << k * width), width)
        want = QScalar.of_numerators(list(a), 1) * const(z) + \
            QScalar.of_numerators(list(b), 1) * q_pow(k)
        assert QScalar.of_numerators(got, 1) == want

    def test_examples(self):
        assert pack([1, -1], 8) == 1 - 256
        assert unpack(1 - 256, 8) == [1, -1]
        assert unpack(0, 8) == [] and pack([], 8) == 0
        assert unpack(pack([0, 0, 3], 4), 4) == [0, 0, 3]


combinations = st.dictionaries(st.integers(0, 4), coeff_lists.map(QScalar.exact),
                               max_size=4)


class TestIntImage:
    """The open form of a sparse combination against the canonical one."""

    @given(combinations,
           st.lists(st.tuples(combinations, st.none() | coeff_lists.map(QScalar.exact)),
                    max_size=4),
           st.lists(st.tuples(st.integers(0, 4), coeff_lists, st.integers(-6, 6),
                              st.integers(1, 12), st.integers(0, 3)), max_size=4))
    def test_matches_add_scaled(self, base, sums, terms):
        want = add_scaled({}, base)
        img = IntImage.of(base)
        for other, c in sums:
            add_scaled(want, other, c)
            img.add(IntImage.of(other), c)
        # one term z q^s c / d at a time: join for its denominator, then addmul
        for key, a, z, d, s in terms:
            c = QScalar.exact(a)
            accumulate(want, key, c * QScalar.exact([0] * s + [Fraction(z, d)]))
            m = img.join(c.den * d)
            addmul(img.terms, key, list(c.num), z * m, s)
        got = img.scalars()
        assert got == want
        for x in got.values():
            assert_canonical(x)
            assert x.num

    def test_join_rescales_and_returns_multiplier(self):
        img = IntImage.of({0: QScalar.exact([Fraction(1, 4), Fraction(1, 2)])})
        assert (img.den, img.terms) == (4, {0: [1, 2]})
        assert img.join(2) == 2 and img.den == 4
        assert img.join(6) == 2 and (img.den, img.terms) == (12, {0: [3, 6]})

    def test_cancelled_keys_dropped(self):
        img = IntImage.of({0: ONE, 1: q_pow(1)})
        img.add(IntImage.of({0: ONE}), const(-1))
        assert img.terms[0] == [0]
        assert img.scalars() == {1: q_pow(1)}
        assert img.prune().terms == {1: [0, 1]}


def test_module_constructors():
    # the module builds every scalar: ZERO, ONE, a rational constant and q^k
    assert ZERO == poly() and ZERO.is_zero and const(0) is ZERO
    assert ONE == poly(1) and q_pow(0) == ONE
    assert const(Fraction(-1, 2)) == poly(Fraction(-1, 2))
    assert const("3/4") == const(Fraction(3, 4)) and const(2).den == 1
    assert q_pow(2) == poly(0, 0, 1) and q_pow(2).is_exact
    assert q_pow(2).is_monomial and const(3).is_monomial
    assert q_pow(2).subs(Fraction(1, 3)) == Fraction(1, 9)
    with pytest.raises(UsageError):
        q_pow(-1)
    with pytest.raises(UsageError, match="non-constant"):
        float(q_pow(1))
    assert not hasattr(ONE, "val") and not hasattr(ONE, "q0")


def test_ring_is_only_a_point():
    # a ring is a validated optional q0, where float results are read off,
    # and builds no scalars
    assert EXACT.q0 is None
    r = ScalarRing(Fraction(1, 3))
    assert r.q0 == Fraction(1, 3) == ScalarRing("1/3").q0
    assert ScalarRing(0).q0 == 0 and ScalarRing(0).q0 is not None
    with pytest.raises(UsageError, match="q0 must lie in"):
        ScalarRing(Fraction(-3, 2))
    for name in ("of", "one", "zero", "q", "q_pow"):
        assert not hasattr(r, name) and not hasattr(EXACT, name)
