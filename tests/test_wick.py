import gc
import math
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qfock import wick
from qfock.suites import (all_ones_model, all_ones_pointset, gaussian_model,
                          grid_model, three_point_model)
from qfock.errors import CutoffExceededError, ResourceBudgetError, UsageError
from qfock.fock import FockOperator, FockVector, apply
from qfock.model import (Letter, WeightedPointAlgebra, MomentSequence,
                         ProcessModel, TimeGrid, letter_pair)
from qfock.partitions import enumerate_partitions
from qfock.qscalar import EXACT, ZERO, QScalar, ScalarRing, const, q_pow
from qfock.wick import (WickElement, product_expansion, suffix_moments,
                        vacuum_expectation, vacuum_moment, vacuum_vector,
                        wick_operator)
from expansion_oracle import block_scalar, expansion_by_word
from stpi_forms import rc_plain

F = Fraction


# ---------------------------------------------------------------------------
# moment oracles: none of them sums over arc states


def partition_sum_moment(letters) -> QScalar:
    """Σ_π q^{rc(π)} Π_B (block contraction) over all Bell(n) partitions: a
    singleton contracts to its mean, a larger block to the pairing of its
    first letter with the ordered product of the rest."""
    contraction = {}
    total = ZERO
    for pi in enumerate_partitions(len(letters)):
        val = Fraction(1)
        for block in pi.blocks:
            key = tuple(letters[i - 1] for i in block)
            if key not in contraction:
                if len(key) == 1:
                    contraction[key] = key[0].mean()
                else:
                    rest = key[1]
                    for l in key[2:]:
                        rest = rest * l
                    contraction[key] = letter_pair(key[0], rest)
            val *= contraction[key]
        if val:
            total = total + q_pow(rc_plain(pi)) * const(val)
    return total


def _poly_add(a: list, b: list) -> list:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def touchard_riordan(n: int) -> QScalar:
    """Σ over perfect matchings of {1..n} of q^crossings, by the
    Touchard–Riordan formula: for n = 2m,
    (1-q)^m m_n = Σ_k (-1)^k q^{k(k+1)/2} (C(2m, m-k) - C(2m, m-k-1))."""
    if n % 2:
        return ZERO
    m = n // 2
    num = [0] * (m * (m + 1) // 2 + 1)
    for k in range(m + 1):
        num[k * (k + 1) // 2] += (-1) ** k * (
            math.comb(2 * m, m - k) - (math.comb(2 * m, m - k - 1) if k < m else 0))
    for _ in range(m):  # p / (1-q) is the running sum of p's coefficients
        for i in range(1, len(num)):
            num[i] += num[i - 1]
        assert num[-1] == 0, "(1-q) does not divide the numerator"
        num.pop()
    return QScalar.exact(num)


def q_charlier_chain(n: int) -> QScalar:
    """(J^n)_{00} for the Jacobi matrix of the q-Charlier chain, diagonal
    1 + [k]_q and off-diagonal products [k]_q, summed over Motzkin paths:
    the moments of the all-ones point set (one atom at 1, mass 1)."""
    def q_int(k):
        return [1] * k

    paths = [[1]]  # paths[h]: weight of the paths so far ending at height h
    for _ in range(n):
        nxt = [[] for _ in range(len(paths) + 1)]
        for h, w in enumerate(paths):
            nxt[h + 1] = _poly_add(nxt[h + 1], w)
            nxt[h] = _poly_add(nxt[h], _poly_mul(w, _poly_add([1], q_int(h))))
            if h:
                nxt[h - 1] = _poly_add(nxt[h - 1], _poly_mul(w, q_int(h)))
        paths = nxt
    return QScalar.exact(paths[0])


@pytest.fixture(scope="module")
def model():
    moments = MomentSequence.from_measure(
        [(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))], 10)
    return ProcessModel(EXACT, moments, TimeGrid.uniform(1, 3), 5, 8)


def random_word(model, rng, n):
    return tuple(model.atom_letter(rng.randrange(model.grid.n_atoms))
                 for _ in range(n))


class TestWickOperator:
    @pytest.mark.parametrize("n", range(5))
    def test_wick_of_word_hits_the_word(self, model, n):
        rng = random.Random(n)
        word = random_word(model, rng, n)
        om = FockVector.vacuum(model.space, model.fock_depth)
        got = apply(wick_operator(model, word), om)
        assert got == WickElement.from_word(model, word).vector()

    def test_empty_word_is_identity(self, model):
        om = FockVector.vacuum(model.space, model.fock_depth)
        assert apply(wick_operator(model, ()), om) == om

    def test_one_letter_word_with_a_mean_keeps_its_field(self):
        # W(l) = X(l) - mean(l): the letter's own field node is an operand
        alg = WeightedPointAlgebra([1, 2], [F(1, 2), F(1, 2)], EXACT)
        letter = alg.letter([1, 2])
        op = wick_operator(alg, (letter,))
        assert op.kind == "sum" and op.operands[0] is letter.field()
        om = FockVector.vacuum(alg.space, alg.fock_depth)
        assert apply(op, om) == WickElement.from_word(alg, (letter,)).vector()

    def test_foreign_letter_rejected(self, model):
        alg = WeightedPointAlgebra([1], [1], EXACT)
        with pytest.raises(UsageError):
            wick_operator(model, (alg.one(),))

    def test_cache_dies_with_its_algebra(self):
        moments = MomentSequence.from_measure([(-1, F(1, 2)), (1, F(1, 2))], 4)
        alg = ProcessModel(EXACT, moments, TimeGrid.uniform(1, 2), 2, 4)
        word = (alg.atom_letter(0), alg.atom_letter(1), alg.atom_letter(0))
        op = wick_operator(alg, word)
        assert alg.wick_cache[word] is op
        assert wick_operator(alg, word) is op
        ref = weakref.ref(alg)
        del alg, word, op
        gc.collect()
        assert ref() is None


class TestProductExpansion:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_direct_product(self, model, n):
        rng = random.Random(10 + n)
        letters = random_word(model, rng, n)
        direct = FockOperator.compose([l.field() for l in letters])
        expanded = product_expansion(letters).operator()
        om = FockVector.vacuum(model.space, model.fock_depth)
        probe = WickElement.from_word(model, random_word(model, rng, 2)).vector()
        for v in (om, probe):
            assert (apply(direct, v) - apply(expanded, v)).is_zero

    def test_budget_admits_twelve_letters(self):
        # the same arc-state budget as the moments: X(1)^12 ends on 1,316
        # states and X(1)^13 on 2,420, one per Wick word
        x = three_point_model(n_atoms=2, cutoff=3).prefix_letter(1)
        assert len(product_expansion([x] * 12).terms) == 1316
        assert len(product_expansion([x] * 13).terms) == 2420

    def test_budget(self):
        # the transfer reads right to left: X(1)^14 first needs more than
        # the budget after position 1, the last one read, with 4,452 states
        x = three_point_model(n_atoms=2, cutoff=3).prefix_letter(1)
        with pytest.raises(ResourceBudgetError) as info:
            product_expansion([x] * 14)
        needed, pos, limit = re.search(
            r"needs (\d+) arc states at position (\d+) of 14, over the "
            r"budget of (\d+)$", str(info.value)).groups()
        assert (int(needed), int(pos)) == (4452, 1)
        assert int(limit) == wick.MAX_ARC_STATES

    @pytest.mark.parametrize("algebra", ["grid", "points"])
    def test_zero_letter_expands_to_zero(self, algebra):
        _, alphabet = ALPHABETS[algebra]
        zero = alphabet[-1]
        assert zero.is_zero
        for word in [(zero,), alphabet[:2] + (zero,), (alphabet[0], zero) * 2]:
            assert product_expansion(word).is_zero, word


class TestVacuumMoments:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_moment_equals_direct(self, model, n):
        rng = random.Random(20 + n)
        letters = random_word(model, rng, n)
        om = FockVector.vacuum(model.space, model.fock_depth)
        v = om
        for l in reversed(letters):
            v = apply(l.field(), v)
        assert vacuum_moment(letters) == v.vacuum_coefficient()

    def test_gaussian_fourth_moment(self):
        # second moment 1, higher cumulants 0: the fourth moment is 2 + q
        moments = MomentSequence([0, 1, 0, 0, 0, 0, 0, 0])
        m = ProcessModel(EXACT, moments, TimeGrid.uniform(1, 1), 4, 5)
        l = m.atom_letter(0)
        assert vacuum_moment((l,) * 4) == QScalar.parse("2 + q")

    def test_all_ones_fourth_moment(self):
        # every block contraction is 1, so the moment counts partitions of 4
        # by restricted crossings: 14 noncrossing ones plus {1,3}{2,4}
        alg = WeightedPointAlgebra([1], [1], EXACT)
        l = alg.one()
        assert vacuum_moment((l,) * 4) == QScalar.parse("14 + q")

    def test_all_ones_counts_bell_at_q_one(self):
        alg = WeightedPointAlgebra([1], [1], EXACT)
        val = vacuum_moment((alg.one(),) * 5)
        assert val.subs(1) == 52  # Bell(5)
        assert val.subs(0) == 42  # Catalan(5)

    def test_budget(self):
        # X(1)^24 on the three-point model needs 4,073 live arc states
        # after position 11
        x = three_point_model(n_atoms=2, cutoff=3).prefix_letter(1)
        with pytest.raises(ResourceBudgetError) as info:
            vacuum_moment([x] * 24)
        needed, pos, limit = re.search(
            r"needs (\d+) arc states at position (\d+) of 24, over the "
            r"budget of (\d+)$", str(info.value)).groups()
        assert (int(needed), int(pos)) == (4073, 11)
        assert int(needed) > int(limit) == wick.MAX_ARC_STATES

    @pytest.mark.parametrize("family", ["gaussian", "three_point", "all_ones"])
    def test_transfer_equals_partition_sum(self, family):
        if family == "gaussian":
            x = gaussian_model(n_atoms=1, cutoff=8).prefix_letter(1)
        elif family == "three_point":
            x = three_point_model(n_atoms=2, cutoff=8).prefix_letter(1)
        else:
            x = all_ones_pointset().one()
        for n in range(1, 10):
            assert vacuum_moment([x] * n) == partition_sum_moment([x] * n), n

    @pytest.mark.parametrize("n", range(1, 41))
    def test_gaussian_is_touchard_riordan(self, n):
        # at the default cutoff 4: the Gaussian's products are null, so the
        # cutoff does not bound n
        x = gaussian_model(n_atoms=1).prefix_letter(1)
        assert vacuum_moment([x] * n) == touchard_riordan(n)

    def test_all_ones_grid_shifted_by_its_mean_is_the_point_set(self):
        # nu = delta_1: the grid's X(1) is centred, and the point set's X(1)
        # is the same process plus its mean 1, so
        # phi[(X + 1)^n] = sum_k C(n, k) phi[X^k]
        x = all_ones_model().prefix_letter(1)
        one = all_ones_pointset().one()
        centred = [const(1)] + [vacuum_moment([x] * k) for k in range(1, 31)]
        for n in range(1, 31):
            shifted = sum((const(math.comb(n, k)) * centred[k] for k in range(n + 1)),
                          ZERO)
            assert shifted == vacuum_moment([one] * n), n

    @pytest.mark.parametrize("n", range(1, 17))
    def test_all_ones_is_q_charlier(self, n):
        assert vacuum_moment([all_ones_pointset().one()] * n) == q_charlier_chain(n)

    def test_oracles_pinned(self):
        assert touchard_riordan(6) == QScalar.parse("5 + 6*q + 3*q^2 + q^3")
        assert q_charlier_chain(4) == QScalar.parse("14 + q")
        assert q_charlier_chain(5).subs(1) == 52  # Bell(5)

    @pytest.mark.parametrize("q0", [F(3, 10), F(-1, 2), F(7, 10)])
    def test_float_mode_matches_exact_polynomial(self, q0):
        # a q0 on the algebra's ring is only where `moments --q` reads the
        # moment as a float: the polynomial is the exact one
        ring = ScalarRing(q0)
        cases = [
            (three_point_model(n_atoms=2, cutoff=9).prefix_letter(1),
             ProcessModel(ring, MomentSequence.from_measure(
                 [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))], 18),
                 TimeGrid.uniform(1, 2), 9, 6).prefix_letter(1)),
            (all_ones_pointset().one(),
             WeightedPointAlgebra([1], [1], ring).one()),
            (WeightedPointAlgebra([-1, 2], [F(2, 3), F(1, 3)], EXACT).letter([-1, 2]),
             WeightedPointAlgebra([-1, 2], [F(2, 3), F(1, 3)], ring).letter([-1, 2])),
        ]
        for exact, at_q0 in cases:
            for n in range(1, 11):
                want = vacuum_moment([exact] * n)
                got = vacuum_moment([at_q0] * n)
                assert got == want, n
                assert math.isclose(float(got.subs(q0)), want.subs(q0),
                                    rel_tol=1e-15, abs_tol=0), n


def grid_alphabet():
    """Four letters of the three-point model on two atoms, and the zero
    letter, with cutoff room for a block of any word of length <= 8 in them
    and depth room for any word of length <= 5; the fourth, over 5 and 7,
    pairs over new denominators, so the transfer's denominator grows inside
    a position."""
    moments = MomentSequence.from_measure(
        [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))], 14)
    model = ProcessModel(EXACT, moments, TimeGrid.uniform(1, 2), 7, 6)
    a, b = model.atom_letter(0), model.atom_letter(1)
    return model, (a, b, a.scale(2) + b.scale(F(-1, 3)),
                   a.scale(F(3, 5)) + b.scale(F(-2, 7)), model.letter({}))


def points_alphabet():
    """Four letters of the 2-point algebra, with nonzero means, the fourth
    over 5 and 7, and the zero letter."""
    alg = WeightedPointAlgebra([-1, 1], [F(1, 2), F(1, 2)], EXACT)
    return alg, (alg.letter(alg.points), alg.basis_letter(0), alg.letter([2, F(1, 3)]),
                 alg.letter([F(2, 5), F(-3, 7)]), alg.letter([0, 0]))


ALPHABETS = {"grid": grid_alphabet(), "points": points_alphabet()}


@st.composite
def words(draw, max_len):
    """A word over the first 2 to 5 letters of an alphabet, the zero letter
    among them when all 5 are; short alphabets make repeated letters at
    different positions the common case, so block contents recur within one
    call with the same and with different orders."""
    algebra, alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    k = draw(st.integers(2, len(alphabet)))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=max_len))
    return algebra, tuple(alphabet[i] for i in picks)


def apply_product(algebra, letters, v):
    for l in reversed(letters):
        v = apply(l.field(), v)
    return v


def ababa_grid():
    grid = three_point_model(n_atoms=2, cutoff=5, depth=6)
    a, b = grid.atom_letter(0), grid.atom_letter(0) + grid.atom_letter(1)
    return a, b, a, b, a


def ababa_points():
    points = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
    a, b = points.letter([1, 2, 0]), points.letter([0, 1, -1])
    return a, b, a, b, a


def expansion_terms(letters):
    return product_expansion(letters).terms


class TestBlockMemo:
    """The transfer keeps no memo of its own: it asks `letter_pair`, by that
    name in `wick`, for each block's pairing, and each (letter, block)
    pairing is built once per algebra, on the letter, so at most once in a
    call.  The words [a, b, a, b, a], in a fresh algebra of each kind, hold
    blocks {1,2} and {3,4} of the same letters, whose pairing is asked
    twice.  Both callers, vacuum_moment and product_expansion, must equal
    direct Fock application and the partition-sum oracles."""

    @staticmethod
    def assert_one_pairing_per_algebra(monkeypatch, caller, word):
        asked, built, pairs = Counter(), Counter(), []

        def counted(a, b):
            asked[a, b] += 1
            pairs.append((a, b))
            try:
                return letter_pair(a, b)
            finally:
                pairs.pop()

        def pairing(self):  # what letter_pair reads to build a pairing
            built[pairs[-1]] += 1
            return real_pairing(self)

        real_pairing = Letter.pairing
        monkeypatch.setattr(wick, "letter_pair", counted)
        monkeypatch.setattr(Letter, "pairing", pairing)
        first = caller(word)
        assert word[:2] in asked and built == Counter(set(asked))
        once = dict(asked)
        asked.clear()
        assert caller(word) == first
        assert asked == once  # asked again, in a call of its own
        assert built == Counter(set(once))  # and built no pairing anew

    @pytest.mark.parametrize("word", [ababa_grid, ababa_points], ids=["word0", "word1"])
    def test_moment_pairs_each_pair_once_per_call(self, monkeypatch, word):
        self.assert_one_pairing_per_algebra(monkeypatch, vacuum_moment, word())

    @pytest.mark.parametrize("word", [ababa_grid, ababa_points], ids=["word0", "word1"])
    def test_expansion_contracts_each_block_once_per_call(self, monkeypatch, word):
        # a closed block's contraction is the pairing of its first letter
        # with the product of the rest, so one pairing built per pair is
        # one contraction built per distinct block
        self.assert_one_pairing_per_algebra(monkeypatch, expansion_terms, word())

    def test_expansion_past_the_cutoff(self):
        # moments through r_6 at cutoff 3: no null polynomial is known, so
        # the product of four power-1 letters is past the cutoff
        model = ProcessModel(EXACT, MomentSequence.from_measure(
            [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))], 6),
            TimeGrid.uniform(1, 1), 3, 4)
        with pytest.raises(CutoffExceededError,
                           match=r"^letter product degree 4 exceeds cutoff 3$"):
            product_expansion([model.atom_letter(0)] * 4)

    @given(words(max_len=5))
    @settings(max_examples=30, deadline=None)
    def test_moment_equals_direct(self, drawn):
        algebra, letters = drawn
        om = vacuum_vector(algebra)
        direct = apply_product(algebra, letters, om).vacuum_coefficient()
        assert vacuum_moment(letters) == direct

    @given(words(max_len=7))
    @settings(max_examples=40, deadline=None)
    def test_moment_equals_partition_sum(self, drawn):
        """Mixed words over centered letters (grid) and over letters with
        nonzero means (points): the transfer against the Bell(n) sum."""
        _, letters = drawn
        assert vacuum_moment(letters) == partition_sum_moment(letters)

    @given(words(max_len=4))
    @settings(max_examples=20, deadline=None)
    def test_expansion_equals_direct(self, drawn):
        algebra, letters = drawn
        om = vacuum_vector(algebra)
        expanded = apply(product_expansion(letters).operator(), om)
        assert (expanded - apply_product(algebra, letters, om)).is_zero

    @given(words(max_len=7))
    @settings(max_examples=40, deadline=None)
    def test_expansion_equals_partition_oracle(self, drawn):
        """Per Wick word, the transfer against the sum over every partition
        times every subset of its blocks."""
        _, letters = drawn
        assert product_expansion(letters).terms == expansion_by_word(letters)


def each_suffix(letters):
    return [vacuum_moment(letters[len(letters) - m:])
            for m in range(1, len(letters) + 1)]


@st.composite
def point_sets(draw):
    """A point set of 1 to 3 distinct small points, int weights normalized,
    and its identity letter f(x) = x."""
    points = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(points),
                            max_size=len(points)))
    alg = WeightedPointAlgebra(points, [F(w, sum(weights)) for w in weights], EXACT)
    return alg.letter(alg.points)


class TestSuffixMoments:
    """One closed transfer of a word holds, in its empty state after each
    position, the moment of each suffix: the pruning of the whole word is
    looser than that of any suffix, so no suffix path is dropped."""

    @pytest.mark.parametrize("make", [gaussian_model, three_point_model,
                                      all_ones_model, all_ones_pointset])
    def test_powers_on_canonical_models(self, make):
        if make is all_ones_pointset:
            x = make().one()
        else:
            x = make(cutoff=11).prefix_letter(1)
        assert suffix_moments([x] * 12) == each_suffix([x] * 12)

    @given(point_sets(), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_powers_on_drawn_point_sets(self, x, n):
        assert suffix_moments([x] * n) == each_suffix([x] * n)

    @given(st.sampled_from(sorted(ALPHABETS)), st.data())
    @settings(max_examples=30, deadline=None)
    def test_words_of_distinct_letters(self, name, data):
        _, alphabet = ALPHABETS[name]
        letters = tuple(data.draw(st.permutations(alphabet)))
        letters = letters[:data.draw(st.integers(1, len(letters)))]
        assert suffix_moments(letters) == each_suffix(letters)

    @given(words(max_len=7))
    @settings(max_examples=30, deadline=None)
    def test_mixed_words(self, drawn):
        _, letters = drawn
        assert suffix_moments(letters) == each_suffix(letters)

    def test_coefficients_wider_than_the_first_width(self):
        # a point at 2^40 and weights over 3, 7 and 21: numerators of
        # hundreds of bits, so the transfer repacks its states wider
        alg = WeightedPointAlgebra([2 ** 40, -3, F(1, 5)],
                                   [F(1, 3), F(4, 7), F(2, 21)], EXACT)
        x = alg.letter(alg.points)
        widths = [w for _, _, w in wick._arc_transfer([x] * 7, closed=True)]
        assert widths[0] == 64 < widths[-1]
        got = suffix_moments([x] * 7)
        assert got == [partition_sum_moment([x] * m) for m in range(1, 8)]
        assert max(abs(c).bit_length() for c in got[-1].num) > 64
        word = (x, alg.letter([1, 2 ** 70, -1]), x, x)
        assert product_expansion(word).terms == expansion_by_word(word)

    def test_budget_is_that_of_the_whole_word(self):
        x = three_point_model(n_atoms=2, cutoff=3).prefix_letter(1)
        with pytest.raises(ResourceBudgetError) as whole:
            vacuum_moment([x] * 24)
        with pytest.raises(ResourceBudgetError) as suffixes:
            suffix_moments([x] * 24)
        assert str(suffixes.value) == str(whole.value)
        with pytest.raises(UsageError, match="need at least one letter"):
            suffix_moments([])


# ---------------------------------------------------------------------------
# positivity: the vacuum moments of X(1) are those of a probability law


@cache
def x1_moments(name: str, order: int) -> tuple:
    """m_1..m_order of X(1) as polynomials in q, from `suffix_moments`."""
    if name == "pointset":
        x = all_ones_pointset().one()
    else:
        make = gaussian_model if name == "gaussian" else three_point_model
        x = make(n_atoms=1 if name == "gaussian" else 2).prefix_letter(1)
    return tuple(suffix_moments([x] * order))


def hankel_pivots(moments: list) -> list:
    """The pivots of Gaussian elimination without pivoting, in Fractions, of
    the Hankel form [m_{i+j}], i, j = 0..len(moments) // 2, m_0 = 1; the
    elimination stops after the first pivot that is not positive."""
    m = [Fraction(1)] + moments
    size = (len(m) + 1) // 2
    a = [[m[i + j] for j in range(size)] for i in range(size)]
    pivots = []
    for k in range(size):
        p = a[k][k]
        pivots.append(p)
        if p <= 0:
            break
        for i in range(k + 1, size):
            f = a[i][k] / p
            for j in range(k + 1, size):
                a[i][j] -= f * a[k][j]
    return pivots


@pytest.mark.parametrize("q0", [F(-9, 10), F(-1, 2), F(3, 10), F(9, 10)])
@pytest.mark.parametrize("name, order", [("gaussian", 40), ("three_point", 22),
                                         ("pointset", 40)])
def test_vacuum_moments_are_a_positive_functional(name, order, q0):
    """At each q0, of both signs, every pivot of the Hankel form of X(1)'s
    moments is positive, as for a law of infinite support: the 1-atom
    Gaussian and the all-ones point set to order 40, the 2-atom three-point
    model to order 22.  A wrong crossing weight in the arc transfer gives a
    negative pivot at q0 = -1/2 while passing at positive q0."""
    pivots = hankel_pivots([c.subs(q0) for c in x1_moments(name, order)])
    assert len(pivots) == order // 2 + 1
    assert all(p > 0 for p in pivots), pivots


q0s = st.fractions(min_value=F(-19, 20), max_value=F(19, 20), max_denominator=20)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                          st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)),
                min_size=1, max_size=3),
       st.lists(q0s, min_size=2, max_size=2),
       st.lists(q0s.map(lambda q: -abs(q) or F(-1, 20)), min_size=3, max_size=3))
def test_drawn_vacuum_moments_are_a_positive_functional(nu, q0s, negative):
    """On a drawn nu of 1-3 atoms, one grid atom and cutoff 3, so that the
    model closes, every pivot of the Hankel form of X(1)'s moments to order
    14 is positive at drawn q0, three of them negative: a wrong crossing
    weight in the arc transfer passes at positive q0 only."""
    x = grid_model(nu, 1, 3, 2).prefix_letter(1)
    moments = suffix_moments([x] * 14)
    for q0 in q0s + negative:
        pivots = hankel_pivots([c.subs(q0) for c in moments])
        assert len(pivots) == 8 and all(p > 0 for p in pivots), (q0, pivots)


# ---------------------------------------------------------------------------
# endpoint oracles: at q = 1 every partition counts, at q = 0 only the
# noncrossing ones, and each block contributes its contraction as a cumulant


def classical_moment(letters) -> Fraction:
    """m(l_1...l_n) = Σ_{B ∋ 1} κ(B) m(letters outside B): the classical
    moment–cumulant recursion, the sum over all set partitions."""
    @cache
    def m(word):
        if not word:
            return Fraction(1)
        first, rest = word[0], word[1:]
        total = Fraction(0)
        for size in range(len(rest) + 1):
            for chosen in combinations(range(len(rest)), size):
                block = (first,) + tuple(rest[i] for i in chosen)
                others = tuple(l for i, l in enumerate(rest) if i not in chosen)
                total += kappa(block) * m(others)
        return total

    kappa = cache(block_scalar)
    return m(tuple(letters))


def free_moment(letters) -> Fraction:
    """m(l_1...l_n) = Σ_{B ∋ 1} κ(B) Π m(letters in each gap of B): the free
    moment–cumulant recursion, the sum over noncrossing partitions, whose
    other blocks each lie in one gap between consecutive elements of B or
    after its last."""
    @cache
    def m(word):
        if not word:
            return Fraction(1)
        n = len(word)
        total = Fraction(0)
        for size in range(n):
            for chosen in combinations(range(1, n), size):
                elems = (0,) + chosen
                val = kappa(tuple(word[i] for i in elems))
                for lo, hi in zip(elems, elems[1:] + (n,)):
                    if not val:
                        break
                    val *= m(word[lo + 1:hi])
                total += val
        return total

    kappa = cache(block_scalar)
    return m(tuple(letters))


class TestEndpointOracles:
    def test_oracles_pinned(self):
        x = gaussian_model(n_atoms=1, cutoff=4).prefix_letter(1)
        assert (classical_moment([x] * 4), free_moment([x] * 4)) == (3, 2)
        one = all_ones_pointset().one()
        # Bell(5) and Catalan(5)
        assert (classical_moment([one] * 5), free_moment([one] * 5)) == (52, 42)

    @pytest.mark.parametrize("family", ["gaussian", "three_point"])
    def test_powers(self, family):
        if family == "gaussian":
            x = gaussian_model(n_atoms=1, cutoff=12).prefix_letter(1)
        else:
            x = three_point_model(n_atoms=2, cutoff=12).prefix_letter(1)
        for n in range(1, 13):
            moment = vacuum_moment([x] * n)
            assert moment.subs(0) == free_moment([x] * n), n
            assert moment.subs(1) == classical_moment([x] * n), n

    @given(words(max_len=8))
    @settings(max_examples=40, deadline=None)
    def test_mixed_words(self, drawn):
        _, letters = drawn
        moment = vacuum_moment(letters)
        assert moment.subs(0) == free_moment(letters)
        assert moment.subs(1) == classical_moment(letters)


def gamma_q(v: FockVector) -> FockVector:
    """Second quantization of q·Id on vectors: degree n scaled by q^n."""
    return FockVector(v.space, v.depth,
                      {w: c * q_pow(len(w)) for w, c in v.terms.items()})


def right_field(letter, v: FockVector) -> FockVector:
    """X^r(f) v for the right (commutant) field of a letter f:
    η_1 ⊗ ... ⊗ η_n ↦ W(η_1 ⊗ ... ⊗ η_n) X(f) Ω."""
    algebra = letter.algebra
    xf = apply(letter.field(), FockVector.vacuum(v.space, v.depth))
    out = FockVector(v.space, v.depth)
    for w, c in v.terms.items():
        basis_word = tuple(algebra.basis_letter(i) for i in w)
        out = out + apply(wick_operator(algebra, basis_word), xf).scale(c)
    return out


class TestWickElement:
    def test_from_vector_round_trip(self, model):
        rng = random.Random(3)
        v = WickElement.from_word(model, random_word(model, rng, 3)).vector()
        v = v + WickElement.from_word(model, random_word(model, rng, 1)).vector().scale(
            const(F(1, 2)))
        el = WickElement.from_vector(model, v)
        assert el.vector() == v
        om = FockVector.vacuum(model.space, model.fock_depth)
        assert apply(el.operator(), om) == v

    def test_gamma_matches_vector_scaling(self, model):
        rng = random.Random(4)
        v = WickElement.from_word(model, random_word(model, rng, 2)).vector()
        el = WickElement.from_vector(model, v)
        assert el.gamma().vector() == gamma_q(v)

    def test_map_letters_drops_zeroed_words(self, model):
        el = WickElement.from_word(model, (model.atom_letter(0),
                                           model.atom_letter(1)))
        kept = el.map_letters(
            lambda l: l if l == model.atom_letter(0) else l.scale(0))
        assert kept.is_zero

    def test_vacuum_expectation(self, model):
        l = model.atom_letter(0)
        assert vacuum_expectation(model, l.field() * l.field()) == \
            const(F(1, 3))  # |A| r_2 = 1/3 * 1


class TestRightOperators:
    def test_right_field_on_vacuum(self, model):
        f = model.atom_letter(1)
        om = FockVector.vacuum(model.space, model.fock_depth)
        got = right_field(f, om)
        assert got == apply(f.field(), om)

    @pytest.mark.parametrize("seed", range(3))
    def test_commutes_with_left_action(self, model, seed):
        rng = random.Random(seed)
        f, g = model.atom_letter(rng.randrange(3)), model.atom_letter(rng.randrange(3))
        v = WickElement.from_word(model, random_word(model, rng, 2)).vector()
        lr = apply(g.field(), right_field(f, v))
        rl = right_field(f, apply(g.field(), v))
        assert (lr - rl).is_zero
