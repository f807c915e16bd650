import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfock.errors import ResourceBudgetError, UsageError
from qfock.fock import FockOperator, FockVector, apply, gamma_q
from qfock.model import (WeightedPointAlgebra, MomentSequence, ProcessModel,
                         TimeGrid)
from qfock.qscalar import EXACT, QScalar
from qfock.wick import (WickElement, expansion_ledger, expansion_operator,
                        product_expansion, right_operator, vacuum_expectation,
                        vacuum_moment, vacuum_vector, wick_operator,
                        word_vector)

F = Fraction


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
        assert got == word_vector(model, word, model.fock_depth)

    def test_empty_word_is_identity(self, model):
        om = FockVector.vacuum(model.space, model.fock_depth)
        assert apply(wick_operator(model, ()), om) == om

    def test_foreign_letter_rejected(self, model):
        alg = WeightedPointAlgebra([1], [1], EXACT)
        with pytest.raises(UsageError):
            wick_operator(model, (alg.one(),))


class TestProductExpansion:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_direct_product(self, model, n):
        rng = random.Random(10 + n)
        letters = random_word(model, rng, n)
        direct = FockOperator.compose([l.field() for l in letters])
        expanded = expansion_operator(model, product_expansion(letters))
        om = FockVector.vacuum(model.space, model.fock_depth)
        probe = word_vector(model, random_word(model, rng, 2), model.fock_depth)
        for v in (om, probe):
            assert (apply(direct, v) - apply(expanded, v)).is_zero

    def test_ledger_format(self, model):
        terms = product_expansion(random_word(model, random.Random(0), 2))
        text = expansion_ledger(terms)
        assert len(text.splitlines()) == len(terms)
        assert all("rc=" in line and "W(" in line for line in text.splitlines())

    def test_budget(self, model):
        with pytest.raises(ResourceBudgetError):
            product_expansion((model.atom_letter(0),) * 9)


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

    def test_budget(self, model):
        with pytest.raises(ResourceBudgetError):
            vacuum_moment((model.atom_letter(0),) * 11)


def grid_alphabet():
    """Three letters of the three-point model on two atoms, with cutoff and
    depth room for any word of length <= 5 in them."""
    moments = MomentSequence.from_measure(
        [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))], 12)
    model = ProcessModel(EXACT, moments, TimeGrid.uniform(1, 2), 6, 6)
    a, b = model.atom_letter(0), model.atom_letter(1)
    return model, (a, b, a.scale(2) + b.scale(F(-1, 3)))


def points_alphabet():
    """Three letters of the 2-point algebra, with nonzero means."""
    alg = WeightedPointAlgebra([-1, 1], [F(1, 2), F(1, 2)], EXACT)
    return alg, (alg.coordinate(), alg.basis_letter(0), alg.letter([2, F(1, 3)]))


ALPHABETS = {"grid": grid_alphabet(), "points": points_alphabet()}


@st.composite
def words(draw, max_len):
    """A word over the first 2 or 3 letters of an alphabet; short alphabets
    make repeated letters at different positions the common case, so block
    contents recur within one call with the same and with different orders."""
    algebra, alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    k = draw(st.integers(2, 3))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=max_len))
    return algebra, tuple(alphabet[i] for i in picks)


def apply_product(algebra, letters, v):
    for l in reversed(letters):
        v = apply(l.field(), v)
    return v


class TestBlockMemo:
    """vacuum_moment and product_expansion contract each distinct block
    content once per call; the results must equal direct Fock application."""

    @given(words(max_len=5))
    @settings(max_examples=30, deadline=None)
    def test_moment_equals_direct(self, drawn):
        algebra, letters = drawn
        om = vacuum_vector(algebra)
        direct = apply_product(algebra, letters, om).vacuum_coefficient()
        assert vacuum_moment(letters) == direct

    @given(words(max_len=4))
    @settings(max_examples=20, deadline=None)
    def test_expansion_equals_direct(self, drawn):
        algebra, letters = drawn
        om = vacuum_vector(algebra)
        expanded = apply(expansion_operator(algebra, product_expansion(letters)), om)
        assert (expanded - apply_product(algebra, letters, om)).is_zero


class TestWickElement:
    def test_from_vector_round_trip(self, model):
        rng = random.Random(3)
        v = word_vector(model, random_word(model, rng, 3), model.fock_depth)
        v = v + word_vector(model, random_word(model, rng, 1),
                            model.fock_depth).scale(EXACT.of(F(1, 2)))
        el = WickElement.from_vector(model, v)
        assert el.vector() == v
        om = FockVector.vacuum(model.space, model.fock_depth)
        assert apply(el.operator(), om) == v

    def test_gamma_matches_vector_scaling(self, model):
        rng = random.Random(4)
        v = word_vector(model, random_word(model, rng, 2), model.fock_depth)
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
            EXACT.of(F(1, 3))  # |A| r_2 = 1/3 * 1


class TestRightOperators:
    def test_right_field_on_vacuum(self, model):
        f = model.atom_letter(1)
        om = FockVector.vacuum(model.space, model.fock_depth)
        got = apply(right_operator(f), om)
        assert got == apply(f.field(), om)

    @pytest.mark.parametrize("seed", range(3))
    def test_commutes_with_left_action(self, model, seed):
        rng = random.Random(seed)
        f, g = model.atom_letter(rng.randrange(3)), model.atom_letter(rng.randrange(3))
        v = word_vector(model, random_word(model, rng, 2), model.fock_depth)
        lr = apply(g.field(), apply(right_operator(f), v))
        rl = apply(right_operator(f), apply(g.field(), v))
        assert (lr - rl).is_zero
