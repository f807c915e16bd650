"""Letters are interned in their algebra, keep their caches there, pair on
int numerators and gauge by their algebra's product.

A letter is one object per (algebra, canonical payload), whatever path built
it; its field node, int pairing row, gauge and products are built once and
are freed with the algebra; `letter_pair` agrees with the gram form written
out in Fractions; a letter's gauge column at e_i, over the letter's one
denominator, agrees with the column each algebra once wrote out on its own,
and is built once per letter.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfock.cli import rand_letter, three_point_model
from qfock.errors import CutoffExceededError, UsageError
from qfock import model as model_module
from qfock.fock import FockOperator, FockVector, OneParticleSpace, apply
from qfock.model import (Letter, MomentSequence, ProcessModel, TimeGrid,
                         WeightedPointAlgebra, letter_pair)
from qfock.qscalar import EXACT, const
from qfock.stochastic import conditional_expectation, delta_process, x_process
from qfock.wick import WickElement, product_expansion, wick_operator

F = Fraction


@pytest.fixture
def model():
    return three_point_model(n_atoms=4, cutoff=3, depth=5)


@pytest.fixture
def points():
    return WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)


class TestInterning:
    """Every construction path returns the algebra's one letter for a payload."""

    def test_letter(self, model, points):
        a = model.letter({(0, 1): F(1, 2), (2, 3): -1})
        assert model.letter({(2, 3): F(-1), (0, 1): F(2, 4)}) is a
        assert points.letter([1, 0, F(1, 3)]) is points.letter([F(2, 2), 0, F(2, 6)])

    def test_sum_difference_and_scale(self, model):
        a, b = model.atom_letter(0), model.atom_letter(1, 2)
        s = a + b
        assert s is model.letter({(0, 1): 1, (1, 2): 1})
        assert s is b + a
        assert s - b is a
        assert a - a is model.letter({})
        assert a.scale(F(2, 3)) is model.letter({(0, 1): F(2, 3)})
        assert s.scale(0) is a.scale(0) is model.letter({})

    def test_product(self, model, points):
        a = model.atom_letter(0)
        assert a * a is model.atom_letter(0, 2)
        assert a * a is a * a
        assert a * model.atom_letter(1) is model.letter({})
        f = points.letter([1, 2, 3])
        assert f * f is points.letter([1, 4, 9])

    def test_basis_letter(self, model, points):
        for i in range(model.space.dim):
            assert model.basis_letter(i) is model.atom_letter(*model.atom_power(i))
        assert points.basis_letter(1) is points.letter([0, 1, 0])

    def test_basis_letter_out_of_range(self, model, points):
        for algebra in (model, points):
            for i in (-1, algebra.space.dim):
                with pytest.raises(UsageError,
                                   match=rf"^basis index {i} out of range$"):
                    algebra.basis_letter(i)

    def test_process_family(self, model):
        assert x_process(model).letter(2) is model.atom_letter(2)
        assert x_process(model).prefix_letter(F(1, 2)) is model.prefix_letter(F(1, 2))
        interval = (F(1, 4), F(3, 4))
        assert (delta_process(model, 2).interval_letter(interval)
                is model.interval_letter(interval, 2))

    def test_restriction_of_conditional_expectation(self, model):
        a = model.letter({(0, 1): 2, (3, 2): F(1, 3)})
        [word] = conditional_expectation(WickElement.from_word(model, (a,)),
                                         F(1, 2)).terms
        assert word == (model.atom_letter(0).scale(2),)
        assert word[0] is model.letter({(0, 1): 2})

    def test_equality_is_identity(self, model):
        a = model.atom_letter(0)
        assert a == model.atom_letter(0) and hash(a) == hash(model.atom_letter(0))
        assert a != model.atom_letter(1) and a != a.payload

    def test_two_algebras_stay_apart(self, model):
        other = three_point_model(n_atoms=4, cutoff=3, depth=5)
        a, b = model.atom_letter(0), other.atom_letter(0)
        assert a.payload == b.payload
        assert a is not b and a != b
        assert a.algebra is model and b.algebra is other
        for mix in (lambda: a + b, lambda: a - b, lambda: a * b,
                    lambda: letter_pair(a, b)):
            with pytest.raises(UsageError):
                mix()
        with pytest.raises(UsageError):
            wick_operator(model, (b,))
        p = WeightedPointAlgebra([0, 1], [F(1, 2), F(1, 2)], EXACT)
        q = WeightedPointAlgebra([0, 1], [F(1, 2), F(1, 2)], EXACT)
        assert p.letter([1, 2]) is not q.letter([1, 2])
        with pytest.raises(UsageError):
            p.letter([1, 2]) * q.letter([1, 2])

    def test_one_field_node_per_letter(self, model, points):
        a = model.letter({(1, 1): F(1, 2)})
        assert a.field() is a.field()
        assert model.letter({(1, 1): F(2, 4)}).field() is a.field()
        assert (a + a).field() is a.scale(2).field()
        f = points.letter([1, 0, 2])
        assert f.field() is points.letter([1, 0, 2]).field()


def test_pair_ints_runs_once_per_letter_and_space(monkeypatch):
    """A product_wick run applies each letter's field and pairs letters in
    the Wick recursion and the block contractions; each payload is paired
    against the gram rows once, whichever asks first."""
    calls = []
    original = OneParticleSpace.pair_ints

    def counted(space, zeta):
        calls.append((space.key, zeta))
        return original(space, zeta)

    monkeypatch.setattr(OneParticleSpace, "pair_ints", counted)
    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = FockVector.vacuum(model.space, model.fock_depth)
    rng = random.Random(7)
    for n in range(1, 6):
        letters = [rand_letter(model, rng) for _ in range(n)]
        direct = om
        for letter in reversed(letters):
            direct = apply(letter.field(), direct)
        expanded = apply(product_expansion(letters).operator(), om)
        assert (direct - expanded).is_zero
    assert calls
    assert len(calls) == len(set(calls))
    assert {key for key, _ in calls} == {model.space.key}
    assert len(calls) <= len(model.letters)


def test_pairing_row_is_kept_per_space(model):
    """The row letter_pair reads is the algebra space's; the same field node
    applied on another space pairs under that space's gram."""
    a = model.letter({(0, 1): 1, (0, 2): F(1, 2)})
    # |A0| (r_2 + r_3 / 2) = (1 + 0) / 4
    assert letter_pair(a, model.atom_letter(0)) == F(1, 4)
    other = OneParticleSpace.orthonormal(model.space.dim)
    image = apply(a.field(), FockVector.basis_word(other, 2, (0,)))
    assert image.vacuum_coefficient() == const(1)
    assert letter_pair(a, model.atom_letter(0)) == F(1, 4)


# rationals whose denominators are products of 2, 3, 5 and 7
DENOMINATORS = sorted({2 ** a * 3 ** b * 5 ** c * 7 ** d for a in range(3)
                       for b in range(2) for c in range(2) for d in range(2)})
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


def grid_reference(model: ProcessModel, a: Letter, b: Letter) -> Fraction:
    """sum over atoms A and powers j, k of a_{A,j} b_{A,k} |A| r_{j+k}."""
    out = Fraction(0)
    for i, x in a.payload:
        atom, j = model.atom_power(i)
        for i_b, y in b.payload:
            atom_b, k = model.atom_power(i_b)
            if atom == atom_b:
                out += x * y * model.grid.width(atom) * model.moments.r_at(j + k)
    return out


def point_reference(alg: WeightedPointAlgebra, a: Letter, b: Letter) -> Fraction:
    """sum over points i of w_i a(i) b(i)."""
    fa, fb = dict(a.payload), dict(b.payload)
    return sum((w * fa.get(i, 0) * fb.get(i, 0)
                for i, w in enumerate(alg.weights)), Fraction(0))


@st.composite
def letter_pairs(draw):
    if draw(st.booleans()):
        cutoff = 2
        atoms = list(zip([F(-1, 2), F(1, 3), F(5, 7)], [F(1, 5), F(3, 7), F(13, 35)]))
        bounds = [0, F(1, 6), F(3, 7), F(4, 5), 1]
        model = ProcessModel(EXACT, MomentSequence.from_measure(atoms, 2 * cutoff),
                             TimeGrid(bounds), cutoff, 3)
        keys = st.tuples(st.integers(0, model.grid.n_atoms - 1),
                         st.integers(1, cutoff))
        draw_letter = st.dictionaries(keys, RATIONALS, max_size=4).map(model.letter)
        return model, draw(draw_letter), draw(draw_letter), grid_reference
    alg = WeightedPointAlgebra([F(-3, 2), F(1, 7), 2, F(5, 3)],
                               [F(1, 2), F(1, 3), F(1, 7), F(1, 42)], EXACT)
    draw_letter = st.lists(RATIONALS, min_size=4, max_size=4).map(alg.letter)
    return alg, draw(draw_letter), draw(draw_letter), point_reference


@settings(max_examples=150, deadline=None)
@given(letter_pairs())
def test_letter_pair_matches_fraction_reference(drawn):
    """On both algebras, the int pairing row against the other letter's
    vector is the gram form written out in Fractions, symmetric, and the
    same when asked again from the cached row."""
    algebra, a, b, reference = drawn
    want = reference(algebra, a, b)
    got = letter_pair(a, b)
    assert type(got) is Fraction and got == want
    assert letter_pair(b, a) == want
    assert letter_pair(a, b) == want
    assert letter_pair(a, a) == reference(algebra, a, a)
    den, row = a.pairing()
    assert den > 0 and all(row.values())
    den, ints = b.ints
    assert tuple((i, F(z, den)) for i, z in ints) == b.payload
    assert all(type(z) is int for _, z in ints)


def test_letter_pair_reads_the_int_payload(model, monkeypatch):
    """Once its letters exist, `letter_pair` builds no int form of a payload."""
    a, b = model.atom_letter(0, 1), model.interval_letter((0, F(1, 2)), 2)
    want = grid_reference(model, a, b)
    monkeypatch.setattr(model_module, "int_numerators", None)
    assert letter_pair(a, b) == want and letter_pair(b, a) == want


def former_gauge_column(algebra, letter: Letter, i: int) -> list:
    """T e_i for multiplication by a letter, as each algebra wrote it out on
    its own: a grid letter takes x_A^p to x_A^(p+k) by each of its terms
    x_A^k on the atom of e_i, and refuses a power past the cutoff; a
    point-set letter scales e_i by its value at point i."""
    if isinstance(algebra, WeightedPointAlgebra):
        values = dict(letter.payload)
        return [(i, values[i])] if i in values else []
    atom, power = algebra.atom_power(i)
    out = []
    for j, c in letter.payload:
        a, k = algebra.atom_power(j)
        if a == atom:
            if power + k > algebra.degree_cutoff:
                raise CutoffExceededError(f"degree {power + k}")
            out.append((i + k, c))
    return out


@settings(max_examples=100, deadline=None)
@given(letter_pairs())
def test_gauge_columns_match_former_per_algebra_forms(drawn):
    """On both algebras, the one letter gauge has at every basis index the
    column each algebra's own gauge had, as int numerators over the
    letter's denominator, and raises where it raised."""
    algebra, a, b, _ = drawn
    for letter in (a, b):
        gauge = letter.gauge()
        if letter.is_zero:
            assert gauge is None
            continue
        assert gauge is letter and gauge.den == letter.ints[0]
        for i in range(algebra.space.dim):
            try:
                want = former_gauge_column(algebra, letter, i)
            except CutoffExceededError:
                with pytest.raises(CutoffExceededError, match="letter product degree"):
                    gauge.column(i)
            else:
                col = gauge.column(i)
                assert all(type(x) is int for _, x in col)
                assert [(j, F(x, gauge.den)) for j, x in col] == want


def test_gauge_column_past_the_cutoff_is_not_kept(model):
    """A column past the cutoff raises at every use, directly or through
    `apply`, and is not kept; the columns under the cutoff are."""
    letter = model.atom_letter(0, 2)
    gauge = letter.gauge()
    low, top = model.basis_index(0, 1), model.basis_index(0, 2)
    assert gauge.column(low) == ((model.basis_index(0, 3), 1),)
    node = FockOperator.gauge(gauge)
    for _ in range(2):
        with pytest.raises(CutoffExceededError, match="letter product degree 4"):
            gauge.column(top)
        with pytest.raises(CutoffExceededError, match="letter product degree 4"):
            apply(node, FockVector.basis_word(model.space, 2, (low, top)))
    assert list(gauge.columns) == [low]


def test_letter_gauge_columns_built_once(model, monkeypatch):
    """Two gauge nodes of one letter, and its field, applied twice to a
    vector over three basis indices build each of the three columns once:
    the columns belong to the letter, not to a node or a call."""
    calls = []
    basis_product = model.basis_product
    monkeypatch.setattr(model, "basis_product",
                        lambda p, i: calls.append(i) or basis_product(p, i))
    letter = model.atom_letter(0, 1) + model.atom_letter(1, 1).scale(F(2, 3))
    v = FockVector(model.space, 3, {
        (model.basis_index(0, 1), model.basis_index(1, 2)): const(1),
        (model.basis_index(2, 1),): const(F(1, 5))})
    images = []
    for op in (FockOperator.gauge(letter.gauge()), FockOperator.gauge(letter.gauge()),
               letter.field()):
        for _ in range(2):
            images.append(apply(op, v))
    assert sorted(calls) == sorted(i for w in v.terms for i in w)
    assert images[0] == images[2] and not images[0].is_zero


def test_caches_die_with_their_model():
    """No module-level table keeps a letter, its field node or a Wick
    operator alive: a model whose every cache has been filled is freed by
    the garbage collector once its last outside reference goes."""

    def exercise():
        model = three_point_model(n_atoms=2, cutoff=5, depth=6)
        om = FockVector.vacuum(model.space, model.fock_depth)
        rng = random.Random(3)
        letters = [rand_letter(model, rng) for _ in range(3)]
        apply(product_expansion(letters).operator(), om)
        apply(letters[0].field(), om)
        letter_pair(letters[0], letters[1] * letters[2])
        assert model.letters and model.wick_cache
        return weakref.ref(model), weakref.ref(letters[0].field())

    model_ref, field_ref = exercise()
    gc.collect()
    assert model_ref() is None and field_ref() is None
