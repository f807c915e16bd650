"""Letters are interned in their algebra, keep their caches there, pair on
int numerators and gauge by their algebra's product.

A letter is one object per (algebra, canonical payload), whatever path built
it; its field node, int pairing row, mean, gauge, products and pairings are
built once and are freed with the algebra; `letter_pair` agrees with the
gram form written out in Fractions; a letter's gauge column at e_i, over its
one denominator, agrees with a reference per algebra (the value at point i,
or on the grid the product x f g paired against the measure itself), and is
built once per letter.
"""

import gc
import random
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qfock import cli
from qfock.suites import rand_letter, three_point_model
from qfock.errors import CutoffExceededError, UsageError
from qfock import fock as fock_module
from qfock.fock import (FockOperator, FockVector, OneParticleSpace, apply,
                        sparse_vector)
from qfock.model import (Letter, MomentSequence, ProcessModel, TimeGrid,
                         WeightedPointAlgebra, letter_pair)
from qfock.qscalar import EXACT, const
from qfock.stochastic import conditional_expectation, delta_process, x_process
from qfock.wick import (WickElement, product_expansion, vacuum_moment,
                        wick_operator)
from matrix_gauge import matrix_gauge

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
        # e_i is P_k on atom A, i = A rank + k, written here in monomials
        b = model.rank
        for i in range(model.space.dim):
            op = model.monic_op(i % b)
            assert model.basis_letter(i) is model.letter(
                {(i // b, j + 1): c for j, c in enumerate(op) if c})
        assert points.basis_letter(1) is points.letter([0, 1, 0])

    def test_basis_letter_out_of_range(self, model, points):
        for algebra in (model, points):
            for i in (-1, algebra.space.dim):
                with pytest.raises(UsageError,
                                   match=rf"^basis index {i} out of range$"):
                    algebra.basis_letter(i)

    def test_atom_letter_out_of_range(self, model):
        # a negative index is refused, not read from the last atom
        for a in (-1, model.grid.n_atoms):
            for build in (model.atom_letter, x_process(model).letter):
                with pytest.raises(UsageError, match=rf"^atom index {a} out of range$"):
                    build(a)

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
        calls.append((space, zeta))
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
    assert all(space is model.space for space, _ in calls)
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


def grid_reference(model: ProcessModel, fa: dict, fb: dict) -> Fraction:
    """sum over atoms A and powers j, k of a_{A,j} b_{A,k} |A| r_{j+k}, for
    letters given as {(atom, power): coefficient}."""
    return sum((x * y * model.grid.width(atom) * model.moments.r_at(j + k)
                for (atom, j), x in fa.items() for (atom_b, k), y in fb.items()
                if atom == atom_b), Fraction(0))


def point_reference(alg: WeightedPointAlgebra, fa: list, fb: list) -> Fraction:
    """sum over points i of w_i a(i) b(i), for letters given by values."""
    return sum((w * x * y for w, x, y in zip(alg.weights, fa, fb)), Fraction(0))


# the grid's measure nu, three points, so a model closes from cutoff 3 on
NU = list(zip([F(-1, 2), F(1, 3), F(5, 7)], [F(1, 5), F(3, 7), F(13, 35)]))


@st.composite
def letter_pairs(draw):
    """An algebra, two letters with the forms they were built from, and the
    reference pairing of two forms.  The grid model's cutoff is 2, 3 or 4,
    with moments through r_{2 cutoff} or r_{2 cutoff + 2}: it closes at
    cutoff 4, and at cutoff 3 with the longer list."""
    if draw(st.booleans()):
        cutoff = draw(st.integers(2, 4))
        bounds = [0, F(1, 6), F(3, 7), F(4, 5), 1]
        length = 2 * cutoff + draw(st.sampled_from((0, 2)))
        model = ProcessModel(EXACT, MomentSequence.from_measure(NU, length),
                             TimeGrid(bounds), cutoff, 3)
        keys = st.tuples(st.integers(0, model.grid.n_atoms - 1),
                         st.integers(1, cutoff))
        forms = st.dictionaries(keys, RATIONALS.filter(bool), max_size=4)
        build, reference = model.letter, grid_reference
    else:
        model = WeightedPointAlgebra([F(-3, 2), F(1, 7), 2, F(5, 3)],
                                     [F(1, 2), F(1, 3), F(1, 7), F(1, 42)], EXACT)
        forms = st.lists(RATIONALS, min_size=4, max_size=4)
        build, reference = model.letter, point_reference
    fa, fb = draw(forms), draw(forms)
    return model, (build(fa), fa), (build(fb), fb), reference


@settings(max_examples=150, deadline=None)
@given(letter_pairs())
def test_letter_pair_matches_fraction_reference(drawn):
    """On both algebras, the int pairing row against the other letter's
    vector is the gram form written out in Fractions, symmetric, and the
    same when asked again from the cached row."""
    algebra, (a, fa), (b, fb), reference = drawn
    want = reference(algebra, fa, fb)
    got = letter_pair(a, b)
    assert type(got) is Fraction and got == want
    assert letter_pair(b, a) == want
    assert letter_pair(a, b) == want
    assert letter_pair(a, a) == reference(algebra, fa, fa)
    den, row = a.pairing()
    assert den > 0 and all(row.values())
    den, ints = b.payload
    assert den > 0 and gcd(den, *(z for _, z in ints)) == 1
    assert all(type(z) is int and z for _, z in ints)


def test_letter_pair_reads_the_int_payload(model, monkeypatch):
    """Once its letters exist, `letter_pair` builds no int form of a payload:
    it reads each payload as it is."""
    a, b = model.atom_letter(0, 1), model.interval_letter((0, F(1, 2)), 2)
    want = grid_reference(model, {(0, 1): 1}, {(0, 2): 1, (1, 2): 1})
    monkeypatch.setattr(fock_module, "int_numerators", None)
    assert letter_pair(a, b) == want and letter_pair(b, a) == want


def point_gauge_column(alg: WeightedPointAlgebra, values: list, i: int) -> list:
    """T e_i for multiplication by a point-set letter: e_i scaled by its
    value at point i."""
    return [(i, values[i])] if values[i] else []


def check_grid_gauge(model: ProcessModel, letter: Letter, form: dict) -> None:
    """The gauge of a grid letter f, given as {(atom, power): coefficient},
    against the measure itself.  On a model that does not close, the column
    at P_k on atom A raises when a term x^{j-1} of f on A makes x f P_k of
    letter power j + k + 1 past the cutoff.  Every other column is read
    through the monomial letters g = x_A^m: <f g, x_A^k> must be
    |A| sum_j f_{A,j} int x^{j+m+k-2} dnu, summed over the points of nu."""
    gauge, b = letter.gauge(), model.rank
    cols = {}
    for i in range(model.space.dim):
        top = max((j for (a, j) in form if a == i // b), default=0)
        if not model.closes and top and top + i % b + 1 > model.degree_cutoff:
            assert i in gauge.support()
            with pytest.raises(CutoffExceededError, match="letter product degree"):
                gauge.column(i)
            continue
        col = cols[i] = gauge.column(i)
        assert all(type(x) is int for _, x in col)
        assert not col or i in gauge.support()
    for atom in range(model.grid.n_atoms):
        for m in range(1, model.degree_cutoff + 1):
            g = model.atom_letter(atom, m)
            if any(i not in cols for i, _ in g.payload.entries):
                continue
            image: dict = {}
            for i, z in g.payload.entries:
                for j, x in cols[i]:
                    image[j] = image.get(j, 0) + F(z * x, g.payload.den * gauge.den)
            for k in range(1, model.degree_cutoff + 1):
                got = model.space.pair_vec(sparse_vector(image.items()),
                                           model.atom_letter(atom, k).payload)
                assert got == model.grid.width(atom) * sum(
                    (c * w * x ** (j + m + k - 2) for (a, j), c in form.items()
                     if a == atom for x, w in NU), F(0))


@settings(max_examples=100, deadline=None)
@given(letter_pairs())
def test_gauge_columns_match_former_per_algebra_forms(drawn):
    """On both algebras, the one letter gauge is multiplication by the
    letter: on the point set each column is the one the point set's own
    gauge had, and on the grid the columns are x f P_m, checked against the
    measure and refused past the cutoff of a model that does not close; all
    are int numerators over the letter's one denominator."""
    algebra, *pairs, _ = drawn
    for letter, form in pairs:
        gauge = letter.gauge()
        if letter.is_zero:
            assert gauge is None
            continue
        assert gauge is letter
        assert gauge.den == letter.payload.den * algebra.product_den
        if isinstance(algebra, ProcessModel):
            check_grid_gauge(algebra, letter, form)
            continue
        assert algebra.product_den == 1
        for i in range(algebra.space.dim):
            col = gauge.column(i)
            assert all(type(x) is int for _, x in col)
            assert bool(col) == (i in gauge.support())
            assert ([(j, F(x, gauge.den)) for j, x in col]
                    == point_gauge_column(algebra, form, i))


def test_gauge_column_past_the_cutoff_is_not_kept():
    """On a model that does not close, a column past the cutoff raises at
    every use, directly or through `apply`, and is not kept; the columns
    under the cutoff are."""
    model = ProcessModel(EXACT, MomentSequence.from_measure(
        [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))], 6), TimeGrid.uniform(1, 2), 3, 4)
    letter = model.atom_letter(0, 2)  # x = P_1
    gauge = letter.gauge()
    low, top = 0, 1  # P_0 and P_1 on atom 0
    # x * x * 1 = x^2 = P_2 + P_0 / 2
    assert ([(j, F(x, gauge.den)) for j, x in gauge.column(low)]
            == [(0, F(1, 2)), (2, F(1))])
    node = FockOperator.gauge(gauge)
    for _ in range(2):
        with pytest.raises(CutoffExceededError, match="letter product degree 4"):
            gauge.column(top)
        with pytest.raises(CutoffExceededError, match="letter product degree 4"):
            apply(node, FockVector.basis_word(model.space, 2, (low, top)))
    assert list(gauge.columns) == [low]


def test_letter_gauge_columns_built_once(model, monkeypatch):
    """Two gauge nodes of one letter, and its field, applied twice to a
    vector over three basis indices build the column of each of the two
    indices on the letter's support once: the columns belong to the letter,
    not to a node or a call.  The third index, 2b on atom 2, which the
    letter does not touch, never reaches `basis_product`."""
    calls = []
    basis_product = model.basis_product
    monkeypatch.setattr(model, "basis_product",
                        lambda p, i: calls.append(i) or basis_product(p, i))
    letter = model.atom_letter(0, 1) + model.atom_letter(1, 1).scale(F(2, 3))
    b = model.rank  # P_k on atom A sits at A b + k
    assert letter.support() == frozenset(range(2 * b))
    v = FockVector(model.space, 3, {(0, b + 1): const(1), (2 * b,): const(F(1, 5))})
    images = []
    for op in (FockOperator.gauge(letter.gauge()), FockOperator.gauge(letter.gauge()),
               letter.field()):
        for _ in range(2):
            images.append(apply(op, v))
    assert sorted(calls) == [0, b + 1]
    assert images[0] == images[2] and not images[0].is_zero


def test_products_build_no_column_off_the_other_letters_support(model, monkeypatch,
                                                              capsys):
    """A product sums other's columns over self's payload only at indices on
    other's support: off it a column is empty by the Gauge contract, so it
    is never built.  `verify --seed 5` builds 100 columns, each on its
    letter's support; reading every index of self's payload built 145, 45
    of them off the support."""
    built = []
    for cls in (ProcessModel, WeightedPointAlgebra):
        def counted(self, p, i, basis_product=cls.basis_product):
            built.append(i in self.support(p))
            return basis_product(self, p, i)
        monkeypatch.setattr(cls, "basis_product", counted)
    assert (model.atom_letter(0) * model.atom_letter(1)).is_zero
    assert built == []
    assert cli.main(["verify", "--seed", "5"]) == 0
    capsys.readouterr()
    assert len(built) == 100 and all(built)


def test_gauge_on_a_long_grid_builds_only_its_atoms_columns(monkeypatch):
    """At 16 atoms, the gauge of the letter of atom 0 applied to X(1)^2
    Omega, whose words run over every atom, builds at most `rank` columns,
    those of atom 0, and its image matches the dense one of a gauge that
    reads every column."""
    model = three_point_model(n_atoms=16, cutoff=3, depth=3)
    x = model.prefix_letter(1).field()
    v = apply(x, apply(x, FockVector.vacuum(model.space, model.fock_depth)))
    assert {i // model.rank for w in v.terms for i in w} == set(range(16))
    letter = model.atom_letter(0)
    calls = []
    basis_product = model.basis_product
    monkeypatch.setattr(model, "basis_product",
                        lambda p, i: calls.append(i) or basis_product(p, i))
    got = apply(FockOperator.gauge(letter.gauge()), v)
    assert 0 < len(calls) <= model.rank and all(i < model.rank for i in calls)
    cols = [dict(letter.column(i)) for i in range(model.space.dim)]
    assert got == apply(matrix_gauge([[F(col.get(j, 0), letter.den) for col in cols]
                                      for j in range(model.space.dim)]), v)


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


@st.composite
def algebra_letters(draw):
    """An algebra of either kind and two letters of it: the grid model of NU
    at cutoff 3, where letter products close, or a 4-point set."""
    if draw(st.booleans()):
        model = ProcessModel(EXACT, MomentSequence.from_measure(NU, 8),
                             TimeGrid([0, F(1, 6), F(3, 7), F(4, 5), 1]), 3, 3)
        keys = st.tuples(st.integers(0, model.grid.n_atoms - 1), st.integers(1, 3))
        forms = st.dictionaries(keys, RATIONALS.filter(bool), max_size=4)
    else:
        model = WeightedPointAlgebra([F(-3, 2), F(1, 7), 2, F(5, 3)],
                                     [F(1, 2), F(1, 3), F(1, 7), F(1, 42)], EXACT)
        forms = st.lists(RATIONALS, min_size=4, max_size=4)
    return model, model.letter(draw(forms)), model.letter(draw(forms))


@settings(max_examples=60, deadline=None)
@given(algebra_letters())
def test_mean_is_the_algebras(drawn):
    """A letter's kept mean is its algebra's mean of its payload, for sums
    and products too, and asking again returns the kept value."""
    algebra, a, b = drawn
    for letter in (a, b, a + b, a * b, a * b + a.scale(F(-2, 3))):
        mean = letter.mean()
        assert type(mean) is Fraction and mean == algebra.mean(letter.payload)
        assert letter.mean() is mean


@pytest.mark.parametrize("kind", ["grid", "points"])
def test_mean_computed_once_per_letter(kind, monkeypatch):
    """The transfer asks for a letter's mean at every position and field()
    once more; the algebra computes it once per letter."""
    if kind == "grid":
        algebra = three_point_model(n_atoms=2, cutoff=3, depth=4)
        x = algebra.atom_letter(0) + algebra.atom_letter(1, 2)
    else:
        algebra = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        x = algebra.letter([1, 2, 0])
    calls = []
    mean = algebra.mean
    monkeypatch.setattr(algebra, "mean", lambda p: calls.append(p) or mean(p))
    y = x * x
    for _ in range(2):
        vacuum_moment([x, y] * 3)
        x.field()
    assert sorted(calls) == sorted({x.payload, y.payload})


@pytest.mark.parametrize("kind", ["grid", "points"])
def test_pairing_computed_once_per_pair(kind, monkeypatch):
    """`letter_pair` keeps each pairing on its first letter: moments asked
    again, in calls of their own, pair no letters anew, and a kept pairing
    is returned as it is."""
    if kind == "grid":
        algebra = three_point_model(n_atoms=2, cutoff=3, depth=4)
        x = algebra.atom_letter(0) + algebra.atom_letter(1, 2)
    else:
        algebra = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        x = algebra.letter([1, 2, 0])
    calls = []
    pairing = Letter.pairing
    monkeypatch.setattr(Letter, "pairing",
                        lambda self: calls.append(self) or pairing(self))
    y = x * x
    first = vacuum_moment([x, y] * 3)
    made = len(calls)
    assert made == sum(len(l._pairs) for l in algebra.letters.values()) > 1
    assert vacuum_moment([x, y] * 3) == first
    assert vacuum_moment([x, y] * 2) == vacuum_moment([x, y] * 2)
    assert len(calls) == made
    assert letter_pair(x, y) is letter_pair(x, y)
    assert letter_pair(x, y) == letter_pair(y, x)
