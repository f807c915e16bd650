import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfock.errors import (CutoffExceededError, DegeneracyError, UsageError)
from qfock.fock import FockVector, apply
from qfock.model import (WeightedPointAlgebra, MomentSequence, ProcessModel,
                         TimeGrid, letter_pair)
from qfock.qscalar import EXACT, ONE, QScalar, const
from qfock.suites import (all_ones_model, gaussian_model, three_point_model,
                          two_point_model)
from qfock.stochastic import (conditional_expectation, delta_process,
                              x_process, yhat_process)
from qfock.wick import WickElement, product_expansion
from one_form import assert_one_form, rationals

F = Fraction


def three_point() -> MomentSequence:
    # nu = (delta_{-1} + delta_0 + delta_1) / 3
    return MomentSequence.from_measure(
        [(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))], 8)


@pytest.fixture
def model():
    return ProcessModel(EXACT, three_point(), TimeGrid.uniform(1, 4), 3, 6)


@pytest.fixture
def full_rank():
    """The same measure with moments through r_6 only: no null polynomial is
    known at cutoff 3, so letter products stop at the cutoff."""
    return ProcessModel(EXACT, MomentSequence.from_measure(
        [(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))], 6), TimeGrid.uniform(1, 4), 3, 6)


class TestMomentSequence:
    def test_from_measure_values(self):
        m = MomentSequence.from_measure([(2, F(1, 2)), (-2, F(1, 2))], 6)
        # r_{k+2} = (2^k + (-2)^k)/2
        assert [m.r_at(k) for k in range(1, 7)] == [0, 1, 0, 4, 0, 16]

    def test_centered_required(self):
        with pytest.raises(UsageError):
            MomentSequence([1, 1])

    def test_missing_moment(self):
        with pytest.raises(UsageError):
            MomentSequence([0, 1]).r_at(3)

    def test_hankel(self):
        m = three_point()
        assert m.hankel(2) == [[m.r_at(2), m.r_at(3)], [m.r_at(3), m.r_at(4)]]


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(1, 4)
        assert g.n_atoms == 4
        assert g.width(0) == F(1, 4)
        assert g.mesh() == F(1, 4)
        assert g.horizon == 1

    def test_uniform_boundaries_are_exact(self):
        g = TimeGrid.uniform(F(3, 2), 6)
        assert g.boundaries == tuple(F(3, 2) * i / 6 for i in range(7))
        assert all(type(b) is Fraction for b in g.boundaries)
        assert g.widths == (F(1, 4),) * 6

    def test_atoms_in_alignment(self):
        g = TimeGrid.uniform(1, 4)
        assert g.atoms_in((F(1, 4), F(3, 4))) == (1, 2)
        assert g.prefix(F(1, 2)) == (0, 1)
        with pytest.raises(UsageError):
            g.atoms_in((F(1, 3), F(2, 3)))

    def test_strictly_increasing(self):
        with pytest.raises(UsageError):
            TimeGrid([0, 1, 1])


THREE_ATOMS = [(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))]


class TestOneSequenceManyGrids:
    """Grid models built on one moment sequence share its Hankel factor and
    product table, and agree with models built on a fresh sequence."""

    # (moments read, cutoff): the model closes, does not close, or closes
    # below the cutoff
    CASES = [(8, 3), (6, 3), (8, 2), (10, 4)]

    @pytest.mark.parametrize("length, cutoff", CASES)
    def test_models_share_the_factor_and_the_table(self, length, cutoff):
        seq = MomentSequence.from_measure(THREE_ATOMS, length)
        a = ProcessModel(EXACT, seq, TimeGrid.uniform(1, 2), cutoff, 3)
        b = ProcessModel(EXACT, seq, TimeGrid.uniform(1, 5), cutoff, 4)
        assert a.hankel_factor is b.hankel_factor
        assert a._products is b._products
        assert a.product_den == b.product_den

    @pytest.mark.parametrize("length, cutoff", CASES)
    def test_shared_models_equal_fresh_ones(self, length, cutoff):
        seq = MomentSequence.from_measure(THREE_ATOMS, length)
        for n in (1, 3, 2):
            shared = ProcessModel(EXACT, seq, TimeGrid.uniform(1, n), cutoff, 3)
            fresh = ProcessModel(EXACT, MomentSequence.from_measure(THREE_ATOMS, length),
                                 TimeGrid.uniform(1, n), cutoff, 3)
            assert shared.hankel_factor == fresh.hankel_factor
            assert (shared.space.gram_den, shared.space.int_rows) == (
                fresh.space.gram_den, fresh.space.int_rows)
            for i in range(shared.space.dim):
                for j in range(shared.space.dim):
                    assert self.product(shared, i, j) == self.product(fresh, i, j)

    @staticmethod
    def product(model, i, j):
        """e_i e_j as its payload, or the error it raises."""
        try:
            return (model.basis_letter(i) * model.basis_letter(j)).payload
        except CutoffExceededError as exc:
            return str(exc)

    def test_cutoffs_keep_their_own_tables(self):
        seq = MomentSequence.from_measure(THREE_ATOMS, 8)
        grid = TimeGrid.uniform(1, 1)
        low, high = (ProcessModel(EXACT, seq, grid, c, 3) for c in (2, 3))
        assert low.hankel_factor is not high.hankel_factor
        assert not low.closes and high.closes
        assert low._products != high._products
        assert set(seq.tables) == {(3, 2), (4, 3)}

    @pytest.mark.parametrize("values, message, factored", [
        ([0, -1, 0, 1, 0, 1], r"is not positive semidefinite: pivot d_1 = -1$", False),
        ([0, 1, 0, 0, 0, 1], r"pivot d_3 = 1 after d_2 = 0$", True)])
    def test_a_sequence_not_a_measures_is_refused_on_every_build(
            self, values, message, factored):
        """A failed factorisation is not kept; a factor that exists is, and
        the model refuses it each time."""
        seq = MomentSequence(values)
        seen = set()
        for n in (1, 2, 1):
            with pytest.raises(UsageError, match=message) as exc:
                ProcessModel(EXACT, seq, TimeGrid.uniform(1, n), 3, 4)
            seen.add(str(exc.value))
        assert len(seen) == 1
        assert (3 in seq.factors) == factored and not seq.tables


class TestLetterAlgebra:
    def test_product_raises_powers(self, model):
        a = model.atom_letter(0, 1)
        assert a * a == model.atom_letter(0, 2)

    def test_cross_atom_product_vanishes(self, model):
        assert (model.atom_letter(0) * model.atom_letter(1)).is_zero

    def test_product_cutoff(self, model, full_rank):
        # x * x^1 * x^1 = x^3, which is x on the support {-1, 0, 1}: the
        # model closes, and the product is the power-2 letter again
        assert model.closes and not full_rank.closes
        x = model.atom_letter(0, 2)
        assert x * x is x
        with pytest.raises(CutoffExceededError,
                           match="letter product degree 4 exceeds cutoff 3"):
            full_rank.atom_letter(0, 2) * full_rank.atom_letter(0, 2)

    def test_gram_entry(self, model):
        # <x_A^1, x_A^2> = |A| r_3 = 0 and <x_A^2, x_A^2> = |A| r_4 = 1/4 * 2/3
        a = model.atom_letter(0, 1)
        b = model.atom_letter(0, 2)
        assert letter_pair(a, b) == 0
        assert letter_pair(b, b) == F(1, 6)

    def test_interval_letter_sums_atoms(self, model):
        lt = model.interval_letter((0, F(1, 2)))
        assert lt == model.atom_letter(0) + model.atom_letter(1)

    def test_mixing_algebras_rejected(self, model):
        other = ProcessModel(EXACT, three_point(), TimeGrid.uniform(1, 4), 3, 6)
        with pytest.raises(UsageError):
            model.atom_letter(0) * other.atom_letter(0)

    def test_linearity(self, model):
        a, b = model.atom_letter(0, 1), model.atom_letter(0, 2)
        assert (a + b).scale(2) - a.scale(2) == b.scale(2)

    def test_gauge_cutoff_fires_only_on_a_used_column(self, full_rank):
        """On a model that does not close, the gauge of x_A0^cutoff takes
        every P_k on A0 past the cutoff, but only a word that holds atom 0
        asks for such a column; P_k on atom A sits at index A rank + k."""
        model = full_rank
        field = model.atom_letter(0, model.degree_cutoff).field()
        depth, b = model.fock_depth, model.rank
        apply(field, FockVector.vacuum(model.space, depth))
        apply(field, FockVector.basis_word(model.space, depth, (b, 2 * b + 2)))
        with pytest.raises(CutoffExceededError,
                           match=f"letter product degree {model.degree_cutoff + 1} "
                                 f"exceeds cutoff {model.degree_cutoff}"):
            apply(field, FockVector.basis_word(model.space, depth, (b, 0)))


class TestProcessOperators:
    def test_delta_shifts_by_drift(self, model):
        om = FockVector.vacuum(model.space, model.fock_depth)
        y2 = apply(model.interval_letter((0, F(1, 2)), 2).field(), om)
        d2 = apply(delta_process(model, 2).operator((0, F(1, 2))), om)
        drift = const(F(1, 2) * model.moments.r_at(2))
        assert (d2 - y2).vacuum_coefficient() == drift

    def test_x_second_moment(self, model):
        # <Omega, X(I)^2 Omega> = |I| r_2
        x = x_process(model).operator((0, F(1, 2)))
        om = FockVector.vacuum(model.space, model.fock_depth)
        val = apply(x, apply(x, om)).vacuum_coefficient()
        assert val == const(F(1, 2) * model.moments.r_at(2))


class TestOrthogonalPolynomials:
    def test_monic_orthogonality(self, model):
        m = model.moments
        for deg in range(3):
            c = model.monic_op(deg)
            assert c[-1] == 1
            # <P_deg, x^b> = 0 for b < deg under <x^a, x^b> = r_{a+b+2}
            for b in range(deg):
                val = sum(c[a] * m.r_at(a + b + 2) for a in range(deg + 1))
                assert val == 0
        # the letter of P_k has powers 1..k+1, within the cutoff 3
        for deg in (-1, 3):
            with pytest.raises(UsageError, match=f"degree {deg} outside 0..2"):
                model.monic_op(deg)

    def test_degenerate_measure(self):
        m = MomentSequence.from_measure([(1, 1)], 8)  # one support point
        with pytest.raises(DegeneracyError):
            ProcessModel(EXACT, m, TimeGrid.uniform(1, 1), 3, 2).monic_op(2)

    def test_indefinite_moments_refused_naming_the_pivot(self):
        # r_2 = -1: <x_A, x_A> = -|A|, so the one-particle gram is not positive
        with pytest.raises(UsageError, match="not positive semidefinite: "
                                             "pivot d_1 = -1$"):
            ProcessModel(EXACT, MomentSequence([0, -1, 0, 1, 0, 1]),
                         TimeGrid.uniform(1, 2), 3, 4)

    def test_two_point_measure_admits_degree_two(self):
        m = MomentSequence.from_measure([(-1, F(1, 2)), (1, F(1, 2))], 6)
        model = ProcessModel(EXACT, m, TimeGrid.uniform(1, 1), 3, 2)
        assert model.monic_op(2) == (-1, 0, 1)  # x^2 - 1
        with pytest.raises(DegeneracyError, match="fewer than 3 points"):
            ProcessModel(EXACT, MomentSequence.from_measure(
                [(-1, F(1, 2)), (1, F(1, 2))], 8), TimeGrid.uniform(1, 1),
                4, 2).monic_op(3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([0, 1, -1, 2, F(1, 2), F(-3, 2)]) | st.fractions(-3, 3, max_denominator=4),
        st.fractions(F(1, 8), 3, max_denominator=8)), min_size=1, max_size=4),
        st.integers(1, 6))
    def test_hankel_factor_gives_the_orthogonal_polynomials(self, atoms, d):
        """Against the measure itself: P_k is monic and orthogonal to x^b,
        b < k, under nu; x^k = sum_j L[k][j] P_j; and P_k is refused
        exactly when nu has fewer than k distinct atoms."""
        model = ProcessModel(EXACT, MomentSequence.from_measure(atoms, 2 * d),
                             TimeGrid.uniform(1, 1), d, 2)
        support = len({x for x, _ in atoms})
        low = model.hankel_factor[0]
        ops = []
        for k in range(d):
            if support < k:
                with pytest.raises(DegeneracyError):
                    model.monic_op(k)
                continue
            c = model.monic_op(k)
            assert len(c) == k + 1 and c[k] == 1
            for b in range(k):
                assert sum(w * x ** b * sum(ca * x ** a for a, ca in enumerate(c))
                           for x, w in atoms) == 0
            ops.append(c)
            # x^k as a polynomial: sum_j L[k][j] P_j, P_j padded to degree k
            expansion = [sum(low[k][j] * (p[a] if a < len(p) else 0)
                             for j, p in enumerate(ops)) for a in range(k + 1)]
            assert expansion == [int(a == k) for a in range(k + 1)]

    def test_yhat_letters_orthogonal(self, model):
        # Yhat_j(I) and Yhat_k(I) have orthogonal letters for j != k
        i = (0, F(1, 4))
        ls = [yhat_process(model, k).interval_letter(i) for k in range(1, 4)]
        for j in range(3):
            for k in range(j + 1, 3):
                assert letter_pair(ls[j], ls[k]) == 0


class TestWeightedPointAlgebra:
    def test_weights_validated(self):
        with pytest.raises(UsageError):
            WeightedPointAlgebra([0, 1], [F(1, 2), F(1, 4)], EXACT)

    def test_mean_is_weighted_average(self):
        alg = WeightedPointAlgebra([0, 2], [F(1, 2), F(1, 2)], EXACT)
        assert alg.letter(alg.points).mean() == 1
        assert alg.one().mean() == 1

    def test_pointwise_product(self):
        alg = WeightedPointAlgebra([1, 2], [F(1, 2), F(1, 2)], EXACT)
        f = alg.letter(alg.points)
        assert (f * f) == alg.letter([1, 4])

    def test_gram_is_weighted_l2(self):
        alg = WeightedPointAlgebra([1, 3], [F(1, 4), F(3, 4)], EXACT)
        f = alg.letter(alg.points)
        assert letter_pair(f, f) == F(1, 4) * 1 + F(3, 4) * 9

    def test_field_moment_matches_integral(self):
        # <Omega, X(f)^2 Omega> for centered f: ||f||^2 + mean^2 terms cancel
        alg = WeightedPointAlgebra([-1, 1], [F(1, 2), F(1, 2)], EXACT, fock_depth=4)
        f = alg.letter(alg.points)  # mean 0
        om = FockVector.vacuum(alg.space, 4)
        x = f.field()
        assert apply(x, apply(x, om)).vacuum_coefficient() == ONE

    def test_sup_norm(self):
        alg = WeightedPointAlgebra([-2, 1], [F(1, 2), F(1, 2)], EXACT)
        assert alg.sup_norm(alg.letter(alg.points)) == 2

    def test_sup_norm_of_zero_letter(self):
        alg = WeightedPointAlgebra([-2, 1], [F(1, 2), F(1, 2)], EXACT)
        assert alg.sup_norm(alg.letter([0, 0])) == 0

    def test_xi_is_sparse(self):
        alg = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        assert alg.letter(alg.points).xi() == (1, ((0, -1), (2, 2)))
        assert alg.letter([F(1, 2), 0, F(-3, 4)]).xi() == (4, ((0, 2), (2, -3)))
        assert alg.letter([0, 0, 0]).xi() == (1, ())


class TestLetterText:
    """Letter text is read off the sparse payload, which is the one-particle
    vector: its P_k per atom on the grid, and the dense value tuple on the
    point set."""

    def three_point_model(self):
        atoms = [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]
        return ProcessModel(EXACT, MomentSequence.from_measure(atoms, 6),
                            TimeGrid.uniform(1, 2), 3, 4)

    def test_grid_model(self):
        model = self.three_point_model()
        a, b = model.atom_letter(0), model.atom_letter(1, 2)
        # x^2 = P_2 + P_0 / 2, with P_2 = x^2 - 1/2
        mixed = a.scale(F(-3, 2)) + model.atom_letter(0, 3)
        assert repr(mixed) == "Letter(-1*P0[A0] + 1*P2[A0])"
        assert repr(model.letter({})) == "Letter(0)"
        assert mixed.xi() == (1, ((0, -1), (2, 1)))
        # one (S, π) per word: {1,2}{3}*, {1,2}*{3}* and {1}*{2}*{3}*
        assert product_expansion([a, a, b]).terms == {
            (b,): const(F(1, 2)),
            (model.atom_letter(0, 2), b): ONE,
            (a, a, b): ONE}

    def test_point_set(self):
        alg = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        f, g = alg.letter(alg.points), alg.basis_letter(1)
        assert repr(f) == "Letter(('-1', '0', '2'))"
        assert repr(alg.letter([0, 0, 0])) == "Letter(('0', '0', '0'))"
        assert repr(g.scale(F(2, 3))) == "Letter(('0', '2/3', '0'))"
        ff = alg.letter([1, 0, 4])
        # the twelve (S, π) with a nonzero scalar, summed per word; {1,3}
        # crosses an open {2} once
        assert product_expansion([f, g, f]).terms == {
            (): const(F(5, 8) + F(1, 32)),       # {1,3}{2}, {1}{2}{3}
            (ff,): const(F(1, 2)),                # {1,3}*{2}
            (g,): QScalar.parse("1/16 + 5/4*q"),  # {1}{2}*{3}, {1,3}{2}*
            (ff, g): QScalar.parse("q"),          # {1,3}*{2}*
            (f,): const(F(1, 8) + F(1, 8)),       # {1}*{2}{3}, {1}{2}{3}*
            (f, g): const(F(1, 4)),               # {1}*{2}*{3}
            (f, f): const(F(1, 2)),               # {1}*{2}{3}*
            (g, f): const(F(1, 4)),               # {1}{2}*{3}*
            (f, g, f): ONE}                       # {1}*{2}*{3}*

    @pytest.mark.parametrize("algebra", ["grid", "points"])
    def test_zero_letter_field_is_empty_sum(self, algebra):
        # the empty sum is the one zero operator
        if algebra == "grid":
            zero = self.three_point_model().letter({})
        else:
            zero = WeightedPointAlgebra([0, 1], [F(1, 2), F(1, 2)], EXACT).letter([0, 0])
        op = zero.field()
        assert op.kind == "sum" and op.operands == ()
        assert apply(op, FockVector.vacuum(zero.algebra.space, 2)).is_zero


FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


class GridReference:
    """Grid letters as monomials, sorted ((atom, power), c) with no zero c,
    and the algebra written on that form: power k names x^{k-1}, a product
    adds powers, and the norm² of a letter is sum_A |A| sum c_j c_k
    r_{j+k}, from the moments alone.  On a model that does not close, a
    product of powers j and k on one atom with j + k past the cutoff is
    undefined (None)."""

    def __init__(self, moments, cutoff, max_power):
        self.algebra = ProcessModel(EXACT, moments, TimeGrid.uniform(1, 4), cutoff, 3)
        self.draw = st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(1, max_power)), FRACTIONS, max_size=4)

    @staticmethod
    def canonical(entries):
        return tuple(sorted((ak, c) for ak, c in dict(entries).items() if c))

    def add(self, p1, p2):
        out = dict(p1)
        for ak, c in p2:
            out[ak] = out.get(ak, 0) + c
        return self.canonical(out)

    def scale(self, p, c):
        return self.canonical({ak: x * c for ak, x in p})

    def product(self, p1, p2):
        out, model = {}, self.algebra
        for (a1, k1), c1 in p1:
            for (a2, k2), c2 in p2:
                if a1 == a2:
                    if k1 + k2 > model.degree_cutoff and not model.closes:
                        return None
                    out[(a1, k1 + k2)] = out.get((a1, k1 + k2), 0) + c1 * c2
        return self.canonical(out)

    def mean(self, p):
        return 0

    def norm2(self, p):
        r, width = self.algebra.moments.r_at, self.algebra.grid.width
        return sum((c1 * c2 * width(a1) * r(k1 + k2)
                    for (a1, k1), c1 in p for (a2, k2), c2 in p if a1 == a2),
                   Fraction(0))

    def letter(self, p):
        return self.algebra.letter(dict(p))


class PointReference:
    """Point-set letters in their former payload form, the dense tuple of
    values, and the algebra written on that form."""

    def __init__(self):
        self.algebra = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        self.draw = st.lists(FRACTIONS, min_size=3, max_size=3)

    @staticmethod
    def canonical(values):
        return tuple(values)

    def add(self, p1, p2):
        return tuple(a + b for a, b in zip(p1, p2))

    def scale(self, p, c):
        return tuple(v * c for v in p)

    def product(self, p1, p2):
        return tuple(a * b for a, b in zip(p1, p2))

    def mean(self, p):
        return sum(w * v for w, v in zip(self.algebra.weights, p))

    def sparse(self, p):
        return tuple((i, v) for i, v in enumerate(p) if v)

    def norm2(self, p):
        return sum((w * v * v for w, v in zip(self.algebra.weights, p)), Fraction(0))

    def letter(self, p):
        return self.algebra.letter(p)


REFERENCES = {
    # powers 1..2 under cutoff 4 on a model that closes: every product is defined
    "grid": GridReference(three_point(), 4, 2),
    # nu on 4 points at cutoff 3: no pivot vanishes, so the model does not
    # close, and products of powers 1..3 reach past the cutoff
    "full_rank": GridReference(MomentSequence.from_measure(
        [(-1, F(1, 4)), (0, F(1, 4)), (1, F(1, 4)), (2, F(1, 4))], 8), 3, 3),
    "points": PointReference(),
}


@st.composite
def reference_letters(draw):
    kind = draw(st.sampled_from(sorted(REFERENCES)))
    ref = REFERENCES[kind]
    return (kind, ref.canonical(draw(ref.draw)), ref.canonical(draw(ref.draw)),
            draw(FRACTIONS))


@settings(max_examples=150, deadline=None)
@given(reference_letters())
def test_letter_algebra_matches_former_payload_form(drawn):
    """+, scale, -, * and mean on the sparse payload against the reference
    forms, on both algebras and on a grid model that does not close, each
    result the letter of the reference result, zero exactly when its norm²
    is; a product past the cutoff of that model is refused, naming its
    degree and the cutoff.  On the grid also the restriction of
    conditional_expectation at every boundary.  Every payload is canonical,
    and on the point set it is the vector of values."""
    kind, p1, p2, c = drawn
    ref = REFERENCES[kind]
    algebra = ref.algebra
    l1, l2 = ref.letter(p1), ref.letter(p2)
    cases = [(l1, p1), (l1 + l2, ref.add(p1, p2)), (l1.scale(c), ref.scale(p1, c)),
             (l1 - l2, ref.add(p1, ref.scale(p2, -1)))]
    product = ref.product(p1, p2)
    if product is None:
        with pytest.raises(CutoffExceededError) as info:
            l1 * l2
        d, cutoff = map(int, re.fullmatch(r"letter product degree (\d+) exceeds cutoff (\d+)",
                                          str(info.value)).groups())
        assert cutoff == algebra.degree_cutoff < d
    else:
        cases.append((l1 * l2, product))
    for got, want in cases:
        assert_one_form(got.payload, algebra.space.dim)
        if kind == "points":
            assert rationals(got.payload) == ref.sparse(want)
        assert got.xi() == got.payload
        assert letter_pair(got, got) == ref.norm2(want)
        assert got.is_zero == (ref.norm2(want) == 0)
        assert got.mean() == ref.mean(want)
        same = ref.letter(want)
        assert got == same and hash(got) == hash(same)
    if kind != "points":
        grid = algebra.grid
        for t in grid.boundaries:
            kept = tuple((ak, x) for ak, x in p1 if grid.atoms[ak[0]][1] <= t)
            restricted = conditional_expectation(WickElement.from_word(algebra, (l1,)), t)
            if not kept:
                assert restricted.is_zero
                continue
            [(word, coeff)] = restricted.terms.items()
            assert_one_form(word[0].payload, algebra.space.dim)
            assert word == (ref.letter(kept),) and coeff == ONE


SCALES = st.builds(Fraction, st.sampled_from((-12, -6, -4, -3, -2, 0, 1, 2, 3, 4, 6, 12)),
                   st.sampled_from((1, 2, 3, 4, 6, 12)))


@settings(max_examples=150, deadline=None)
@given(reference_letters(), SCALES)
def test_letter_operations_keep_the_one_form(drawn, c):
    """+, -, scale, * and the restriction of conditional_expectation return
    payloads in the one form, and + and scale the values of the Fraction
    sum and product; the scales share factors with the payloads' own
    denominators and numerators, so the results must be reduced."""
    kind, p1, p2, _ = drawn
    ref = REFERENCES[kind]
    algebra = ref.algebra
    l1, l2 = ref.letter(p1), ref.letter(p2)
    total = dict(rationals(l1.payload))
    for i, x in rationals(l2.payload):
        total[i] = total.get(i, 0) + x
    assert rationals((l1 + l2).payload) == tuple(sorted((i, x) for i, x in total.items() if x))
    assert rationals(l1.scale(c).payload) == tuple(
        (i, x * c) for i, x in rationals(l1.payload) if c)
    results = [l1 + l2, l1 - l2, l1.scale(c), l2.scale(c)]
    if ref.product(p1, p2) is not None:
        results.append(l1 * l2)
    if kind != "points":
        for t in algebra.grid.boundaries:
            restricted = conditional_expectation(WickElement.from_word(algebra, (l1,)), t)
            results.extend(word[0] for word in restricted.terms)
    for letter in results:
        assert_one_form(letter.payload, algebra.space.dim)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([gaussian_model, all_ones_model, two_point_model, three_point_model]),
       st.integers(1, 4), st.data())
def test_run_letters_are_the_letters_of_their_powers(make, n_atoms, data):
    """A run letter, built from its power's row without the canonicalising
    pass, is the very letter that `letter` builds from {(atom, k): 1} over
    its atoms, for every power k up to the cutoff: a run letter not in
    lowest terms would intern one vector as two letters."""
    model = make(n_atoms=n_atoms)
    first = data.draw(st.integers(0, n_atoms - 1))
    end = data.draw(st.integers(first + 1, n_atoms))
    grid = model.grid
    for k in range(1, model.degree_cutoff + 1):
        def of(atoms):
            return model.letter({(a, k): 1 for a in atoms})
        run = model.interval_letter((grid.boundaries[first], grid.boundaries[end]), k)
        assert run is of(range(first, end))
        assert model.atom_letter(first, k) is of([first])
        assert model.prefix_letter(grid.boundaries[end], k) is of(range(end))
        assert_one_form(run.payload, model.space.dim)


def test_letter_takes_str_int_and_fraction_coefficients():
    """Each coefficient is converted once, as `sparse_vector` and the point
    set's `letter` convert theirs: a str, an int and a Fraction naming one
    number give the one interned letter."""
    model = three_point_model()
    half = model.letter({(0, 1): F(1, 2), (1, 2): F(3)})
    assert model.letter({(0, 1): "1/2", (1, 2): "3"}) is half
    assert model.letter({(0, 1): F(1, 2), (1, 2): 3}) is half
    assert model.letter({(0, 2): "-2/3"}) is model.atom_letter(0, 2).scale(F(-2, 3))


def hankel_pivot(seq: MomentSequence, k: int) -> Fraction:
    """d_{k+1} = det H_{k+1} / det H_k of the Hankel form [r_{i+j+2}], each
    determinant by Fraction elimination with row swaps."""
    def det(m):
        a, out = [row[:] for row in seq.hankel(m)], F(1)
        for c in range(m):
            p = next((r for r in range(c, m) if a[r][c]), None)
            if p is None:
                return F(0)
            if p != c:
                a[c], a[p], out = a[p], a[c], -out
            out *= a[c][c]
            for r in range(c + 1, m):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        return out
    return det(k + 1) / det(k)


@pytest.mark.parametrize("make", [
    gaussian_model, all_ones_model, two_point_model, three_point_model,
    lambda: ProcessModel(EXACT, three_point(), TimeGrid([0, F(1, 4), F(3, 4), 1]), 3, 6)])
def test_grid_gram_is_width_times_pivot(make):
    """The grid gram, built as ints over one denominator, is diagonal with
    |A| d_{k+1} at index A rank + k, against pivots from Hankel
    determinants; the uneven grid has two atoms of one width beside a wider
    one, so a width's entries are shared by value and by nothing else."""
    model = make()
    space, b = model.space, model.rank
    assert space.dim == model.grid.n_atoms * b and space.diagonal
    for a, w in enumerate(model.grid.widths):
        for k in range(b):
            i = a * b + k
            assert {j: F(g, space.gram_den) for j, g in space.int_rows[i].items()} == {
                i: w * hankel_pivot(model.moments, k)}
