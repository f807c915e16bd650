from fractions import Fraction

import pytest

from qfock.errors import (CutoffExceededError, DegeneracyError, UsageError)
from qfock.fock import FockVector, apply, innerq
from qfock.model import (WeightedPointAlgebra, MomentSequence, ProcessModel,
                         TimeGrid, letter_pair, monic_op_coefficients,
                         parse_model_config, process_operators, yhat_letter)
from qfock.qscalar import EXACT
from qfock.wick import expansion_ledger, product_expansion

F = Fraction


def three_point() -> MomentSequence:
    # nu = (delta_{-1} + delta_0 + delta_1) / 3
    return MomentSequence.from_measure(
        [(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))], 8)


@pytest.fixture
def model():
    return ProcessModel(EXACT, three_point(), TimeGrid.uniform(1, 4), 3, 6)


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

    def test_atoms_in_alignment(self):
        g = TimeGrid.uniform(1, 4)
        assert g.atoms_in((F(1, 4), F(3, 4))) == (1, 2)
        assert g.prefix(F(1, 2)) == (0, 1)
        with pytest.raises(UsageError):
            g.atoms_in((F(1, 3), F(2, 3)))

    def test_strictly_increasing(self):
        with pytest.raises(UsageError):
            TimeGrid([0, 1, 1])


class TestLetterAlgebra:
    def test_product_raises_powers(self, model):
        a = model.atom_letter(0, 1)
        assert a * a == model.atom_letter(0, 2)

    def test_cross_atom_product_vanishes(self, model):
        assert (model.atom_letter(0) * model.atom_letter(1)).is_zero

    def test_product_cutoff(self, model):
        with pytest.raises(CutoffExceededError):
            model.atom_letter(0, 2) * model.atom_letter(0, 2)

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


class TestProcessOperators:
    def test_delta_shifts_by_drift(self, model):
        ops = process_operators(model, (0, F(1, 2)))
        om = FockVector.vacuum(model.space, model.fock_depth)
        y2 = apply(ops.Y[2], om)
        d2 = apply(ops.Delta[2], om)
        drift = EXACT.of(F(1, 2) * model.moments.r_at(2))
        assert (d2 - y2).vacuum_coefficient() == drift

    def test_x_second_moment(self, model):
        # <Omega, X(I)^2 Omega> = |I| r_2
        ops = process_operators(model, (0, F(1, 2)))
        om = FockVector.vacuum(model.space, model.fock_depth)
        val = apply(ops.X, apply(ops.X, om)).vacuum_coefficient()
        assert val == EXACT.of(F(1, 2) * model.moments.r_at(2))


class TestOrthogonalPolynomials:
    def test_monic_orthogonality(self):
        m = three_point()
        for deg in range(3):
            c = monic_op_coefficients(m, deg)
            assert c[-1] == 1
            # <P_deg, x^b> = 0 for b < deg under <x^a, x^b> = r_{a+b+2}
            for b in range(deg):
                val = sum(c[a] * m.r_at(a + b + 2) for a in range(deg + 1))
                assert val == 0

    def test_degenerate_measure(self):
        m = MomentSequence.from_measure([(1, 1)], 8)  # one support point
        with pytest.raises(DegeneracyError):
            monic_op_coefficients(m, 2)

    def test_yhat_letters_orthogonal(self, model):
        # Yhat_j(I) and Yhat_k(I) have orthogonal letters for j != k
        i = (0, F(1, 4))
        ls = [yhat_letter(model, i, k) for k in range(1, 4)]
        for j in range(3):
            for k in range(j + 1, 3):
                assert letter_pair(ls[j], ls[k]) == 0


class TestWeightedPointAlgebra:
    def test_weights_validated(self):
        with pytest.raises(UsageError):
            WeightedPointAlgebra([0, 1], [F(1, 2), F(1, 4)], EXACT)

    def test_mean_is_weighted_average(self):
        alg = WeightedPointAlgebra([0, 2], [F(1, 2), F(1, 2)], EXACT)
        assert alg.coordinate().mean() == 1
        assert alg.one().mean() == 1

    def test_pointwise_product(self):
        alg = WeightedPointAlgebra([1, 2], [F(1, 2), F(1, 2)], EXACT)
        f = alg.coordinate()
        assert (f * f) == alg.letter([1, 4])

    def test_gram_is_weighted_l2(self):
        alg = WeightedPointAlgebra([1, 3], [F(1, 4), F(3, 4)], EXACT)
        f = alg.coordinate()
        assert letter_pair(f, f) == F(1, 4) * 1 + F(3, 4) * 9

    def test_field_moment_matches_integral(self):
        # <Omega, X(f)^2 Omega> for centered f: ||f||^2 + mean^2 terms cancel
        alg = WeightedPointAlgebra([-1, 1], [F(1, 2), F(1, 2)], EXACT, fock_depth=4)
        f = alg.coordinate()  # mean 0
        om = FockVector.vacuum(alg.space, 4)
        x = f.field()
        assert apply(x, apply(x, om)).vacuum_coefficient() == EXACT.one()

    def test_sup_norm(self):
        alg = WeightedPointAlgebra([-2, 1], [F(1, 2), F(1, 2)], EXACT)
        assert alg.sup_norm(alg.coordinate()) == 2

    def test_sup_norm_of_zero_letter(self):
        alg = WeightedPointAlgebra([-2, 1], [F(1, 2), F(1, 2)], EXACT)
        assert alg.sup_norm(alg.letter([0, 0])) == 0

    def test_xi_is_sparse(self):
        alg = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        assert alg.coordinate().xi() == ((0, F(-1)), (2, F(2)))
        assert alg.letter([0, 0, 0]).xi() == ()


class TestLetterText:
    """Letter text is read off the payload, not the sparse one-particle
    vector, and stays as it was before the sparse form."""

    def three_point_model(self):
        atoms = [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]
        return ProcessModel(EXACT, MomentSequence.from_measure(atoms, 6),
                            TimeGrid.uniform(1, 2), 3, 4)

    def test_grid_model(self):
        model = self.three_point_model()
        a, b = model.atom_letter(0), model.atom_letter(1, 2)
        mixed = a.scale(F(-3, 2)) + model.atom_letter(0, 3)
        assert repr(mixed) == "Letter(-3/2*x[A0]^1 + 1*x[A0]^3)"
        assert repr(model.letter({})) == "Letter(0)"
        assert mixed.xi() == ((0, F(-3, 2)), (2, F(1)))
        assert expansion_ledger(product_expansion([a, a, b])) == (
            "{1,2}{3}* | rc=0 | scalar=1/2 | W(1*x[A1]^2)\n"
            "{1,2}*{3}* | rc=0 | scalar=1 | W(1*x[A0]^2 ⊗ 1*x[A1]^2)\n"
            "{1}*{2}*{3}* | rc=0 | scalar=1 | "
            "W(1*x[A0]^1 ⊗ 1*x[A0]^1 ⊗ 1*x[A1]^2)")

    def test_point_set(self):
        alg = WeightedPointAlgebra([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)], EXACT)
        f, g = alg.coordinate(), alg.basis_letter(1)
        assert repr(f) == "Letter(('-1', '0', '2'))"
        assert repr(alg.letter([0, 0, 0])) == "Letter(('0', '0', '0'))"
        assert repr(g.scale(F(2, 3))) == "Letter(('0', '2/3', '0'))"
        ledger = expansion_ledger(product_expansion([f, g, f])).splitlines()
        assert len(ledger) == 12
        assert ledger[:4] == [
            "{1,3}{2} | rc=0 | scalar=5/8 | W(1)",
            "{1,3}*{2} | rc=0 | scalar=1/2 | W(('1', '0', '4'))",
            "{1,3}{2}* | rc=1 | scalar=5/4 | W(('0', '1', '0'))",
            "{1,3}*{2}* | rc=1 | scalar=1 | "
            "W(('1', '0', '4') ⊗ ('0', '1', '0'))"]
        assert ledger[-1] == ("{1}*{2}*{3}* | rc=0 | scalar=1 | "
                              "W(('-1', '0', '2') ⊗ ('0', '1', '0') ⊗ ('-1', '0', '2'))")

    @pytest.mark.parametrize("algebra", ["grid", "points"])
    def test_zero_letter_field_is_scalar_zero(self, algebra):
        if algebra == "grid":
            zero = self.three_point_model().letter({})
        else:
            zero = WeightedPointAlgebra([0, 1], [F(1, 2), F(1, 2)], EXACT).letter([0, 0])
        op = zero.field()
        assert op.kind == "scalar" and op.payload.is_zero
        assert op.payload == EXACT.zero()


class TestConfigParsing:
    def test_full_config(self):
        model = parse_model_config(
            "q = exact\n"
            "nu.atoms = [(-1, 1/2), (1, 1/2)]\n"
            "grid = uniform(1, 4)\n"
            "degree_cutoff = 2\n"
            "fock_depth = 5\n")
        assert model.space.ring.exact
        assert model.grid.n_atoms == 4
        assert model.degree_cutoff == 2
        assert model.moments.r_at(2) == 1

    def test_explicit_boundaries_and_moments(self):
        model = parse_model_config(
            "q = 1/2\n"
            "moments = [0, 1, 0, 1]\n"
            "grid = [0, 1/2, 1]\n"
            "degree_cutoff = 2\n"
            "fock_depth = 4\n")
        assert not model.space.ring.exact
        assert model.grid.boundaries == (0, F(1, 2), 1)

    def test_conflicting_moments_rejected(self):
        with pytest.raises(UsageError):
            parse_model_config(
                "q = exact\n"
                "nu.atoms = [(1, 1)]\n"
                "moments = [0, 2]\n"
                "grid = uniform(1, 2)\n"
                "degree_cutoff = 1\n"
                "fock_depth = 3\n")

    def test_missing_keys(self):
        with pytest.raises(UsageError):
            parse_model_config("q = exact\n")

    def test_comments_ignored(self):
        model = parse_model_config(
            "# a comment\n"
            "q = exact  # inline\n"
            "moments = [0, 1]\n"
            "grid = uniform(1, 2)\n"
            "degree_cutoff = 1\n"
            "fock_depth = 3\n")
        assert model.moments.r_at(2) == 1
