from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qfock.errors import ResourceBudgetError, UsageError
from qfock.fock import FockOperator, FockVector, apply
from qfock.kspoly import NCPolynomial, ks_poly, ks_row_formula, q_charlier, q_hermite
from qfock.model import MomentSequence, ProcessModel, TimeGrid
from qfock.qscalar import EXACT, ONE, QScalar, const, q_int
from qfock.stochastic import ProcessFamily, psi_closed
from qfock.wick import WickElement, vacuum_vector

F = Fraction


def evaluate(poly: NCPolynomial, var) -> FockOperator:
    """Substitute the operator var(j) for x_j, keeping the word order."""
    return FockOperator.opsum(
        [FockOperator.compose([var(j) for j in w]).scale(c) if w
         else FockOperator.scalar(c) for w, c in poly.terms.items()])


@pytest.fixture(scope="module")
def moments():
    # a generic moment sequence: no accidental cancellations
    return MomentSequence([0] + [F(k, k + 1) for k in range(1, 12)])


class TestNCPolynomial:
    def test_mul_preserves_order(self):
        a = NCPolynomial.x(1)
        b = NCPolynomial.x(2)
        assert (a * b).terms == {(1, 2): ONE}
        assert a * b != b * a

    def test_add_cancels(self):
        a = NCPolynomial.x(1)
        assert (a - a).is_zero

    def test_str_sorted_by_degree(self):
        p = NCPolynomial({(2, 1): ONE, (): const(3)})
        assert str(p) == "(3) · 1 + (1) · x2 x1"

    def test_variable_indices_validated(self):
        with pytest.raises(UsageError):
            NCPolynomial({(0,): ONE})


class TestRecursion:
    def test_base_cases(self, moments):
        assert ks_poly((), moments) == NCPolynomial.one()
        assert ks_poly((3,), moments) == NCPolynomial.x(3)

    def test_pair_by_hand(self, moments):
        # A_(j,k) = x_j x_k - r_{j+k} - x_{j+k}
        got = ks_poly((2, 1), moments)
        want = (NCPolynomial.x(2) * NCPolynomial.x(1)
                - NCPolynomial.const(moments.r_at(3))
                - NCPolynomial.x(3))
        assert (got - want).is_zero

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_row_formula(self, moments, j, n):
        assert (ks_poly((j,) + (1,) * n, moments)
                - ks_row_formula(j, n, moments)).is_zero

    def test_length_cap(self, moments):
        with pytest.raises(ResourceBudgetError):
            ks_poly((1,) * 9, moments)


class TestMemo:
    WORDS = [(1, 1, 1), (2, 1, 1), (3, 1, 1, 1)]

    @staticmethod
    def fresh(shift=0):
        return MomentSequence([0] + [F(k + shift, k + 1) for k in range(1, 12)])

    def test_call_order_and_fresh_sequence_agree(self):
        forward, backward = self.fresh(), self.fresh()
        got = [ks_poly(u, forward) for u in self.WORDS]
        assert [ks_poly(u, backward) for u in reversed(self.WORDS)][::-1] == got
        assert [ks_poly(u, self.fresh()) for u in self.WORDS] == got
        # a second sequence in between leaves the first one's results alone
        other = [ks_poly(u, self.fresh(shift=1)) for u in self.WORDS]
        assert other != got
        assert [ks_poly(u, forward) for u in reversed(self.WORDS)][::-1] == got


class TestDegenerations:
    def test_hermite_three(self):
        target = NCPolynomial({(1, 1, 1): ONE,
                               (1,): -QScalar.parse("2 + q")})
        assert (q_hermite(3) - target).is_zero

    def test_hermite_recursion_coefficients(self):
        # H_4 = x H_3 - [3]_q H_2
        lhs = q_hermite(4)
        rhs = (NCPolynomial.x(1) * q_hermite(3)
               - q_hermite(2).scale(q_int(3)))
        assert (lhs - rhs).is_zero

    def test_charlier_two(self):
        target = NCPolynomial({(1, 1): ONE,
                               (1,): const(-1), (): const(-1)})
        assert (q_charlier(2) - target).is_zero

    def test_gaussian_moments_give_hermite(self):
        # with r_2 = 1 and r_k = 0 otherwise, the mixed terms x_{j+k}
        # specialize away for single-variable words only through the pairing
        # terms, reproducing the q-Hermite recursion
        moments = MomentSequence([0, 1] + [0] * 8)
        for n in range(5):
            a = ks_poly((1,) * n, moments)
            drop_high = NCPolynomial(
                {w: c for w, c in a.terms.items() if all(j == 1 for j in w)})
            assert (drop_high - q_hermite(n)).is_zero

    def test_monic_op_poly_matches_charlier_style(self):
        # nu = delta_1 gives r_k = 1 for k >= 2; the degree-1 monic OP is x - 1
        moments = MomentSequence([0, 1, 1, 1])
        model = ProcessModel(EXACT, moments, TimeGrid.uniform(1, 1), 2, 2)
        assert model.monic_op(1) == (-1, 1)


@pytest.fixture(scope="module")
def model():
    atoms = [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]
    moments = MomentSequence.from_measure(atoms, 10)
    return ProcessModel(EXACT, moments, TimeGrid.uniform(1, 2), 5, 6)


class TestSubstitution:
    @pytest.mark.parametrize("u", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1),
                                   (2, 1, 1), (1, 1, 1, 1)])
    def test_operator_substitution_hits_tensor_word(self, model, u):
        # A_u(x_j -> Y_j(I)) applied to Omega gives the plain tensor word of
        # the interval letters: the polynomial recursion mirrors the Wick one
        interval = (F(0), F(1))
        a = ks_poly(u, model.moments)
        got = apply(evaluate(a, lambda j: model.interval_letter(interval, j).field()),
                    vacuum_vector(model))
        word = tuple(model.interval_letter(interval, k) for k in u)
        want = WickElement.from_word(model, word).vector()
        assert (got - want).is_zero


# measures on at most 3 points: at cutoff 6 each model closes
KS_MEASURES = [((0, 1),), ((1, 1),), ((-1, F(1, 2)), (1, F(1, 2))),
               ((-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))), ((2, F(1, 3)), (F(-1, 2), 1))]
KS_CUTOFF = 6


@st.composite
def ks_cases(draw):
    """A closing grid model, a word u whose A_u reads only variables and
    moments within the cutoff (sum(u) <= cutoff), a grid time t and a
    vector of degree <= 1."""
    nu = draw(st.sampled_from(KS_MEASURES))
    n_atoms = draw(st.integers(1, 2))
    model = ProcessModel(EXACT, MomentSequence.from_measure(nu, 2 * KS_CUTOFF + 2),
                         TimeGrid.uniform(1, n_atoms), KS_CUTOFF, 5)
    u = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    assume(sum(u) <= KS_CUTOFF)
    t = F(draw(st.integers(1, n_atoms)), n_atoms)
    small = st.fractions(-2, 2, max_denominator=3)
    terms = {(): const(draw(small))}
    for i in draw(st.lists(st.integers(0, model.space.dim - 1), max_size=2, unique=True)):
        terms[(i,)] = const(draw(small))
    return model, u, t, FockVector(model.space, model.fock_depth, terms)


@settings(max_examples=40, deadline=None)
@given(ks_cases())
def test_ks_poly_of_centred_power_processes_is_psi(case):
    """A_u(Y([0, t))) v = psi(Y_{u_1}, ..., Y_{u_n})(t) v for the centred
    power processes Y_j (the letter x^{j-1} on each atom, no drift), A_u
    taken over the moments t r_k of t nu, the model's own at t = 1: each
    word of A_u applied factor by factor, the rightmost first, each suffix
    once.  Over the model's moments the identity fails at t = 1/2."""
    model, u, t, v = case
    moments = model.moments if t == 1 else MomentSequence([t * r for r in model.moments.r])
    interval = (F(0), t)
    ys = {}

    def y(j):
        if j not in ys:
            ys[j] = ProcessFamily(model, f"Y{j}", {j: F(1)}, F(0))
        return ys[j]

    suffixes = {(): v}

    def image(word):
        if word not in suffixes:
            suffixes[word] = apply(y(word[0]).operator(interval), image(word[1:]))
        return suffixes[word]

    got = FockVector(model.space, model.fock_depth)
    for word, c in ks_poly(u, moments).terms.items():
        got = got + image(word).scale(c)
    want = apply(psi_closed([y(j) for j in u], t).operator(), v)
    assert (got - want).is_zero
