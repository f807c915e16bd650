import random
from fractions import Fraction

import pytest

from qfock.errors import (DepthExceededError, ModeMismatchError,
                          ResourceBudgetError, UsageError)
from qfock.fock import (DenseGauge, FockOperator, FockVector, OneParticleSpace,
                        adjoint, apply, apply_Pn, field_operator, gamma_q,
                        inner0, innerq, operator_norm_estimate, project,
                        sparse_vector)
from qfock.qscalar import EXACT, QScalar, ScalarRing


@pytest.fixture
def space2():
    return OneParticleSpace.orthonormal(2, EXACT)


def vec(space, depth, *terms):
    v = FockVector(space, depth)
    for word, c in terms:
        v.add_term(word, c if isinstance(c, QScalar) else EXACT.of(c))
    return v


class TestFockVector:
    def test_depth_enforced(self, space2):
        v = FockVector(space2, 2)
        with pytest.raises(DepthExceededError):
            v.add_term((0, 1, 0), EXACT.one())

    def test_cancellation(self, space2):
        v = vec(space2, 3, ((0, 1), 1), ((0, 1), -1))
        assert v.is_zero

    def test_serialize_sorted(self, space2):
        v = vec(space2, 3, ((1, 0), 2), ((0,), 1))
        assert v.serialize() == "1 | 0\n2 | 1,0"

    def test_degree_component(self, space2):
        v = vec(space2, 3, ((), 1), ((0, 1), 3))
        assert v.degree_component(2).terms == {(0, 1): EXACT.of(3)}


class TestInnerProducts:
    def test_inner0_orthonormal(self, space2):
        u = vec(space2, 2, ((0, 1), 1))
        v = vec(space2, 2, ((0, 1), 1), ((1, 0), 5))
        assert inner0(u, v) == EXACT.one()

    def test_innerq_two_letters(self, space2):
        # <e0 x e1, e1 x e0>_q = q for an orthonormal gram
        u = vec(space2, 2, ((0, 1), 1))
        v = vec(space2, 2, ((1, 0), 1))
        assert innerq(u, v) == EXACT.q()

    def test_innerq_repeated_letter(self, space2):
        u = vec(space2, 2, ((0, 0), 1))
        assert innerq(u, u) == EXACT.one() + EXACT.q()

    def test_gram_weighted(self):
        g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        sp = OneParticleSpace(2, g, EXACT)
        u = vec(sp, 1, ((0,), 1))
        v = vec(sp, 1, ((1,), 1))
        assert inner0(u, v) == EXACT.one()

    def test_pn_budget(self, space2):
        v = FockVector(space2, 8)
        v.add_term((0,) * 8, EXACT.one())
        with pytest.raises(ResourceBudgetError):
            apply_Pn(v)

    def test_asymmetric_gram_rejected(self):
        g = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
        with pytest.raises(UsageError):
            OneParticleSpace(2, g, EXACT)


class TestOperators:
    def test_creation_prepends(self, space2):
        om = FockVector.vacuum(space2, 3)
        a = FockOperator.creation([Fraction(1), Fraction(0)])
        out = apply(a, apply(a, om))
        assert out.terms == {(0, 0): EXACT.one()}

    def test_annihilation_q_weights(self, space2):
        # a(e0) on e1 x e0 pairs the second slot with weight q
        v = vec(space2, 2, ((1, 0), 1))
        out = apply(FockOperator.annihilation([Fraction(1), Fraction(0)]), v)
        assert out.terms == {(1,): EXACT.q()}

    def test_gauge_moves_to_front(self, space2):
        t = DenseGauge([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
        # T e1 = e0, T e0 = 0
        v = vec(space2, 2, ((0, 1), 1))
        out = apply(FockOperator.gauge(t), v)
        assert out.terms == {(0, 0): EXACT.q()}

    def test_scalar_mode_mismatch(self, space2):
        op = FockOperator.scalar(QScalar.pinned(2.0, Fraction(1, 2)))
        with pytest.raises(ModeMismatchError):
            apply(op, FockVector.vacuum(space2, 1))

    def test_depth_overflow_is_hard_error(self, space2):
        v = vec(space2, 1, ((0,), 1))
        with pytest.raises(DepthExceededError):
            apply(FockOperator.creation([Fraction(1), Fraction(0)]), v)

    def test_scale_by_rational_works_in_float_mode(self):
        ring = ScalarRing(Fraction(1, 2))
        sp = OneParticleSpace.orthonormal(2, ring)
        v = FockVector.vacuum(sp, 1)
        out = apply(FockOperator.identity(ring).scale_by(Fraction(1, 3)), v)
        assert float(out.vacuum_coefficient()) == pytest.approx(1 / 3)

    def test_field_operator_number_moment(self, space2):
        # <Omega, X(e0)^2 Omega> = <e0, e0> = 1 with no gauge and zero mean
        x = field_operator([Fraction(1), Fraction(0)], None, None, EXACT)
        om = FockVector.vacuum(space2, 2)
        assert apply(x, apply(x, om)).vacuum_coefficient() == EXACT.one()


class TestCommutation:
    """a(zeta) a*(eta) - q a*(eta) a(zeta) = <zeta, eta> Id."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_grams(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 3)
        g = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1):
                g[i][j] = g[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        sp = OneParticleSpace(dim, g, EXACT)
        zeta = sparse_vector([Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        eta = sparse_vector([Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        lhs = (FockOperator.annihilation(zeta) * FockOperator.creation(eta)
               - FockOperator.compose([FockOperator.creation(eta),
                                       FockOperator.annihilation(zeta)]).scale(EXACT.q()))
        c = sp.pair_vec(zeta, eta)
        words = [()]
        for _ in range(3):
            words = [w + (i,) for w in words for i in range(dim)]
            for w in words:
                v = FockVector.basis_word(sp, 4, w)
                assert (apply(lhs, v) - v.scale(EXACT.of(c))).is_zero


class TestAdjointAndProjection:
    def test_adjoint_creation(self, space2):
        a = FockOperator.creation([Fraction(1), Fraction(0)])
        u = vec(space2, 2, ((0,), 1))
        v = vec(space2, 2, ((0, 0), 1))
        assert innerq(apply(a, u), v) == innerq(u, apply(adjoint(a, space2), v))

    def test_adjoint_gauge_gram(self):
        g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        sp = OneParticleSpace(2, g, EXACT)
        t = FockOperator.gauge([[Fraction(0), Fraction(1)],
                                [Fraction(1), Fraction(1)]])
        ts = adjoint(t, sp)
        for wu in [(0,), (1,), (0, 1), (1, 1)]:
            for wv in [(0,), (1,), (1, 0), (0, 0)]:
                u = FockVector.basis_word(sp, 2, wu)
                v = FockVector.basis_word(sp, 2, wv)
                assert innerq(apply(t, u), v) == innerq(u, apply(ts, v))

    def test_adjoint_singular_gram(self):
        g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
        sp = OneParticleSpace(2, g, EXACT)
        t = FockOperator.gauge([[Fraction(0), Fraction(1)],
                                [Fraction(1), Fraction(0)]])
        with pytest.raises(UsageError):
            adjoint(t, sp)

    def test_project_requires_orthogonal_split(self):
        g = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]]
        sp = OneParticleSpace(2, g, EXACT)
        v = FockVector.vacuum(sp, 1)
        with pytest.raises(UsageError):
            project(v, lambda i: i == 0)

    def test_project_drops_words(self, space2):
        v = vec(space2, 2, ((0, 1), 1), ((0, 0), 2))
        out = project(v, lambda i: i == 0)
        assert out.terms == {(0, 0): EXACT.of(2)}

    def test_gamma_q(self, space2):
        v = vec(space2, 2, ((), 1), ((0,), 1), ((0, 1), 1))
        out = gamma_q(v)
        assert out.terms[()] == EXACT.one()
        assert out.terms[(0,)] == EXACT.q()
        assert out.terms[(0, 1)] == EXACT.q_pow(2)


class TestNormEstimates:
    def test_requires_float(self, space2):
        with pytest.raises(UsageError):
            operator_norm_estimate(FockOperator.identity(EXACT), space2, 2)

    @pytest.mark.parametrize("q0", [0, Fraction(3, 10), Fraction(7, 10)])
    def test_identity_norm(self, q0):
        ring = ScalarRing(q0)
        sp = OneParticleSpace.orthonormal(2, ring)
        n = operator_norm_estimate(FockOperator.identity(ring), sp, 4)
        assert n == pytest.approx(1.0, abs=1e-9)

    def test_gauge_norm_bound(self):
        # ||p(T)|| <= max(1, 1/(1-q)) ||T|| on the truncation
        ring = ScalarRing(Fraction(1, 2))
        sp = OneParticleSpace.orthonormal(2, ring)
        t = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        n = operator_norm_estimate(FockOperator.gauge(t), sp, 5)
        assert n <= 2.0 + 1e-9
