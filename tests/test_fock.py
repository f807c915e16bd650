import importlib
import inspect
import math
import pkgutil
import random
import tracemalloc
import typing
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfock
from qfock import fock
from qfock.errors import (CutoffExceededError, DepthExceededError,
                          ResourceBudgetError, UsageError)
from qfock.fock import (NORM_WORD_CAP, FockOperator, FockVector,
                        OneParticleSpace, SparseVector, adjoint, apply, apply_Pn,
                        field_operator, inner0, innerq,
                        operator_norm_estimate, sparse_vector)
from qfock.suites import grid_model
from qfock.model import MomentSequence, ProcessModel, TimeGrid
from qfock.qscalar import EXACT, ONE, ZERO, QScalar, ScalarRing, const, q_fact, q_pow
from matrix_gauge import MatrixGauge, matrix_gauge
from sn_oracle import apply_Pn_sum, inversions, sym_group


@pytest.fixture
def space2():
    return OneParticleSpace.orthonormal(2)


def vec(space, depth, *terms):
    v = FockVector(space, depth)
    for word, c in terms:
        v.add_term(word, c if isinstance(c, QScalar) else const(c))
    return v


class TestFockVector:
    def test_depth_enforced(self, space2):
        v = FockVector(space2, 2)
        with pytest.raises(DepthExceededError):
            v.add_term((0, 1, 0), ONE)

    def test_cancellation(self, space2):
        v = vec(space2, 3, ((0, 1), 1), ((0, 1), -1))
        assert v.is_zero

    @pytest.mark.parametrize("word, error", [
        ((0, 2), UsageError), ((-1,), UsageError),
        ((0, 1, 0), DepthExceededError)])
    def test_entry_points_refuse_bad_words(self, space2, word, error):
        # words enter through basis_word, the terms argument and add_term;
        # nothing derived from them is checked again
        with pytest.raises(error):
            FockVector.basis_word(space2, 2, word)
        with pytest.raises(error):
            FockVector(space2, 2, {word: ONE})
        with pytest.raises(error):
            FockVector(space2, 2).add_term(word, ONE)

    def test_sum_refuses_words_past_its_depth(self, space2):
        long = vec(space2, 3, ((0, 1, 0), 1))
        with pytest.raises(DepthExceededError):
            FockVector(space2, 2) + long
        assert FockVector(space2, 3) - vec(space2, 2, ((0,), 1)) == vec(
            space2, 3, ((0,), -1))

    def test_serialize_sorted(self, space2):
        v = vec(space2, 3, ((1, 0), 2), ((0,), 1))
        assert v.serialize() == "1 | 0\n2 | 1,0"


class TestInnerProducts:
    def test_inner0_orthonormal(self, space2):
        u = vec(space2, 2, ((0, 1), 1))
        v = vec(space2, 2, ((0, 1), 1), ((1, 0), 5))
        assert inner0(u, v) == ONE

    def test_innerq_two_letters(self, space2):
        # <e0 x e1, e1 x e0>_q = q for an orthonormal gram
        u = vec(space2, 2, ((0, 1), 1))
        v = vec(space2, 2, ((1, 0), 1))
        assert innerq(u, v) == q_pow(1)

    def test_innerq_repeated_letter(self, space2):
        u = vec(space2, 2, ((0, 0), 1))
        assert innerq(u, u) == ONE + q_pow(1)

    def test_gram_weighted(self):
        g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        sp = OneParticleSpace(2, g)
        u = vec(sp, 1, ((0,), 1))
        v = vec(sp, 1, ((1,), 1))
        assert inner0(u, v) == ONE

    def test_pn_budget(self, space2):
        # degree 10 is the first one refused, with or without a q0
        at_q0 = OneParticleSpace.orthonormal(2, ScalarRing(Fraction(3, 10)))
        for sp in (space2, at_q0):
            v = FockVector(sp, 10)
            v.add_term((0,) * 10, ONE)
            with pytest.raises(ResourceBudgetError):
                apply_Pn(v)

    @pytest.mark.parametrize("q0", [None, Fraction(3, 10)])
    def test_pn_degree_9_repeated_letters(self, q0):
        # P_9 of 0^5 1^4 has one term per rearrangement u, with coefficient
        # q^{inv(u)} [5]_q! [4]_q!, and the coefficients sum to [9]_q!; a q0
        # on the ring changes none of them
        ring = EXACT if q0 is None else ScalarRing(q0)
        sp = OneParticleSpace.orthonormal(2, ring)
        w = (0,) * 5 + (1,) * 4
        out = apply_Pn(FockVector.basis_word(sp, 9, w))
        stab = q_fact(5) * q_fact(4)
        assert len(out.terms) == 126
        total = sum(out.terms.values(), ZERO)
        assert out.terms[w] == stab
        assert out.terms[w[::-1]] == q_pow(20) * stab
        assert total == q_fact(9)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_pn_matches_permutation_sum(self, data):
        # mixed degrees 0-6 over at most 4 letters, so letters repeat
        dim = data.draw(st.integers(1, 4))
        q0 = data.draw(st.sampled_from(
            (None, Fraction(0), Fraction(3, 10), Fraction(-3, 10), Fraction(7, 10))))
        ring = EXACT if q0 is None else ScalarRing(q0)
        words = st.lists(st.integers(0, dim - 1), max_size=6).map(tuple)
        coeffs = st.fractions(-3, 3, max_denominator=4)
        terms = data.draw(st.dictionaries(words, coeffs, max_size=5))
        v = FockVector(OneParticleSpace.orthonormal(dim, ring), 6,
                       {w: const(c) for w, c in terms.items()})
        assert apply_Pn(v) == apply_Pn_sum(v)

    def test_asymmetric_gram_rejected(self):
        g = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
        # the same gram as rows in the one form, which sparse_vector keeps
        # as they are: they are checked all the same
        rows = [SparseVector(1, ((0, 1), (1, 2))), SparseVector(1, ((1, 1),))]
        for gram in (g, rows):
            with pytest.raises(UsageError, match="symmetric"):
                OneParticleSpace(2, gram)


class TestOperators:
    def test_creation_prepends(self, space2):
        om = FockVector.vacuum(space2, 3)
        a = FockOperator.creation([Fraction(1), Fraction(0)])
        out = apply(a, apply(a, om))
        assert out.terms == {(0, 0): ONE}

    def test_annihilation_q_weights(self, space2):
        # a(e0) on e1 x e0 pairs the second slot with weight q
        v = vec(space2, 2, ((1, 0), 1))
        out = apply(FockOperator.annihilation([Fraction(1), Fraction(0)]), v)
        assert out.terms == {(1,): q_pow(1)}

    def test_gauge_moves_to_front(self, space2):
        t = matrix_gauge([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
        # T e1 = e0, T e0 = 0
        v = vec(space2, 2, ((0, 1), 1))
        out = apply(t, v)
        assert out.terms == {(0, 0): q_pow(1)}

    @pytest.mark.parametrize("op", [
        FockOperator.creation([(2, 1)]),
        FockOperator.creation([(-1, 1), (0, 1)]),
        FockOperator.annihilation([(2, 1)]),
        matrix_gauge([[Fraction(1)] * 3] * 3)],
        ids=["creation", "creation-negative", "annihilation", "gauge"])
    def test_apply_refuses_index_out_of_range(self, space2, op):
        # checked on the node's own indices, not on the words it derives
        v = vec(space2, 3, ((), 1), ((1, 0), 1))
        with pytest.raises(UsageError, match="out of range"):
            apply(op, v)
        with pytest.raises(UsageError, match="out of range"):
            apply(op.scale(const(3)) + FockOperator.identity(), v)

    def test_scale_by_rational_works_in_float_mode(self):
        # read at the ring's q0, as a float
        ring = ScalarRing(Fraction(1, 2))
        sp = OneParticleSpace.orthonormal(2, ring)
        v = FockVector.vacuum(sp, 1)
        op = FockOperator.identity().scale(const(Fraction(1, 3)))
        # nodes compare by identity: read the scalar leaf's kind and payload
        leaf = op.operands[0]
        assert leaf.kind == "scalar" and leaf.payload == const(Fraction(1, 3))
        out = apply(op, v)
        assert out.vacuum_coefficient() == const(Fraction(1, 3))
        assert float(out.vacuum_coefficient()) == pytest.approx(1 / 3)

    def test_leaf_scalars_kept_per_space(self):
        # one node applied on two spaces: each application pairs and checks
        # against its own space, as a fresh node would
        g1 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        g2 = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        leaves = [lambda: FockOperator.annihilation([Fraction(1), Fraction(-2)]),
                  lambda: FockOperator.creation([Fraction(1), Fraction(-2)]),
                  lambda: matrix_gauge([[Fraction(0), Fraction(1)],
                                        [Fraction(2), Fraction(1)]])]
        for make in leaves:
            op = make()
            for gram in (g1, g2, g1):
                sp = OneParticleSpace(2, gram)
                v = vec(sp, 3, ((0, 1), 1), ((1,), Fraction(1, 2)))
                assert apply(op, v) == apply(make(), v)
                assert apply(op.scale(const(3)), v) == apply(make(), v).scale(const(3))
        create = FockOperator.creation([(2, 1)])
        apply(create, FockVector.vacuum(OneParticleSpace.orthonormal(3), 1))
        with pytest.raises(UsageError, match="out of range"):
            apply(create, FockVector.vacuum(OneParticleSpace.orthonormal(2), 1))
        # a gauge column is checked against the space of each call that
        # reads it: fine on three dimensions, refused on two
        gauge = matrix_gauge([[Fraction(0)] * 3, [Fraction(0)] * 3,
                              [Fraction(1), Fraction(0), Fraction(0)]])
        for dim in (3, 2, 3):
            sp = OneParticleSpace.orthonormal(dim)
            v = FockVector.basis_word(sp, 1, (0,))
            if dim == 3:
                assert apply(gauge, v) == FockVector.basis_word(sp, 1, (2,))
            else:
                with pytest.raises(UsageError, match="column 0 has an index out of range"):
                    apply(gauge, v)

    def test_products_sharing_their_first_factor(self, space2):
        # a sum of products whose first factor is one node object applies
        # that factor to the input once; it equals the same sum built from a
        # fresh node at every place, also where the shared node acts again,
        # on other terms
        def field():
            return field_operator([Fraction(1), Fraction(2)],
                                  MatrixGauge([[Fraction(0), Fraction(1)],
                                               [Fraction(1), Fraction(1)]]),
                                  Fraction(1, 2))

        def products(f):
            create = FockOperator.creation([Fraction(1), Fraction(0)])
            others = [create, FockOperator.annihilation([Fraction(0), Fraction(1)]),
                      f()]
            return ([FockOperator.compose([create, f(), f()])]
                    + [FockOperator.compose([o, f()]) for o in others]
                    + [FockOperator.compose([f(), create, f()]).scale(q_pow(1))])

        shared = field()
        v = vec(space2, 5, ((), 1), ((0, 1), Fraction(-1, 3)))
        want = FockVector(space2, 5)
        for p in products(field):
            want = want + apply(p, v)
        assert apply(FockOperator.opsum(products(lambda: shared)), v) == want

    def test_depth_overflow_is_hard_error(self, space2):
        v = vec(space2, 1, ((0,), 1))
        with pytest.raises(DepthExceededError):
            apply(FockOperator.creation([Fraction(1), Fraction(0)]), v)

    def test_unknown_kind_refused(self):
        with pytest.raises(UsageError, match="unknown operator kind 'linear'"):
            FockOperator("linear")

    def test_empty_sum_is_zero(self, space2):
        zero = FockOperator.opsum([])
        assert zero.kind == "sum" and zero.operands == ()
        a = FockOperator.creation([Fraction(1), Fraction(2)])
        v = vec(space2, 3, ((), 1), ((0, 1), 2))
        assert apply(zero, v).is_zero
        assert apply(adjoint(zero), v).is_zero
        assert apply(zero * a, v).is_zero and apply(a * zero, v).is_zero
        assert apply(zero + a, v) == apply(a, v)

    def test_constructors_keep_their_operands(self):
        # a nested sum or composition stays one operand, the same node, and
        # a scaling is one composition over its operand
        a = FockOperator.creation([Fraction(1), Fraction(2)])
        b = FockOperator.annihilation([Fraction(0), Fraction(1)])
        inner_sum, inner_prod = a + b, a * b
        outer = FockOperator.opsum([inner_sum, a])
        assert outer.kind == "sum" and len(outer.operands) == 2
        assert outer.operands[0] is inner_sum and outer.operands[1] is a
        prod = FockOperator.compose([b, inner_prod])
        assert prod.kind == "compose" and len(prod.operands) == 2
        assert prod.operands[1] is inner_prod
        scaled = inner_prod.scale(q_pow(1))
        assert scaled.kind == "compose" and scaled.operands[1] is inner_prod
        assert FockOperator.opsum([a]) is a and FockOperator.compose([a]) is a

    def test_field_operator_number_moment(self, space2):
        # <Omega, X(e0)^2 Omega> = <e0, e0> = 1 with no gauge and zero mean
        x = field_operator([Fraction(1), Fraction(0)], None, None)
        om = FockVector.vacuum(space2, 2)
        assert apply(x, apply(x, om)).vacuum_coefficient() == ONE


def every_kind():
    """The space of a one-atom grid model at cutoff 3, whose gram
    <x^j, x^k> = r_{j+k+2} has off-diagonal entries, and one operator per
    node kind on it.  The gauge is multiplication by the letter x, which is
    gram-symmetric and so its own adjoint; on words over x and x^2 it stays
    under the cutoff."""
    nu = MomentSequence.from_measure(
        [(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (2, Fraction(1, 4))], 6)
    model = ProcessModel(EXACT, nu, TimeGrid([0, 1]), 3, 3)
    zeta = sparse_vector([Fraction(1), Fraction(-2)])
    gauge = FockOperator.gauge(model.atom_letter(0).gauge())
    create = FockOperator.creation(zeta)
    return model.space, {
        "creation": create,
        "annihilation": FockOperator.annihilation(zeta),
        "gauge": gauge,
        "scalar": FockOperator.scalar(const(Fraction(3, 2))),
        "sum": FockOperator("sum", None, (create, gauge)),
        "compose": FockOperator("compose", None, (gauge, create)),
    }


@pytest.mark.parametrize("kind", sorted(every_kind()[1]))
def test_every_kind_applies_and_has_its_adjoint(kind):
    # <A u, v>_q = <u, A* v>_q on words of length <= 2 under a
    # non-orthonormal gram
    sp, ops = every_kind()
    op = ops[kind]
    assert op.kind == kind
    star = adjoint(op)
    basis = [FockVector.basis_word(sp, 3, w)
             for w in [(), (0,), (1,), (0, 1), (1, 1)]]
    assert any(not apply(op, u).is_zero for u in basis)
    for u in basis:
        for v in basis:
            assert innerq(apply(op, u), v) == innerq(u, apply(star, v))


def _no_cycle_cases():
    """(name, call) for each recursive kernel, each on inputs built ahead,
    so that a call adds nothing to the caches of its model or sequence
    but the A_w of a fresh sequence."""
    from qfock import kspoly, stochastic
    from qfock.partitions import SetPartition
    from qfock.suites import three_point_model
    model = three_point_model(n_atoms=2, cutoff=3, depth=4)
    om = FockVector.vacuum(model.space, model.fock_depth)
    a, b = model.atom_letter(0), model.atom_letter(1)
    composed = FockOperator.compose([a.field(), b.field(), a.field()])
    op = composed + composed.scale(q_pow(1))
    pi = SetPartition.of([[1, 2], [3]])
    stochastic.st_pi_discrete(pi, 1, model)
    ones = grid_model(((1, 1),), 2, 2, 3, ScalarRing(Fraction(3, 10)))
    x = ones.prefix_letter(1).field()
    operator_norm_estimate(x, ones.space, 3)
    return {
        "apply": lambda: apply(op, apply(a.field(), om)),
        "st_pi_discrete": lambda: stochastic.st_pi_discrete(pi, 1, model),
        "ks_poly": lambda: kspoly.ks_poly((1, 2, 1), MomentSequence(range(7))),
        "compression": lambda: operator_norm_estimate(x, ones.space, 3),
    }


@pytest.mark.parametrize("name", ["apply", "st_pi_discrete", "ks_poly", "compression"])
def test_kernels_leave_no_reference_cycle(name):
    """No recursive kernel refers to itself through a closure, so what a
    call builds is freed when it returns, without the cyclic collector."""
    import gc
    call = _no_cycle_cases()[name]
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
        sp = OneParticleSpace(dim, g)
        zeta = sparse_vector([Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        eta = sparse_vector([Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        lhs = (FockOperator.annihilation(zeta) * FockOperator.creation(eta)
               - FockOperator.compose([FockOperator.creation(eta),
                                       FockOperator.annihilation(zeta)]).scale(q_pow(1)))
        c = sp.pair_vec(zeta, eta)
        words = [()]
        for _ in range(3):
            words = [w + (i,) for w in words for i in range(dim)]
            for w in words:
                v = FockVector.basis_word(sp, 4, w)
                assert (apply(lhs, v) - v.scale(const(c))).is_zero


class TestAdjointAndProjection:
    def test_adjoint_creation(self, space2):
        a = FockOperator.creation([Fraction(1), Fraction(0)])
        u = vec(space2, 2, ((0,), 1))
        v = vec(space2, 2, ((0, 0), 1))
        assert innerq(apply(a, u), v) == innerq(u, apply(adjoint(a), v))


class OffRangeGauge(fock.Gauge):
    """A gauge whose column 0 holds one given index, and whose support also
    holds 5, past every index of a 2-dim space: reading column 5 fails."""

    den = 1

    def __init__(self, index):
        self.index = index

    def column(self, i):
        assert i == 0, f"column {i} read"
        return ((self.index, 1),)

    def support(self):
        return frozenset((0, 5))


class TestNormEstimates:
    def test_requires_float(self, space2):
        # a float estimate needs a q0 to evaluate at; the ring without one
        # is refused
        with pytest.raises(UsageError, match="has a q0"):
            operator_norm_estimate(FockOperator.identity(), space2, 2)

    @pytest.mark.parametrize("depth", range(6))
    def test_q0_zero_is_an_evaluation_point(self, depth):
        # q0 = 0 is a point to evaluate at, not "no q0": the free field
        # a(e) + a*(e) on one letter compresses to the path graph on depth+1
        # vertices, whose largest eigenvalue is 2 cos(pi/(depth+2))
        ring = ScalarRing(0)
        assert ring.q0 is not None and ring.q0 == 0
        sp = OneParticleSpace.orthonormal(1, ring)
        x = field_operator([Fraction(1)], None, None)
        assert operator_norm_estimate(x, sp, depth) == pytest.approx(
            2 * math.cos(math.pi / (depth + 2)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("q0", [0, Fraction(3, 10), Fraction(7, 10)])
    def test_identity_norm(self, q0):
        ring = ScalarRing(q0)
        sp = OneParticleSpace.orthonormal(2, ring)
        n = operator_norm_estimate(FockOperator.identity(), sp, 4)
        assert n == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q0", [0, Fraction(3, 10), Fraction(-7, 10)])
    def test_scaled_norm_is_scaled(self, q0):
        # a composition's scalar scales its compression: ||2x|| = 2 ||x||
        ring = ScalarRing(q0)
        sp = OneParticleSpace(2, [[Fraction(2), Fraction(1)],
                                  [Fraction(1), Fraction(3)]], ring)
        x = field_operator([Fraction(1), Fraction(-2)],
                           MatrixGauge([[Fraction(0), Fraction(1)],
                                        [Fraction(1), Fraction(1)]]),
                           Fraction(1, 2))
        n = operator_norm_estimate(x, sp, 4)
        assert n > 0
        assert operator_norm_estimate(x.scale(const(2)), sp, 4) == pytest.approx(
            2 * n, rel=1e-12)
        half = FockOperator.compose([FockOperator.scalar(const(Fraction(1, 2))),
                                     x, x.scale(const(-1))])
        assert operator_norm_estimate(half, sp, 4) == pytest.approx(
            operator_norm_estimate(x * x, sp, 4) / 2, rel=1e-12)

    @pytest.mark.parametrize("q0", [0, Fraction(3, 10), Fraction(-7, 10)])
    def test_not_self_adjoint_matches_the_svd(self, q0):
        # a lone creation, and a creation plus a gauge, whiten to matrices
        # that are not symmetric: sqrt of the top eigenvalue of W^T W is the
        # SVD's largest singular value of W
        sp = OneParticleSpace(2, [[Fraction(2), Fraction(1)],
                                  [Fraction(1), Fraction(3)]], ScalarRing(q0))
        create = FockOperator.creation([Fraction(1), Fraction(-2)])
        gauged = create + matrix_gauge([[Fraction(0), Fraction(1)],
                                        [Fraction(2), Fraction(1)]])
        for op in (create, gauged):
            w = fock._compression(op, sp, 4)
            offset = 0
            for _, _, f, f_inv in fock._pn_blocks(sp, 4):
                block = slice(offset, offset + len(f))
                w[block, :] = f.T @ w[block, :]
                w[:, block] = w[:, block] @ f_inv.T
                offset += len(f)
            assert not np.allclose(w, w.T)
            assert operator_norm_estimate(op, sp, 4) == pytest.approx(
                float(np.linalg.norm(w, 2)), rel=1e-12)

    def test_gauge_norm_bound(self):
        # ||p(T)|| <= max(1, 1/(1-q)) ||T|| on the truncation
        ring = ScalarRing(Fraction(1, 2))
        sp = OneParticleSpace.orthonormal(2, ring)
        t = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        n = operator_norm_estimate(matrix_gauge(t), sp, 5)
        assert n <= 2.0 + 1e-9

    @pytest.mark.parametrize("index", [-1, 2], ids=["negative", "dim"])
    @pytest.mark.parametrize("kind", ["creation", "gauge"])
    def test_refuses_an_index_apply_refuses(self, kind, index):
        # on the orthonormal 2-dim space, a creation at an index out of
        # range, or a gauge whose column 0 holds one, is refused by the
        # estimate with the message of `apply`; a support index that no
        # word can hold is not read by either
        sp = OneParticleSpace.orthonormal(2, ScalarRing(Fraction(3, 10)))
        if kind == "creation":
            op = FockOperator.creation([(index, 1)])
            message = "creation index out of range in"
        else:
            op = FockOperator.gauge(OffRangeGauge(index))
            message = "gauge column 0 has an index out of range"
        with pytest.raises(UsageError, match=message):
            apply(op, FockVector.basis_word(sp, 3, (0,)))
        with pytest.raises(UsageError, match=message):
            operator_norm_estimate(op, sp, 3)

    def test_word_cap_names_size_and_limit(self, monkeypatch):
        # dim 3, depth 8 asks for 9,841 words (775 MB per dense matrix); the
        # refusal comes before any block or q-gram is built
        ring = ScalarRing(Fraction(3, 10))
        sp = OneParticleSpace.orthonormal(3, ring)
        monkeypatch.setattr(fock, "_pn_matrix", None)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError,
                               match=f"needs 9841 basis words, over the limit "
                                     f"of {NORM_WORD_CAP}"):
                operator_norm_estimate(FockOperator.identity(), sp, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sp.pn_blocks == []

    def test_singular_q_gram_is_refused(self):
        # a singular 0-gram makes the degree-1 q-gram singular: the refusal
        # names the degree, and only the degrees below it are kept
        sp = OneParticleSpace(2, [[1, 1], [1, 1]], ScalarRing(Fraction(3, 10)))
        with pytest.raises(ResourceBudgetError,
                           match="q-gram numerically singular at degree 1"):
            operator_norm_estimate(FockOperator.identity(), sp, 2)
        assert len(sp.pn_blocks) == 1

    @pytest.mark.parametrize("dim, depth", [(1, 9), (2, 8)])
    def test_word_cap_admits(self, dim, depth):
        ring = ScalarRing(Fraction(3, 10))
        sp = OneParticleSpace.orthonormal(dim, ring)
        n = operator_norm_estimate(FockOperator.identity(), sp, depth)
        assert n == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c", [0, Fraction(3, 2), 1])
    @pytest.mark.parametrize("q0", [0, Fraction(3, 10), Fraction(-1, 2),
                                    Fraction(7, 10)])
    @pytest.mark.parametrize("depth", [3, 6, 10, 40])
    def test_one_letter_is_the_q_hermite_jacobi_matrix(self, depth, q0, c):
        # at dim 1, orthonormal, e^{(x)n} has q-norm^2 [n]_q!, so in the
        # normalized basis a(e) + a*(e) is the Jacobi matrix of the continuous
        # q-Hermite recurrence x H_n = H_{n+1} + [n]_q H_{n-1}, off-diagonals
        # sqrt([n]_q); a gauge by c adds c [n]_q on the diagonal (q-Charlier).
        # With c >= 0 the norm is the largest eigenvalue (negating the
        # off-diagonals is a similarity, so |lowest| <= top when the diagonal
        # is >= 0); the Sturm counts below isolate it, in rationals at q0,
        # within 1e-12 relative of the estimate.  The field of X(1) on the
        # one-atom grid model of nu = delta_0 (c = 0) or delta_1 (c = 1) is
        # the same matrix: P_0 = 1 has norm² r_2 = 1, and x P_0 P_0 = x is
        # 0 or 1 in L²(nu)
        ring = ScalarRing(q0)
        sp = OneParticleSpace.orthonormal(1, ring)
        x = field_operator([Fraction(1)], MatrixGauge([[c]]) if c else None, None)
        cases = [(x, sp)]
        if c in (0, 1):
            model = grid_model(((c, 1),), 1, 4, depth, ring)
            cases.append((model.prefix_letter(1).field(), model.space))
        q_ints = [sum(Fraction(q0) ** k for k in range(n)) for n in range(depth + 1)]
        diag = [c * b for b in q_ints]
        for op, space in cases:
            est = operator_norm_estimate(op, space, depth)
            eps = Fraction(est) / 10 ** 12
            assert eigenvalues_above(Fraction(est) - eps, diag, q_ints) == 1
            assert eigenvalues_above(Fraction(est) + eps, diag, q_ints) == 0

    def test_grid_model_letter_field_exceeds_the_cutoff(self):
        # with moments through r_6 at cutoff 3, the model knows no null
        # polynomial, and a letter's gauge multiplies the top power past
        # the cutoff; through r_8, P_3 is null, the model closes, and the
        # same field is estimated
        atoms = [(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4))]
        ring = ScalarRing(Fraction(3, 10))
        model = ProcessModel(ring, MomentSequence.from_measure(atoms, 6),
                             TimeGrid.uniform(1, 2), 3, 2)
        with pytest.raises(CutoffExceededError,
                           match="letter product degree 4 exceeds cutoff 3"):
            operator_norm_estimate(model.prefix_letter(1).field(), model.space, 2)
        model = grid_model(atoms, 2, 3, 2, ring)
        assert model.closes
        assert operator_norm_estimate(model.prefix_letter(1).field(),
                                      model.space, 2) > 0


def eigenvalues_above(x, diag, off2):
    """The number of eigenvalues above x of the Jacobi matrix with diagonal
    diag[0..d] and squared off-diagonals off2[1..d]: the sign changes of the
    Sturm sequence of its leading minors p_k(x) = det(x - J_k), in exact
    rationals; x must be no zero of any p_k."""
    prev, cur = Fraction(1), x - diag[0]
    signs = [1, cur]
    for a, b2 in zip(diag[1:], off2[1:]):
        prev, cur = cur, (x - a) * cur - b2 * prev
        signs.append(cur)
    assert all(signs)
    return sum((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))


def pn_oracle(gram, n, q0):
    """<w, P_n w'>_0 summed over S_n: q0^inv(sigma) prod_k g[w_k][w'_sigma(k)],
    every word pair at once."""
    dim = len(gram)
    g = np.array([[float(x) for x in row] for row in gram])
    words = np.array(list(product(range(dim), repeat=n)), dtype=int).reshape(dim ** n, n)
    out = np.zeros((len(words), len(words)))
    for sigma in sym_group(n):
        term = np.ones_like(out)
        for k in range(n):
            term *= g[np.ix_(words[:, k], words[:, sigma[k] - 1])]
        out += q0 ** inversions(sigma) * term
    return out


@st.composite
def pn_cases(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 5).filter(lambda n: dim ** n <= 243))
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = draw(entries)
    q0 = draw(st.sampled_from((0.0, 0.3, -0.3, 0.7)))
    return gram, n, q0


class TestQGram:
    """The factorised q-gram against the sum over S_n, and its cache."""

    @settings(max_examples=60, deadline=None)
    @given(pn_cases())
    def test_matches_permutation_sum(self, case):
        # the drawn grams may be indefinite, so the step is iterated here,
        # not through _pn_blocks' Cholesky
        gram, n, q0 = case
        dim = len(gram)
        g = np.array([[float(x) for x in row] for row in gram])
        new = np.ones((1, 1))
        for m in range(1, n + 1):
            new = fock._pn_matrix(g, new, fock._slot_sum(dim, m, q0))
        assert np.allclose(new, pn_oracle(gram, n, q0), rtol=1e-12, atol=1e-12)

    @staticmethod
    def count_builds(monkeypatch):
        """The degrees of the slot sums and q-gram steps built from now on;
        a step's degree is that of the slot sum it was given, which must be
        one built here."""
        built = {"_slot_sum": [], "_pn_matrix": []}
        degree = {}  # id of a built slot sum -> its degree
        slot_sum, step = fock._slot_sum, fock._pn_matrix

        def counting_slot_sum(dim, n, q0):
            built["_slot_sum"].append(n)
            r = slot_sum(dim, n, q0)
            degree[id(r)] = n
            return r

        def counting_step(g, below, r):
            built["_pn_matrix"].append(degree[id(r)])
            return step(g, below, r)

        monkeypatch.setattr(fock, "_slot_sum", counting_slot_sum)
        monkeypatch.setattr(fock, "_pn_matrix", counting_step)
        return built

    def test_blocks_built_once_per_space(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        ring = ScalarRing(Fraction(3, 10))
        sp = OneParticleSpace.orthonormal(2, ring)
        assert sp.pn_blocks == []
        op = matrix_gauge([[Fraction(1), Fraction(0)],
                           [Fraction(0), Fraction(2)]])
        first = operator_norm_estimate(op, sp, 3)
        assert built == {"_slot_sum": [0, 1, 2, 3], "_pn_matrix": [1, 2, 3]}
        assert len(sp.pn_blocks) == 4
        assert operator_norm_estimate(op, sp, 3) == first
        assert operator_norm_estimate(op, sp, 2) < first
        assert built == {"_slot_sum": [0, 1, 2, 3], "_pn_matrix": [1, 2, 3]}
        operator_norm_estimate(op, sp, 5)
        assert built == {"_slot_sum": [0, 1, 2, 3, 4, 5],
                         "_pn_matrix": [1, 2, 3, 4, 5]}
        assert OneParticleSpace.orthonormal(2, ring).pn_blocks == []

    def test_cold_estimate_builds_each_degree_once(self, monkeypatch):
        # one recursion over degrees: depth d takes d + 1 slot sums (degree 0
        # included) and d steps, not d(d + 1)/2 of each
        built = self.count_builds(monkeypatch)
        sp = OneParticleSpace.orthonormal(1, ScalarRing(Fraction(3, 10)))
        x = field_operator([Fraction(1)], None, None)
        operator_norm_estimate(x, sp, 10)
        assert built == {"_slot_sum": list(range(11)), "_pn_matrix": list(range(1, 11))}

    def test_no_module_cache(self):
        assert not hasattr(fock, "_PN_MATRIX_CACHE")


# ---------------------------------------------------------------------------
# Zagier's determinant of the q-gram on distinct letters


def bareiss_det(m: list[list[Fraction]]) -> Fraction:
    """The determinant of a square rational matrix by fraction-free
    (Bareiss) elimination, a row swap on a zero pivot."""
    a, n, sign, prev = [row[:] for row in m], len(m), 1, Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_bareiss_det_against_leibniz():
    """On a 4 x 4 matrix with a zero first pivot, so that rows are swapped."""
    rows = [[0, 2, 1, 3], [0, Fraction(1, 2), -1, 0], [1, 4, Fraction(2, 3), 1],
            [2, 0, 1, -2]]
    m = [[Fraction(x) for x in row] for row in rows]
    want = sum((-1) ** inversions(p) * math.prod(m[i][p[i] - 1] for i in range(4))
               for p in sym_group(4))
    assert want and bareiss_det(m) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zagier_determinant_of_the_distinct_letter_gram(n):
    """det [<w, w'>_q] over the n! words of n distinct orthonormal letters
    is prod_{k=1}^{n-1} (1 - q^(k^2+k))^((n-k) n!/(k^2+k)) (Zagier, Comm.
    Math. Phys. 147, 1992): `innerq` against the formula at rational q0."""
    space = OneParticleSpace.orthonormal(n)
    words = [FockVector.basis_word(space, n, w) for w in permutations(range(n))]
    gram = [[innerq(u, v) for v in words] for u in words]
    for q0 in (Fraction(3, 10), Fraction(-1, 2)):
        entries = [[sum(c * q0 ** k for k, c in enumerate(s.num)) / s.den for s in row]
                   for row in gram]
        want = Fraction(1)
        for k in range(1, n):
            e = k * k + k
            want *= (1 - q0 ** e) ** ((n - k) * math.factorial(n) // e)
        assert bareiss_det(entries) == want


# ---------------------------------------------------------------------------
# the dense compression against the per-word one


def words_up_to(dim, depth):
    """All words of length <= depth, each degree built by prepending a letter
    to the words of the one below (first slot least significant)."""
    out, layer = [()], [()]
    for _ in range(depth):
        layer = [(i,) + w for w in layer for i in range(dim)]
        out.extend(layer)
    return out


def truncated_apply(op, v):
    """`apply` with creations past v.depth dropped: each leaf acts on a
    vector with room for one more slot, and the overflow is cut."""
    if op.kind == "sum":
        out = FockVector(v.space, v.depth)
        for sub in op.operands:
            out = out + truncated_apply(sub, v)
        return out
    if op.kind == "compose":
        for sub in reversed(op.operands):
            v = truncated_apply(sub, v)
        return v
    img = apply(op, FockVector(v.space, v.depth + 1, v.terms))
    return FockVector(v.space, v.depth,
                      {w: c for w, c in img.terms.items() if len(w) <= v.depth})


def compression_oracle(op, space, depth):
    """The compression of op to words of length <= depth, one basis word at
    a time in Q[q], evaluated at the ring's q0; rows and columns in C order
    (first slot most significant)."""
    words = words_up_to(space.dim, depth)
    index = {w: k for k, w in enumerate(words)}
    m = np.zeros((len(words), len(words)))
    for col, w in enumerate(words):
        img = truncated_apply(op, FockVector.basis_word(space, depth, w))
        for w2, c in img.terms.items():
            m[index[w2], col] = float(c.subs(space.ring.q0))
    order = sorted(range(len(words)), key=lambda k: (len(words[k]), words[k]))
    return m[np.ix_(order, order)]


def norm_oracle(m, gram, depth, q0):
    """||L^T M L^{-T}||_2 for the q-gram L L^T summed over S_n."""
    blocks = [pn_oracle(gram, n, q0) for n in range(depth + 1)]
    p = np.zeros(m.shape)
    offset = 0
    for b in blocks:
        p[offset:offset + len(b), offset:offset + len(b)] = b
        offset += len(b)
    chol = np.linalg.cholesky(p)
    return float(np.linalg.norm(chol.T @ m @ np.linalg.inv(chol.T), 2))


@st.composite
def compression_cases(draw):
    """A random operator tree over every node kind, on a random
    positive-definite rational gram G = B^T B + 1."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4))
    q0 = draw(st.sampled_from((Fraction(0), Fraction(3, 10), Fraction(-3, 10),
                               Fraction(7, 10))))
    ring = ScalarRing(q0)
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    b = [[draw(small) for _ in range(dim)] for _ in range(dim)]
    gram = [[sum(b[k][i] * b[k][j] for k in range(dim)) + (i == j)
             for j in range(dim)] for i in range(dim)]
    vector = st.lists(small, min_size=dim, max_size=dim)
    leaves = st.one_of(
        vector.map(FockOperator.creation),
        vector.map(FockOperator.annihilation),
        st.lists(vector, min_size=dim, max_size=dim).map(
            matrix_gauge),
        small.map(lambda c: FockOperator.scalar(const(c))))
    op = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda ops: FockOperator("sum", None, tuple(ops))),
        st.lists(kids, max_size=3).map(
            lambda ops: FockOperator("compose", None, tuple(ops)))), max_leaves=6))
    return OneParticleSpace(dim, gram, ring), gram, depth, float(q0), op


def test_dense_compression_of_every_kind_pair():
    # each product and sum of two leaf kinds, on degree-3 words with distinct
    # letters: a wrong slot move, q power or top-degree truncation shows here
    # whatever the random trees below happen to draw
    ring = ScalarRing(Fraction(3, 10))
    sp = OneParticleSpace(2, [[Fraction(2), Fraction(1)],
                              [Fraction(1), Fraction(3)]], ring)
    leaves = [FockOperator.creation([Fraction(1), Fraction(-2)]),
              FockOperator.annihilation([Fraction(2), Fraction(1)]),
              matrix_gauge([[Fraction(0), Fraction(1)],
                            [Fraction(2), Fraction(1)]]),
              FockOperator.scalar(const(Fraction(3, 2))),
              FockOperator.scalar(const(Fraction(-1, 3)))]
    for a in leaves:
        for b in leaves:
            op = a * b + b
            np.testing.assert_allclose(fock._compression(op, sp, 3),
                                       compression_oracle(op, sp, 3),
                                       rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(compression_cases())
def test_dense_compression_matches_per_word(case):
    space, gram, depth, q0, op = case
    want = compression_oracle(op, space, depth)
    got = fock._compression(op, space, depth)
    scale = max(1.0, float(np.abs(want).max(initial=0)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    assert operator_norm_estimate(op, space, depth) == pytest.approx(
        norm_oracle(want, gram, depth, q0), rel=1e-9, abs=1e-12 * scale)


def _annotated(module):
    """Every function, method, property getter and class defined in a
    module, with its qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif isinstance(obj, type):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", sorted(
    info.name for info in pkgutil.iter_modules(qfock.__path__)))
def test_type_hints_resolve(module_name):
    """Annotations are strings under `from __future__ import annotations`;
    each must name something its module imports."""
    module = importlib.import_module(f"qfock.{module_name}")
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            pytest.fail(f"{module_name}.{name}: {exc}")
