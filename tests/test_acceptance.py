"""End-to-end acceptance checks: one test (and one printed pass/fail line)
per headline guarantee of the package."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from qfock.cli import (all_ones_pointset, all_ones_model, gaussian_model,
                       rand_gram, rand_vector, shipped_experiments,
                       three_point_model, two_point_model, DEFAULT_SCHEDULE)
from qfock.fock import (FockOperator, FockVector, OneParticleSpace, apply,
                        innerq, operator_norm_estimate, sparse_vector)
from qfock.kspoly import NCPolynomial, ks_poly, ks_row_formula, q_charlier, q_hermite
from qfock.model import WeightedPointAlgebra, MomentSequence
from qfock.partitions import SetPartition, enumerate_partitions
from qfock.qscalar import ONE, QScalar, ScalarRing, const, q_fact_ratio, q_pow
from qfock.stochastic import (AdaptedProcess, BiProcess, biprocess_inner,
                              biprocess_integral, conditional_expectation,
                              delta_process, l2q_inner, multiple_integral,
                              power_decomposition, psi_closed, st_pi_closed,
                              st_pi_convergence, st_pi_corollary_form,
                              two_sided_closed, two_sided_defect_vector,
                              two_sided_discrete, x_process, yhat_process)
from qfock.wick import (WickElement, product_expansion, vacuum_vector,
                        vacuum_moment)
from stpi_forms import st_pi_free_form, st_pi_gaussian_form

F = Fraction


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_commutation_relation_exact():
    """a(zeta)a*(eta) - q a*(eta)a(zeta) = <zeta,eta> Id on random grams."""
    ok = True
    for seed in range(20):
        rng = random.Random(seed)
        dim = rng.randint(1, 3)
        sp = OneParticleSpace(dim, rand_gram(rng, dim))
        zeta = sparse_vector(rand_vector(rng, dim))
        eta = sparse_vector(rand_vector(rng, dim))
        lhs = (FockOperator.annihilation(zeta) * FockOperator.creation(eta)
               - FockOperator.compose([FockOperator.creation(eta),
                                       FockOperator.annihilation(zeta)])
               .scale(q_pow(1)))
        c = const(sp.pair_vec(zeta, eta))
        words = [()]
        for _ in range(4):
            words = [w + (i,) for w in words for i in range(dim)]
        for w in words:
            v = FockVector.basis_word(sp, 5, w)
            ok = ok and (apply(lhs, v) - v.scale(c)).is_zero
    report("commutation relation (20 seeds, dim <= 3, degree <= 4)", ok)


def test_product_expansion_matches_operator_product():
    """The extended-partition expansion of X(l_1)...X(l_n) on Omega."""
    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = vacuum_vector(model)
    ok = True
    for n in range(1, 6):
        rng = random.Random(100 + n)
        letters = [model.atom_letter(rng.randrange(2)).scale(
            F(rng.randint(1, 3), rng.randint(1, 3))) for _ in range(n)]
        direct = om
        for l in reversed(letters):
            direct = apply(l.field(), direct)
        expanded = apply(product_expansion(letters).operator(), om)
        ok = ok and (direct - expanded).is_zero
    report("product = extended-partition Wick expansion (n <= 5)", ok)


def test_moment_formula():
    """Vacuum moments as partition sums weighted by q^rc, plus pinned values."""
    model = three_point_model(n_atoms=2, cutoff=6, depth=6)
    om = vacuum_vector(model)
    ok = True
    for n in range(1, 7):
        rng = random.Random(200 + n)
        letters = [model.atom_letter(rng.randrange(2)) for _ in range(n)]
        direct = om
        for l in reversed(letters):
            direct = apply(l.field(), direct)
        ok = ok and vacuum_moment(letters) == direct.vacuum_coefficient()

    gm = gaussian_model(n_atoms=1, cutoff=4, depth=5)
    m4 = vacuum_moment([gm.atom_letter(0)] * 4)
    ok = ok and m4 == QScalar.parse("2 + q")

    ones = vacuum_moment([all_ones_pointset().one()] * 4)
    ok = ok and ones == QScalar.parse("14 + q")
    ok = ok and ones.subs(1) == 15 and ones.subs(0) == 14
    report("moment formula (n <= 6; 2+q, 14+q, Bell/Catalan pins)", ok)


def test_multiple_integral_isometry_and_chaos_orthogonality():
    model = three_point_model(n_atoms=4, cutoff=3, depth=6)
    om = vacuum_vector(model)
    ok = True
    for arity in (1, 2, 3):
        procs = [x_process(model)] * arity
        tuples = [t for t in permutations(range(4), arity)]
        vecs = {}
        for t in tuples:
            f = FockVector(model.grid.space, arity, {t: ONE})
            vecs[t] = apply(multiple_integral(f, procs).operator(), om)
        for t1 in tuples:
            f1 = FockVector(model.grid.space, arity, {t1: ONE})
            for t2 in tuples:
                f2 = FockVector(model.grid.space, arity, {t2: ONE})
                ok = ok and innerq(vecs[t1], vecs[t2]) == l2q_inner(f1, f2)

    # chaoses for different polynomial multi-indices are orthogonal
    multis = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (3, 1)]
    comp = {}
    for u in multis:
        f = FockVector(model.grid.space, len(u), {tuple(range(len(u))): ONE})
        comp[u] = multiple_integral(f, [yhat_process(model, k) for k in u]).vector()
    for u in multis:
        for v in multis:
            if sorted(u) != sorted(v):
                ok = ok and innerq(comp[u], comp[v]).is_zero
    report("multiple-integral isometry and chaos orthogonality", ok)


def test_stochastic_measure_closed_forms():
    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = vacuum_vector(model)
    ok = True
    for n in range(1, 6):
        ok = ok and power_decomposition(n, 1, model).is_zero

    gm = gaussian_model(n_atoms=2, cutoff=4, depth=6)
    gom = vacuum_vector(gm)
    for pi in enumerate_partitions(4):
        diff = (apply(st_pi_closed(pi, 1, gm).operator(), gom)
                - apply(st_pi_gaussian_form(pi, 1, gm).operator(), gom))
        ok = ok and innerq(diff, diff).is_zero

    for pi in enumerate_partitions(4):
        diff = (apply(st_pi_closed(pi, 1, model).operator(), om)
                - apply(st_pi_free_form(pi, 1, model).operator(), om))
        ok = ok and all(c.subs(0) == 0 for c in diff.terms.values())

    for blocks in ([[1, 5], [2], [3], [4]], [[1, 2, 5], [3], [4]],
                   [[1, 2, 3, 4, 5]]):
        pi = SetPartition.of(blocks)
        diff = (apply(st_pi_closed(pi, 1, model).operator(), om)
                - apply(st_pi_corollary_form(pi, 1, model).operator(), om))
        ok = ok and diff.is_zero
    report("St_pi closed forms, specializations, corollary (n <= 5)", ok)


def test_stochastic_measure_refinement_slopes():
    ok = True
    details = []
    for label, pi, factory, _q in shipped_experiments():
        table = st_pi_convergence(pi, 1, factory, DEFAULT_SCHEDULE, label)
        s = table.slope()
        details.append(f"{label}={s:.3f}")
        ok = ok and s >= 0.9
    report("refinement slopes >= 0.9 (" + ", ".join(details) + ")", ok)


def test_orthogonalization_polynomials():
    moments = MomentSequence([0] + [F(k, k + 1) for k in range(1, 12)])
    ok = True
    for j in (1, 2, 3):
        for n in range(1, 6):
            ok = ok and (ks_poly((j,) + (1,) * n, moments)
                         - ks_row_formula(j, n, moments)).is_zero

    h3 = NCPolynomial({(1, 1, 1): ONE,
                       (1,): -QScalar.parse("2 + q")})
    c2 = NCPolynomial({(1, 1): ONE,
                       (1,): const(-1), (): const(-1)})
    ok = ok and (q_hermite(3) - h3).is_zero and (q_charlier(2) - c2).is_zero

    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = vacuum_vector(model)
    for n in range(1, 5):
        lhs = apply(psi_closed([x_process(model)] * (n + 1), 1).operator(), om)
        rhs = FockVector(model.space, model.fock_depth)
        for k in range(n + 1):
            coeff = q_fact_ratio(n, k)
            if k % 2:
                coeff = -coeff
            psi = (apply(psi_closed([x_process(model)] * (n - k), 1).operator(), om)
                   if n - k else om)
            delta = delta_process(model, k + 1).operator((F(0), F(1)))
            rhs = rhs + apply(delta, psi).scale(coeff)
        ok = ok and (lhs - rhs).is_zero
    report("iterated-integral polynomials: row formula, H3/C2, chain", ok)


def test_ito_calculus():
    model = two_point_model(n_atoms=4, cutoff=2, depth=6)
    om = vacuum_vector(model)
    ok = True
    half, threeq = F(1, 2), F(3, 4)

    u_val = WickElement.from_word(model, (model.atom_letter(0),))
    v_val = (WickElement.from_word(model, (model.atom_letter(0),
                                           model.atom_letter(1)))
             + WickElement.one(model).scale(const(2)))
    w_val = WickElement.from_word(
        model, (model.atom_letter(0), model.atom_letter(1),
                model.atom_letter(0)))
    u = AdaptedProcess(model, [((half, threeq), u_val), ((threeq, 1), v_val)])
    v = AdaptedProcess(model, [((half, threeq), v_val), ((threeq, 1), u_val)])
    for side in ("left", "right"):
        bu, bv = u.bi(side), v.bi(side)
        lhs = innerq(apply(biprocess_integral(bu), om),
                     apply(biprocess_integral(bv), om))
        ok = ok and lhs == biprocess_inner(bu, bv)

    x_st = model.interval_letter((half, threeq)).field()
    for z in (u_val, v_val, w_val):
        sandwich = FockOperator.compose([x_st, z.operator(), x_st])
        lhs_el = conditional_expectation(
            WickElement.from_vector(model, apply(sandwich, om)), half)
        rhs_el = z.gamma().scale(const((threeq - half) * model.moments.r_at(2)))
        ok = ok and (lhs_el.vector() - rhs_el.vector()).is_zero

    adapted = AdaptedProcess(model, [((half, 1), u_val)])
    disc = apply(two_sided_discrete(adapted), om)
    closed = apply(two_sided_closed(adapted), om)
    ok = ok and (disc - closed - two_sided_defect_vector(adapted)).is_zero

    gm = gaussian_model(n_atoms=4, cutoff=4, depth=6)
    gom = vacuum_vector(gm)
    gu = WickElement.from_word(gm, (gm.atom_letter(0),))
    gv = (WickElement.from_word(gm, (gm.atom_letter(0), gm.atom_letter(1)))
          + WickElement.one(gm).scale(const(2)))
    bi_u = BiProcess(gm, [((half, threeq), [(gu, gv)])])
    bi_v = BiProcess(gm, [((half, threeq), [(gv, gu)])])
    for a, b in ((bi_u, bi_u), (bi_u, bi_v), (bi_v, bi_v)):
        lhs = innerq(apply(biprocess_integral(a), gom),
                     apply(biprocess_integral(b), gom))
        ok = ok and lhs == biprocess_inner(a, b)
    report("Ito isometry, conditional sandwich, two-sided and bi-process", ok)


def test_traciality_dichotomy():
    from qfock.stochastic import traciality_witness
    ok = True
    for k, make in ((1, all_ones_model), (2, all_ones_model),
                    (1, gaussian_model)):
        model = make(n_atoms=2, cutoff=k + 5, depth=6)
        i, j = (F(0), F(1, 2)), (F(1, 2), F(1))
        first, second = traciality_witness(model, i, j, k)
        r2 = model.moments.r_at(2)
        r2k = model.moments.r_at(2 + k)
        area = F(1, 4)
        ok = ok and first == q_pow(2) * const(r2 * r2k * area)
        ok = ok and second == q_pow(1) * const(r2 * r2k * area)
        ok = ok and (first - second).is_zero == (r2k == 0)
    report("traciality witness pair and dichotomy", ok)


@pytest.mark.parametrize("q0", [F(0), F(3, 10), F(7, 10)])
def test_norm_bounds(q0):
    ring = ScalarRing(q0)
    q = float(q0)
    ok = True
    rng = random.Random(int(q0 * 10))
    alg = WeightedPointAlgebra([-1, 1], [F(1, 2), F(1, 2)], ring, fock_depth=6)
    for _ in range(10):
        f = alg.letter([F(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in alg.points])
        if f.is_zero:
            continue
        sup = float(alg.sup_norm(f))
        gauge = f.gauge()
        gnorm = operator_norm_estimate(FockOperator.gauge(gauge), alg.space, 6)
        ok = ok and gnorm <= max(1.0, 1.0 / (1.0 - q)) * sup + 1e-9
        xnorm = operator_norm_estimate(f.field(), alg.space, 6)
        ok = ok and xnorm <= (1.0 + (1.0 - q) ** -0.5) ** 2 * sup + 1e-9
    report(f"norm bounds for gauge and field operators at q={q}", ok)
