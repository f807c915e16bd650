"""The exact identity suites of `qfock verify`, the refinement experiments
of `qfock converge`, and the canonical models and random draws they use.

Each suite takes a `random.Random` and returns its rows.  Only
`commutation`, `product_wick` and `moments` draw their inputs from it, so
`verify --seed` reaches only those three; the other five check fixed inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

# the functions perfbench times are called through their modules, whose
# attributes its tracer rebinds; a name imported here would escape it
from . import fock, kspoly, stochastic, wick
from .fock import FockOperator, FockVector, OneParticleSpace, sparse_vector
from .kspoly import NCPolynomial, q_charlier, q_hermite
from .model import MomentSequence, ProcessModel, TimeGrid, WeightedPointAlgebra
from .partitions import SetPartition
from .qscalar import EXACT, ONE, QScalar, ScalarRing, const, q_fact_ratio, q_pow
from .stochastic import (AdaptedProcess, BiProcess, biprocess_inner,
                         biprocess_integral, conditional_expectation,
                         delta_process, multiple_integral, power_decomposition,
                         psi_closed, st_pi_corollary_form, step_rectangle,
                         traciality_witness, two_sided_closed,
                         two_sided_defect_vector, two_sided_discrete,
                         x_process, yhat_process)
from .wick import WickElement, vacuum_expectation, vacuum_vector


# ---------------------------------------------------------------------------
# canonical models


# the canonical Levy measures nu, as (x, weight) atoms
GAUSSIAN = ((0, 1),)  # delta_0: r_2 = 1, higher moments 0 (q-Brownian)
ALL_ONES = ((1, 1),)  # delta_1: every r_k, k >= 2, is 1 (q-Poisson-like)
# (delta_{-1} + delta_1)/2: r_2 = 1, odd moments 0, nonsingular per-atom
# gram at cutoff 2
TWO_POINT = ((-1, Fraction(1, 2)), (1, Fraction(1, 2)))
# delta_{-1}/4 + delta_0/2 + delta_1/4: orthogonal polynomials exist through
# degree 2 with nonzero norms
THREE_POINT = ((-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4)))


def grid_model(nu: Sequence[tuple], n_atoms: int, cutoff: int, depth: int,
               ring: ScalarRing = EXACT) -> ProcessModel:
    """The grid model of the measure nu on n_atoms equal atoms of [0, 1),
    its moments read through r_{2 cutoff + 2}, so that it closes when nu
    has at most cutoff support points."""
    return ProcessModel(ring, MomentSequence.from_measure(nu, 2 * cutoff + 2),
                        TimeGrid.uniform(1, n_atoms), cutoff, depth)


def gaussian_model(n_atoms: int = 2, cutoff: int = 4, depth: int = 6) -> ProcessModel:
    return grid_model(GAUSSIAN, n_atoms, cutoff, depth)


def all_ones_model(n_atoms: int = 2, cutoff: int = 5, depth: int = 6) -> ProcessModel:
    return grid_model(ALL_ONES, n_atoms, cutoff, depth)


def two_point_model(n_atoms: int = 2, cutoff: int = 2, depth: int = 6) -> ProcessModel:
    return grid_model(TWO_POINT, n_atoms, cutoff, depth)


def three_point_model(n_atoms: int = 2, cutoff: int = 3, depth: int = 6) -> ProcessModel:
    return grid_model(THREE_POINT, n_atoms, cutoff, depth)


def all_ones_pointset() -> WeightedPointAlgebra:
    return WeightedPointAlgebra([1], [1], EXACT)


# ---------------------------------------------------------------------------
# random draws (small integers, deterministic per seed)


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_vector(rng: random.Random, dim: int) -> list[Fraction]:
    return [rand_fraction(rng) for _ in range(dim)]


# the coefficients a commutation row draws for its basis words, none zero
NONZERO = tuple(const(c) for c in (-3, -2, -1, 1, 2, 3))


def rand_gram(rng: random.Random, dim: int) -> list[list[Fraction]]:
    g = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            g[i][j] = g[j][i] = rand_fraction(rng)
    return g


def rand_letter(model: ProcessModel, rng: random.Random, max_power: int = 1):
    entries = {}
    for _ in range(rng.randint(1, 2)):
        a = rng.randrange(model.grid.n_atoms)
        k = rng.randint(1, max_power)
        entries[(a, k)] = rand_fraction(rng)
    return model.letter(entries)


# ---------------------------------------------------------------------------
# identity rows and suites


@dataclass
class IdentityRow:
    identity: str
    params: str
    ok: bool
    residual: str = "0"


def _vector_row(name: str, params: str, diff: FockVector) -> IdentityRow:
    if diff.is_zero:
        return IdentityRow(name, params, True)
    return IdentityRow(name, params, False, diff.serialize().replace("\n", "; "))


def _scalar_row(name: str, params: str, diff: QScalar | NCPolynomial) -> IdentityRow:
    """A row of a scalar or polynomial residual, which prints 0 when zero."""
    return IdentityRow(name, params, diff.is_zero, str(diff))


def commutation_relation(sub: random.Random, dim: int, q: QScalar
                         ) -> tuple[OneParticleSpace, FockOperator, FockOperator]:
    """A random gram on dim basis vectors and the two sides of
    a(zeta) a*(eta) - q a*(eta) a(zeta) = <zeta, eta> Id, zeta and eta random.

    So that the q term cannot vanish, a zero gram is redrawn, then zeta while
    its pairing row is empty, and eta while it is zero."""
    gram = rand_gram(sub, dim)
    while not any(any(row) for row in gram):
        gram = rand_gram(sub, dim)
    space = OneParticleSpace(dim, gram)
    zeta = sparse_vector(rand_vector(sub, dim))
    while not space.pair_ints(zeta)[1]:
        zeta = sparse_vector(rand_vector(sub, dim))
    eta = sparse_vector(rand_vector(sub, dim))
    while not eta:
        eta = sparse_vector(rand_vector(sub, dim))
    lhs = (FockOperator.annihilation(zeta) * FockOperator.creation(eta)
           - FockOperator.compose([FockOperator.creation(eta),
                                   FockOperator.annihilation(zeta)]).scale(q))
    rhs = FockOperator.scalar(const(space.pair_vec(zeta, eta)))
    return space, lhs, rhs


def commutation_residual(sub: random.Random, space: OneParticleSpace,
                         lhs: FockOperator, rhs: FockOperator) -> FockVector:
    """lhs - rhs on a vector with a coefficient drawn from NONZERO by sub
    on every basis word of length 1-4, in a depth-5 space."""
    words = [()]
    terms = {}
    for _ in range(4):
        words = [w + (i,) for w in words for i in range(space.dim)]
        terms.update((w, sub.choice(NONZERO)) for w in words)
    return fock.apply(lhs - rhs, FockVector(space, 5, terms))


def suite_commutation(rng: random.Random) -> list[IdentityRow]:
    """a(zeta) a*(eta) - q a*(eta) a(zeta) = <zeta, eta> Id on basis words."""
    rows = []
    for seed in range(20):
        sub = random.Random(rng.randrange(2 ** 32) + seed)
        dim = 1 + seed % 3
        diff = commutation_residual(sub, *commutation_relation(sub, dim, q_pow(1)))
        rows.append(_vector_row("commutation", f"seed={seed},dim={dim}", diff))
    return rows


def suite_product_wick(rng: random.Random) -> list[IdentityRow]:
    """product_expansion applied to Omega equals direct operator application."""
    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = vacuum_vector(model)
    rows = []
    for n in range(1, 6):
        letters = [rand_letter(model, rng) for _ in range(n)]
        direct = om
        for letter in reversed(letters):
            direct = fock.apply(letter.field(), direct)
        expanded = fock.apply(wick.product_expansion(letters).operator(), om)
        rows.append(_vector_row("product_wick", f"n={n}", direct - expanded))
    return rows


def suite_moments(rng: random.Random) -> list[IdentityRow]:
    """Partition sum with q^rc versus direct vacuum expectation; fixed
    values for the q-Gaussian and all-ones point-set models."""
    model = three_point_model(n_atoms=2, cutoff=6, depth=7)
    rows = []
    for n in range(1, 7):
        letters = [rand_letter(model, rng) for _ in range(n)]
        direct = vacuum_expectation(
            model, FockOperator.compose([l.field() for l in letters])
            if n > 1 else letters[0].field())
        rows.append(_scalar_row("moment_formula", f"n={n}",
                                wick.vacuum_moment(letters) - direct))

    gm = gaussian_model(n_atoms=1, cutoff=3, depth=5)
    x = gm.prefix_letter(1)
    rows.append(_scalar_row("moment_gaussian_n4", "2+q",
                            wick.vacuum_moment([x] * 4) - QScalar.parse("2 + q")))
    ap = all_ones_pointset()
    one = ap.one()
    rows.append(_scalar_row("moment_pointset_n4", "14+q",
                            wick.vacuum_moment([one] * 4) - QScalar.parse("14 + q")))
    return rows


def suite_isometry(rng: random.Random) -> list[IdentityRow]:
    """Multiple-integral isometry and chaos orthogonality."""
    model = three_point_model(n_atoms=4, cutoff=3, depth=6)
    xs = [x_process(model)] * 3
    rows = []
    # isometry on a few off-diagonal rectangles, arity 2 and 3
    fs = [step_rectangle(model, [(0, Fraction(1, 4)),
                                 (Fraction(1, 4), Fraction(1, 2))]),
          step_rectangle(model, [(0, Fraction(1, 2)),
                                 (Fraction(1, 2), 1)]).scale(const(2))]
    om = vacuum_vector(model)
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            lhs = fock.innerq(fock.apply(multiple_integral(f, xs[:2]).operator(), om),
                              fock.apply(multiple_integral(g, xs[:2]).operator(), om))
            rows.append(_scalar_row("integral_isometry", f"arity=2,f={i},g={j}",
                                    lhs - stochastic.l2q_inner(f, g)))
    f3 = step_rectangle(model, [(0, Fraction(1, 4)),
                                (Fraction(1, 4), Fraction(1, 2)),
                                (Fraction(1, 2), Fraction(3, 4))])
    v3 = fock.apply(multiple_integral(f3, xs).operator(), om)
    lhs = fock.innerq(v3, v3)
    rows.append(_scalar_row("integral_isometry", "arity=3",
                            lhs - stochastic.l2q_inner(f3, f3)))

    # chaos orthogonality for distinct multisets of polynomial degrees
    procs = {k: yhat_process(model, k) for k in (1, 2, 3)}
    f2 = step_rectangle(model, [(0, Fraction(1, 4)),
                                (Fraction(1, 4), Fraction(1, 2))])
    multis = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2)]
    vecs = {}
    f1 = step_rectangle(model, [(0, Fraction(1, 4))])
    for u in multis:
        fu = f1 if len(u) == 1 else f2
        vecs[u] = fock.apply(multiple_integral(fu, [procs[k] for k in u]).operator(), om)
    for u in multis:
        for v in multis:
            if sorted(u) != sorted(v):
                rows.append(_scalar_row("chaos_orthogonality", f"u={u},v={v}",
                                        fock.innerq(vecs[u], vecs[v])))
    return rows


def suite_stpi(rng: random.Random) -> list[IdentityRow]:
    """X(t)^n = sum over partitions of St_pi(t) on Omega; corollary form."""
    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    rows = []
    for n in range(1, 6):
        rows.append(_vector_row("power_decomposition", f"n={n}",
                                power_decomposition(n, 1, model)))
    om = vacuum_vector(model)
    for blocks in ([[1, 4], [2], [3]], [[1, 2, 4], [3]], [[1, 2, 3, 4]]):
        pi = SetPartition.of(blocks)
        diff = (fock.apply(stochastic.st_pi_closed(pi, 1, model).operator(), om)
                - fock.apply(st_pi_corollary_form(pi, 1, model).operator(), om))
        rows.append(_vector_row("stpi_corollary", f"pi={pi}", diff))
    return rows


def suite_ks(rng: random.Random) -> list[IdentityRow]:
    """Row formula vs recursion; q-Hermite/q-Charlier values; the operator
    chain for psi_{n+1} on Omega."""
    moments = MomentSequence([0] + [Fraction(k, k + 1) for k in range(1, 10)])
    rows = []
    for j in range(1, 4):
        for n in range(1, 6):
            rows.append(_scalar_row("ks_row_formula", f"j={j},n={n}",
                                    kspoly.ks_poly((j,) + (1,) * n, moments)
                                    - kspoly.ks_row_formula(j, n, moments)))
    h3_target = NCPolynomial({(1, 1, 1): ONE,
                              (1,): -QScalar.parse("2 + q")})
    rows.append(_scalar_row("q_hermite_3", "x^3-(2+q)x", q_hermite(3) - h3_target))
    c2_target = NCPolynomial({(1, 1): ONE, (1,): const(-1), (): const(-1)})
    rows.append(_scalar_row("q_charlier_2", "x^2-x-1", q_charlier(2) - c2_target))

    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = vacuum_vector(model)
    for n in range(1, 5):
        lhs = fock.apply(psi_closed([x_process(model)] * (n + 1), 1).operator(), om)
        rhs = FockVector(model.space, model.fock_depth)
        for k in range(n + 1):
            coeff = q_fact_ratio(n, k)
            if k % 2:
                coeff = -coeff
            psi = (fock.apply(psi_closed([x_process(model)] * (n - k), 1).operator(), om)
                   if n - k else om)
            delta = delta_process(model, k + 1).operator((Fraction(0), Fraction(1)))
            rhs = rhs + fock.apply(delta, psi).scale(coeff)
        rows.append(_vector_row("psi_chain", f"n={n}", lhs - rhs))
    return rows


def suite_calculus(rng: random.Random) -> list[IdentityRow]:
    """Itô isometry, the conditional-expectation lemma, the two-sided
    integral closed form, and the bi-process isometry."""
    model = two_point_model(n_atoms=4, cutoff=2, depth=6)
    om = vacuum_vector(model)
    rows = []
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    u_val = WickElement.from_word(model, (model.atom_letter(0),))
    v_val = (WickElement.from_word(model, (model.atom_letter(0),
                                           model.atom_letter(1)))
             + WickElement.one(model).scale(const(2)))
    u = AdaptedProcess(model, [((half, Fraction(3, 4)), u_val),
                               ((Fraction(3, 4), 1), v_val)])
    v = AdaptedProcess(model, [((half, Fraction(3, 4)), v_val),
                               ((Fraction(3, 4), 1), u_val)])
    for side in ("left", "right"):
        bu, bv = u.bi(side), v.bi(side)
        lhs = fock.innerq(fock.apply(biprocess_integral(bu), om),
                          fock.apply(biprocess_integral(bv), om))
        rows.append(_scalar_row("ito_isometry", f"side={side}",
                                lhs - biprocess_inner(bu, bv)))

    # E_s[X([s,t)) Z X([s,t))] = (t-s) r_2 Gamma_q(q)(Z)
    s, t = half, Fraction(3, 4)
    x_st = model.interval_letter((s, t)).field()
    for z in (u_val, v_val):
        sandwich = FockOperator.compose([x_st, z.operator(), x_st])
        lhs_el = conditional_expectation(
            WickElement.from_vector(model, fock.apply(sandwich, om)), s)
        rhs_el = z.gamma().scale(const((t - s) * model.moments.r_at(2)))
        rows.append(_vector_row("conditional_sandwich", f"z_deg={z.top_degree()}",
                                lhs_el.vector() - rhs_el.vector()))

    adapted = AdaptedProcess(model, [((half, 1), u_val)])
    disc = fock.apply(two_sided_discrete(adapted), om)
    closed = fock.apply(two_sided_closed(adapted), om)
    rows.append(_vector_row("two_sided_defect", "elementary",
                            disc - closed - two_sided_defect_vector(adapted)))

    # a general bi-process isometry is exact in the Gaussian specialization,
    # where letter products are null vectors, and else only in the
    # refinement limit; U⊗1 and 1⊗U, above, are exact on every model
    m4 = gaussian_model(n_atoms=4, cutoff=4, depth=6)
    om = vacuum_vector(m4)
    u_val = WickElement.from_word(m4, (m4.atom_letter(0),))
    v_val = (WickElement.from_word(m4, (m4.atom_letter(0), m4.atom_letter(1)))
             + WickElement.one(m4).scale(const(2)))
    bi_u = BiProcess(m4, [((half, Fraction(3, 4)), [(u_val, v_val)])])
    bi_v = BiProcess(m4, [((half, Fraction(3, 4)), [(v_val, u_val)])])
    for a, b, tag in ((bi_u, bi_u, "uu"), (bi_u, bi_v, "uv"), (bi_v, bi_v, "vv")):
        lhs = fock.innerq(fock.apply(biprocess_integral(a), om),
                          fock.apply(biprocess_integral(b), om))
        rows.append(_scalar_row("biprocess_isometry", tag,
                                lhs - biprocess_inner(a, b)))
    return rows


def suite_traciality(rng: random.Random) -> list[IdentityRow]:
    """The 5-factor moment pair versus its closed forms."""
    rows = []
    for k, make in ((1, all_ones_model), (2, all_ones_model), (1, gaussian_model)):
        model = make(n_atoms=2, cutoff=k + 5, depth=6)
        i, j = (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))
        first, second = traciality_witness(model, i, j, k)
        r2 = model.moments.r_at(2)
        r2k = model.moments.r_at(2 + k)
        area = Fraction(1, 4)
        expect1 = q_pow(2) * const(r2 * r2k * area)
        expect2 = q_pow(1) * const(r2 * r2k * area)
        tag = f"k={k},r{2+k}={r2k}"
        rows.append(_scalar_row("traciality_first", tag, first - expect1))
        rows.append(_scalar_row("traciality_second", tag, second - expect2))
        diff_zero = (first - second).is_zero
        rows.append(IdentityRow("traciality_dichotomy", tag,
                                diff_zero == (r2k == 0)))
    return rows


SUITES: dict[str, Callable[[random.Random], list[IdentityRow]]] = {
    "commutation": suite_commutation,
    "product_wick": suite_product_wick,
    "moments": suite_moments,
    "isometry": suite_isometry,
    "stpi": suite_stpi,
    "ks": suite_ks,
    "calculus": suite_calculus,
    "traciality": suite_traciality,
}


# ---------------------------------------------------------------------------
# convergence experiments


def shipped_experiments() -> list[tuple[str, SetPartition, Callable[[int], ProcessModel], Fraction]]:
    """(label, pi, model factory, q) for the refinement experiments."""
    pair = SetPartition.of([[1, 2]])
    split = SetPartition.of([[1], [2]])
    triple = SetPartition.of([[1, 2, 3]])
    mixed = SetPartition.of([[1, 2], [3]])
    runs = [("pair_free", pair, ALL_ONES, 2, Fraction(0)),
            ("pair_q_half", pair, TWO_POINT, 2, Fraction(1, 2)),
            ("split_q_half", split, TWO_POINT, 2, Fraction(1, 2)),
            ("triple_ones", triple, ALL_ONES, 3, Fraction(1, 2)),
            ("mixed_ones", mixed, ALL_ONES, 3, Fraction(1, 3))]
    return [(label, pi, partial(grid_model, nu, cutoff=cutoff, depth=6,
                                ring=ScalarRing(q)), q)
            for label, pi, nu, cutoff, q in runs]


DEFAULT_SCHEDULE = (4, 8, 16, 32, 64)
