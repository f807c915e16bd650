"""Batch runner: exact identity suites, convergence tables, moment reports.

Exit status is 0 iff every exact residual is the zero polynomial; usage and
budget problems exit 2 before any work starts.  Reports are plain CSV on
stdout, mirrored into --out when given.  A model file names the process
only; q, the point moments are read at, is a run key like nmax.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import QFockError, UsageError, check_size
from .fock import (FockOperator, FockVector, OneParticleSpace, apply, innerq,
                   sparse_vector)
from .kspoly import NCPolynomial, ks_poly, ks_row_formula, q_charlier, q_hermite
from .model import MomentSequence, ProcessModel, TimeGrid, WeightedPointAlgebra
from .partitions import SetPartition
from .qscalar import EXACT, ONE, QScalar, ScalarRing, const, q_fact_ratio, q_pow
from .stochastic import (AdaptedProcess, BiProcess, biprocess_inner,
                         biprocess_integral, conditional_expectation,
                         delta_process, l2q_inner, multiple_integral,
                         power_decomposition, psi_closed, st_pi_closed,
                         st_pi_convergence, st_pi_corollary_form,
                         step_rectangle, traciality_witness, two_sided_closed,
                         two_sided_defect_vector, two_sided_discrete,
                         x_process, yhat_process)
from .wick import (WickElement, product_expansion, suffix_moments,
                   vacuum_expectation, vacuum_vector, vacuum_moment)


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
    return apply(lhs - rhs, FockVector(space, 5, terms))


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
            direct = apply(letter.field(), direct)
        expanded = apply(product_expansion(letters).operator(), om)
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
                                vacuum_moment(letters) - direct))

    gm = gaussian_model(n_atoms=1, cutoff=3, depth=5)
    x = gm.prefix_letter(1)
    rows.append(_scalar_row("moment_gaussian_n4", "2+q",
                            vacuum_moment([x] * 4) - QScalar.parse("2 + q")))
    ap = all_ones_pointset()
    one = ap.one()
    rows.append(_scalar_row("moment_pointset_n4", "14+q",
                            vacuum_moment([one] * 4) - QScalar.parse("14 + q")))
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
            lhs = innerq(apply(multiple_integral(f, xs[:2]).operator(), om),
                         apply(multiple_integral(g, xs[:2]).operator(), om))
            rows.append(_scalar_row("integral_isometry", f"arity=2,f={i},g={j}",
                                    lhs - l2q_inner(f, g)))
    f3 = step_rectangle(model, [(0, Fraction(1, 4)),
                                (Fraction(1, 4), Fraction(1, 2)),
                                (Fraction(1, 2), Fraction(3, 4))])
    v3 = apply(multiple_integral(f3, xs).operator(), om)
    lhs = innerq(v3, v3)
    rows.append(_scalar_row("integral_isometry", "arity=3",
                            lhs - l2q_inner(f3, f3)))

    # chaos orthogonality for distinct multisets of polynomial degrees
    procs = {k: yhat_process(model, k) for k in (1, 2, 3)}
    f2 = step_rectangle(model, [(0, Fraction(1, 4)),
                                (Fraction(1, 4), Fraction(1, 2))])
    multis = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2)]
    vecs = {}
    f1 = step_rectangle(model, [(0, Fraction(1, 4))])
    for u in multis:
        fu = f1 if len(u) == 1 else f2
        vecs[u] = apply(multiple_integral(fu, [procs[k] for k in u]).operator(), om)
    for u in multis:
        for v in multis:
            if sorted(u) != sorted(v):
                rows.append(_scalar_row("chaos_orthogonality", f"u={u},v={v}",
                                        innerq(vecs[u], vecs[v])))
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
        diff = (apply(st_pi_closed(pi, 1, model).operator(), om)
                - apply(st_pi_corollary_form(pi, 1, model).operator(), om))
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
                                    ks_poly((j,) + (1,) * n, moments)
                                    - ks_row_formula(j, n, moments)))
    h3_target = NCPolynomial({(1, 1, 1): ONE,
                              (1,): -QScalar.parse("2 + q")})
    rows.append(_scalar_row("q_hermite_3", "x^3-(2+q)x", q_hermite(3) - h3_target))
    c2_target = NCPolynomial({(1, 1): ONE, (1,): const(-1), (): const(-1)})
    rows.append(_scalar_row("q_charlier_2", "x^2-x-1", q_charlier(2) - c2_target))

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
            delta = delta_process(model, k + 1).operator((Fraction(0), Fraction(1)))
            rhs = rhs + apply(delta, psi).scale(coeff)
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
        lhs = innerq(apply(biprocess_integral(bu), om),
                     apply(biprocess_integral(bv), om))
        rows.append(_scalar_row("ito_isometry", f"side={side}",
                                lhs - biprocess_inner(bu, bv)))

    # E_s[X([s,t)) Z X([s,t))] = (t-s) r_2 Gamma_q(q)(Z)
    s, t = half, Fraction(3, 4)
    x_st = model.interval_letter((s, t)).field()
    for z in (u_val, v_val):
        sandwich = FockOperator.compose([x_st, z.operator(), x_st])
        lhs_el = conditional_expectation(
            WickElement.from_vector(model, apply(sandwich, om)), s)
        rhs_el = z.gamma().scale(const((t - s) * model.moments.r_at(2)))
        rows.append(_vector_row("conditional_sandwich", f"z_deg={z.top_degree()}",
                                lhs_el.vector() - rhs_el.vector()))

    adapted = AdaptedProcess(model, [((half, 1), u_val)])
    disc = apply(two_sided_discrete(adapted), om)
    closed = apply(two_sided_closed(adapted), om)
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
        lhs = innerq(apply(biprocess_integral(a), om),
                     apply(biprocess_integral(b), om))
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


# ---------------------------------------------------------------------------
# configuration: one key table for config files and flags

# a grid model keeps at most cutoff basis vectors per atom, so the largest
# these admit has 256 x 32 = 8,192; it builds in 0.35 s on a 2-vCPU Xeon.
# Its product table grows with nu instead: at cutoff 32, moments --nmax 4
# takes 0.4 s on nu = sum (p^2/32) delta_p, p = 1..32, and 40 s, the worst
# case measured, on 256 atoms (k/7, (k mod 5 + 1)/(k mod 3 + 2)), whose
# table ints reach 79,000 bits
MAX_DEGREE_CUTOFF = 32
MAX_GRID_ATOMS = 256
# moments to order 40, the Gaussian target; a point set has no letter cutoff
# to bound it, and on the one-point set the table to order 64 takes about
# 0.6 s in process on a 2-vCPU Xeon
MAX_NMAX = 40
# Fraction("1e10000000") builds 10^10000000 and takes seconds; 10^1000 is
# no larger than a 1000-digit literal, which int() admits anyway
MAX_DECIMAL_EXPONENT = 1000
# list lengths, counted by their commas before any rational is built: a
# model needs r_1..r_(2 cutoff), and a point set's letters hold a value per
# point (on a 2-vCPU Xeon, moments to --nmax 18, near the arc-state budget,
# take 0.5 s in process on 256 points and 1.3 s on 2,000)
MAX_MOMENTS = 2 * MAX_DEGREE_CUTOFF
MAX_NU_ATOMS = 256
MAX_POINTS = 256


def _rational(text: str) -> Fraction:
    """A config rational, its decimal exponent checked before Fraction
    builds the power of ten."""
    _, e, exponent = text.lower().partition("e")
    if e:
        check_size("decimal exponent", abs(int(exponent)), MAX_DECIMAL_EXPONENT)
    return Fraction(text)


def _fraction_list(text: str, what: str, limit: int) -> list[Fraction]:
    """A list of rationals, at most limit of them, counted by their commas
    before any is built."""
    body = text.strip().lstrip("[").rstrip("]").strip()
    if not body:
        return []
    check_size(what, body.count(",") + 1, limit)
    return [_rational(tok.strip()) for tok in body.split(",")]


def _pair_list(text: str) -> list[tuple[Fraction, Fraction]]:
    """`[(x, w), ...]`, at most MAX_NU_ATOMS pairs, counted by their commas
    before any rational is built; any other text is a ValueError."""
    body = text.strip()
    if body[:1] != "[" or body[-1:] != "]":
        raise ValueError("not a [...] list")
    body = body[1:-1]
    tokens = body.split(",") if body.strip() else []
    if len(tokens) % 2:
        raise ValueError("not a list of (x, w) pairs")
    check_size("nu.atoms", len(tokens) // 2, MAX_NU_ATOMS)
    out = []
    for x, w in zip(tokens[::2], tokens[1::2]):
        x, w = x.strip(), w.strip()
        if (x[:1] != "(" or w[-1:] != ")" or "(" in x[1:] + w
                or ")" in x + w[:-1]):
            raise ValueError(f"not an (x, w) pair: {x}, {w}")
        out.append((_rational(x[1:]), _rational(w[:-1])))
    return out


def _grid(text: str) -> TimeGrid:
    """uniform(T, N), or an explicit boundary list, whose commas count its
    atoms; the atom count is checked before any boundary is built."""
    if text.startswith("uniform"):
        body = text[len("uniform"):].strip().lstrip("(").rstrip(")")
        t_s, n_s = body.split(",")
        n = int(n_s.strip())
        check_size("grid atoms", n, MAX_GRID_ATOMS, least=1)
        return TimeGrid.uniform(_rational(t_s.strip()), n)
    check_size("grid atoms", text.count(","), MAX_GRID_ATOMS, least=1)
    return TimeGrid(_fraction_list(text, "grid boundaries", MAX_GRID_ATOMS + 1))


def _count(text: str, what: str, limit: int) -> int:
    n = int(text)
    check_size(what, n, limit, least=1)
    return n


def _q(text: str) -> Fraction | None:
    """A q value: None for exact, or a rational q0 in (-1, 1) to evaluate
    at, checked as a ScalarRing checks it: a q0 outside is a bad value."""
    q0 = None if text == "exact" else _rational(text)
    try:
        return ScalarRing(q0).q0
    except UsageError as exc:
        raise UsageError(f"bad config value q = {text!r}: {exc}") from exc


def _suites(text: str) -> tuple[str, ...]:
    suites = tuple(s.strip() for s in text.split(",") if s.strip())
    if not suites:
        raise UsageError(f"empty suite list {text!r} "
                         f"(available: {', '.join(SUITES)})")
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise UsageError(f"unknown suites: {sorted(unknown)} "
                         f"(available: {', '.join(SUITES)})")
    return suites


class Key(NamedTuple):
    """A config key: the converter of its text, the one command that reads
    it, and its flag if it has one, with the key's text for the flag's value
    and the flag's help.  A command's parser has --out, --model if it reads
    any key, and its keys' flags, and refuses any other flag, since verify
    runs fixed models and converge fixed experiments."""
    convert: Callable[[str], object]
    command: str
    flag: str | None = None
    template: str = "{}"
    help: str | None = None


# every config key, in checking order
KEYS: dict[str, Key] = {
    "q": Key(_q, "moments", "q", help="rational q0 to evaluate at, or 'exact'"),
    "degree_cutoff": Key(partial(_count, what="degree_cutoff",
                                 limit=MAX_DEGREE_CUTOFF),
                         "moments", "cutoff", help="letter degree cutoff"),
    "grid": Key(_grid, "moments", "grid", "uniform(1, {})",
                "uniform grid size over [0,1)"),
    "moments": Key(partial(_fraction_list, what="moments", limit=MAX_MOMENTS),
                   "moments"),
    "nu.atoms": Key(_pair_list, "moments"),
    "pointset.points": Key(partial(_fraction_list, what="pointset.points",
                                   limit=MAX_POINTS), "moments"),
    "pointset.weights": Key(partial(_fraction_list, what="pointset.weights",
                                    limit=MAX_POINTS), "moments"),
    "suite": Key(_suites, "verify", "suite", help="comma-separated suite names"),
    "seed": Key(int, "verify", "seed", help="random seed"),
    "nmax": Key(partial(_count, what="nmax", limit=MAX_NMAX), "moments", "nmax",
                help="maximum product/moment length"),
}


def parse_config(text: str, overrides: dict[str, str] | None = None) -> dict:
    """The "key = value" lines of a config file (`#` starts a comment), each
    override replacing its key, converted through KEYS.  A key outside KEYS,
    a key given twice in the file, or a malformed value is a usage error
    naming the key."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise UsageError(f"malformed config line: {raw!r}")
            if key not in KEYS:
                raise UsageError(f"unknown config key {key!r} "
                                 f"(known: {', '.join(KEYS)})")
            if key in entries:
                raise UsageError(f"config key {key} given twice")
            entries[key] = value.strip()
    entries.update(overrides or {})
    values = {}
    for key, spec in KEYS.items():
        if key in entries:
            try:
                values[key] = spec.convert(entries[key])
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(
                    f"bad config value {key} = {entries[key]!r}") from exc
    return values


def build_model(values: dict) -> ProcessModel | WeightedPointAlgebra:
    """The process that converted model keys (see parse_config) name, as an
    exact algebra at the default Fock depth; q is a run key.

    pointset.points selects the weighted point set, with pointset.weights.
    Otherwise the grid model: grid and degree_cutoff, and nu.atoms or
    moments; when both are given they are validated against each other, and
    the model checks that the moments are a measure's.
    """
    if "pointset.points" in values:
        return WeightedPointAlgebra(values["pointset.points"],
                                    values.get("pointset.weights", []), EXACT)
    missing = {"grid", "degree_cutoff"} - set(values)
    if missing:
        raise UsageError(f"config missing keys: {sorted(missing)}")
    degree_cutoff = values["degree_cutoff"]

    moments = None
    if "moments" in values:
        moments = MomentSequence(values["moments"])
    if "nu.atoms" in values:
        derived = MomentSequence.from_measure(
            values["nu.atoms"], moments.K if moments else 2 * degree_cutoff + 2)
        if moments is not None and moments.r != derived.r:
            raise UsageError("moments and nu.atoms disagree")
        moments = derived
    elif moments is None:
        raise UsageError("config needs nu.atoms or moments")

    return ProcessModel(EXACT, moments, values["grid"], degree_cutoff)


DEFAULT_MODEL_TEXT = """\
nu.atoms = [(-1, 1/4), (0, 1/2), (1, 1/4)]
grid = uniform(1, 2)
degree_cutoff = 3
"""


@dataclass
class RunConfig:
    # the converted model keys (see parse_config), which only cmd_moments
    # builds into an algebra; the run keys are the fields of their names,
    # q among them: the point moments are read at, None for exact
    model: dict = field(default_factory=dict)
    out_dir: Path | None = None
    suite: tuple[str, ...] = tuple(SUITES)
    seed: int = 0
    nmax: int = 4
    q: Fraction | None = None


def build_config(args: argparse.Namespace) -> RunConfig:
    text = DEFAULT_MODEL_TEXT if args.command == "moments" else ""
    # a command's parser registers only the flags that command reads
    if getattr(args, "model", None):
        try:
            text = Path(args.model).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read model file: {exc}") from exc
    # flags win over file keys
    flags = {key: spec for key, spec in KEYS.items()
             if spec.flag and getattr(args, spec.flag, None) is not None}
    values = parse_config(text, {key: spec.template.format(getattr(args, spec.flag))
                                 for key, spec in flags.items()})
    # a flag sets only a key its command reads, so these are file keys
    reads = [key for key, spec in KEYS.items() if spec.command == args.command]
    unread = [key for key in values if key not in reads]
    if unread:
        raise UsageError(f"{args.command} does not read config keys "
                         f"{', '.join(unread)} (it reads {', '.join(reads)})")

    if "pointset.points" in values:
        # a point set has no grid, letter cutoff or canonical measure
        for key in ("grid", "degree_cutoff", "nu.atoms", "moments"):
            if key in values:
                source = f"--{flags[key].flag}" if key in flags else f"model key {key}"
                raise UsageError(f"{source} does not apply to a point-set model")
    run = {f.name: values.pop(f.name) for f in fields(RunConfig) if f.name in values}
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        # before any work, so an unusable --out costs none
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory: {exc}") from exc
    return RunConfig(values, out_dir, **run)


def _emit(lines: list[str], out_dir: Path | None, name: str) -> None:
    """The report on stdout, and into out_dir when given; the file is
    written first, so a report that cannot be written is not printed."""
    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        try:
            (out_dir / name).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from exc
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(config: RunConfig) -> int:
    rng = random.Random(config.seed)
    lines = ["identity,params,exact_zero,residual"]
    failed = []
    for name in config.suite:
        for row in SUITES[name](random.Random(rng.randrange(2 ** 32))):
            lines.append(f"{row.identity},{row.params},"
                         f"{'yes' if row.ok else 'no'},\"{row.residual}\"")
            if not row.ok:
                failed.append(row.identity)
    if failed:
        lines.append(f"# FAILED: {','.join(sorted(set(failed)))}")
    _emit(lines, config.out_dir, "verify.csv")
    return 1 if failed else 0


def cmd_converge(config: RunConfig) -> int:
    lines = ["experiment,N,delta,l2_error"]
    slopes = []
    for label, pi, factory, _q in shipped_experiments():
        table = st_pi_convergence(pi, 1, factory, DEFAULT_SCHEDULE, label)
        for row in table.rows:
            lines.append(f"{label},{row.n_atoms},{row.delta},{row.l2_error:.12e}")
        slopes.append((label, table.slope()))
    for label, slope in slopes:
        lines.append(f"# slope,{label},,{slope:.4f}")
    _emit(lines, config.out_dir, "converge.csv")
    return 0


def cmd_moments(config: RunConfig) -> int:
    lines = ["n,moment"]
    algebra = build_model(config.model)
    if isinstance(algebra, WeightedPointAlgebra):
        # f(x) = x: the compound-Poisson process with jumps at the points
        letter = algebra.letter(algebra.points)
    else:
        # a block of n letters multiplies n - 1: past the cutoff only if it closes
        if not algebra.closes and config.nmax > algebra.degree_cutoff + 1:
            raise UsageError(
                f"nmax {config.nmax} needs degree_cutoff >= {config.nmax - 1}, "
                f"model has {algebra.degree_cutoff}")
        letter = algebra.prefix_letter(algebra.grid.horizon)
    q0 = config.q
    # every suffix of [letter] * nmax is a lower power: one transfer
    for n, m in enumerate(suffix_moments([letter] * config.nmax), 1):
        if q0 is not None:
            # the polynomial evaluated at q0 and rounded once
            try:
                m = float(m.subs(q0))
            except OverflowError:
                raise UsageError(f"moment {n} at q0 = {q0} is too large for "
                                 f"a float; q = exact prints it") from None
        lines.append(f"{n},{m}")
    _emit(lines, config.out_dir, "moments.csv")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a refusal exits 2 with one `error:` line, like every usage error
        raise UsageError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="qfock", allow_abbrev=False,
        description="Exact verification suites and refinement experiments for "
                    "q-deformed Fock space processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"verify": (cmd_verify, "run exact identity suites"),
                "converge": (cmd_converge, "run refinement experiments (exact, read at q0)"),
                "moments": (cmd_moments, "print vacuum moments of X as polynomials in q")}
    for name, (_, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", help="output directory for CSV reports")
        specs = [spec for spec in KEYS.values() if spec.command == name]
        if specs:
            p.add_argument("--model", help="model config file")
        for spec in specs:
            if spec.flag:
                p.add_argument(f"--{spec.flag}", help=spec.help)

    try:
        args = parser.parse_args(argv)
        return commands[args.command][0](build_config(args))
    except QFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
