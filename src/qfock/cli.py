"""Batch runner: exact identity suites, convergence tables, moment reports.

Exit status is 0 iff every exact residual is the zero polynomial; usage and
budget problems exit 2 before any work starts.  Reports are plain CSV on
stdout, mirrored into --out when given.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .errors import QFockError, UsageError
from .fock import (FockOperator, FockVector, OneParticleSpace, apply, innerq,
                   operator_norm_estimate, sparse_vector)
from .kspoly import ks_poly, ks_row_formula, q_charlier, q_hermite
from .model import (WeightedPointAlgebra, MomentSequence, ProcessModel, TimeGrid,
                    parse_model_config, process_operators)
from .partitions import SetPartition, enumerate_partitions
from .qscalar import EXACT, QScalar, ScalarRing, q_fact_ratio
from .stochastic import (AdaptedProcess, BiProcess, StepFunction,
                         biprocess_inner, biprocess_integral,
                         conditional_expectation, ito_integral,
                         ito_isometry_rhs, l2q_inner, multiple_integral,
                         power_decomposition, psi_closed, st_pi_closed,
                         st_pi_convergence, st_pi_corollary_form,
                         st_pi_discrete, traciality_witness,
                         two_sided_closed, two_sided_defect_vector,
                         two_sided_discrete, x_process, yhat_process)
from .wick import (WickElement, expansion_operator, product_expansion,
                   vacuum_expectation, vacuum_vector, vacuum_moment,
                   wick_operator)

MAX_NMAX = 8


# ---------------------------------------------------------------------------
# canonical models


def gaussian_model(n_atoms: int = 2, cutoff: int = 4,
                   depth: int = 6, ring: ScalarRing = EXACT) -> ProcessModel:
    """nu = delta_0: r_2 = 1 and all higher moments vanish (q-Brownian)."""
    moments = MomentSequence([0, 1] + [0] * (2 * cutoff - 2))
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


def all_ones_model(n_atoms: int = 2, cutoff: int = 5,
                   depth: int = 6, ring: ScalarRing = EXACT) -> ProcessModel:
    """nu = delta_1: every moment r_k (k >= 2) equals 1 (q-Poisson-like)."""
    moments = MomentSequence([0] + [1] * (2 * cutoff - 1))
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


def two_point_model(n_atoms: int = 2, cutoff: int = 2,
                    depth: int = 6, ring: ScalarRing = EXACT) -> ProcessModel:
    """nu = (delta_{-1} + delta_1)/2: r_2 = 1, odd moments 0, nonsingular
    per-atom gram at cutoff 2."""
    moments = MomentSequence.from_measure([(-1, Fraction(1, 2)), (1, Fraction(1, 2))],
                                          2 * cutoff)
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


def three_point_model(n_atoms: int = 2, cutoff: int = 3,
                      depth: int = 6, ring: ScalarRing = EXACT) -> ProcessModel:
    """nu = delta_{-1}/4 + delta_0/2 + delta_1/4: orthogonal polynomials exist
    through degree 2 with nonzero norms."""
    atoms = [(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4))]
    moments = MomentSequence.from_measure(atoms, 2 * cutoff)
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


def all_ones_pointset(ring: ScalarRing = EXACT) -> WeightedPointAlgebra:
    return WeightedPointAlgebra([1], [1], ring)


# ---------------------------------------------------------------------------
# random draws (small integers, deterministic per seed)


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_vector(rng: random.Random, dim: int) -> list[Fraction]:
    return [rand_fraction(rng) for _ in range(dim)]


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


def _scalar_row(name: str, params: str, diff: QScalar) -> IdentityRow:
    return IdentityRow(name, params, diff.is_zero, str(diff))


def suite_commutation(rng: random.Random) -> list[IdentityRow]:
    """a(zeta) a*(eta) - q a*(eta) a(zeta) = <zeta, eta> Id on basis words."""
    rows = []
    for seed in range(20):
        sub = random.Random(rng.randrange(2 ** 32) + seed)
        dim = 1 + seed % 3
        space = OneParticleSpace(dim, rand_gram(sub, dim), EXACT)
        zeta = sparse_vector(rand_vector(sub, dim))
        eta = sparse_vector(rand_vector(sub, dim))
        lhs = (FockOperator.annihilation(zeta) * FockOperator.creation(eta)
               - FockOperator.compose([FockOperator.creation(eta),
                                       FockOperator.annihilation(zeta)]).scale(EXACT.q()))
        rhs = FockOperator.scalar(EXACT.of(space.pair_vec(zeta, eta)))
        diff = FockVector(space, 5)
        words = [()]
        for _ in range(4):
            words = [w + (i,) for w in words for i in range(dim)]
            for w in words:
                v = FockVector.basis_word(space, 5, w)
                d = apply(lhs, v) - apply(rhs, v)
                for ww, c in d.terms.items():
                    diff.add_term(ww, c)
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
        expanded = apply(expansion_operator(model, product_expansion(letters)), om)
        rows.append(_vector_row("product_wick", f"n={n}", direct - expanded))
    return rows


def suite_moments(rng: random.Random) -> list[IdentityRow]:
    """Partition sum with q^rc versus direct vacuum expectation; pinned
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
    fs = [StepFunction.rectangle(model, [(0, Fraction(1, 4)),
                                         (Fraction(1, 4), Fraction(1, 2))]),
          StepFunction.rectangle(model, [(0, Fraction(1, 2)),
                                         (Fraction(1, 2), 1)]).scale(model.ring.of(2))]
    om = vacuum_vector(model)
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            lhs = innerq(apply(multiple_integral(f, xs[:2]), om),
                         apply(multiple_integral(g, xs[:2]), om))
            rows.append(_scalar_row("integral_isometry", f"arity=2,f={i},g={j}",
                                    lhs - l2q_inner(f, g)))
    f3 = StepFunction.rectangle(model, [(0, Fraction(1, 4)),
                                        (Fraction(1, 4), Fraction(1, 2)),
                                        (Fraction(1, 2), Fraction(3, 4))])
    lhs = innerq(apply(multiple_integral(f3, xs), om),
                 apply(multiple_integral(f3, xs), om))
    rows.append(_scalar_row("integral_isometry", "arity=3",
                            lhs - l2q_inner(f3, f3)))

    # chaos orthogonality for distinct multisets of polynomial degrees
    procs = {k: yhat_process(model, k) for k in (1, 2, 3)}
    f2 = StepFunction.rectangle(model, [(0, Fraction(1, 4)),
                                        (Fraction(1, 4), Fraction(1, 2))])
    multis = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2)]
    vecs = {}
    f1 = StepFunction.rectangle(model, [(0, Fraction(1, 4))])
    for u in multis:
        fu = f1 if len(u) == 1 else f2
        vecs[u] = apply(multiple_integral(fu, [procs[k] for k in u]), om)
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
        rows.append(IdentityRow("power_decomposition", f"n={n}",
                                power_decomposition(n, 1, model).exact))
    om = vacuum_vector(model)
    for blocks in ([[1, 4], [2], [3]], [[1, 2, 4], [3]], [[1, 2, 3, 4]]):
        pi = SetPartition.of(blocks)
        diff = (apply(st_pi_closed(pi, 1, model), om)
                - apply(st_pi_corollary_form(pi, 1, model), om))
        rows.append(_vector_row("stpi_corollary", f"pi={pi}", diff))
    return rows


def suite_ks(rng: random.Random) -> list[IdentityRow]:
    """Row formula vs recursion; q-Hermite/q-Charlier values; the operator
    chain for psi_{n+1} on Omega."""
    moments = MomentSequence([0] + [Fraction(k, k + 1) for k in range(1, 10)])
    rows = []
    for j in range(1, 4):
        for n in range(1, 6):
            diff = ks_poly((j,) + (1,) * n, moments) - ks_row_formula(j, n, moments)
            rows.append(IdentityRow("ks_row_formula", f"j={j},n={n}",
                                    diff.is_zero, str(diff) if not diff.is_zero else "0"))
    from .kspoly import NCPolynomial
    h3_target = NCPolynomial(EXACT, {(1, 1, 1): EXACT.one(),
                                     (1,): -QScalar.parse("2 + q")})
    rows.append(IdentityRow("q_hermite_3", "x^3-(2+q)x",
                            (q_hermite(3) - h3_target).is_zero))
    c2_target = NCPolynomial(EXACT, {(1, 1): EXACT.one(),
                                     (1,): EXACT.of(-1), (): EXACT.of(-1)})
    rows.append(IdentityRow("q_charlier_2", "x^2-x-1",
                            (q_charlier(2) - c2_target).is_zero))

    model = three_point_model(n_atoms=2, cutoff=5, depth=6)
    om = vacuum_vector(model)
    for n in range(1, 5):
        lhs = apply(psi_closed([x_process(model)] * (n + 1), 1), om)
        rhs = FockVector(model.space, model.fock_depth)
        ops = process_operators(model, (Fraction(0), Fraction(1)))
        for k in range(n + 1):
            coeff = q_fact_ratio(n, k)
            if k % 2:
                coeff = -coeff
            psi = (apply(psi_closed([x_process(model)] * (n - k), 1), om)
                   if n - k else om)
            rhs = rhs + apply(ops.Delta[k + 1], psi).scale(coeff)
        rows.append(_vector_row("psi_chain", f"n={n}", lhs - rhs))
    return rows


def suite_calculus(rng: random.Random) -> list[IdentityRow]:
    """Itô isometry, the conditional-expectation lemma, the two-sided
    integral closed form, and the bi-process isometry."""
    model = two_point_model(n_atoms=4, cutoff=2, depth=6)
    ring = model.ring
    om = vacuum_vector(model)
    rows = []
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    u_val = WickElement.from_word(model, (model.atom_letter(0),))
    v_val = (WickElement.from_word(model, (model.atom_letter(0),
                                           model.atom_letter(1)))
             + WickElement.one(model).scale(ring.of(2)))
    u = AdaptedProcess(model, [((half, Fraction(3, 4)), u_val),
                               ((Fraction(3, 4), 1), v_val)])
    v = AdaptedProcess(model, [((half, Fraction(3, 4)), v_val),
                               ((Fraction(3, 4), 1), u_val)])
    for side in ("left", "right"):
        lhs = innerq(apply(ito_integral(u, side), om),
                     apply(ito_integral(v, side), om))
        rows.append(_scalar_row("ito_isometry", f"side={side}",
                                lhs - ito_isometry_rhs(u, v)))

    # E_s[X([s,t)) Z X([s,t))] = (t-s) r_2 Gamma_q(q)(Z), r_2 = 1 here
    s, t = half, Fraction(3, 4)
    x_st = model.interval_letter((s, t)).field()
    for z in (u_val, v_val):
        sandwich = FockOperator.compose([x_st, z.operator(), x_st])
        lhs_el = conditional_expectation(
            WickElement.from_vector(model, apply(sandwich, om)), s)
        rhs_el = z.gamma().scale(ring.of(t - s))
        rows.append(_vector_row("conditional_sandwich", f"z_deg={z.top_degree()}",
                                lhs_el.vector() - rhs_el.vector()))

    adapted = AdaptedProcess(model, [((half, 1), u_val)])
    disc = apply(two_sided_discrete(adapted), om)
    closed = apply(two_sided_closed(adapted), om)
    rows.append(_vector_row("two_sided_defect", "elementary",
                            disc - closed - two_sided_defect_vector(adapted)))

    # bi-process isometry is exact in the Gaussian specialization, where
    # letter products are null vectors; with gauge terms it only holds in the
    # refinement limit
    m4 = gaussian_model(n_atoms=4, cutoff=4, depth=6)
    om = vacuum_vector(m4)
    u_val = WickElement.from_word(m4, (m4.atom_letter(0),))
    v_val = (WickElement.from_word(m4, (m4.atom_letter(0), m4.atom_letter(1)))
             + WickElement.one(m4).scale(m4.ring.of(2)))
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
        ring = model.ring
        r2 = model.moments.r_at(2)
        r2k = model.moments.r_at(2 + k)
        area = Fraction(1, 4)
        expect1 = ring.q_pow(2) * ring.of(r2 * r2k * area)
        expect2 = ring.q() * ring.of(r2 * r2k * area)
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
    def grid_factory(moments_fn, cutoff, q):
        def make(n_atoms: int) -> ProcessModel:
            ring = ScalarRing(q)
            return ProcessModel(ring, moments_fn(), TimeGrid.uniform(1, n_atoms),
                                cutoff, 6)
        return make

    ones = lambda c: MomentSequence([0] + [1] * (2 * c - 1))
    twop = lambda c: MomentSequence.from_measure(
        [(-1, Fraction(1, 2)), (1, Fraction(1, 2))], 2 * c)
    pair = SetPartition.of([[1, 2]])
    split = SetPartition.of([[1], [2]])
    triple = SetPartition.of([[1, 2, 3]])
    mixed = SetPartition.of([[1, 2], [3]])
    return [
        ("pair_free", pair, grid_factory(lambda: ones(2), 2, Fraction(0)), Fraction(0)),
        ("pair_q_half", pair, grid_factory(lambda: twop(2), 2, Fraction(1, 2)), Fraction(1, 2)),
        ("split_q_half", split, grid_factory(lambda: twop(2), 2, Fraction(1, 2)), Fraction(1, 2)),
        ("triple_ones", triple, grid_factory(lambda: ones(3), 3, Fraction(1, 2)), Fraction(1, 2)),
        ("mixed_ones", mixed, grid_factory(lambda: ones(3), 3, Fraction(1, 3)), Fraction(1, 3)),
    ]


DEFAULT_SCHEDULE = (4, 8, 16, 32, 64)


# ---------------------------------------------------------------------------
# configuration plumbing


DEFAULT_MODEL_TEXT = """\
q = exact
nu.atoms = [(-1, 1/4), (0, 1/2), (1, 1/4)]
grid = uniform(1, 2)
degree_cutoff = 3
fock_depth = 6
"""


@dataclass
class RunConfig:
    model_text: str = DEFAULT_MODEL_TEXT
    out_dir: Path | None = None
    suites: tuple[str, ...] = tuple(SUITES)
    seed: int = 0
    nmax: int = 6
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    pointset: WeightedPointAlgebra | None = None


def _config_entries(text: str) -> dict[str, str]:
    entries = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"malformed config line: {raw!r}")
            entries[key.strip()] = value.strip()
    return entries


def build_config(args: argparse.Namespace) -> RunConfig:
    text = DEFAULT_MODEL_TEXT
    if args.model:
        text = Path(args.model).read_text()
    entries = _config_entries(text)

    # flags win over file keys
    overrides = {}
    if args.q is not None:
        overrides["q"] = args.q
    if args.cutoff is not None:
        overrides["degree_cutoff"] = str(args.cutoff)
    if args.depth is not None:
        overrides["fock_depth"] = str(args.depth)
    if args.grid is not None:
        overrides["grid"] = f"uniform(1, {args.grid})"
    entries.update(overrides)

    suites = tuple(SUITES)
    raw_suites = args.suite or entries.get("suite")
    if raw_suites:
        suites = tuple(s.strip() for s in raw_suites.split(",") if s.strip())
        unknown = set(suites) - set(SUITES)
        if unknown:
            raise UsageError(f"unknown suites: {sorted(unknown)} "
                             f"(available: {', '.join(SUITES)})")

    seed = args.seed if args.seed is not None else int(entries.get("seed", "0"))
    nmax = args.nmax if args.nmax is not None else int(entries.get("nmax", "4"))
    if not 1 <= nmax <= MAX_NMAX:
        raise UsageError(f"nmax must lie in 1..{MAX_NMAX}, got {nmax}")

    pointset = None
    if "pointset.points" in entries:
        from .model import _parse_fraction_list
        pts = _parse_fraction_list(entries["pointset.points"])
        ws = _parse_fraction_list(entries.get("pointset.weights", ""))
        qv = entries.get("q", "exact")
        ring = EXACT if qv == "exact" else ScalarRing(Fraction(qv))
        pointset = WeightedPointAlgebra(pts, ws, ring)
    model_keys = ("q", "nu.atoms", "moments", "grid", "degree_cutoff", "fock_depth")
    model_text = "\n".join(f"{k} = {entries[k]}" for k in model_keys if k in entries)

    out_dir = Path(args.out) if args.out else None
    return RunConfig(model_text, out_dir, suites, seed, nmax,
                     tuple(DEFAULT_SCHEDULE), pointset)


def _emit(lines: list[str], out_dir: Path | None, name: str) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(config: RunConfig) -> int:
    rng = random.Random(config.seed)
    lines = ["identity,params,exact_zero,residual"]
    failed = []
    for name in config.suites:
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
    if len(config.schedule) < 3:
        raise UsageError("refinement schedule needs at least 3 grid sizes")
    lines = ["experiment,N,delta,l2_error"]
    slopes = []
    for label, pi, factory, _q in shipped_experiments():
        table = st_pi_convergence(pi, 1, factory, config.schedule, label)
        for row in table.rows:
            lines.append(f"{label},{row.n_atoms},{row.delta},{row.l2_error:.12e}")
        slopes.append((label, table.slope()))
    for label, slope in slopes:
        lines.append(f"# slope,{label},,{slope:.4f}")
    _emit(lines, config.out_dir, "converge.csv")
    return 0


def cmd_moments(config: RunConfig) -> int:
    lines = ["n,moment"]
    if config.pointset is not None:
        algebra = config.pointset
        letter = algebra.one()
    else:
        algebra = parse_model_config(config.model_text)
        # a closed block of size n multiplies n-1 power-1 letters together
        if config.nmax > algebra.degree_cutoff + 1:
            raise UsageError(
                f"nmax {config.nmax} needs degree_cutoff >= {config.nmax - 1}, "
                f"model has {algebra.degree_cutoff}")
        letter = algebra.prefix_letter(algebra.grid.horizon)
    for n in range(1, config.nmax + 1):
        m = vacuum_moment([letter] * n)
        lines.append(f"{n},{m}")
    _emit(lines, config.out_dir, "moments.csv")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Exact verification suites and refinement experiments for "
                    "q-deformed Fock space processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("verify", "run exact identity suites"),
                            ("converge", "run refinement experiments (float)"),
                            ("moments", "print vacuum moments of X as polynomials in q")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", help="model config file")
        p.add_argument("--out", help="output directory for CSV reports")
        p.add_argument("--suite", help="comma-separated suite names")
        p.add_argument("--q", help="pinned rational q, or 'exact'")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--nmax", type=int, help="maximum product/moment length")
        p.add_argument("--depth", type=int, help="Fock truncation depth")
        p.add_argument("--cutoff", type=int, help="letter degree cutoff")
        p.add_argument("--grid", type=int, help="uniform grid size over [0,1)")

    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "converge":
            return cmd_converge(config)
        return cmd_moments(config)
    except QFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
