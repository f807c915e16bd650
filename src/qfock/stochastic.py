"""Stochastic measures, multiple integrals, and the grid Itô calculus.

Limits never appear literally: every limit statement splits into an exact
closed form (grid-independent, verified in Q[q]) and a refinement experiment
with a slope assertion.  The squared L²(phi) distance between the discrete
partition sum and its closed form is computed in Q[q], kept as `error`, and
evaluated once at the q0 of the model's ring as the float l2_error; it
decays linearly in the mesh.  By Möbius inversion the partition sum reads
the one prefix field X(t) at each singleton, not an atom per branch.  Each
sum of Wick products Σ c W(word) (the closed forms of St_pi and psi, and
the multiple integrals) is a `WickElement`, whose `operator()` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import log
from typing import Callable, Iterable, Sequence

from .errors import UsageError, check_size
from .fock import FockOperator, FockVector, adjoint, apply, innerq, lowest_terms
from .model import Interval, Letter, ProcessModel
from .partitions import (SetPartition, enumerate_partitions, index_tuples,
                         kernel_coefficients, rc)
from .qscalar import ONE, ZERO, QScalar, accumulate, const, q_pow
from .wick import WickElement, vacuum_vector

MAX_POWER_N = 6  # power_decomposition sums over the Bell(n) partitions


# ---------------------------------------------------------------------------
# step functions and the q-inner product on them
#
# A step function of arity n is a homogeneous FockVector of depth n on its
# grid's space (`TimeGrid.space`): a tensor over the atoms, every word of
# length n, each atom of norm² its width.


def step_rectangle(model: ProcessModel, intervals: Sequence[Interval]) -> FockVector:
    """The indicator of I_1 x ... x I_n."""
    grid = model.grid
    return FockVector(grid.space, len(intervals),
                      dict.fromkeys(product(*map(grid.atoms_in, intervals)), ONE))


def _arity(f: FockVector) -> int:
    """The arity of a step function: its depth, the length of every word."""
    for tup in f.terms:
        if len(tup) != f.depth:
            raise UsageError(f"tuple {tup} does not have arity {f.depth}")
    return f.depth


def l2q_inner(f: FockVector, g: FockVector) -> QScalar:
    """The q-symmetrized overlap sum Σ_σ q^{i(σ)} ∫ F(t) G(t∘σ): the q-Fock
    product of F and G as tensors over the atoms."""
    if f.space is not g.space:
        raise UsageError("step functions on different grids")
    if _arity(f) != _arity(g):
        raise UsageError(f"arity mismatch: {f.depth} vs {g.depth}")
    return innerq(f, g)


# ---------------------------------------------------------------------------
# process families


class ProcessFamily:
    """One integrator process: on each atom A the letter Σ_k coeffs[k]
    x_A^{k-1}, a sum of the model's kept letters (a coefficient of 1 scales
    nothing), plus a drift rate (nonzero only for the diagonal Delta_k)."""

    def __init__(self, model: ProcessModel, label: str,
                 coeffs: dict[int, Fraction], drift_rate: Fraction):
        self.model = model
        self.label = label
        self.coeffs = coeffs
        self.drift_rate = drift_rate

    def _sum(self, power_letter: Callable[[int], Letter]) -> Letter:
        terms = [power_letter(k) if c == 1 else power_letter(k).scale(c)
                 for k, c in self.coeffs.items()]
        return sum(terms[1:], terms[0])

    def letter(self, atom: int) -> Letter:
        return self._sum(lambda k: self.model.atom_letter(atom, k))

    def interval_letter(self, interval: Interval) -> Letter:
        """The letter of the process on the grid atoms of [a, b)."""
        return self._sum(lambda k: self.model.interval_letter(interval, k))

    def prefix_letter(self, t) -> Letter:
        return self.interval_letter((Fraction(0), Fraction(t)))

    def operator(self, interval: Interval) -> FockOperator:
        """The process on [a, b): the field of its letter plus the drift
        drift_rate·|I| Id."""
        model = self.model
        width = sum(model.grid.width(a) for a in model.grid.atoms_in(interval))
        return (self.interval_letter(interval).field()
                + FockOperator.scalar(const(width * self.drift_rate)))

    def __repr__(self):
        return f"ProcessFamily({self.label})"


def x_process(model: ProcessModel) -> ProcessFamily:
    return ProcessFamily(model, "X", {1: Fraction(1)}, Fraction(0))


def delta_process(model: ProcessModel, k: int) -> ProcessFamily:
    return ProcessFamily(model, f"Delta{k}", {k: Fraction(1)}, model.moments.r_at(k))


def yhat_process(model: ProcessModel, k: int) -> ProcessFamily:
    """The orthogonalised power process Yhat_k: on each atom the letter of
    the monic orthogonal polynomial P_{k-1} (`ProcessModel.monic_op`), whose
    coefficient of x^j sits at power j + 1."""
    coeffs = model.monic_op(k - 1)
    return ProcessFamily(model, f"Yhat{k}",
                         {j: c for j, c in enumerate(coeffs, start=1) if c},
                         Fraction(0))


# ---------------------------------------------------------------------------
# multiple Wiener-Itô integrals


def _model_of(procs: Sequence[ProcessFamily]) -> ProcessModel:
    """The one model of a nonempty list of processes."""
    model = procs[0].model
    if any(p.model is not model for p in procs):
        raise UsageError("processes of different models")
    return model


def multiple_integral(f: FockVector, procs: Sequence[ProcessFamily]) -> WickElement:
    """Σ_a F(a) W(proc_1 letter on a_1 ⊗ ... ⊗ proc_n letter on a_n), F of
    any support and arity n >= 1.  Its vector is Σ_a F(a) ⊗_i xi_i, as
    W(v)Ω = v: with Yhat processes, the chaos component of F.  Off the
    diagonal its operator is the field product proc_1(I_{a_1}) ...
    proc_n(I_{a_n}): letters on distinct atoms pair and multiply to zero.
    On a diagonal word it multiplies the letters on one atom: at any cutoff
    on a model that closes, and else from a cutoff of their summed powers
    on (Yhat_2 ⊗ Yhat_2 on (a, a) needs 4)."""
    n = _arity(f)
    if len(procs) != n:
        raise UsageError(f"need {n} integrator processes, got {len(procs)}")
    if not n:
        raise UsageError("a multiple integral needs arity >= 1")
    model = _model_of(procs)
    if model.grid.space is not f.space:
        raise UsageError("step function and processes on different grids")
    terms: dict = {}
    for tup, c in f.terms.items():
        accumulate(terms, tuple(p.letter(a) for p, a in zip(procs, tup)), c)
    return WickElement(model, terms)


def _subset_sum(model: ProcessModel, letters: Sequence[Letter],
                closing: Sequence[Fraction],
                weight: Callable[[list[int]], QScalar] = lambda kept: ONE) -> WickElement:
    """Σ over the sets C of positions with a nonzero closing factor of
    weight(kept) Π_{i ∈ C} closing[i] W(letters kept), kept the positions
    outside C, in order; equal words merge.  A factor of 1 scales nothing."""
    subsets = [((), Fraction(1))]  # (closed positions, product of their factors)
    for i, c in enumerate(closing):
        if c:
            subsets += [(s + (i,), f * c) for s, f in subsets]
    terms: dict = {}
    for s, f in subsets:
        kept = [i for i in range(len(letters)) if i not in s]
        w = weight(kept)
        accumulate(terms, tuple(letters[i] for i in kept), w if f == 1 else w * const(f))
    return WickElement(model, terms)


def psi_closed(procs: Sequence[ProcessFamily], t) -> WickElement:
    """Closed form of the full stochastic measure psi(Z_1, ..., Z_m)(t):
    drift positions split off multilinearly, each closing with t times its
    drift rate, the rest is a Wick product of prefix letters."""
    if not procs:
        raise UsageError("psi of no processes")
    model = _model_of(procs)
    t = Fraction(t)
    return _subset_sum(model, [p.prefix_letter(t) for p in procs],
                       [t * p.drift_rate for p in procs])


# ---------------------------------------------------------------------------
# partition-dependent stochastic measures


def st_pi_discrete(pi: SetPartition, t, model: ProcessModel) -> FockOperator:
    """St_pi(t; grid) = Σ over index tuples u of kernel exactly pi of
    X(I_{u(1)}) ... X(I_{u(n)}), as Σ_κ c_κ Φ_κ (`kernel_coefficients`),
    where a singleton of κ reads X(t) = Σ_v X(I_v): one field, not one
    branch per atom.  Each Φ_κ's words go into a trie of their prefixes, and
    Φ_κ is built from it Horner-wise: a prefix ending in v is X(I_v)
    composed with the sum of its continuations, so each prefix's field is
    applied once, to the image of all its continuations together.  A run of
    single children is one composition of their fields.
    """
    atoms = model.grid.prefix(t)
    if pi.n > model.fock_depth:
        raise UsageError(f"partition on {pi.n} points exceeds depth {model.fock_depth}")
    table = kernel_coefficients(pi)
    # key 0 is X(t) and key v the field of atoms[v - 1], each built only if read
    fields = {0: model.prefix_letter(t).field()} if any(0 in o for o in table) else {}
    if any(map(any, table)):
        fields.update((v, model.atom_letter(a).field()) for v, a in enumerate(atoms, start=1))

    out = []
    for owner, c in table.items():
        m = max(owner)  # κ's blocks of two or more points take m distinct atoms
        trie: dict = {}
        for tup in (index_tuples(len(atoms), SetPartition.of([j] for j in range(1, m + 1)))
                    if m else [()]):
            node = trie
            for j in owner:
                node = node.setdefault(tup[j - 1] if j else 0, {})
        total = _horner(trie, fields)
        out.append(total if c == 1 else total.scale(const(c)))
    return FockOperator.opsum(out)


def _horner(children: dict, fields: dict) -> FockOperator:
    """The field products of a trie's words, Horner-wise (`st_pi_discrete`)."""
    terms = []
    for v, rest in children.items():
        factors = [fields[v]]
        while len(rest) == 1:
            (v, rest), = rest.items()
            factors.append(fields[v])
        terms.append(FockOperator.compose(factors + [_horner(rest, fields)] if rest
                                          else factors))
    return FockOperator.opsum(terms)


def st_pi_closed(pi: SetPartition, t, model: ProcessModel) -> WickElement:
    """St_pi(t) = Σ_{S ⊆ pi} q^{rc(S,pi)} R_{pi∖S}(t) W(⊗_{B∈S} prefix letter
    of power |B|), with R_σ(t) = Π_{B∈σ} t r_{|B|}: the subset sum of psi,
    each block closing with t r_{|B|}, weighted by q^{rc(S,pi)}.  Each block
    size's prefix letter is the model's, which builds it once and keeps it."""
    t = Fraction(t)
    sizes = pi.block_sizes()  # a size past the cutoff is refused by prefix_letter
    return _subset_sum(model, [model.prefix_letter(t, k) for k in sizes],
                       [t * model.moments.r_at(k) for k in sizes],
                       lambda kept: q_pow(rc(pi, kept)))


def st_pi_corollary_form(pi: SetPartition, t, model: ProcessModel) -> WickElement:
    """For pi with one block of size k containing both endpoints and
    singletons elsewhere: q^{n-k} psi(Delta_k, X, ..., X)(t)."""
    n = pi.n
    big = [b for b in pi.blocks if len(b) > 1]
    if len(big) != 1 or not all(len(b) == 1 for b in pi.blocks if b != big[0]):
        raise UsageError("partition is not one block plus singletons")
    k = len(big[0])
    if big[0][0] != 1 or big[0][-1] != n:
        raise UsageError("the big block must contain both 1 and n")
    procs = [delta_process(model, k)] + [x_process(model)] * (n - k)
    return psi_closed(procs, t).scale(q_pow(n - k))


def power_decomposition(n: int, t, model: ProcessModel) -> FockVector:
    """The residual X(t)^n Ω − Σ_pi St_pi(t) Ω, via closed forms: zero when
    the power decomposes.  The closed forms sum to one element, whose
    operator is applied once."""
    check_size("power_decomposition n =", n, MAX_POWER_N, least=1)
    x = model.prefix_letter(t, 1).field()
    lhs = vacuum_vector(model)
    for _ in range(n):
        lhs = apply(x, lhs)
    closed = sum((st_pi_closed(pi, t, model)
                  for pi in enumerate_partitions(n)), WickElement(model, {}))
    rhs = apply(closed.operator(), vacuum_vector(model))
    return lhs - rhs


@dataclass
class ConvergenceRow:
    n_atoms: int
    delta: float
    l2_error: float
    error: QScalar  # the squared distance in Q[q]; l2_error is |error(q0)|


@dataclass
class ConvergenceTable:
    label: str
    rows: list[ConvergenceRow]

    def slope(self) -> float:
        pts = [(log(r.delta), log(r.l2_error)) for r in self.rows if r.l2_error > 0]
        if len(pts) < 3:
            raise UsageError("slope fit needs at least 3 nonzero-error rows")
        xs, ys = zip(*pts)
        n = len(pts)
        mx, my = sum(xs) / n, sum(ys) / n
        return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))


def st_pi_convergence(pi: SetPartition, t,
                      model_factory: Callable[[int], ProcessModel],
                      schedule: Sequence[int], label: str = "") -> ConvergenceTable:
    """Squared L²(phi) distance between St_pi(t; grid) and the closed form,
    per grid size: computed in Q[q], then evaluated at the q0 of the
    model's ring, which each model of the factory must carry."""
    if not schedule:
        raise UsageError("empty refinement schedule")
    rows = []
    for n_atoms in schedule:
        model = model_factory(n_atoms)
        q0 = model.space.ring.q0
        if q0 is None:
            raise UsageError("convergence experiments need a model with a q0")
        diff = apply(st_pi_discrete(pi, t, model)
                     - st_pi_closed(pi, t, model).operator(),
                     vacuum_vector(model))
        err = innerq(diff, diff)
        rows.append(ConvergenceRow(n_atoms, float(model.grid.mesh()),
                                   abs(float(err.subs(q0))), err))
    return ConvergenceTable(label or f"st_pi {pi}", rows)


# ---------------------------------------------------------------------------
# chaos decomposition


def chaos_decompose(v: FockVector, model: ProcessModel) -> dict[tuple[int, ...], FockVector]:
    """Expand v in the basis {atoms ⊗ monic orthogonal polynomials}: the
    degree-n term of the multi-index u is the step function F_u with
    v = Σ_u Σ_{a⃗} F_u(a⃗) ⊗_i (e-letter of P_{u(i)-1} on atom a_i).

    That is the model's own basis, e_{A,k} = P_k on atom A, so each basis
    index only reads as its atom A and u-entry k + 1 (`basis_place`)."""
    if v.space != model.space:
        raise UsageError("vector does not live on this model's space")
    out: dict[tuple[int, ...], FockVector] = {}
    for word, c in v.terms.items():
        places = [model.basis_place(i) for i in word]
        u = tuple(k + 1 for _, k in places)
        out.setdefault(u, FockVector(model.grid.space, len(u))).add_term(
            tuple(a for a, _ in places), c)
    return out


# ---------------------------------------------------------------------------
# adapted processes and Itô integrals


def _atom_end(model: ProcessModel, i: int) -> Fraction:
    """The right end of the grid atom of basis index i."""
    return model.grid.atoms[model.basis_place(i)[0]][1]


def _checked_pieces(model: ProcessModel, pieces: Iterable, values=lambda u: (u,)) -> list:
    """The pieces (I, value) of a process with Fraction ends, once checked:
    each I is a nonempty run of grid atoms, the intervals are disjoint, and
    the elements values(value) belong to model, their letters ending by the
    start of I."""
    out = []
    for (a, b), piece in pieces:
        a, b = Fraction(a), Fraction(b)
        model.grid.atoms_in((a, b))
        for u in values(piece):
            letters = [l for word in u.terms for l in word]
            if u.algebra is not model or any(l.algebra is not model for l in letters):
                raise UsageError("process values from a different model")
            if any(_atom_end(model, i) > a for l in letters for i, _ in l.payload.entries):
                raise UsageError(f"process value on [{a},{b}) uses letters "
                                 f"past {a}: not adapted")
        out.append(((a, b), piece))
    intervals = sorted(i for i, _ in out)
    for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
        if b1 > a2:
            raise UsageError("process intervals overlap")
    return out


class AdaptedProcess:
    """Piecewise constant process (I_i, U_i) with U_i supported strictly
    before the start of I_i."""

    def __init__(self, model: ProcessModel,
                 pieces: Sequence[tuple[Interval, WickElement]]):
        self.model = model
        self.pieces = _checked_pieces(model, pieces)

    def bi(self, side: str) -> BiProcess:
        """U⊗1 (side="left") or 1⊗U (side="right"), whose bi-process
        integrals are the Itô integrals Σ U_i X(I_i) and Σ X(I_i) U_i."""
        if side not in ("left", "right"):
            raise UsageError(f"side must be left or right, got {side!r}")
        one = WickElement.one(self.model)
        return BiProcess(self.model, [(i, [(u, one) if side == "left" else (one, u)])
                                      for i, u in self.pieces])


def two_sided_closed(u: AdaptedProcess) -> FockOperator:
    """∫ dX U dX as the closed form Σ Delta₂(I_i) Γ_q(q)(U_i)."""
    delta2 = delta_process(u.model, 2)
    return FockOperator.opsum(
        [FockOperator.compose([delta2.operator(interval), val.gamma().operator()])
         for interval, val in u.pieces])


def two_sided_discrete(u: AdaptedProcess) -> FockOperator:
    """Σ_i Σ_{J ⊆ I_i} X(J) U_i X(J) over the grid atoms of each interval."""
    model = u.model
    terms = []
    for interval, val in u.pieces:
        w = val.operator()
        for a in model.grid.atoms_in(interval):
            x = model.atom_letter(a, 1).field()
            terms.append(FockOperator.compose([x, w, x]))
    return FockOperator.opsum(terms)


def two_sided_defect_vector(u: AdaptedProcess) -> FockVector:
    """The exact finite-grid discrepancy on Ω: the vector of the Wick element
    Σ_i Σ_{J ⊆ I_i} Σ_words coeff · W(xi_J ⊗ word ⊗ xi_J)."""
    model = u.model
    words: dict = {}
    for interval, val in u.pieces:
        for a in model.grid.atoms_in(interval):
            la = model.atom_letter(a, 1)
            for word, c in val.terms.items():
                accumulate(words, (la,) + word + (la,), c)
    return WickElement(model, words).vector()


# ---------------------------------------------------------------------------
# conditional expectation


def conditional_expectation(a: WickElement, t) -> WickElement:
    """E_t[W(v)] = W(P_t v): restrict every letter to atoms before t."""
    model = a.algebra
    t = Fraction(t)
    if t not in model.grid.boundaries:
        raise UsageError(f"time {t} is not a grid boundary")

    def restrict(letter: Letter) -> Letter:
        den, entries = letter.payload
        return Letter(model, lowest_terms(den, (e for e in entries
                                                if _atom_end(model, e[0]) <= t)))

    return a.map_letters(restrict)


# ---------------------------------------------------------------------------
# bi-processes


class BiProcess:
    """Finite sum of A ⊗ B pairs of adapted values on disjoint intervals:
    pieces are (interval, [(A, B), ...])."""

    def __init__(self, model: ProcessModel,
                 pieces: Sequence[tuple[Interval, Sequence[tuple[WickElement, WickElement]]]]):
        self.model = model
        self.pieces = _checked_pieces(
            model, ((i, tuple(pairs)) for i, pairs in pieces), chain.from_iterable)

    def decomposition(self) -> tuple[Interval, ...]:
        return tuple(i for i, _ in self.pieces)


def biprocess_integral(u: BiProcess) -> FockOperator:
    """∫ U ♯ dX = Σ_j Σ_i A^i_j X(I_j) B^i_j."""
    model = u.model
    terms = []
    for interval, pairs in u.pieces:
        x = model.interval_letter(interval).field()
        for left, right in pairs:
            terms.append(FockOperator.compose([left.operator(), x, right.operator()]))
    return FockOperator.opsum(terms)


def biprocess_inner(u: BiProcess, v: BiProcess) -> QScalar:
    """r₂ ∫ ⟪U(t), V(t)⟫ dt with ⟪A₁⊗B₁, A₂⊗B₂⟫ = phi[B₁* Γ_q(q)(A₁*A₂) B₂]:
    the one place r₂ enters the isometry.  For U⊗1 and V⊗1, and for 1⊗U and
    1⊗V, ⟪U, V⟫ = ⟨UΩ, VΩ⟩: the Itô isometry.

    Γ_q(q)(A₁*A₂) is read off z = A₁*A₂Ω, whose Wick pre-image it scales
    by q^n in degree n.  Where B₂ = c·1, as in U⊗1, Γ_q(q)(A₁*A₂)B₂Ω is
    c Σ_n q^n z_n, and no Wick operator is built."""
    model = u.model
    if v.model is not model:
        raise UsageError("bi-processes on different models")
    if u.decomposition() != v.decomposition():
        raise UsageError("bi-processes on different interval decompositions")
    om = vacuum_vector(model)
    total = ZERO
    for ((a, b), upairs), (_, vpairs) in zip(u.pieces, v.pieces):
        width = const(model.moments.r_at(2) * (b - a))
        for a1, b1 in upairs:
            b1om = apply(b1.operator(), om)
            for a2, b2 in vpairs:
                z = apply(adjoint(a1.operator()), apply(a2.operator(), om))
                if b2.top_degree():
                    g = WickElement.from_vector(model, z).gamma().operator()
                    right = apply(g, apply(b2.operator(), om))
                else:
                    right = FockVector(z.space, z.depth, {
                        w: x * q_pow(len(w)) for w, x in z.terms.items()
                    }).scale(b2.terms.get((), ZERO))
                total = total + width * innerq(b1om, right)
    return total


# ---------------------------------------------------------------------------
# traciality witness


def traciality_witness(model: ProcessModel, i: Interval, j: Interval,
                       k: int) -> tuple[QScalar, QScalar]:
    """(phi[X(I)X(J)X(I)X(J)Y_k(I)], phi[Y_k(I)X(I)X(J)X(I)X(J)]); for
    disjoint I, J these are q² r₂ r_{2+k} |I||J| and q r₂ r_{2+k} |I||J|,
    whose difference vanishes identically in q iff r_{2+k} = 0."""
    ai, bi = Fraction(i[0]), Fraction(i[1])
    aj, bj = Fraction(j[0]), Fraction(j[1])
    if max(ai, aj) < min(bi, bj):
        raise UsageError("intervals overlap")
    x_i = model.interval_letter(i).field()
    x_j = model.interval_letter(j).field()
    y_k = model.interval_letter(i, k).field()
    om = vacuum_vector(model)
    first = apply(FockOperator.compose([x_i, x_j, x_i, x_j, y_k]), om)
    second = apply(FockOperator.compose([y_k, x_i, x_j, x_i, x_j]), om)
    return first.vacuum_coefficient(), second.vacuum_coefficient()
