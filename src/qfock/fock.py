"""Truncated algebraic Fock space over a finite one-particle space.

Vectors are graded finite combinations of tensor words over a one-particle
basis; operators are lazy expression trees over a closed set of node kinds:
creation, annihilation, gauge, scalar, sum and composition.  A sum or
composition is one node over its operands as given, never flattened, so a
shared operand stays one node; the empty sum is the one zero operator.
Exact identities apply the tree to vectors by one recursive kernel
(`apply`) that accumulates each node's image into an integer image its
caller passes down, folding the scalar operands of a composition into one
factor.  An integer image (`qscalar.IntImage`) is one positive int
denominator and, per word, a list of int numerators, one per power of q;
each output word becomes a canonical QScalar once, when `apply` returns.
Words are range-checked only where they enter from outside (`basis_word`,
the `terms` argument, `add_term`), and a leaf's ints where it reads them
(see `apply`), so the words that `apply` derives are not checked again; a
norm estimate refuses what `apply` refuses.  A gauge reads only the
columns on its support, the indices it does not send to 0.
Operator trees are DAGs (Wick operators and fields are shared nodes) of
slotted nodes compared by identity, and one call of `apply` computes the
image of its input under a shared node once: a factor that acts first in
a composition, or a sum from its second use on.  Every scalar is exact,
and no exact path reads an evaluation point.  Only a float operator-norm
estimate does: it evaluates the tree at the q0 of the space's ring
(`qscalar.ScalarRing`, only a point) and takes a dense matrix realization
of it, its compression to words of length <= depth, built by one numpy
rule per node kind: a creation is zeta (x) 1, and an annihilation or gauge
acts on the front slot of the slot sum R_n below, that is on each tensor
slot k moved to the front, with weight q0^k.

One-particle vectors have one form, `SparseVector`: int numerators over
one denominator, in lowest terms.  Public constructors take dense or sparse
rationals and convert them once (`sparse_vector`); all else reads the form
as it is.  The gram has one form too, its sparse rows as int numerators
over one denominator; the pairings and `inner0` compute on those ints,
with no Fraction or QScalar per term.  A space, like an operator node, is
compared by identity, and only an annihilation node keeps anything per
space: its int pairing row.  A gauge is multiplication by a real function
(`Gauge`), its own adjoint, with its own int columns over one denominator.
An annihilation or gauge acting on tensor slot k multiplies by q^k as a
shift of k places in the numerator lists, not as a product.

The q-inner product is <u, P_n v>_0 on degree n, P_n the q-symmetrizer
sum_sigma q^{inv(sigma)} sigma; `innerq` is the one q-product, also of step
functions (stochastic.l2q_inner).  P_n is built one way, by the
Bozejko-Speicher factorisation P_n = (1 (x) P_{n-1}) R_n, where
R_n = sum_k q^k C_k and C_k moves tensor slot k to the front.  `apply_Pn`
applies it to sparse words on an integer image, and `inner0` sums int
products of gram entries over the pairs of words that share a bucket: the
word itself on a diagonal gram, its degree on any other.  `innerq` hands u
to `apply_Pn`, which keeps a word it moves last only if its bucket holds a
word of u, so P_n v is built only where it can pair.  Each makes its
result canonical once.  The float q-gram of a norm estimate takes it at
q0 by one dense step per degree.  Norm estimates keep on the space, per
degree n, the dense R_n at q0, which that step and their annihilation and
gauge blocks share, the q-gram, and its Cholesky factor with its inverse,
which whiten their matrices without a solve.

Truncation overflow is always a hard error: identities are asserted only where
the full result fits under the configured depth.
"""

from __future__ import annotations

from functools import reduce
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import DepthExceededError, ResourceBudgetError, UsageError, check_size
from .qscalar import (EXACT, ONE, ZERO, IntImage, QScalar, ScalarRing,
                      accumulate, add_scaled, addmul, const, int_numerators)

PN_CAP = 9
NORM_WORD_CAP = 2048

Word = tuple[int, ...]


class SparseVector(NamedTuple):
    """A one-particle vector: `entries`, (index, nonzero int numerator) pairs
    in increasing index, over `den` > 0, with gcd(den, *numerators) == 1.
    So equal vectors are equal tuples, and zero is (1, ()): test it on
    `entries`, as the tuple itself is never empty."""

    den: int
    entries: tuple[tuple[int, int], ...]


def sparse_vector(zeta: Sequence) -> SparseVector:
    """The SparseVector of a one-particle vector given densely (a rational
    per basis index) or sparsely ((index, rational) pairs, repeated indices
    adding); a SparseVector is returned as it is."""
    if type(zeta) is SparseVector:
        return zeta
    zeta = tuple(zeta)
    pairs = zeta if zeta and isinstance(zeta[0], tuple) else enumerate(zeta)
    acc: dict[int, Fraction] = {}
    for i, c in pairs:
        acc[i] = acc[i] + Fraction(c) if i in acc else Fraction(c)
    entries = sorted((i, c) for i, c in acc.items() if c)
    den, nums = int_numerators(c for _, c in entries)  # gcd(den, *nums) == 1
    return SparseVector(den, tuple((i, z) for (i, _), z in zip(entries, nums)))


def lowest_terms(den: int, entries: Iterable[tuple[int, int]]) -> SparseVector:
    """The SparseVector of (index, int numerator) pairs in increasing index
    over a positive den: zero numerators dropped, common factors divided out."""
    entries = tuple(e for e in entries if e[1])
    g = gcd(den, *(z for _, z in entries))
    if g != 1:
        den, entries = den // g, tuple((i, z // g) for i, z in entries)
    return SparseVector(den, entries)


class OneParticleSpace:
    """A finite-dimensional real one-particle space with a symmetric gram form.

    The gram is kept only as its sparse int rows `int_rows`, one
    {i: gram_den <e_j, e_i>} per j over the one denominator `gram_den`,
    built once here from one row of exact rationals per basis index, dense
    or sparse (see sparse_vector), and checked for range and symmetry.  The
    pairings take SparseVectors and compute on ints.  The ring is only an
    evaluation point: its q0, if any, is where norm estimates evaluate;
    `EXACT`, the default, has none.  A space is compared and hashed by
    identity, so an annihilation keys its pairing row by the space itself.

    `diagonal` records that no gram row holds an index other than its own,
    as on every grid model, point set and step-function space: there a word
    pairs with no word but itself.  The space owns one cache, freed with
    it: `pn_blocks`, a list in degree order of the float arrays of
    `operator_norm_estimate` at the ring's q0, each degree built once from
    the one below (see `_pn_blocks`).
    """

    def __init__(self, dim: int, gram: Sequence[Sequence], ring: ScalarRing = EXACT):
        if len(gram) != dim:
            raise UsageError(f"gram must have {dim} rows, got {len(gram)}")
        self.dim = dim
        rows = tuple(map(sparse_vector, gram))
        den = self.gram_den = lcm(*(d for d, _ in rows))
        self.int_rows = tuple({i: z * (den // d) for i, z in row} for d, row in rows)
        for j, row in enumerate(self.int_rows):
            for i, g in row.items():
                if not 0 <= i < dim:
                    raise UsageError(f"gram row {j}: basis index {i} out of range")
                if self.int_rows[i].get(j) != g:
                    raise UsageError("gram must be symmetric")
        self.ring = ring
        self.diagonal = all(i == j for j, row in enumerate(self.int_rows) for i in row)
        self.pn_blocks: list[tuple] = []

    @staticmethod
    def orthonormal(dim: int, ring: ScalarRing = EXACT) -> "OneParticleSpace":
        return OneParticleSpace(dim, [((i, 1),) for i in range(dim)], ring)

    def pair_ints(self, zeta: SparseVector) -> tuple[int, dict[int, int]]:
        """The nonzero pairings {i: <zeta, e_i>} of a sparse vector as
        (den, {i: numerator}), in lowest terms: gcd(den, *numerators) == 1."""
        den, entries = zeta
        rows = self.int_rows
        row: dict[int, int] = {}
        for j, z in entries:
            if not 0 <= j < self.dim:
                raise UsageError(f"basis index {j} out of range")
            for i, g in rows[j].items():
                row[i] = row.get(i, 0) + z * g
        row = {i: g for i, g in row.items() if g}
        den *= self.gram_den
        d = gcd(den, *row.values())
        if d != 1:
            den //= d
            row = {i: g // d for i, g in row.items()}
        return den, row

    def pair(self, zeta: SparseVector, i: int) -> Fraction:
        """<zeta, e_i> under the gram form."""
        den, row = self.pair_ints(zeta)
        return Fraction(row.get(i, 0), den)

    def pair_vec(self, zeta: SparseVector, eta: SparseVector) -> Fraction:
        """<zeta, eta> under the gram form."""
        den, row = self.pair_ints(zeta)
        de, entries = eta
        return Fraction(sum(z * row[i] for i, z in entries if i in row), den * de)


class FockVector:
    """A finite combination of tensor words, graded by word length.

    Words are range-checked where they enter: `basis_word`, the `terms`
    argument and `add_term`.  Vectors built from checked ones (sums, scalings,
    operator images) skip the check.
    """

    __slots__ = ("space", "depth", "terms")

    def __init__(self, space: OneParticleSpace, depth: int,
                 terms: dict[Word, QScalar] | None = None):
        self.space = space
        self.depth = depth
        self.terms: dict[Word, QScalar] = {}
        if terms:
            for w, c in terms.items():
                self.add_term(w, c)

    @staticmethod
    def _of(space: OneParticleSpace, depth: int,
            terms: dict[Word, QScalar]) -> "FockVector":
        """A vector taking over terms, whose words are in range, no longer
        than depth and with no zero coefficient."""
        out = FockVector(space, depth)
        out.terms = terms
        return out

    @staticmethod
    def vacuum(space: OneParticleSpace, depth: int) -> "FockVector":
        return FockVector(space, depth, {(): ONE})

    @staticmethod
    def basis_word(space: OneParticleSpace, depth: int, word: Word) -> "FockVector":
        return FockVector(space, depth, {tuple(word): ONE})

    def add_term(self, word: Word, coeff: QScalar) -> None:
        if len(word) > self.depth:
            raise DepthExceededError(
                f"word of length {len(word)} exceeds depth {self.depth}")
        if word and (min(word) < 0 or max(word) >= self.space.dim):
            raise UsageError(f"basis index out of range in {word}")
        accumulate(self.terms, word, coeff)

    def _plus(self, other: "FockVector", c: QScalar | None) -> "FockVector":
        """self + c * other, c None meaning 1."""
        self._check(other)
        if other.depth > self.depth and other.top_degree() > self.depth:
            raise DepthExceededError(
                f"word of length {other.top_degree()} exceeds depth {self.depth}")
        return FockVector._of(self.space, self.depth,
                              add_scaled(dict(self.terms), other.terms, c))

    def __add__(self, other: "FockVector") -> "FockVector":
        return self._plus(other, None)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self._plus(other, -ONE)

    def scale(self, c: QScalar) -> "FockVector":
        return FockVector._of(self.space, self.depth, add_scaled({}, self.terms, c))

    def _check(self, other: "FockVector") -> None:
        if self.space is not other.space:
            raise UsageError("vectors live on different spaces")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def top_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def vacuum_coefficient(self) -> QScalar:
        return self.terms.get((), ZERO)

    def serialize(self) -> str:
        lines = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            lines.append(f"{self.terms[w]} | {','.join(map(str, w))}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (isinstance(other, FockVector) and self.space is other.space
                and self.terms == other.terms)

    def __repr__(self):
        if self.is_zero:
            return "FockVector(0)"
        return "FockVector(" + "; ".join(
            f"({c})*{w if w else 'Omega'}" for w, c in self.terms.items()) + ")"


# ---------------------------------------------------------------------------
# inner products


def inner0(u: FockVector, v: FockVector) -> QScalar:
    """Degreewise product of gram pairings; cross-degree terms vanish.

    Words pair only within their bucket: the word itself on a `diagonal`
    gram, and its degree on any other, where a pair is dropped at its first
    zero gram entry.  u's words are indexed by bucket, and v's words are
    streamed against that index, so a word of v whose bucket holds no word
    of u costs one lookup.  Everything is int numerators: u over one
    denominator, and a pairing of degree-n words a product of n int gram
    entries over gram_den^n.  A word of v is opened, its numerators put
    over v's one denominator as one multiplier, only when its bucket holds
    a word of u; each pairing times the two coefficients goes into one
    numerator list per degree n over den_u den_v gram_den^n, one `addmul`
    per power of q of the shorter coefficient.  The lists are put over the
    top degree's denominator at the end, and make one canonical scalar.
    """
    u._check(v)
    sp = u.space
    diag = sp.diagonal
    uimg = IntImage.of(u.terms)
    buckets: dict[Word | int, list] = {}
    for w, cu in uimg.terms.items():
        buckets.setdefault(w if diag else len(w), []).append((w, cu))
    gram = sp.int_rows
    vden = lcm(*(c.den for c in v.terms.values()))
    by_degree: dict[int, list[int]] = {}
    for w2, cv in v.terms.items():
        words = buckets.get(w2 if diag else len(w2))
        if words is None:
            continue
        m, c2 = vden // cv.den, cv.num  # the word of v, opened
        for w, cu in words:
            g = m
            for a, b in zip(w, w2):
                x = gram[a].get(b)
                if x is None:
                    break
                g *= x
            else:
                # g cu c2, one addmul per power of the shorter polynomial
                short, long = (cu, c2) if len(cu) <= len(c2) else (c2, cu)
                for k, y in enumerate(short):
                    if y:
                        addmul(by_degree, len(w), long, y * g, k)
    if not by_degree:
        return ZERO
    top, gd = max(by_degree), sp.gram_den
    total: dict = {}
    for n, num in by_degree.items():
        addmul(total, None, num, gd ** (top - n), 0)
    return QScalar.of_numerators(total[None], uimg.den * vden * gd ** top)


def apply_Pn(v: FockVector, within: FockVector | None = None) -> FockVector:
    """P_n on each degree-n part of v by the factorisation
    P_n = (1^{(x)(n-2)} (x) R_2) ... (1 (x) R_{n-1}) R_n; given `within` (on
    v's space), only the words of P v that can pair with a word of it.

    Step s moves each slot k >= s of a word to place s, with weight q^{k-s},
    and collects equal words, so the work is bounded by the distinct
    rearrangements of each word rather than by n!.  Slot s stays, so the
    word is its own key; slot k > s moves by one `operator.itemgetter` of
    the slot order (0..s-1, k, s..k-1, k+1..n-1), built once per call for
    each degree n and step s met.  The numerators stay over v's one
    denominator (a `qscalar.IntImage`): a move is a shift of k-s places,
    and each word becomes canonical once, at the end.  A degree above
    PN_CAP is refused up front.  Step n-2 is the last to move a degree-n
    word, and given `within` it keeps a word only if its bucket, as
    `inner0` keys it, holds a word of `within`; a dropped word pairs with
    none, so <within, P v>_0 is unchanged.  Words of degree 0 and 1, which
    no step moves, are all kept.
    """
    top = v.top_degree()
    check_size("apply_Pn degree", top, PN_CAP)
    img = IntImage.of(v.terms)
    if within is not None:
        v._check(within)
        diag = v.space.diagonal
        keep = {w if diag else len(w) for w in within.terms}
    for s in range(top - 1):
        moves: dict[int, list] = {}  # degree n -> None (slot s), a getter per k > s
        nxt: dict[Word, list[int]] = {}
        for w, num in img.terms.items():
            n = len(w)
            if n <= s + 1:
                nxt[w] = num  # no moved word has this length
                continue
            getters = moves.get(n)
            if getters is None:
                getters = moves[n] = [None] + [
                    itemgetter(*range(s), k, *range(s, k), *range(k + 1, n))
                    for k in range(s + 1, n)]
            last = within is not None and n == s + 2
            # a move's multiplier is 1: add num shifted, as addmul would
            for shift, move in enumerate(getters):
                key = move(w) if move else w
                acc = nxt.get(key)
                if acc is None:
                    if last and (key if diag else n) not in keep:
                        continue  # pairs with no word of within
                    nxt[key] = [0] * shift + num
                    continue
                short = shift + len(num) - len(acc)
                if short > 0:
                    acc += [0] * short
                for j, x in enumerate(num, shift):
                    acc[j] += x
        img.terms = nxt
    return FockVector._of(v.space, v.depth, img.scalars())


def innerq(u: FockVector, v: FockVector) -> QScalar:
    """The q-inner product <u, P v>_0; vectors on different spaces are
    refused before P v is built, and P v is built only where it can pair
    with u (`apply_Pn(v, u)`), which leaves the product as it is."""
    u._check(v)
    return inner0(u, apply_Pn(v, u))


# ---------------------------------------------------------------------------
# operators


class Gauge:
    """Protocol for the one-particle action inside a gauge operator, the
    multiplication by a real function (a `model.Letter` is its own), of
    three members: `den`, a positive int; column(i), the (j, int numerator)
    pairs of T e_i over den, in increasing j; and support(), a set of the
    basis indices i whose column may be nonzero, every other column being
    empty.  A column is computed when it is asked for, so an implementation
    can refuse one lazily; no column off the support is asked for.  A gauge
    is symmetric for the ambient gram form by contract, so it is its own
    adjoint.
    """

    __slots__ = ()
    den: int

    def column(self, i: int) -> Sequence[tuple[int, int]]:
        raise NotImplementedError

    def support(self) -> frozenset[int]:
        raise NotImplementedError


_KINDS = frozenset(("creation", "annihilation", "gauge", "scalar", "sum",
                    "compose"))


class FockOperator:
    """Lazy operator expression tree on the truncated Fock space.  A node is
    compared and hashed by identity: every memo over a tree keys its nodes
    by `id`, so equal subtrees are never walked to compare them."""

    __slots__ = ("kind", "payload", "operands", "payloads", "__weakref__")

    def __init__(self, kind: str, payload: object = None,
                 operands: tuple["FockOperator", ...] = ()):
        # creation, annihilation: a SparseVector; gauge: a Gauge; scalar: a
        # QScalar; sum, compose: operands, the rightmost factor acting first
        if kind not in _KINDS:
            raise UsageError(f"unknown operator kind {kind!r}")
        self.kind, self.payload, self.operands = kind, payload, operands
        self.payloads: dict = {}  # space -> an annihilation's pairing row

    # -- constructors ------------------------------------------------------

    @staticmethod
    def creation(zeta: Sequence) -> "FockOperator":
        """a*(zeta), for zeta in dense or sparse form (see sparse_vector)."""
        return FockOperator("creation", sparse_vector(zeta))

    @staticmethod
    def annihilation(zeta: Sequence) -> "FockOperator":
        """a(zeta), for zeta in dense or sparse form (see sparse_vector)."""
        return FockOperator("annihilation", sparse_vector(zeta))

    @staticmethod
    def gauge(g: Gauge) -> "FockOperator":
        return FockOperator("gauge", g)

    @staticmethod
    def scalar(c: QScalar) -> "FockOperator":
        return FockOperator("scalar", c)

    @staticmethod
    def identity() -> "FockOperator":
        return FockOperator("scalar", ONE)

    @staticmethod
    def opsum(ops: Iterable["FockOperator"]) -> "FockOperator":
        """The sum of ops: the one operand, or one node over ops as given,
        so a nested sum stays one shared operand; the empty sum is zero."""
        ops = tuple(ops)
        return ops[0] if len(ops) == 1 else FockOperator("sum", None, ops)

    @staticmethod
    def compose(ops: Iterable["FockOperator"]) -> "FockOperator":
        """The composition of ops, the rightmost acting first: the one
        operand, or one node over ops as given."""
        ops = tuple(ops)
        return ops[0] if len(ops) == 1 else FockOperator("compose", None, ops)

    # -- sugar -------------------------------------------------------------

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator.opsum([self, other])

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator.opsum([self, other.scale(-ONE)])

    def __mul__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator.compose([self, other])

    def scale(self, c: QScalar) -> "FockOperator":
        return FockOperator.compose([FockOperator.scalar(c), self])

    def pairing(self, space: OneParticleSpace) -> tuple[int, dict[int, int]]:
        """An annihilation node's pairing row on a space: `space.pair_ints`
        of its vector, built once per space."""
        pay = self.payloads.get(space)
        if pay is None:
            pay = self.payloads[space] = space.pair_ints(self.payload)
        return pay


def field_operator(zeta: Sequence, gauge: Gauge | None,
                   mean: Fraction | QScalar | None) -> FockOperator:
    """a(zeta) + a*(zeta) + p(T) + mean * Id, any summand optional; zeta in
    dense or sparse form (see sparse_vector).  With no summand it is the
    empty sum, the zero operator."""
    zeta = sparse_vector(zeta)
    parts: list[FockOperator] = []
    if zeta.entries:
        parts.append(FockOperator("creation", zeta))
        parts.append(FockOperator("annihilation", zeta))
    if gauge is not None:
        parts.append(FockOperator.gauge(gauge))
    if mean:  # None or zero adds no summand
        parts.append(FockOperator.scalar(mean if isinstance(mean, QScalar)
                                         else const(mean)))
    return FockOperator.opsum(parts)


def apply(op: FockOperator, v: FockVector) -> FockVector:
    """Apply an operator tree to a vector; a creation past the depth is a
    DepthExceededError.

    One recursive kernel accumulates factor * node(image) into an integer
    image out (a `qscalar.IntImage`) that its caller passes down: one int
    denominator and, per word, a list of int numerators, one per power of
    q.  A sum hands out to each operand, and a composition folds its scalar
    operands into factor, which the factor acting last applies.  A monomial
    factor y q^s / d reaches the leaves as a multiplier y and a shift s; a
    general polynomial factor makes its node's image with factor 1, and is
    convolved with each word of it once.  A leaf joins out's denominator
    once per call, and scales its ints by the call's multiplier only when
    that is not 1.  Each output word is made a canonical QScalar once, when
    the call returns, and words that cancelled to zero are dropped.

    A creation reads its SparseVector as it is, an annihilation its pairing
    row on v's space, kept on its node, and a gauge its int columns over
    `den` on its support, each read, checked and scaled when a word first
    meets its index, working on slot k of a word only where the index there
    has a nonzero column; an annihilation or gauge on slot k shifts its
    terms by k powers of q.  The words of v are in range, so the words added
    are too: a creation's vector and each gauge column are checked by every
    call that reads them, a pairing row when it is built.

    For the length of the call, the image of v under a shared node is kept,
    by node: under each factor that acts first in a composition, and under
    each sum that acts on v more than once.  A sum's first use accumulates
    straight into out, as an unshared sum does, and only records the node;
    its second use computes the image with factor 1 into an image of its
    own, and that use and every later one add it scaled by their factor.
    The images a composition passes on drop their zero words first, so a
    word that cancelled meets no later factor.  So a sum used once costs no
    copy, and the errors a node raises come from its first use, as without
    the memo.
    """
    kernel = _Kernel(v)
    out = IntImage()
    kernel.into(op, kernel.vimg, out, None)
    return FockVector._of(v.space, v.depth, out.scalars())


class _Kernel:
    """One call of `apply` on v, and its memo; its methods recurse through
    the instance, so a call leaves no reference cycle to collect."""

    __slots__ = ("sp", "depth", "vimg", "memo")

    def __init__(self, v: FockVector):
        self.sp, self.depth, self.vimg = v.space, v.depth, IntImage.of(v.terms)
        # by node id, on vimg: the image of each factor that acts first in a
        # composition, and of each sum used twice; None marks a sum used once
        self.memo: dict[int, IntImage | None] = {}

    def image(self, op: FockOperator, src: IntImage) -> IntImage:
        img = IntImage()
        self.into(op, src, img, None)
        return img.prune()

    def into(self, op: FockOperator, src: IntImage, out: IntImage,
             factor: QScalar | None) -> None:
        # factor None means 1, and is never zero
        kind = op.kind
        if kind == "scalar":
            c = op.payload
            out.add(src, c if factor is None else factor * c)
            return
        if factor is not None and not factor.is_monomial:
            out.add(self.image(op, src), factor)
            return
        if kind == "sum":
            if src is self.vimg:
                memo, node = self.memo, id(op)
                if node in memo:
                    img = memo[node]
                    if img is None:
                        img = memo[node] = IntImage()
                        for sub in op.operands:
                            self.into(sub, src, img, None)
                        img.prune()
                    out.add(img, factor)
                    return
                memo[node] = None
            for sub in op.operands:
                self.into(sub, src, out, factor)
            return
        if kind == "compose":
            factors = []
            for sub in op.operands:
                if sub.kind == "scalar":
                    c = sub.payload
                    factor = c if factor is None else factor * c
                else:
                    factors.append(sub)
            if factor is not None and factor.is_zero:
                return
            if not factors:
                out.add(src, factor)
                return
            memo, vimg = self.memo, self.vimg
            for sub in reversed(factors[1:]):
                nxt = memo.get(id(sub)) if src is vimg else None
                if nxt is None:
                    nxt = self.image(sub, src)
                    if src is vimg:
                        memo[id(sub)] = nxt
                src = nxt
            self.into(factors[0], src, out, factor)
            return

        # a leaf: factor is y q^s / df
        if factor is None:
            y, s, df = 1, 0, 1
        else:
            y, s, df = factor.num[-1], len(factor.num) - 1, factor.den
        terms, sp, depth = out.terms, self.sp, self.depth
        if kind == "creation":
            den, zeta = _creation(op, sp.dim)
            if not src.terms:
                return
            m = out.join(src.den * df * den) * y
            if m != 1:
                zeta = [(i, z * m) for i, z in zeta]
            for w, num in src.terms.items():
                if len(w) == depth:
                    raise DepthExceededError(
                        f"creation on a degree-{len(w)} word exceeds depth {depth}")
                for i, z in zeta:
                    addmul(terms, (i,) + w, num, z, s)
            return
        if kind == "annihilation":
            den, row = op.pairing(sp)
            if not src.terms:
                return
            m = out.join(src.den * df * den) * y
            if m != 1:
                row = {i: g * m for i, g in row.items()}
            for w, num in src.terms.items():
                for k, i in enumerate(w):
                    g = row.get(i)
                    if g is not None:
                        addmul(terms, w[:k] + w[k + 1:], num, g, s + k)
            return
        gauge: Gauge = op.payload  # the one kind left
        if not src.terms:
            return
        m = out.join(src.den * df * gauge.den) * y
        on, cols = gauge.support(), {}
        for w, num in src.terms.items():
            for k, i in enumerate(w):
                col = cols.get(i)
                if col is None:  # the index's first meeting: read, check, scale
                    col = cols[i] = _column(gauge, i, on, sp.dim, m)
                if col:
                    rest = w[:k] + w[k + 1:]
                    for j, x in col:
                        addmul(terms, (j,) + rest, num, x, s + k)


def _creation(op: FockOperator, dim: int) -> SparseVector:
    """A creation's vector, refused unless its indices lie in 0..dim-1."""
    zeta = op.payload
    if zeta.entries and (zeta.entries[0][0] < 0 or zeta.entries[-1][0] >= dim):
        raise UsageError(f"creation index out of range in {zeta}")
    return zeta


def _column(gauge: Gauge, i: int, on: frozenset[int], dim: int,
            m: int = 1) -> Sequence[tuple[int, int]]:
    """m times column i of a gauge whose support is on, empty off it; a
    column is refused unless its indices lie in 0..dim-1."""
    col = gauge.column(i) if i in on else ()
    if col and (col[0][0] < 0 or col[-1][0] >= dim):
        raise UsageError(f"gauge column {i} has an index out of range")
    return col if m == 1 else [(j, x * m) for j, x in col]


def adjoint(op: FockOperator) -> FockOperator:
    """Adjoint with respect to the q-inner product (real coefficients); a
    gauge is gram-symmetric by contract, so its own adjoint."""
    kind = op.kind
    if kind in ("scalar", "gauge"):
        return op
    if kind == "creation":
        return FockOperator.annihilation(op.payload)
    if kind == "annihilation":
        return FockOperator.creation(op.payload)
    if kind == "sum":
        return FockOperator.opsum(map(adjoint, op.operands))
    return FockOperator.compose(map(adjoint, reversed(op.operands)))


# ---------------------------------------------------------------------------
# norm estimates (floats at q0)
#
# Words of degree n are indexed in C order, first slot most significant, and
# the degrees follow each other from 0 up: the operator matrix and the q-gram
# blocks share this order.


def _slot_sum(dim: int, n: int, q0: float):
    """R_n = sum_k q0^k C_k over degree-n words as a dense float array:
    column w holds q0^k in the row of w with its tensor slot k moved to the
    front, so (T (x) 1) R_n is T acting on each slot k with weight q0^k."""
    import numpy as np

    cols = np.arange(dim ** n)
    words = cols.reshape((dim,) * n)
    r = np.zeros((cols.size, cols.size))
    for k in range(n):
        # the axis of the moved word's front slot takes place k of the
        # transpose, which lists each word's row in column order
        moved = words.transpose([*range(1, k + 1), 0, *range(k + 1, n)]).ravel()
        r[moved, cols] += q0 ** k
    return r


def _pn_matrix(g, below, r):
    """The degree-n q-gram, entry (w, w') = <w, P_n w'>_0 in lexicographic
    order, from the dense one-particle gram g, the q-gram below and r = R_n:
    Gram_n = (G (x) Gram_{n-1}) R_n, as P_n = (1 (x) P_{n-1}) R_n (Bozejko-
    Speicher) and G^{(x)n} (1 (x) P_{n-1}) = G (x) (G^{(x)(n-1)} P_{n-1})."""
    import numpy as np

    return np.kron(g, below) @ r


def _pn_blocks(space: OneParticleSpace, depth: int) -> list:
    """The space's blocks of degrees 0..depth at the ring's q0, each
    (R_n, Gram_n, L_n, L_n^{-1}): the slot sum (see _slot_sum), the q-gram,
    its lower Cholesky factor and that factor's inverse.  A missing degree
    is built once, from the one below; the degree-1 q-gram is G itself
    (P_1 = 1), so the dense G is built once per space and read from there."""
    import numpy as np

    blocks = space.pn_blocks
    q0 = float(space.ring.q0)
    if not blocks:
        one = np.ones((1, 1))
        blocks.append((_slot_sum(space.dim, 0, q0), one, one, one))
    for n in range(len(blocks), depth + 1):
        g = blocks[1][1] if n > 1 else np.array(
            [[row.get(i, 0) / space.gram_den for i in range(space.dim)]
             for row in space.int_rows])
        r = _slot_sum(space.dim, n, q0)
        gram = _pn_matrix(g, blocks[-1][1], r)
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(gram)
            raise ResourceBudgetError(
                f"q-gram numerically singular at degree {n} (cond ~ {cond:.3e})"
            ) from exc
        blocks.append((r, gram, factor, np.linalg.inv(factor)))
    return blocks[:depth + 1]


def _front(t, r):
    """(t (x) 1) r: t acts on the front slot of the rows of r, as one product
    with r's rows grouped by their front slot."""
    return (t @ r.reshape(t.shape[1], -1)).reshape(-1, r.shape[1])


def _compression(op: FockOperator, space: OneParticleSpace, depth: int):
    """The matrix of op compressed to words of length <= depth, evaluated at
    the ring's q0, built by one numpy rule per node kind.

    A creation has no block out of the top degree, and a composition
    multiplies its truncated factors: creations past the depth are dropped.
    Its scalar operands fold into one factor that scales the product, as in
    `apply`, rather than entering it as c*I.
    A creation's block from degree n is zeta (x) 1; an annihilation's or a
    gauge's block on degree n is (T (x) 1) R_n, with the slot sum R_n the
    space keeps (see _pn_blocks): T acts on each slot k moved to the front,
    with weight q0^k; T holds the columns on the gauge's support.
    """
    offsets = [0]
    for n in range(depth + 1):
        offsets.append(offsets[-1] + space.dim ** n)
    return _compress(op, space, _pn_blocks(space, depth), offsets)


def _compress(op: FockOperator, space: OneParticleSpace, blocks: list, offsets: list):
    """`_compression` of one node, degree n at offsets[n]:offsets[n + 1]."""
    import numpy as np

    dim, q0, size, depth = space.dim, space.ring.q0, offsets[-1], len(offsets) - 2

    def deg(n: int) -> slice:
        return slice(offsets[n], offsets[n + 1])

    def dense(den: int, entries) -> "np.ndarray":
        v = np.zeros(dim)
        for i, z in entries:
            v[i] = z / den
        return v

    kind = op.kind
    if kind == "scalar":
        return float(op.payload.subs(q0)) * np.eye(size)
    if kind == "sum":
        out = np.zeros((size, size))
        for sub in op.operands:
            out += _compress(sub, space, blocks, offsets)
        return out
    if kind == "compose":
        c, mats = 1.0, []
        for sub in op.operands:
            if sub.kind == "scalar":
                c *= float(sub.payload.subs(q0))
            else:
                mats.append(_compress(sub, space, blocks, offsets))
        m = reduce(np.matmul, mats) if mats else np.eye(size)
        if c != 1.0:
            m *= c
        return m
    m = np.zeros((size, size))
    if kind == "creation":
        zeta = dense(*_creation(op, dim))[:, None]
        for n in range(depth):
            m[deg(n + 1), deg(n)] = _front(zeta, np.eye(dim ** n))
    elif kind == "annihilation":
        den, row = op.pairing(space)
        row = dense(den, row.items())[None, :]
        for n in range(1, depth + 1):
            m[deg(n - 1), deg(n)] = _front(row, blocks[n][0])
    elif depth:  # a gauge; degree 0 has no slot, so no block there
        gauge: Gauge = op.payload
        t = np.zeros((dim, dim))
        # as in `apply`; the lowest column past a cutoff raises
        on = gauge.support()
        for i in range(dim):
            for j, x in _column(gauge, i, on, dim):
                t[j, i] = x / gauge.den
        for n in range(1, depth + 1):
            m[deg(n), deg(n)] = _front(t, blocks[n][0])
    return m


def operator_norm_estimate(op: FockOperator, space: OneParticleSpace,
                           depth: int) -> float:
    """Largest singular value of the compression of op to words of length
    <= depth, under the q-inner product, at the q0 of the space's ring.

    The compression is a dense matrix M (see _compression).  With the
    per-degree factors P_n = L_n L_n^T and their inverses that the space
    keeps (see _pn_blocks), the estimate is ||W||_2 for W = L^T M L^{-T},
    each degree's rows multiplied by L_n^T and its columns by L_n^{-T}, with
    no solve per call.  It is read as the square root of the top eigenvalue
    of W^T W, one path for every operator, self-adjoint or not: a symmetric
    eigensolver returns that eigenvalue with absolute error O(ε ||W||²), so
    σ_max keeps a relative error O(ε), at a fraction of the cost of an SVD.
    The kept inverse is accurate enough: a product by a computed inverse of
    L_n errs, like a solve against L_n, by cond(L_n) times the unit
    roundoff relative to ||L_n^{-1}||, and cond(L_n), the square root of
    the degree-n q-gram's, stays small at the sizes the cap admits: on an
    orthonormal 2-dim space it is 12 at q0 = 3/10, degree 10, and 180 at
    q0 = 7/10, degree 7.

    The basis may hold at most NORM_WORD_CAP words; a larger request is
    refused before anything is built, and then the space's blocks of
    degrees 0..depth are fetched.  On a grid model that does not close
    (`model.ProcessModel.closes`), unlike every canonical one, the gauge of
    a letter, and so its field, multiplies past the degree cutoff at the
    top power and raises CutoffExceededError.
    """
    import numpy as np

    if space.ring.q0 is None:
        raise UsageError("operator_norm_estimate needs a space whose ring has a q0")
    size = sum(space.dim ** n for n in range(depth + 1))
    if size > NORM_WORD_CAP:
        raise ResourceBudgetError(
            f"norm estimate at dim {space.dim}, depth {depth} needs {size} basis "
            f"words, over the limit of {NORM_WORD_CAP}")
    blocks = _pn_blocks(space, depth)
    m = _compression(op, space, depth)
    offset = 0
    for _, _, f, f_inv in blocks:
        block = slice(offset, offset + len(f))
        m[block, :] = f.T @ m[block, :]
        m[:, block] = m[:, block] @ f_inv.T
        offset += len(f)
    # max(0, .): a rounding may leave the top eigenvalue of a zero W below 0
    return float(np.sqrt(max(np.linalg.eigvalsh(m.T @ m)[-1], 0.0)))
