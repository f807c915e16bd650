"""Process models over a finite time grid.

Two instances of one "letter" algebra drive everything downstream:

* the grid model: L²(dt ⊗ nu), its basis the monic orthogonal polynomials
  P_k of nu on each grid atom A, of norm² |A| ||P_k||², read off a moment
  sequence; gauge action = multiplication by x f, and mean 0;
* the weighted point-set algebra: functions on a finite weighted point set, with the
  weighted-l2 inner product, pointwise multiplication as gauge, and the
  weighted average as mean.

The config keys that name a model, and the one function that builds either
algebra from them, live in `qfock.cli`; this module holds only the math.

A Letter bundles (one-particle vector, gauge action, mean) so that Wick
recursion, product expansions and stochastic measures share one code path.
In both algebras a letter's payload is its one-particle vector xi, a
`fock.SparseVector`; `Letter` adds, scales and multiplies payloads on their
ints, and gauges by multiplication, once for both, and each algebra keeps
only what differs: its validating `letter` constructor, `basis_product` (a
payload's entries times a basis vector, over its `product_den`), `support`
(where that product may be nonzero), mean and text.  An algebra hands its
ring, only an evaluation point, to its space and keeps no copy.

Each algebra owns the caches of its letters, so they are freed with it: the
intern table `letters` (one Letter per payload, so letters compare and hash
by identity), each letter's int gauge columns (read by every node and space,
and by its products), field node, int pairing row and products, the grid
model's interval letters (`intervals`), and `wick_cache` (wick.py), keyed
by words of letters.  What depends on nu and the cutoff alone is the moment
sequence's: its Hankel factors and the grid models' product tables, shared
by every model built on it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import CutoffExceededError, DegeneracyError, UsageError
from .fock import (FockOperator, Gauge, OneParticleSpace, SparseVector,
                   field_operator, lowest_terms, sparse_vector)
from .qscalar import ScalarRing

Interval = tuple[Fraction, Fraction]
Entries = tuple[tuple[int, int], ...]  # a SparseVector's entries


class MomentSequence:
    """Moments r_1, ..., r_K of the canonical measure nu.

    Indexing is shifted: r_{k+2} = int x^k dnu(x), so r_2 = nu(R).  r_1 is
    the centering term and must be 0.
    """

    def __init__(self, values: Sequence):
        self.r = tuple(Fraction(v) for v in values)
        if not self.r or self.r[0] != 0:
            raise UsageError("r_1 must be 0 (centered construction)")
        self.ks_memo: dict = {}  # power word -> A_u (kspoly.py)
        self.factors: dict = {}  # order m -> ldl_psd of hankel(m)
        self.tables: dict = {}  # (m, cutoff) -> a grid model's product table

    @staticmethod
    def from_measure(atoms: Iterable[tuple], length: int) -> "MomentSequence":
        """Moments of nu = sum w_j delta_{x_j}: r_{k+2} = sum w_j x_j^k, each
        summed on ints over the least denominator of its terms."""
        pts = tuple((Fraction(x), Fraction(w)) for x, w in atoms)
        if not pts or any(w <= 0 for _, w in pts):
            raise UsageError("measure needs positive weights on at least one atom")
        if length < 2:
            raise UsageError("need at least r_1, r_2")
        values, terms = [0], [(w.numerator, w.denominator) for _, w in pts]  # w_j x_j^k
        for _ in range(length - 1):
            den = lcm(*(d for _, d in terms))
            values.append(Fraction(sum(n * (den // d) for n, d in terms), den))
            terms = [(n * x.numerator, d * x.denominator)
                     for (n, d), (x, _) in zip(terms, pts)]
        return MomentSequence(values)

    @property
    def K(self) -> int:
        return len(self.r)

    def r_at(self, k: int) -> Fraction:
        if not 1 <= k <= len(self.r):
            raise UsageError(
                f"moment r_{k} not available (have r_1..r_{len(self.r)})")
        return self.r[k - 1]

    def hankel(self, m: int) -> list[list[Fraction]]:
        """The m x m matrix (r_{i+j+2})_{0 <= i,j < m} of nu-moments."""
        return [[self.r_at(i + j + 2) for j in range(m)] for i in range(m)]

    def hankel_factor(self, m: int) -> tuple[list[list[Fraction]], list[Fraction]]:
        """`ldl_psd` of hankel(m), kept per m in `factors`; a refusal is not."""
        if m not in self.factors:
            self.factors[m] = ldl_psd(self.hankel(m))
        return self.factors[m]


class TimeGrid:
    """Disjoint contiguous half-open atoms [a_i, b_i) covering [0, T)."""

    def __init__(self, boundaries: Sequence):
        bs = tuple(b if type(b) is Fraction else Fraction(b) for b in boundaries)
        if len(bs) < 2 or bs[0] != 0:
            raise UsageError("grid boundaries must start at 0 with >= 1 atom")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise UsageError("grid boundaries must strictly increase")
        self._set(bs, tuple(b - a for a, b in zip(bs, bs[1:])))

    def _set(self, bs: tuple[Fraction, ...], widths: tuple[Fraction, ...]) -> None:
        """Take over checked boundaries and their widths."""
        self.boundaries = bs
        self.atoms: tuple[Interval, ...] = tuple(zip(bs, bs[1:]))
        self.widths: tuple[Fraction, ...] = widths
        self._position = {b: i for i, b in enumerate(bs)}  # boundary -> index

    @staticmethod
    def uniform(T, N: int) -> "TimeGrid":
        """N atoms of width T/N: no subtraction or order check per atom."""
        T = Fraction(T)
        if N < 1 or T <= 0:
            raise UsageError("uniform grid needs T > 0, N >= 1")
        n, d = T.numerator, T.denominator * N
        out = TimeGrid.__new__(TimeGrid)
        out._set(tuple(Fraction(n * i, d) for i in range(N + 1)), (T / N,) * N)
        return out

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def horizon(self) -> Fraction:
        return self.boundaries[-1]

    def width(self, i: int) -> Fraction:
        return self.widths[i]

    @cached_property
    def space(self) -> OneParticleSpace:
        """The space of step functions: one basis vector per atom, of norm²
        its width, orthogonal to the others."""
        return OneParticleSpace(self.n_atoms,
                                [((a, w),) for a, w in enumerate(self.widths)])

    def mesh(self) -> Fraction:
        return max(self.widths)

    def atoms_in(self, interval: Interval) -> tuple[int, ...]:
        """Indices of the atoms composing [a, b); errors if not grid-aligned.
        An endpoint becomes a Fraction only if it misses as it is given."""
        pos = self._position  # an int or a Fraction hashes as its value
        try:
            i, j = pos[interval[0]], pos[interval[1]]
        except (LookupError, TypeError):  # converted, or refused, below
            i = j = 0
        if i >= j:
            a, b = Fraction(interval[0]), Fraction(interval[1])
            if a >= b:
                raise UsageError(f"empty interval [{a}, {b})")
            i, j = pos.get(a), pos.get(b)
            if i is None or j is None:
                raise UsageError(f"interval [{a}, {b}) not aligned with the grid")
        return tuple(range(i, j))

    def prefix(self, t) -> tuple[int, ...]:
        """Atoms of [0, t)."""
        return self.atoms_in((0, t))


# ---------------------------------------------------------------------------
# letters


class Letter(Gauge):
    """A generator symbol: one-particle vector + gauge action + mean.

    The payload is the letter's one-particle vector xi, a `SparseVector`.
    Sums, scalings, products and the gauge act on its ints here, the same in
    every algebra, each result in lowest terms (`fock.lowest_terms`); the
    algebra supplies `basis_product`, the mean and the text.

    Letters are interned in their algebra: `Letter(algebra, payload)` returns
    the one letter the algebra's `letters` table holds for that payload,
    making it on first use.  So equal letters are one object, equality and
    hashing are identity, and every cache keyed by letters (`wick_cache`,
    the product and vacuum-moment memos) hashes object ids, not payloads.

    A letter is its own gauge (`fock.Gauge`): multiplication by it,
    gram-symmetric as the letter is real.  Column i is the algebra's basis
    product of its entries with e_i, over `den` (the payload's times the
    algebra's `product_den`), kept in `columns` from its first use, so a
    degree overflow fires only when an offending column is used, by a gauge
    or by a product, and at every such use.

    Each letter keeps, built once and freed with its algebra: its gauge
    columns and their `support`; its `field` node, whose annihilation keeps
    the pairing row that `pairing` reads and `letter_pair` pairs with the
    other letter's payload; its `mean`; and its products and pairings.
    """

    __slots__ = ("algebra", "payload", "columns", "_support", "_field", "_mean",
                 "_products", "_pairs")

    def __new__(cls, algebra, payload: SparseVector) -> "Letter":
        """The algebra's letter of a payload, a SparseVector."""
        self = algebra.letters.get(payload)
        if self is None:
            self = algebra.letters[payload] = super().__new__(cls)
            self.algebra = algebra
            self.payload = payload
            self.columns = {}  # basis index -> its gauge column
            self._support = self._field = self._mean = None
            self._products = {}  # other letter -> self * other
            self._pairs = {}  # other letter -> letter_pair(self, other)
        return self

    def xi(self) -> SparseVector:
        return self.algebra.xi(self.payload)

    @property
    def den(self) -> int:
        return self.payload.den * self.algebra.product_den

    def column(self, i: int) -> tuple[tuple[int, int], ...]:
        col = self.columns.get(i)
        if col is None:
            col = self.columns[i] = self.algebra.basis_product(self.payload.entries, i)
        return col

    def support(self) -> frozenset[int]:
        """The indices whose gauge column may be nonzero, by the algebra."""
        if self._support is None:
            self._support = self.algebra.support(self.payload.entries)
        return self._support

    def gauge(self) -> Letter | None:
        """Multiplication by the letter: the letter itself; None for 0."""
        return self if self.payload.entries else None

    def mean(self) -> Fraction:
        """The algebra's mean of the payload, computed on the first call and
        kept: the letter is interned and immutable, and the arc-state
        transfer asks for it once per position."""
        if self._mean is None:
            self._mean = self.algebra.mean(self.payload)
        return self._mean

    def field(self) -> FockOperator:
        """X(f) = a(xi) + a*(xi) + p(T) + mean, one node per letter."""
        if self._field is None:
            self._field = field_operator(self.xi(), self.gauge(), self.mean())
        return self._field

    def pairing(self) -> tuple[int, dict[int, int]]:
        """The nonzero <xi, e_i> on the algebra's space as (den, {i:
        numerator}) in lowest terms: the row that the annihilation leaf of
        `field()` keeps, so `apply` and `letter_pair` build it once."""
        for op in self.field().operands:
            if op.kind == "annihilation":
                return op.pairing(self.algebra.space)
        return 1, {}

    def _check(self, other: "Letter") -> None:
        if not isinstance(other, Letter) or other.algebra is not self.algebra:
            raise UsageError("letters from different algebra instances")

    def __mul__(self, other: "Letter") -> "Letter":
        """The bilinear extension of the algebra's basis product: the sum of
        z other.column(i) over self's payload entries (i, z), over den times
        other's den, so products and gauges share one column cache.  An
        index off other's support has an empty column, and none is built."""
        self._check(other)
        out = self._products.get(other)
        if out is None:
            acc: dict[int, int] = {}
            den, entries = self.payload
            on = other.support()
            for i, z in entries:
                if i in on:
                    for j, x in other.column(i):
                        acc[j] = acc.get(j, 0) + z * x
            out = self._products[other] = Letter(
                self.algebra, lowest_terms(den * other.den, sorted(acc.items())))
        return out

    def __add__(self, other: "Letter") -> "Letter":
        self._check(other)
        den, acc = lcm(self.payload.den, other.payload.den), {}
        for d, entries in (self.payload, other.payload):
            for i, z in entries:
                acc[i] = acc.get(i, 0) + z * (den // d)
        return Letter(self.algebra, lowest_terms(den, sorted(acc.items())))

    def __sub__(self, other: "Letter") -> "Letter":
        return self + other.scale(-1)

    def scale(self, c) -> "Letter":
        c, (den, entries) = Fraction(c), self.payload
        return Letter(self.algebra, lowest_terms(
            den * c.denominator, ((i, z * c.numerator) for i, z in entries)))

    @property
    def is_zero(self) -> bool:
        return not self.payload.entries

    def __repr__(self):
        return f"Letter({self.algebra.describe(self.payload)})"


def letter_pair(a: Letter, b: Letter) -> Fraction:
    """<xi_a, xi_b> under the algebra's gram form: a's int pairing row
    against b's payload, computed once and kept on a, as a's products are."""
    out = a._pairs.get(b)
    if out is None:
        a._check(b)
        den, row = a.pairing()
        db, xi = b.payload
        out = a._pairs[b] = Fraction(sum(z * row[i] for i, z in xi if i in row),
                                     den * db)
    return out


def _basis_letter(algebra, i: int) -> Letter:
    """The letter of the basis vector e_i of the algebra's space, its
    canonical payload built directly."""
    if not 0 <= i < algebra.space.dim:
        raise UsageError(f"basis index {i} out of range")
    return Letter(algebra, SparseVector(1, ((i, 1),)))


# ---------------------------------------------------------------------------
# the grid model


class ProcessModel:
    """The grid discretization of L²(dt ⊗ nu): basis e_{A,k} = P_k at index
    A rank + k, the monic orthogonal polynomials of nu on each atom A, with
    the diagonal gram <e_{A,j}, e_{B,k}> = delta_{AB} delta_{jk} |A| d_{k+1}.

    The model reads the factor H = L diag(d) L^T of the Hankel form H =
    [r_{j+k}], j, k = 1..m, from its moment sequence, which computes it by
    `ldl_psd` once per m, and keeps (L, d) as `hankel_factor`; m is
    degree_cutoff + 1 when the moments reach r_{2 degree_cutoff + 2}, else
    degree_cutoff.  H must be positive semidefinite with no nonzero pivot
    after a zero one, as a measure's is.  Row k of L^-1 is P_k (`monic_op`)
    and row k of L expands x^k in P_0..P_k.  When d_{s+1} = 0, P_s is null
    and the model `closes`: each atom keeps P_0..P_{s-1}, and products
    reduce modulo P_s; else each keeps P_0..P_{degree_cutoff-1}, and a
    product of letter power past degree_cutoff is a CutoffExceededError.

    `letter` takes {(atom, power): coefficient}, power k naming x^{k-1} up
    to degree_cutoff, and converts each entry once through row k-1 of L.  A
    letter product is multiplication by x f g, read off one table of
    x P_a P_e (`basis_product`) over `product_den`, which the sequence keeps
    per (m, degree_cutoff), so the models of one sequence share it.
    """

    def __init__(self, ring: ScalarRing, moments: MomentSequence, grid: TimeGrid,
                 degree_cutoff: int, fock_depth: int = 6):
        if degree_cutoff < 1 or fock_depth < 1:
            raise UsageError("degree_cutoff and fock_depth must be >= 1")
        c = degree_cutoff
        if moments.K < 2 * c:
            raise UsageError(f"gram at cutoff {c} needs moments through "
                             f"r_{2 * c}, have r_1..r_{moments.K}")
        m = c + 1 if moments.K >= 2 * c + 2 else c
        try:
            low, pivots = self.hankel_factor = moments.hankel_factor(m)
        except UsageError as exc:
            raise UsageError(f"moments are not those of a measure: the Hankel "
                             f"form [r_(j+k)], j, k = 1..{m}, is {exc}") from exc
        s = pivots.index(0) if 0 in pivots else m
        for k in range(s + 1, m):
            if pivots[k]:
                raise UsageError(f"moments are not those of a measure: pivot "
                                 f"d_{k + 1} = {pivots[k]} after d_{s + 1} = 0")
        self.closes = s < m
        self.rank = b = min(s, c)
        self.moments = moments
        self.grid = grid
        self.degree_cutoff = degree_cutoff
        self.fock_depth = fock_depth
        self.letters: dict = {}  # canonical payload -> its one Letter
        self.intervals: dict = {}  # (first atom, end atom, power) -> its letter
        self.wick_cache: dict = {}  # letter word -> its Wick operator (wick.py)
        # each gram row a ready SparseVector, |A| d_{k+1} made once per atom
        # width and keyed by its ints, which hash faster than a Fraction
        keys = [(w.numerator, w.denominator) for w in grid.widths]
        diag = {key: [w * d for d in pivots[:b]]
                for key, w in dict(zip(keys, grid.widths)).items()}
        self.space = OneParticleSpace(grid.n_atoms * b, [
            SparseVector(d.denominator, ((a * b + k, d.numerator),))
            for a, key in enumerate(keys) for k, d in enumerate(diag[key])], ring)
        # x^k in P_0..P_{rank-1}: row k of L, its null part dropped
        self._powers = [sparse_vector(low[k][:b]) for k in range(c)]
        if (m, c) not in moments.tables:
            moments.tables[m, c] = self._product_table()
        self.product_den, self._products = moments.tables[m, c]

    def _product_table(self) -> tuple[int, list[list]]:
        """x P_a P_e in P_0..P_{rank-1}, a, e < rank, as (k, int numerator)
        pairs over one denominator; None past the cutoff of a model that
        does not close.  By the Jacobi recurrence x P_k = P_{k+1} +
        beta_k P_k + gamma_k P_{k-1} (P_rank dropped: null, or never reached;
        gamma_k = d_{k+1} / d_k, beta_0 + ... + beta_{k-1} = L[k][k-1]),
        P_a P_{e+1} = (x - beta_e) P_a P_e - gamma_e P_a P_{e-1}, for a >= e
        only, as P_a P_e = P_e P_a; on ints over D, the betas' and gammas'
        least denominator.  Every vector is kept in lowest terms, as ints
        over its own denominator, so a step grows no int by more than D; the
        table takes the lcm of those denominators."""
        (low, pivots), b = self.hankel_factor, self.rank
        beta = [low[k + 1][k] - (low[k][k - 1] if k else 0)
                for k in range(min(b, len(low) - 1))]
        gamma = [pivots[k] / pivots[k - 1] if k else 0 for k in range(b)]
        d = lcm(*(x.denominator for x in beta + gamma))
        beta, gamma = [int(x * d) for x in beta], [int(x * d) for x in gamma]

        def times_x(v: list) -> list:  # D x v
            return [(k and d * v[k - 1]) + (v[k] and beta[k] * v[k])
                    + (k + 1 < b and gamma[k + 1] * v[k + 1]) for k in range(b)]

        def lowest(den: int, v: list) -> tuple[int, list]:  # v / den
            g = gcd(den, *v)
            return (den, v) if g == 1 else (den // g, [x // g for x in v])

        table = [[None] * b for _ in range(b)]
        # a -> P_a P_{e-1} and P_a P_e, each as (its denominator, ints)
        prev = dict.fromkeys(range(b), (1, [0] * b))
        cur = {a: (1, [int(k == a) for k in range(b)]) for a in range(b)}
        for e in range(b):
            nxt = {}
            for a in range(e, b if self.closes else b - 1 - e):
                (s, v), (sp, vp) = cur[a], prev[a]
                x_v = times_x(v)  # x P_a P_e, over s D
                table[a][e] = lowest(s * d, x_v)
                if a > e:
                    m = lcm(s, sp)  # P_a P_{e+1} over D m
                    u, w = m // s, gamma[e] * (m // sp)
                    nxt[a] = lowest(d * m, [(x - beta[e] * y) * u - w * z
                                            for x, y, z in zip(x_v, v, vp)])
            prev, cur = cur, nxt
        den = lcm(*(v[0] for row in table for v in row if v))
        for a in range(b):
            for e in range(a + 1):
                if table[a][e]:
                    s, v = table[a][e]
                    m = den // s
                    table[a][e] = table[e][a] = tuple((k, x * m) for k, x in enumerate(v) if x)
        return den, table

    # -- orthogonal polynomials ---------------------------------------------

    def monic_op(self, k: int) -> tuple[Fraction, ...]:
        """Coefficients c_0..c_k (c_k = 1) of the monic polynomial P_k
        orthogonal to all lower degrees under <x^a, x^b> = r_{a+b+2}: row k
        of L^-1, where L diag(d) L^T is the Hankel form (`hankel_factor`).
        P_k exists when d_1..d_k are nonzero, i.e. when nu has at least k
        support points; its letter has powers 1..k+1, so k < degree_cutoff."""
        low, pivots = self.hankel_factor
        if not 0 <= k < self.degree_cutoff:
            raise UsageError(f"degree {k} outside 0..{self.degree_cutoff - 1} "
                             f"at cutoff {self.degree_cutoff}")
        if 0 in pivots[:k]:
            raise DegeneracyError(
                f"Hankel matrix of order {k} is singular, pivot "
                f"d_{pivots.index(0) + 1} = 0 (measure supported on fewer "
                f"than {k} points)")
        # solve c L = e_k from the right: c_j = -sum_{i > j} c_i L[i][j]
        c = [Fraction(0)] * k + [Fraction(1)]
        for j in range(k - 1, -1, -1):
            c[j] = -sum(c[i] * low[i][j] for i in range(j + 1, k + 1))
        return tuple(c)

    # -- letter-algebra protocol -------------------------------------------

    def letter(self, entries: dict[tuple[int, int], Fraction] | Iterable) -> Letter:
        b, out = self.rank, []
        for (a, k), c in dict(entries).items():
            if not 0 <= a < self.grid.n_atoms:
                raise UsageError(f"atom index {a} out of range")
            den, row = self._power(k)
            c = Fraction(c)
            out.extend((a * b + j, Fraction(z, den) * c) for j, z in row)
        return Letter(self, sparse_vector(out))

    def _power(self, k: int) -> SparseVector:
        """x^{k-1} in P_0..P_{rank-1}, for a power k in 1..degree_cutoff."""
        if not 1 <= k <= self.degree_cutoff:
            raise UsageError(f"power {k} outside 1..{self.degree_cutoff}")
        return self._powers[k - 1]

    def basis_place(self, i: int) -> tuple[int, int]:
        """(A, k) of basis index i: e_{A,k} = P_k on atom A sits at A rank + k."""
        return divmod(i, self.rank)

    def basis_product(self, p: Entries, i: int) -> Entries:
        """p e_i over `product_den`, p a payload's entries: its terms c P_k on the
        atom of e_i = P_m, found by bisection, each taken to c x P_k P_m by the
        product table; a product past the cutoff is a CutoffExceededError."""
        b = self.rank
        a, m = self.basis_place(i)
        lo = a * b  # P_0 on A sits at lo
        out = [0] * b
        for j, c in p[bisect_left(p, (lo,)):bisect_left(p, (lo + b,))]:
            col = self._products[j - lo][m]
            if col is None:
                raise CutoffExceededError(f"letter product degree {j - lo + m + 2} "
                                          f"exceeds cutoff {self.degree_cutoff}")
            for k, x in col:
                out[k] += c * x
        return tuple((lo + k, x) for k, x in enumerate(out) if x)

    def support(self, p: Entries) -> frozenset[int]:
        """Every index on an atom that p touches: p e_i is 0 off them."""
        b = self.rank
        return frozenset(j for a in {i // b for i, _ in p}
                         for j in range(a * b, a * b + b))

    def xi(self, p: SparseVector) -> SparseVector:
        return p

    def mean(self, p: SparseVector) -> Fraction:
        return Fraction(0)

    def describe(self, p: SparseVector) -> str:
        return " + ".join(f"{Fraction(z, p.den)}*P{k}[A{a}]" for i, z in p.entries
                          for a, k in (self.basis_place(i),)) or "0"

    # -- convenience -------------------------------------------------------

    def atom_letter(self, atom: int, power: int = 1) -> Letter:
        """x^{power-1} on one atom, refused outside 0..n_atoms-1."""
        if not 0 <= atom < self.grid.n_atoms:
            raise UsageError(f"atom index {atom} out of range")
        return self._run_letter(atom, atom + 1, power)

    def basis_letter(self, i: int) -> Letter:
        return _basis_letter(self, i)

    def interval_letter(self, interval: Interval, power: int = 1) -> Letter:
        """The letter of chi_I x^{power-1}: x^{power-1} on every atom of I."""
        atoms = self.grid.atoms_in(interval)
        return self._run_letter(atoms[0], atoms[-1] + 1, power)

    def _run_letter(self, first: int, end: int, power: int) -> Letter:
        """x^{power-1} on atoms first..end-1, built once, kept in `intervals`."""
        key = (first, end, power)
        out = self.intervals.get(key)
        if out is None:
            # its power's row repeated per atom, in lowest terms as the row is
            (den, row), b = self._power(power), self.rank
            out = self.intervals[key] = Letter(self, SparseVector(den, tuple(
                (a * b + j, z) for a in range(first, end) for j, z in row)))
        return out

    def prefix_letter(self, t, power: int = 1) -> Letter:
        return self.interval_letter((0, t), power)


def ldl_psd(a: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The exact LDL^T of a symmetric positive semidefinite rational matrix,
    without pivoting: L unit lower triangular, as rows, and the pivots
    d_1, ..., d_m >= 0, with a = L diag(d) L^T; a zero pivot keeps the
    identity's column in L.  A matrix that is not positive semidefinite is
    a UsageError naming the first pivot that shows it: a negative one, or
    a zero one over a nonzero column (then a principal 2 x 2 minor
    [[0, b], [b, c]] has determinant -b^2 < 0)."""
    m = len(a)
    s = [[Fraction(x) for x in row] for row in a]  # Schur complements, lower half
    low = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    pivots = []
    for k in range(m):
        p = s[k][k]
        if p < 0 or not p and any(s[i][k] for i in range(k + 1, m)):
            raise UsageError(f"not positive semidefinite: pivot d_{k + 1} = {p}"
                             + ("" if p else " over a nonzero column"))
        pivots.append(p)
        if p:
            for i in range(k + 1, m):
                low[i][k] = c = s[i][k] / p
                for j in range(k + 1, i + 1) if c else ():
                    s[i][j] -= c * s[j][k]
    return low, pivots


# ---------------------------------------------------------------------------
# the weighted point-set algebra


class WeightedPointAlgebra:
    """Functions on a finite weighted point set, with the weighted-l2 gram,
    pointwise multiplication as gauge, and the weighted average as mean.

    `letter` takes the values at every point; the payload it builds is the
    sparse vector of the nonzero values, indexed by point."""

    product_den = 1  # a basis product is a value: no denominator

    def __init__(self, points: Sequence, weights: Sequence, ring: ScalarRing,
                 fock_depth: int = 6):
        self.points = tuple(Fraction(x) for x in points)
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.points) != len(self.weights) or not self.points:
            raise UsageError("points and weights must align and be nonempty")
        if any(w <= 0 for w in self.weights):
            raise UsageError("weights must be positive")
        if sum(self.weights) != 1:
            raise UsageError("weights must sum to 1")
        if fock_depth < 1:
            raise UsageError("fock_depth must be >= 1")
        self.fock_depth = fock_depth
        self.letters: dict = {}  # canonical payload -> its one Letter
        self.wick_cache: dict = {}  # letter word -> its Wick operator (wick.py)
        self.space = OneParticleSpace(
            len(self.points), [((i, w),) for i, w in enumerate(self.weights)], ring)

    # -- letter-algebra protocol -------------------------------------------

    def letter(self, values: Sequence) -> Letter:
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != len(self.points):
            raise UsageError("function must assign a value to every point")
        return Letter(self, sparse_vector(vals))

    def basis_product(self, p: Entries, i: int) -> Entries:
        """p e_i: e_i scaled by the value of p at point i, found by bisection."""
        k = bisect_left(p, (i,))
        return p[k:k + 1] if k < len(p) and p[k][0] == i else ()

    def support(self, p: Entries) -> frozenset[int]:
        """p's own indices: p e_i is 0 off them."""
        return frozenset(i for i, _ in p)

    def xi(self, p: SparseVector) -> SparseVector:
        return p

    def mean(self, p: SparseVector) -> Fraction:
        return sum((self.weights[i] * z for i, z in p.entries), Fraction(0)) / p.den

    def describe(self, p: SparseVector) -> str:
        values = dict(p.entries)
        return str(tuple(str(Fraction(values.get(i, 0), p.den))
                         for i in range(len(self.points))))

    # -- convenience -------------------------------------------------------

    def one(self) -> Letter:
        return self.letter([1] * len(self.points))

    def basis_letter(self, i: int) -> Letter:
        return _basis_letter(self, i)

    def sup_norm(self, f: Letter) -> Fraction:
        return Fraction(max((abs(z) for _, z in f.payload.entries), default=0),
                        f.payload.den)
