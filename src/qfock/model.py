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
In both algebras a letter's payload is its one-particle vector xi, in the
one sparse form of `fock.SparseVector`; `Letter` adds, scales and
multiplies payloads, and gauges by multiplication, once for both, and each
algebra keeps only what differs: its validating `letter` constructor,
`basis_product` (a payload, of Fraction or int coefficients, times a basis
vector, over its `product_den`), mean and text.  An algebra hands its ring,
only an evaluation point, to its space and keeps no copy.

Each algebra owns the caches of its letters, so they are freed with it: the
intern table `letters` (one Letter per canonical payload, so letters compare
and hash by identity), each letter's int payload, the int gauge columns it
builds (for every node and space, as a letter is its own gauge), field node,
int pairing row and products, and `wick_cache` (wick.py), keyed by words of
letters.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import CutoffExceededError, DegeneracyError, UsageError
from .fock import (FockOperator, Gauge, OneParticleSpace, SparseVector,
                   field_operator, sparse_vector)
from .qscalar import ScalarRing, int_numerators

Interval = tuple[Fraction, Fraction]
_ONE = Fraction(1)  # the coefficient of the convenience letters


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

    @staticmethod
    def from_measure(atoms: Iterable[tuple], length: int) -> "MomentSequence":
        """Moments of nu = sum w_j delta_{x_j}: r_{k+2} = sum w_j x_j^k."""
        pts = tuple((Fraction(x), Fraction(w)) for x, w in atoms)
        if not pts or any(w <= 0 for _, w in pts):
            raise UsageError("measure needs positive weights on at least one atom")
        if length < 2:
            raise UsageError("need at least r_1, r_2")
        values = [Fraction(0)]
        for k in range(length - 1):
            values.append(sum((w * x ** k for x, w in pts), Fraction(0)))
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


class TimeGrid:
    """Disjoint contiguous half-open atoms [a_i, b_i) covering [0, T)."""

    def __init__(self, boundaries: Sequence):
        bs = [Fraction(b) for b in boundaries]
        if len(bs) < 2 or bs[0] != 0:
            raise UsageError("grid boundaries must start at 0 with >= 1 atom")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise UsageError("grid boundaries must strictly increase")
        self.boundaries = tuple(bs)
        self.atoms: tuple[Interval, ...] = tuple(zip(bs, bs[1:]))
        self.widths: tuple[Fraction, ...] = tuple(b - a for a, b in self.atoms)
        self._position = {b: i for i, b in enumerate(bs)}  # boundary -> index

    @staticmethod
    def uniform(T, N: int) -> "TimeGrid":
        T = Fraction(T)
        if N < 1 or T <= 0:
            raise UsageError("uniform grid needs T > 0, N >= 1")
        return TimeGrid([T * i / N for i in range(N + 1)])

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
        """Indices of the atoms composing [a, b); errors if not grid-aligned."""
        a, b = Fraction(interval[0]), Fraction(interval[1])
        if a >= b:
            raise UsageError(f"empty interval [{a}, {b})")
        i, j = self._position.get(a), self._position.get(b)
        if i is None or j is None:
            raise UsageError(f"interval [{a}, {b}) not aligned with the grid")
        return tuple(range(i, j))

    def prefix(self, t) -> tuple[int, ...]:
        """Atoms of [0, t)."""
        return self.atoms_in((Fraction(0), Fraction(t)))


# ---------------------------------------------------------------------------
# letters


class Letter(Gauge):
    """A generator symbol: one-particle vector + gauge action + mean.

    The payload is the letter's one-particle vector xi itself, a canonical
    `SparseVector`: sorted (basis index, Fraction) pairs with no zero.  Sums,
    scalings, products and the gauge act on it here, the same in every
    algebra; the algebra supplies `basis_product`, the mean and the text.

    Letters are interned in their algebra: `Letter(algebra, payload)` returns
    the one letter the algebra's `letters` table holds for that canonical
    payload, making it on first use.  So equal letters are one object,
    equality and hashing are identity, and every cache keyed by letters
    (`wick_cache`, the product and vacuum-moment memos) hashes object ids,
    not Fractions.  Letters from different algebra instances never mix.

    A letter is its own gauge (`fock.Gauge`): multiplication by it,
    gram-symmetric as the letter is real.  Column i is the algebra's basis
    product of its int payload with e_i, over `den` (the payload's times the
    algebra's `product_den`), kept in `columns` from its first use, so a
    degree overflow fires only when an offending column is used, and at
    every such use.

    Each letter keeps, built once and freed with its algebra: its payload
    as (den, ((i, int numerator), ...)) (`ints`); its gauge columns
    (`columns`); its field node (`field`), whose creation and annihilation
    leaves hold its payload and its pairing row as ints per space; that
    pairing row (`pairing`), which `letter_pair` reads with the other
    letter's `ints`; its mean (`mean`); and its products and pairings with
    other letters.
    """

    __slots__ = ("algebra", "payload", "ints", "columns", "_field", "_row",
                 "_mean", "_products", "_pairs")

    def __new__(cls, algebra, payload: SparseVector) -> "Letter":
        """The algebra's letter of a canonical payload (see sparse_vector)."""
        self = algebra.letters.get(payload)
        if self is None:
            self = algebra.letters[payload] = super().__new__(cls)
            self.algebra = algebra
            self.payload = payload
            den, nums = int_numerators(c for _, c in payload)
            self.ints = den, tuple((i, z) for (i, _), z in zip(payload, nums))
            self.columns = {}  # basis index -> its gauge column
            self._field = self._row = self._mean = None
            self._products = {}  # other letter -> self * other
            self._pairs = {}  # other letter -> letter_pair(self, other)
        return self

    def xi(self) -> SparseVector:
        return self.algebra.xi(self.payload)

    @property
    def den(self) -> int:
        return self.ints[0] * self.algebra.product_den

    def column(self, i: int) -> tuple[tuple[int, int], ...]:
        col = self.columns.get(i)
        if col is None:
            col = self.columns[i] = self.algebra.basis_product(self.ints[1], i)
        return col

    def gauge(self) -> Letter | None:
        """Multiplication by the letter: the letter itself; None for 0."""
        return self if self.payload else None

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
        if self._row is None:
            self._row = (1, {})
            for op in self.field().operands:
                if op.kind == "annihilation":
                    self._row = op.pairing(self.algebra.space)
        return self._row

    def _check(self, other: "Letter") -> None:
        if not isinstance(other, Letter) or other.algebra is not self.algebra:
            raise UsageError("letters from different algebra instances")

    def __mul__(self, other: "Letter") -> "Letter":
        """The bilinear extension of the algebra's basis product, the one the
        gauge columns use: the sum of c (other e_i) over self's (i, c)."""
        self._check(other)
        out = self._products.get(other)
        if out is None:
            acc: dict[int, Fraction] = {}
            for i, c in self.payload:
                for j, x in self.algebra.basis_product(other.payload, i):
                    x *= c
                    acc[j] = acc[j] + x if j in acc else x
            out = self._products[other] = Letter(self.algebra, tuple(sorted(
                (j, x / self.algebra.product_den) for j, x in acc.items() if x)))
        return out

    def __add__(self, other: "Letter") -> "Letter":
        self._check(other)
        return Letter(self.algebra, sparse_vector(self.payload + other.payload))

    def __sub__(self, other: "Letter") -> "Letter":
        return self + other.scale(-1)

    def scale(self, c) -> "Letter":
        c = Fraction(c)
        return Letter(self.algebra,
                      tuple((i, x * c) for i, x in self.payload) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self.payload

    def __repr__(self):
        return f"Letter({self.algebra.describe(self.payload)})"


def letter_pair(a: Letter, b: Letter) -> Fraction:
    """<xi_a, xi_b> under the algebra's gram form: a's int pairing row
    against b's int payload, its one-particle vector, computed once and kept
    on a, as a's products are."""
    out = a._pairs.get(b)
    if out is None:
        a._check(b)
        den, row = a.pairing()
        db, xi = b.ints
        out = a._pairs[b] = Fraction(sum(z * row[i] for i, z in xi if i in row),
                                     den * db)
    return out


def _basis_letter(algebra, i: int) -> Letter:
    """The letter of the basis vector e_i of the algebra's space, its
    canonical payload built directly."""
    if not 0 <= i < algebra.space.dim:
        raise UsageError(f"basis index {i} out of range")
    return Letter(algebra, ((i, _ONE),))


# ---------------------------------------------------------------------------
# the grid model


class ProcessModel:
    """The grid discretization of L²(dt ⊗ nu): basis e_{A,k} = P_k at index
    A rank + k, the monic orthogonal polynomials of nu on each atom A, with
    the diagonal gram <e_{A,j}, e_{B,k}> = delta_{AB} delta_{jk} |A| d_{k+1}.

    The model factors the Hankel form H = [r_{j+k}], j, k = 1..m, once,
    H = L diag(d) L^T by `ldl_psd`, and keeps (L, d) as `hankel_factor`; m
    is degree_cutoff + 1 when the moments reach r_{2 degree_cutoff + 2}, else
    degree_cutoff.  H must be positive semidefinite with no nonzero pivot
    after a zero one, as a measure's is.  Row k of L^-1 is P_k (`monic_op`)
    and row k of L expands x^k in P_0..P_k.  When d_{s+1} = 0, P_s is null
    and the model `closes`: each atom keeps P_0..P_{s-1}, and products
    reduce modulo P_s; else each keeps P_0..P_{degree_cutoff-1}, and a
    product of letter power past degree_cutoff is a CutoffExceededError.

    `letter` takes {(atom, power): coefficient}, power k naming x^{k-1} up
    to degree_cutoff, and converts each entry once through row k-1 of L.  A
    letter product is multiplication by x f g, read off one table of
    x P_a P_e (`basis_product`).
    """

    def __init__(self, ring: ScalarRing, moments: MomentSequence, grid: TimeGrid,
                 degree_cutoff: int, fock_depth: int):
        if degree_cutoff < 1 or fock_depth < 1:
            raise UsageError("degree_cutoff and fock_depth must be >= 1")
        c = degree_cutoff
        if moments.K < 2 * c:
            raise UsageError(f"gram at cutoff {c} needs moments through "
                             f"r_{2 * c}, have r_1..r_{moments.K}")
        m = c + 1 if moments.K >= 2 * c + 2 else c
        try:
            low, pivots = self.hankel_factor = ldl_psd(moments.hankel(m))
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
        self.wick_cache: dict = {}  # letter word -> its Wick operator (wick.py)
        self.space = OneParticleSpace(
            grid.n_atoms * b, [((a * b + k, w * pivots[k]),)
                               for a, w in enumerate(grid.widths) for k in range(b)],
            ring)
        # x^k in P_0..P_{rank-1}: row k of L, its null part dropped
        self._powers = [tuple((j, x) for j, x in enumerate(low[k][:b]) if x)
                        for k in range(c)]
        self.product_den, self._products = self._product_table()

    def _product_table(self) -> tuple[int, list[list]]:
        """x P_a P_e in P_0..P_{rank-1}, a, e < rank, as (k, int numerator)
        pairs over one denominator; None past the cutoff of a model that
        does not close.  By the Jacobi recurrence x P_k = P_{k+1} +
        beta_k P_k + gamma_k P_{k-1} (P_rank dropped: null, or never reached;
        gamma_k = d_{k+1} / d_k, beta_0 + ... + beta_{k-1} = L[k][k-1]),
        P_{a+1} P_e = (x - beta_a) P_a P_e - gamma_a P_{a-1} P_e, on ints:
        P_a P_e times D^a, D the betas' and gammas' least denominator."""
        (low, pivots), b = self.hankel_factor, self.rank
        beta = [low[k + 1][k] - (low[k][k - 1] if k else 0)
                for k in range(min(b, len(low) - 1))]
        gamma = [pivots[k] / pivots[k - 1] if k else 0 for k in range(b)]
        d = lcm(*(x.denominator for x in beta + gamma))
        beta, gamma = [int(x * d) for x in beta], [int(x * d) for x in gamma]

        def times_x(v: list) -> list:  # D x v
            return [(k and d * v[k - 1]) + (v[k] and beta[k] * v[k])
                    + (k + 1 < b and gamma[k + 1] * v[k + 1]) for k in range(b)]

        table = [[None] * b for _ in range(b)]
        for e in range(b):
            prev, cur = [0] * b, [int(k == e) for k in range(b)]
            for a in range(b if self.closes else b - 1 - e):
                x_cur = times_x(cur)  # x P_a P_e, scaled by D^(a+1)
                table[a][e] = [x * d ** (b - 1 - a) for x in x_cur]
                prev, cur = cur, [x - beta[a] * y - d * gamma[a] * z
                                  for x, y, z in zip(x_cur, cur, prev)]
        g = gcd(d ** b, *(x for row in table for v in row if v for x in v))
        return d ** b // g, [[v and tuple((k, x // g) for k, x in enumerate(v) if x)
                              for v in row] for row in table]

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
            if not 1 <= k <= self.degree_cutoff:
                raise UsageError(f"power {k} outside 1..{self.degree_cutoff}")
            out.extend((a * b + j, x if c == 1 else c * x) for j, x in self._powers[k - 1])
        # one power on atoms in order is canonical as it is: sparse_vector passes it
        return Letter(self, sparse_vector(tuple(out)))

    def basis_product(self, p: SparseVector, i: int) -> SparseVector:
        """p e_i over `product_den`: the terms c P_k of p on the atom A of
        e_i = P_m, found by bisection, each taken to c x P_k P_m by the
        product table; a product past the cutoff is a CutoffExceededError."""
        b = self.rank
        lo, m = i - i % b, i % b  # P_0 on A sits at lo
        out = [0] * b
        for j, c in p[bisect_left(p, (lo,)):bisect_left(p, (lo + b,))]:
            col = self._products[j - lo][m]
            if col is None:
                raise CutoffExceededError(f"letter product degree {j - lo + m + 2} "
                                          f"exceeds cutoff {self.degree_cutoff}")
            for k, x in col:
                out[k] += c * x
        return tuple((lo + k, x) for k, x in enumerate(out) if x)

    def xi(self, p: SparseVector) -> SparseVector:
        return p

    def mean(self, p: SparseVector) -> Fraction:
        return Fraction(0)

    def describe(self, p: SparseVector) -> str:
        return " + ".join(f"{c}*P{i % self.rank}[A{i // self.rank}]" for i, c in p) or "0"

    # -- convenience -------------------------------------------------------

    def atom_letter(self, atom: int, power: int = 1) -> Letter:
        return self.letter({(atom, power): _ONE})

    def basis_letter(self, i: int) -> Letter:
        return _basis_letter(self, i)

    def interval_letter(self, interval: Interval, power: int = 1) -> Letter:
        """The letter of chi_I x^{power-1}: x^{power-1} on every atom of I."""
        return self.letter({(a, power): _ONE for a in self.grid.atoms_in(interval)})

    def prefix_letter(self, t, power: int = 1) -> Letter:
        return self.interval_letter((Fraction(0), Fraction(t)), power)


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

    def basis_product(self, p: SparseVector, i: int) -> SparseVector:
        """p e_i: e_i scaled by the value of p at point i, found by bisection."""
        k = bisect_left(p, (i,))
        return p[k:k + 1] if k < len(p) and p[k][0] == i else ()

    def xi(self, p: SparseVector) -> SparseVector:
        return p

    def mean(self, p: SparseVector) -> Fraction:
        return sum((self.weights[i] * v for i, v in p), Fraction(0))

    def describe(self, p: SparseVector) -> str:
        values = dict(p)
        return str(tuple(str(values.get(i, Fraction(0)))
                         for i in range(len(self.points))))

    # -- convenience -------------------------------------------------------

    def one(self) -> Letter:
        return self.letter([1] * len(self.points))

    def basis_letter(self, i: int) -> Letter:
        return _basis_letter(self, i)

    def sup_norm(self, f: Letter) -> Fraction:
        return max((abs(v) for _, v in f.payload), default=Fraction(0))
