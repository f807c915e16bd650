"""Process models over a finite time grid.

Two instances of one "letter" algebra drive everything downstream:

* the grid model: generators are monomials x_A^k attached to grid atoms A,
  with inner product <x_A^j, x_B^k> = delta_{AB} |A| r_{j+k} read off a
  moment sequence, gauge action = multiplication, and mean 0;
* the weighted point-set algebra: functions on a finite weighted point set, with the
  weighted-l2 inner product, pointwise multiplication as gauge, and the
  weighted average as mean.

A Letter bundles (one-particle vector, gauge action, mean) so that Wick
recursion, product expansions and stochastic measures share one code path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CutoffExceededError, DegeneracyError, UsageError
from .fock import (FockOperator, Gauge, OneParticleSpace, SparseVector,
                   _solve_matrix, field_operator)
from .qscalar import ScalarRing

Interval = tuple[Fraction, Fraction]


class MomentSequence:
    """Moments r_1, ..., r_K of the canonical measure nu.

    Indexing is shifted: r_{k+2} = int x^k dnu(x), so r_2 = nu(R).  r_1 is
    the centering term and must be 0.
    """

    def __init__(self, values: Sequence, atoms=None):
        self.r = tuple(Fraction(v) for v in values)
        if not self.r or self.r[0] != 0:
            raise UsageError("r_1 must be 0 (centered construction)")
        self.atoms = atoms

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
        return MomentSequence(values, atoms=pts)

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
        a, b = self.atoms[i]
        return b - a

    def mesh(self) -> Fraction:
        return max(self.width(i) for i in range(self.n_atoms))

    def atoms_in(self, interval: Interval) -> tuple[int, ...]:
        """Indices of the atoms composing [a, b); errors if not grid-aligned."""
        a, b = Fraction(interval[0]), Fraction(interval[1])
        if a >= b:
            raise UsageError(f"empty interval [{a}, {b})")
        if a not in self.boundaries or b not in self.boundaries:
            raise UsageError(f"interval [{a}, {b}) not aligned with the grid")
        return tuple(i for i, (x, y) in enumerate(self.atoms) if a <= x and y <= b)

    def prefix(self, t) -> tuple[int, ...]:
        """Atoms of [0, t)."""
        return self.atoms_in((Fraction(0), Fraction(t)))


# ---------------------------------------------------------------------------
# letters


class Letter:
    """A generator symbol: one-particle vector + gauge action + mean.

    The payload is a canonical hashable encoding interpreted by the algebra;
    letters from different algebra instances never mix.
    """

    __slots__ = ("algebra", "payload")

    def __init__(self, algebra, payload):
        self.algebra = algebra
        self.payload = payload

    def xi(self) -> SparseVector:
        return self.algebra.xi(self.payload)

    def gauge(self) -> Gauge | None:
        return self.algebra.gauge(self.payload)

    def mean(self) -> Fraction:
        return self.algebra.mean(self.payload)

    def field(self) -> FockOperator:
        """X(f) = a(xi) + a*(xi) + p(T) + mean."""
        return field_operator(self.xi(), self.gauge(), self.mean(),
                              self.algebra.ring)

    def _check(self, other: "Letter") -> None:
        if not isinstance(other, Letter) or other.algebra is not self.algebra:
            raise UsageError("letters from different algebra instances")

    def __mul__(self, other: "Letter") -> "Letter":
        self._check(other)
        return Letter(self.algebra, self.algebra.product(self.payload, other.payload))

    def __add__(self, other: "Letter") -> "Letter":
        self._check(other)
        return Letter(self.algebra, self.algebra.add(self.payload, other.payload))

    def __sub__(self, other: "Letter") -> "Letter":
        return self + other.scale(-1)

    def scale(self, c) -> "Letter":
        return Letter(self.algebra, self.algebra.scale(self.payload, Fraction(c)))

    @property
    def is_zero(self) -> bool:
        return not self.payload

    def __eq__(self, other):
        return (isinstance(other, Letter) and other.algebra is self.algebra
                and other.payload == self.payload)

    def __hash__(self):
        return hash((id(self.algebra), self.payload))

    def __repr__(self):
        return f"Letter({self.algebra.describe(self.payload)})"


def letter_pair(a: Letter, b: Letter) -> Fraction:
    """<xi_a, xi_b> under the algebra's gram form."""
    a._check(b)
    return a.algebra.space.pair_vec(a.xi(), b.xi())


# ---------------------------------------------------------------------------
# the grid model


class _ModelGauge(Gauge):
    """Multiplication by a grid-model letter; degree overflow errors fire
    lazily, only when an offending column is actually used."""

    symmetric = True  # multiplication by a real letter is gram-symmetric

    def __init__(self, model: "ProcessModel", payload):
        self.model = model
        self.payload = payload

    def column(self, i: int):
        atom, power = self.model.atom_power(i)
        for (a, k), c in self.payload:
            if a == atom:
                if power + k > self.model.degree_cutoff:
                    raise CutoffExceededError(
                        f"monomial degree {power + k} exceeds cutoff "
                        f"{self.model.degree_cutoff}")
                yield self.model.basis_index(atom, power + k), c


class ProcessModel:
    """The grid discretization: basis e_{A,k} = x_A^k for atoms A and powers
    1 <= k <= degree_cutoff, gram <e_{A,j}, e_{B,k}> = delta_{AB} |A| r_{j+k}.

    Letter payloads are sorted tuples of ((atom, power), coefficient).
    """

    def __init__(self, ring: ScalarRing, moments: MomentSequence, grid: TimeGrid,
                 degree_cutoff: int, fock_depth: int):
        if degree_cutoff < 1 or fock_depth < 1:
            raise UsageError("degree_cutoff and fock_depth must be >= 1")
        if moments.K < 2 * degree_cutoff:
            raise UsageError(
                f"gram at cutoff {degree_cutoff} needs moments through "
                f"r_{2 * degree_cutoff}, have r_1..r_{moments.K}")
        self.ring = ring
        self.moments = moments
        self.grid = grid
        self.degree_cutoff = degree_cutoff
        self.fock_depth = fock_depth
        d, n = degree_cutoff, grid.n_atoms
        dim = n * d
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for a in range(n):
            w = grid.width(a)
            for j in range(1, d + 1):
                for k in range(1, d + 1):
                    gram[a * d + j - 1][a * d + k - 1] = w * moments.r_at(j + k)
        self.space = OneParticleSpace(dim, gram, ring)

    # -- basis bookkeeping -------------------------------------------------

    def basis_index(self, atom: int, power: int) -> int:
        return atom * self.degree_cutoff + power - 1

    def atom_power(self, i: int) -> tuple[int, int]:
        a, p = divmod(i, self.degree_cutoff)
        return a, p + 1

    # -- letter-algebra protocol -------------------------------------------

    def letter(self, entries: dict[tuple[int, int], Fraction] | Iterable) -> Letter:
        items = dict(entries)
        for (a, k), c in items.items():
            if not 0 <= a < self.grid.n_atoms:
                raise UsageError(f"atom index {a} out of range")
            if not 1 <= k <= self.degree_cutoff:
                raise UsageError(f"power {k} outside 1..{self.degree_cutoff}")
        payload = tuple(sorted((ak, Fraction(c)) for ak, c in items.items() if c))
        return Letter(self, payload)

    def product(self, p1, p2):
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, k1), c1 in p1:
            for (a2, k2), c2 in p2:
                if a1 != a2:
                    continue  # disjoint atoms multiply to 0
                k = k1 + k2
                if k > self.degree_cutoff:
                    raise CutoffExceededError(
                        f"letter product degree {k} exceeds cutoff "
                        f"{self.degree_cutoff}")
                out[(a1, k)] = out.get((a1, k), Fraction(0)) + c1 * c2
        return tuple(sorted((ak, c) for ak, c in out.items() if c))

    def add(self, p1, p2):
        out = dict(p1)
        for ak, c in p2:
            out[ak] = out.get(ak, Fraction(0)) + c
        return tuple(sorted((ak, c) for ak, c in out.items() if c))

    def scale(self, p, c: Fraction):
        if not c:
            return ()
        return tuple((ak, cc * c) for ak, cc in p)

    def xi(self, p) -> SparseVector:
        return tuple((self.basis_index(a, k), c) for (a, k), c in p)

    def gauge(self, p) -> Gauge | None:
        return _ModelGauge(self, p) if p else None

    def mean(self, p) -> Fraction:
        return Fraction(0)

    def describe(self, p) -> str:
        return " + ".join(f"{c}*x[A{a}]^{k}" for (a, k), c in p) or "0"

    # -- convenience -------------------------------------------------------

    def atom_letter(self, atom: int, power: int = 1) -> Letter:
        return self.letter({(atom, power): Fraction(1)})

    def basis_letter(self, i: int) -> Letter:
        atom, power = self.atom_power(i)
        return self.atom_letter(atom, power)

    def interval_letter(self, interval: Interval, power: int = 1) -> Letter:
        """The letter of chi_I x^{power-1}: sum of e_{A,power} over atoms A of I."""
        return self.letter({(a, power): Fraction(1)
                            for a in self.grid.atoms_in(interval)})

    def prefix_letter(self, t, power: int = 1) -> Letter:
        return self.interval_letter((Fraction(0), Fraction(t)), power)


class ProcessOps:
    """X, Y_k and Delta_k of one interval, as operators."""

    def __init__(self, X: FockOperator, Y: dict[int, FockOperator],
                 Delta: dict[int, FockOperator]):
        self.X = X
        self.Y = Y
        self.Delta = Delta


def process_operators(model: ProcessModel, interval: Interval) -> ProcessOps:
    """X(I) = Y_1(I); Delta_k(I) = Y_k(I) + |I| r_k Id."""
    width = sum(model.grid.width(a) for a in model.grid.atoms_in(interval))
    Y, Delta = {}, {}
    for k in range(1, model.degree_cutoff + 1):
        yk = model.interval_letter(interval, k).field()
        Y[k] = yk
        drift = model.ring.of(width * model.moments.r_at(k))
        Delta[k] = yk + FockOperator.scalar(drift)
    return ProcessOps(Y[1], Y, Delta)


def monic_op_coefficients(moments: MomentSequence, degree: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_degree (c_degree = 1) of the monic polynomial of
    the given degree orthogonal to all lower degrees under
    <x^a, x^b> = r_{a+b+2}."""
    n = degree
    if n == 0:
        return (Fraction(1),)
    h = moments.hankel(n)
    rhs = [[-moments.r_at(n + m + 2)] for m in range(n)]
    try:
        sol = _solve_matrix(h, rhs)
    except UsageError as exc:
        raise DegeneracyError(
            f"Hankel matrix of order {n} is singular "
            f"(measure supported on fewer than {n + 1} points)") from exc
    return tuple(sol[m][0] for m in range(n)) + (Fraction(1),)


def yhat_letter(model: ProcessModel, interval: Interval, k: int) -> Letter:
    """The letter of Yhat_k(I) = sum_j c_j Y_j(I), the c_j being the
    coefficients of the monic orthogonal polynomial P_{k-1}."""
    if not 1 <= k <= model.degree_cutoff:
        raise UsageError(f"power {k} outside 1..{model.degree_cutoff}")
    coeffs = monic_op_coefficients(model.moments, k - 1)
    out = model.letter({})
    for j, c in enumerate(coeffs, start=1):
        if c:
            out = out + model.interval_letter(interval, j).scale(c)
    return out


def yhat(model: ProcessModel, interval: Interval, k: int) -> FockOperator:
    return yhat_letter(model, interval, k).field()


# ---------------------------------------------------------------------------
# the weighted point-set algebra


class _DiagGauge(Gauge):
    symmetric = True  # pointwise multiplication, diagonal in the basis

    def __init__(self, values):
        self.values = values

    def column(self, i: int):
        if self.values[i]:
            yield i, self.values[i]


class WeightedPointAlgebra:
    """Functions on a finite weighted point set, with the weighted-l2 gram,
    pointwise multiplication as gauge, and the weighted average as mean."""

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
        n = len(self.points)
        gram = [[self.weights[i] if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        self.ring = ring
        self.fock_depth = fock_depth
        self.space = OneParticleSpace(n, gram, ring)

    # -- letter-algebra protocol -------------------------------------------

    def letter(self, values: Sequence) -> Letter:
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != len(self.points):
            raise UsageError("function must assign a value to every point")
        return Letter(self, vals if any(vals) else ())

    def product(self, p1, p2):
        if not p1 or not p2:
            return ()
        vals = tuple(a * b for a, b in zip(p1, p2))
        return vals if any(vals) else ()

    def add(self, p1, p2):
        p1 = p1 or (Fraction(0),) * len(self.points)
        p2 = p2 or (Fraction(0),) * len(self.points)
        vals = tuple(a + b for a, b in zip(p1, p2))
        return vals if any(vals) else ()

    def scale(self, p, c: Fraction):
        if not p or not c:
            return ()
        return tuple(v * c for v in p)

    def xi(self, p) -> SparseVector:
        return tuple((i, v) for i, v in enumerate(p) if v)

    def gauge(self, p) -> Gauge | None:
        return _DiagGauge(p) if p else None

    def mean(self, p) -> Fraction:
        if not p:
            return Fraction(0)
        return sum((w * v for w, v in zip(self.weights, p)), Fraction(0))

    def describe(self, p) -> str:
        return str(tuple(map(str, p or (Fraction(0),) * len(self.points))))

    # -- convenience -------------------------------------------------------

    def one(self) -> Letter:
        return self.letter([1] * len(self.points))

    def basis_letter(self, i: int) -> Letter:
        return self.letter([int(j == i) for j in range(len(self.points))])

    def coordinate(self) -> Letter:
        """The function f(x) = x."""
        return self.letter(self.points)

    def sup_norm(self, f: Letter) -> Fraction:
        return max((abs(v) for v in f.payload), default=Fraction(0))


# ---------------------------------------------------------------------------
# config files


def _parse_fraction_list(text: str) -> list[Fraction]:
    body = text.strip().lstrip("[").rstrip("]").strip()
    if not body:
        return []
    return [Fraction(tok.strip()) for tok in body.split(",")]


def _parse_pair_list(text: str) -> list[tuple[Fraction, Fraction]]:
    body = text.strip().lstrip("[").rstrip("]")
    out = []
    for chunk in body.split(")"):
        chunk = chunk.strip().lstrip(",").strip().lstrip("(")
        if not chunk:
            continue
        x, w = chunk.split(",")
        out.append((Fraction(x.strip()), Fraction(w.strip())))
    return out


def parse_model_config(text: str) -> ProcessModel:
    """Build a ProcessModel from "key = value" lines.

    Keys: q (= "exact" or a rational in (-1,1)), nu.atoms = [(x,w),...] or
    moments = [r1,...], grid = uniform(T, N) or an explicit boundary list,
    degree_cutoff, fock_depth.  When both nu.atoms and moments are given they
    are validated against each other.
    """
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()

    missing = {"q", "grid", "degree_cutoff", "fock_depth"} - set(entries)
    if missing:
        raise UsageError(f"config missing keys: {sorted(missing)}")

    qv = entries["q"]
    ring = ScalarRing() if qv == "exact" else ScalarRing(Fraction(qv))

    degree_cutoff = int(entries["degree_cutoff"])
    fock_depth = int(entries["fock_depth"])

    gv = entries["grid"]
    if gv.startswith("uniform"):
        body = gv[len("uniform"):].strip().lstrip("(").rstrip(")")
        t_s, n_s = body.split(",")
        grid = TimeGrid.uniform(Fraction(t_s.strip()), int(n_s.strip()))
    else:
        grid = TimeGrid(_parse_fraction_list(gv))

    n_moments = max(2 * degree_cutoff, 2)
    moments = None
    if "moments" in entries:
        moments = MomentSequence(_parse_fraction_list(entries["moments"]))
    if "nu.atoms" in entries:
        atoms = _parse_pair_list(entries["nu.atoms"])
        derived = MomentSequence.from_measure(
            atoms, moments.K if moments else n_moments)
        if moments is not None and moments.r != derived.r:
            raise UsageError("moments and nu.atoms disagree")
        moments = derived
    if moments is None:
        raise UsageError("config needs nu.atoms or moments")

    return ProcessModel(ring, moments, grid, degree_cutoff, fock_depth)
