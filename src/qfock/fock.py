"""Truncated algebraic Fock space over a finite one-particle space.

Vectors are graded finite combinations of tensor words over a one-particle
basis; operators are lazy expression trees built from creation, annihilation,
gauge, scalar, sum and composition nodes.  A dense matrix realization is only
materialized on demand, for operator-norm estimates in float mode.

One-particle vectors have one form, the sparse tuple of their nonzero
(index, coeff) entries in index order (`SparseVector`).  Public constructors
also accept a dense coefficient sequence and convert it once, on entry.  The
gram form is block-diagonal over its orthogonality classes, so pairings run
over sparse gram rows, and an annihilation node builds its pairing row
{i: <zeta, e_i>} once per application.

Truncation overflow is always a hard error: identities are asserted only where
the full result fits under the configured depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (DepthExceededError, ModeMismatchError, ResourceBudgetError,
                     UsageError)
from .qscalar import QScalar, ScalarRing, inversions, sym_group

PN_CAP_EXACT = 7
PN_CAP_FLOAT = 9
NORM_DEPTH_CAP = 8

Word = tuple[int, ...]
SparseVector = tuple[tuple[int, Fraction], ...]


def sparse_vector(zeta: Sequence) -> SparseVector:
    """The sparse form of a one-particle vector given densely (a coefficient
    per basis index) or sparsely (index, coeff) pairs; repeated indices add."""
    zeta = tuple(zeta)
    entries = zeta if zeta and isinstance(zeta[0], tuple) else enumerate(zeta)
    acc: dict[int, Fraction] = {}
    for i, c in entries:
        acc[i] = acc.get(i, 0) + Fraction(c)
    return tuple(sorted((i, c) for i, c in acc.items() if c))


class OneParticleSpace:
    """A finite-dimensional real one-particle space with a symmetric gram form.

    Gram entries are exact rationals; the scalar ring fixes whether derived
    Fock computations run exactly in Q[q] or in floats at a pinned q.  The
    construction also records the sparse gram rows, rows[j] = the nonzero
    (i, <e_j, e_i>), and the orthogonality classes they connect; pairings
    take one-particle vectors in sparse form and only touch those rows.
    """

    def __init__(self, dim: int, gram: Sequence[Sequence[Fraction]], ring: ScalarRing):
        self.dim = dim
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        if len(self.gram) != dim or any(len(r) != dim for r in self.gram):
            raise UsageError(f"gram must be {dim}x{dim}")
        self.rows: tuple[SparseVector, ...] = tuple(
            tuple((i, g) for i, g in enumerate(row) if g) for row in self.gram)
        for j, row in enumerate(self.rows):
            for i, g in row:
                if self.gram[i][j] != g:
                    raise UsageError("gram must be symmetric")
        self.ring = ring
        self._classes = self._connected_classes()

    @staticmethod
    def orthonormal(dim: int, ring: ScalarRing) -> "OneParticleSpace":
        eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        return OneParticleSpace(dim, eye, ring)

    def pair_row(self, zeta: SparseVector) -> dict[int, Fraction]:
        """The nonzero pairings {i: <zeta, e_i>} of a sparse vector."""
        row: dict[int, Fraction] = {}
        for j, c in zeta:
            if not 0 <= j < self.dim:
                raise UsageError(f"basis index {j} out of range")
            for i, g in self.rows[j]:
                row[i] = row.get(i, 0) + c * g
        return {i: g for i, g in row.items() if g}

    def pair(self, zeta: SparseVector, i: int) -> Fraction:
        """<zeta, e_i> under the gram form."""
        return sum((c * self.gram[j][i] for j, c in zeta), Fraction(0))

    def pair_vec(self, zeta: SparseVector, eta: SparseVector) -> Fraction:
        row = self.pair_row(zeta)
        return sum((c * row[i] for i, c in eta if i in row), Fraction(0))

    def gram_classes(self) -> tuple[int, ...]:
        """Connected components of the gram nonzero graph: basis vectors in
        different classes are orthogonal, which prunes pairing sums."""
        return self._classes

    def _connected_classes(self) -> tuple[int, ...]:
        labels = [-1] * self.dim
        nxt = 0
        for start in range(self.dim):
            if labels[start] != -1:
                continue
            stack = [start]
            labels[start] = nxt
            while stack:
                for j, _ in self.rows[stack.pop()]:
                    if labels[j] == -1:
                        labels[j] = nxt
                        stack.append(j)
            nxt += 1
        return tuple(labels)

    def __eq__(self, other):
        return (isinstance(other, OneParticleSpace) and self.dim == other.dim
                and self.gram == other.gram and self.ring == other.ring)

    def __hash__(self):
        return hash((self.dim, self.gram, self.ring))


class FockVector:
    """A finite combination of tensor words, graded by word length."""

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
    def vacuum(space: OneParticleSpace, depth: int) -> "FockVector":
        return FockVector(space, depth, {(): space.ring.one()})

    @staticmethod
    def basis_word(space: OneParticleSpace, depth: int, word: Word) -> "FockVector":
        if len(word) > depth:
            raise DepthExceededError(f"word of length {len(word)} exceeds depth {depth}")
        return FockVector(space, depth, {tuple(word): space.ring.one()})

    def add_term(self, word: Word, coeff: QScalar) -> None:
        if len(word) > self.depth:
            raise DepthExceededError(
                f"word of length {len(word)} exceeds depth {self.depth}")
        if any(not 0 <= i < self.space.dim for i in word):
            raise UsageError(f"basis index out of range in {word}")
        cur = self.terms.get(word)
        new = coeff if cur is None else cur + coeff
        if new.is_zero:
            self.terms.pop(word, None)
        else:
            self.terms[word] = new

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check(other)
        out = FockVector(self.space, self.depth, dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-self.space.ring.one())

    def scale(self, c: QScalar) -> "FockVector":
        if c.is_zero:
            return FockVector(self.space, self.depth)
        return FockVector(self.space, self.depth,
                          {w: cc * c for w, cc in self.terms.items()})

    def _check(self, other: "FockVector") -> None:
        if self.space != other.space:
            raise UsageError("vectors live on different spaces")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def top_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def degree_component(self, n: int) -> "FockVector":
        return FockVector(self.space, self.depth,
                          {w: c for w, c in self.terms.items() if len(w) == n})

    def vacuum_coefficient(self) -> QScalar:
        return self.terms.get((), self.space.ring.zero())

    def serialize(self) -> str:
        lines = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            lines.append(f"{self.terms[w]} | {','.join(map(str, w))}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (isinstance(other, FockVector) and self.space == other.space
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

    Words are bucketed by the gram-orthogonality classes of their slots, so
    only potentially non-orthogonal pairs are multiplied out.
    """
    u._check(v)
    sp = u.space
    cls = sp.gram_classes()
    buckets: dict[tuple[int, ...], list] = {}
    for w2, cv in v.terms.items():
        buckets.setdefault(tuple(cls[i] for i in w2), []).append((w2, cv))
    total = sp.ring.zero()
    for w, cu in u.terms.items():
        for w2, cv in buckets.get(tuple(cls[i] for i in w), ()):
            g = Fraction(1)
            for a, b in zip(w, w2):
                g *= sp.gram[a][b]
                if g == 0:
                    break
            if g != 0:
                total = total + cu * cv * sp.ring.of(g)
    return total


def apply_Pn(v: FockVector) -> FockVector:
    """Replace each degree-n word by its q-weighted sum of permutations."""
    cap = PN_CAP_EXACT if v.space.ring.exact else PN_CAP_FLOAT
    top = v.top_degree()
    if top > cap:
        raise ResourceBudgetError(
            f"apply_Pn degree {top} exceeds cap {cap} for this scalar mode")
    ring = v.space.ring
    out = FockVector(v.space, v.depth)
    perm_cache: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for w, c in v.terms.items():
        n = len(w)
        if n <= 1:
            out.add_term(w, c)
            continue
        if n not in perm_cache:
            perm_cache[n] = [(s, inversions(s)) for s in sym_group(n)]
        for sigma, inv in perm_cache[n]:
            pw = tuple(w[s - 1] for s in sigma)
            out.add_term(pw, c * ring.q_pow(inv))
    return out


def innerq(u: FockVector, v: FockVector) -> QScalar:
    """The q-inner product <u, P v>_0."""
    return inner0(u, apply_Pn(v))


# ---------------------------------------------------------------------------
# operators


class Gauge:
    """Protocol for the one-particle action inside a gauge operator: column(i)
    yields (j, coeff) pairs of T e_i in the basis.

    Implementations that are symmetric for the ambient gram form (such as
    multiplication by a real function) set `symmetric`, letting the adjoint
    avoid materializing the matrix.
    """

    symmetric = False

    def column(self, i: int) -> Iterable[tuple[int, Fraction]]:
        raise NotImplementedError

    def as_matrix(self, dim: int) -> tuple[tuple[Fraction, ...], ...]:
        cols = [dict(self.column(i)) for i in range(dim)]
        return tuple(tuple(cols[i].get(j, Fraction(0)) for i in range(dim))
                     for j in range(dim))


class DenseGauge(Gauge):
    def __init__(self, matrix: Sequence[Sequence[Fraction]]):
        # matrix[j][i] = coefficient of e_j in T e_i
        self.matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)

    def column(self, i: int):
        for j, row in enumerate(self.matrix):
            if row[i]:
                yield j, row[i]

    def as_matrix(self, dim: int):
        return self.matrix


@dataclass(frozen=True)
class FockOperator:
    """Lazy operator expression tree on the truncated Fock space."""

    kind: str  # creation | annihilation | gauge | scalar | sum | compose | linear
    payload: object = None
    operands: tuple["FockOperator", ...] = ()

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
    def gauge(g: Gauge | Sequence[Sequence[Fraction]]) -> "FockOperator":
        if not isinstance(g, Gauge):
            g = DenseGauge(g)
        return FockOperator("gauge", g)

    @staticmethod
    def scalar(c: QScalar) -> "FockOperator":
        return FockOperator("scalar", c)

    @staticmethod
    def identity(ring: ScalarRing) -> "FockOperator":
        return FockOperator("scalar", ring.one())

    @staticmethod
    def opsum(ops: Iterable["FockOperator"]) -> "FockOperator":
        flat: list[FockOperator] = []
        for op in ops:
            if op.kind == "sum":
                flat.extend(op.operands)
            else:
                flat.append(op)
        if len(flat) == 1:
            return flat[0]
        return FockOperator("sum", None, tuple(flat))

    @staticmethod
    def compose(ops: Iterable["FockOperator"]) -> "FockOperator":
        """Composition; the rightmost factor acts first."""
        flat: list[FockOperator] = []
        for op in ops:
            if op.kind == "compose":
                flat.extend(op.operands)
            else:
                flat.append(op)
        if len(flat) == 1:
            return flat[0]
        return FockOperator("compose", None, tuple(flat))

    @staticmethod
    def linear(fn: Callable[[FockVector], FockVector], label: str = "linear") -> "FockOperator":
        return FockOperator("linear", (fn, label))

    # -- sugar -------------------------------------------------------------

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator.opsum([self, other])

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator.opsum([self, other.scale_by(-1)])

    def __mul__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator.compose([self, other])

    def scale(self, c: QScalar) -> "FockOperator":
        return FockOperator.compose([FockOperator.scalar(c), self])

    def scale_by(self, x) -> "FockOperator":
        """Scale by an exact rational, valid in either scalar mode."""
        return FockOperator("compose", None,
                            (FockOperator("rational_scalar", Fraction(x)), self))


def field_operator(zeta: Sequence, gauge: Gauge | None,
                   mean: Fraction | QScalar | None, ring: ScalarRing) -> FockOperator:
    """a(zeta) + a*(zeta) + p(T) + mean * Id, any summand optional; zeta in
    dense or sparse form."""
    parts: list[FockOperator] = []
    zeta = sparse_vector(zeta)
    if zeta:
        parts.append(FockOperator("creation", zeta))
        parts.append(FockOperator("annihilation", zeta))
    if gauge is not None:
        parts.append(FockOperator.gauge(gauge))
    if mean is not None:
        m = mean if isinstance(mean, QScalar) else ring.of(mean)
        if not m.is_zero:
            parts.append(FockOperator.scalar(m))
    if not parts:
        return FockOperator.scalar(ring.zero())
    return FockOperator.opsum(parts)


def apply(op: FockOperator, v: FockVector, truncate: bool = False) -> FockVector:
    """Apply an operator tree to a vector.

    With truncate=True, creations past the depth are dropped instead of
    raising; that compression is only used for norm estimates.
    """
    sp, ring = v.space, v.space.ring
    kind = op.kind

    if kind == "scalar":
        c = op.payload
        if c.is_exact != ring.exact:
            raise ModeMismatchError("operator scalar mode differs from space mode")
        return v.scale(c)
    if kind == "rational_scalar":
        return v.scale(ring.of(op.payload))
    if kind == "sum":
        out = FockVector(sp, v.depth)
        for sub in op.operands:
            for w, c in apply(sub, v, truncate).terms.items():
                out.add_term(w, c)
        return out
    if kind == "compose":
        cur = v
        for sub in reversed(op.operands):
            cur = apply(sub, cur, truncate)
        return cur
    if kind == "linear":
        fn, _ = op.payload
        return fn(v)

    out = FockVector(sp, v.depth)
    if kind == "creation":
        zeta = op.payload
        for w, c in v.terms.items():
            if len(w) == v.depth:
                if truncate:
                    continue
                raise DepthExceededError(
                    f"creation on a degree-{len(w)} word exceeds depth {v.depth}")
            for i, zi in zeta:
                out.add_term((i,) + w, c * ring.of(zi))
        return out
    if kind == "annihilation":
        row = {i: ring.of(g) for i, g in sp.pair_row(op.payload).items()}
        for w, c in v.terms.items():
            for k, i in enumerate(w):
                g = row.get(i)
                if g is not None:
                    out.add_term(w[:k] + w[k + 1:], c * ring.q_pow(k) * g)
        return out
    if kind == "gauge":
        g: Gauge = op.payload
        for w, c in v.terms.items():
            for k in range(len(w)):
                rest = w[:k] + w[k + 1:]
                qc = c * ring.q_pow(k)
                for j, coeff in g.column(w[k]):
                    if coeff:
                        out.add_term((j,) + rest, qc * ring.of(coeff))
        return out
    raise UsageError(f"unknown operator kind {kind!r}")


def gamma_q(v: FockVector) -> FockVector:
    """Second quantization of q*Id on vectors: scale degree n by q^n."""
    ring = v.space.ring
    out = FockVector(v.space, v.depth)
    for w, c in v.terms.items():
        out.add_term(w, c * ring.q_pow(len(w)))
    return out


def project(v: FockVector, keep: Callable[[int], bool]) -> FockVector:
    """Remove words containing dropped basis indices.

    Valid as an orthogonal projection only when kept and dropped basis vectors
    are gram-orthogonal; that is validated here.
    """
    sp = v.space
    kept = [i for i in range(sp.dim) if keep(i)]
    dropped = [i for i in range(sp.dim) if not keep(i)]
    for i in kept:
        for j in dropped:
            if sp.gram[i][j] != 0:
                raise UsageError(
                    f"projection split not gram-orthogonal: <e{i}, e{j}> != 0")
    keepset = set(kept)
    out = FockVector(sp, v.depth)
    for w, c in v.terms.items():
        if all(i in keepset for i in w):
            out.add_term(w, c)
    return out


def adjoint(op: FockOperator, space: OneParticleSpace) -> FockOperator:
    """Adjoint with respect to the q-inner product (real coefficients).

    Gauge adjoints need the gram-adjoint of the one-particle map, so the gram
    form must be nonsingular when gauges occur.
    """
    kind = op.kind
    if kind in ("scalar", "rational_scalar"):
        return op
    if kind == "creation":
        return FockOperator.annihilation(op.payload)
    if kind == "annihilation":
        return FockOperator.creation(op.payload)
    if kind == "gauge":
        g: Gauge = op.payload
        if g.symmetric:
            return op
        t = g.as_matrix(space.dim)  # t[j][i] = coeff of e_j in T e_i
        tt = [[t[i][j] for i in range(space.dim)] for j in range(space.dim)]
        gram = [list(row) for row in space.gram]
        # T* = G^{-1} T^t G
        ttg = _matmul(tt, gram)
        tstar = _solve_matrix(gram, ttg)
        return FockOperator.gauge(DenseGauge(tstar))
    if kind == "sum":
        return FockOperator.opsum([adjoint(o, space) for o in op.operands])
    if kind == "compose":
        return FockOperator.compose([adjoint(o, space) for o in reversed(op.operands)])
    raise UsageError(f"adjoint unsupported for operator kind {kind!r}")


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0))
             for j in range(p)] for i in range(n)]


def _solve_matrix(a, b):
    """Solve A X = B exactly over the rationals (Gaussian elimination)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in brow]
         for row, brow in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise UsageError("singular gram form: gauge adjoint undefined")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# norm estimates (float mode)


def words_up_to(dim: int, depth: int) -> list[Word]:
    out: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(depth):
        layer = [(i,) + w for w in layer for i in range(dim)]
        out.extend(layer)
    return out


_PN_MATRIX_CACHE: dict[tuple, object] = {}


def _pn_matrix(dim: int, n: int, q0: float, gram):
    """The 0-gram of degree-n words composed with P_n, as a dense float array."""
    import numpy as np

    key = (dim, n, q0, gram)
    if key in _PN_MATRIX_CACHE:
        return _PN_MATRIX_CACHE[key]
    words = [()]
    for _ in range(n):
        words = [w + (i,) for w in words for i in range(dim)]
    index = {w: k for k, w in enumerate(words)}
    g = np.array([[float(gram[i][j]) for j in range(dim)] for i in range(dim)])
    perms = [(s, inversions(s)) for s in sym_group(n)] if n else [((), 0)]
    m = np.zeros((len(words), len(words)))
    # <w, P w'> = sum_sigma q^{i(sigma)} prod_k g[w_k][w'_{sigma...}]
    for a, w in enumerate(words):
        for b, w2 in enumerate(words):
            total = 0.0
            for sigma, inv in perms:
                prod = 1.0
                for k in range(n):
                    prod *= g[w[k]][w2[sigma[k] - 1]]
                    if prod == 0.0:
                        break
                else:
                    total += (q0 ** inv) * prod
                    continue
                if prod == 0.0:
                    continue
            m[a, b] = total
    _PN_MATRIX_CACHE[key] = m
    return m


def operator_norm_estimate(op: FockOperator, space: OneParticleSpace,
                           depth: int) -> float:
    """Largest singular value of the compression of op to words of length
    <= depth, under the q-inner product.  Float mode only."""
    import numpy as np

    if space.ring.exact:
        raise UsageError("operator_norm_estimate requires float mode")
    if depth > NORM_DEPTH_CAP:
        raise ResourceBudgetError(f"norm estimate depth capped at {NORM_DEPTH_CAP}")
    q0 = float(space.ring.q0)
    words = words_up_to(space.dim, depth)
    index = {w: k for k, w in enumerate(words)}
    size = len(words)

    m = np.zeros((size, size))
    for col, w in enumerate(words):
        vec = FockVector.basis_word(space, depth, w)
        img = apply(op, vec, truncate=True)
        for w2, c in img.terms.items():
            m[index[w2], col] = float(c)

    # q-gram, block diagonal over degrees
    p = np.zeros((size, size))
    offset = 0
    for n in range(depth + 1):
        block = _pn_matrix(space.dim, n, q0, space.gram)
        k = block.shape[0]
        p[offset:offset + k, offset:offset + k] = block
        offset += k

    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(p)
        raise ResourceBudgetError(
            f"q-gram numerically singular at depth {depth} (cond ~ {cond:.3e})"
        ) from exc
    a = chol.T @ m @ np.linalg.inv(chol.T)
    return float(np.linalg.norm(a, 2))
