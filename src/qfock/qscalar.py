"""Scalar arithmetic for the deformation parameter q.

Two modes coexist behind one type:

* exact mode: elements of the polynomial ring Q[q] with rational coefficients,
  used for every identity check.  A polynomial is stored as a tuple of int
  numerators, one per power of q and without trailing zeros, over one positive
  int denominator.  The pair is kept canonical, gcd(den, *num) == 1 and zero is
  ((), 1), so equal polynomials have equal (num, den).  Add, multiply and
  negate are integer convolutions with at most one gcd per result; `coeffs`
  is a read-only view of the coefficients as Fractions;
* float mode: a real number together with the pinned rational value q0 that q
  was substituted with, used only for norm estimates and refinement
  experiments.

Values of different modes (or different pinned q0) never mix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import ModeMismatchError, UsageError

RationalLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise UsageError(f"not a rational value: {x!r}")


def _poly(num: list[int], den: int) -> "QScalar":
    """The canonical exact scalar num/den, for a positive den."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return QScalar(tuple(x // g for x in num), den // g, None, None)
    return QScalar(tuple(num), den, None, None)


def _monomial(a: tuple[int, ...]) -> bool:
    return a.count(0) == len(a) - 1


class QScalar:
    """An element of Q[q] (exact) or a real number with a pinned q (float)."""

    __slots__ = ("num", "den", "q0", "val")

    def __init__(self, num, den, q0, val):
        # Exact: num a trailing-zero-free tuple of ints, den a positive int,
        # gcd(den, *num) == 1, q0/val None.
        # Float: num/den None, q0 a Fraction in (-1, 1), val a float.
        self.num = num
        self.den = den
        self.q0 = q0
        self.val = val

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(coeffs: Iterable[RationalLike]) -> "QScalar":
        fracs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return _poly([c.numerator * (den // c.denominator) for c in fracs], den)

    @staticmethod
    def pinned(val: float, q0: RationalLike) -> "QScalar":
        q0 = _as_fraction(q0)
        if not (-1 < q0 < 1):
            raise UsageError(f"pinned q must lie in (-1, 1), got {q0}")
        return QScalar(None, None, q0, float(val))

    # -- mode --------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.num is not None

    @property
    def coeffs(self) -> tuple[Fraction, ...] | None:
        """The rational coefficients in increasing powers of q (exact mode)."""
        if self.num is None:
            return None
        return tuple(Fraction(x, self.den) for x in self.num)

    def _join(self, other: "QScalar") -> None:
        if not isinstance(other, QScalar):
            raise ModeMismatchError(f"expected QScalar, got {type(other).__name__}")
        if (self.num is None) != (other.num is None):
            raise ModeMismatchError("cannot mix exact and float q-scalars")
        if self.num is None and self.q0 is not other.q0 and self.q0 != other.q0:
            raise ModeMismatchError(
                f"float q-scalars pinned at different q: {self.q0} vs {other.q0}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QScalar") -> "QScalar":
        a = self.num
        if a is None or not isinstance(other, QScalar) or other.num is None:
            self._join(other)
            return QScalar(None, None, self.q0, self.val + other.val)
        b = other.num
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da == db:
            den = da
        else:
            g = gcd(da, db)
            den = da // g * db
            ma, mb = db // g, da // g
            a = [x * ma for x in a]
            b = [y * mb for y in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return _poly(out, den)

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        if self.num is not None:
            return QScalar(tuple(-x for x in self.num), self.den, None, None)
        return QScalar(None, None, self.q0, -self.val)

    def __mul__(self, other: "QScalar") -> "QScalar":
        a = self.num
        if a is None or not isinstance(other, QScalar) or other.num is None:
            self._join(other)
            return QScalar(None, None, self.q0, self.val * other.val)
        b = other.num
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:
            # a constant factor scales the other one, and 1 keeps it
            const, keep = (other, self) if len(b) == 1 else (self, other)
            y = const.num[0]
            if y == 1 and const.den == 1:
                return keep
            out = [x * y for x in keep.num]
        else:
            if len(a) < len(b):
                a, b = b, a
            # b is the shorter factor; a monomial b is a scaled shift
            if _monomial(b):
                y = b[-1]
                out = [0] * (len(b) - 1) + [x * y for x in a]
            elif _monomial(a):
                x = a[-1]
                out = [0] * (len(a) - 1) + [x * y for y in b]
            else:
                out = [0] * (len(a) + len(b) - 1)
                for i, y in enumerate(b):
                    if y:
                        for j, x in enumerate(a, i):
                            out[j] += x * y
        # the leading product is nonzero, so only the gcd is left to do
        den = self.den * other.den
        if den != 1:
            g = gcd(den, *out)
            if g != 1:
                return QScalar(tuple(x // g for x in out), den // g, None, None)
        return QScalar(tuple(out), den, None, None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        if self.num is not None:
            return self.num == other.num and self.den == other.den
        return other.num is None and self.q0 == other.q0 and self.val == other.val

    def __hash__(self):
        if self.num is not None:
            return hash(("exact", self.coeffs))
        return hash(("float", self.q0, self.val))

    def __bool__(self) -> bool:
        return bool(self.num) if self.num is not None else self.val != 0.0

    @property
    def is_zero(self) -> bool:
        return not self.num if self.num is not None else self.val == 0.0

    # -- evaluation / output ----------------------------------------------

    def eval_at(self, q0: RationalLike) -> "QScalar":
        """Substitute a pinned rational q into an exact scalar (float result)."""
        if self.num is None:
            raise UsageError("eval_at only applies to exact scalars")
        q0 = _as_fraction(q0)
        qf = float(q0)
        v = 0.0
        for x in reversed(self.num):
            v = v * qf + x / self.den
        return QScalar.pinned(v, q0)

    def subs(self, q0: RationalLike) -> Fraction:
        """Substitute a rational q into an exact scalar, exactly."""
        if self.num is None:
            raise UsageError("subs only applies to exact scalars")
        q0 = _as_fraction(q0)
        v = Fraction(0)
        for x in reversed(self.num):
            v = v * q0 + x
        return v / self.den

    def as_fraction(self) -> Fraction:
        """The value of a constant exact scalar."""
        if self.num is None:
            raise UsageError("as_fraction only applies to exact scalars")
        if len(self.num) > 1:
            raise UsageError(f"not a constant: {self}")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def __float__(self) -> float:
        if self.num is not None:
            if len(self.num) > 1:
                raise UsageError("cannot coerce a non-constant polynomial to float")
            return self.num[0] / self.den if self.num else 0.0
        return self.val

    def __str__(self) -> str:
        if self.num is None:
            return repr(self.val)
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "QScalar":
        """Inverse of str() for exact scalars, e.g. "1 - 1/2*q + q^2"."""
        cleaned = text.replace("- ", "-").replace("+ ", "")
        coeffs: dict[int, Fraction] = {}
        for tok in cleaned.split():
            if "q" in tok:
                coef_s, _, var = tok.partition("q")
                power = int(var[1:]) if var.startswith("^") else 1
                coef_s = coef_s.rstrip("*")
                coef = Fraction(coef_s) if coef_s not in ("", "-") else Fraction(f"{coef_s}1")
            else:
                power, coef = 0, Fraction(tok)
            coeffs[power] = coeffs.get(power, Fraction(0)) + coef
        if not coeffs:
            return QScalar.exact([])
        return QScalar.exact([coeffs.get(i, Fraction(0))
                              for i in range(max(coeffs) + 1)])


_ZERO = QScalar((), 1, None, None)


def accumulate(terms: dict, key, c: QScalar) -> None:
    """terms[key] += c, dropping the key when the sum is zero; a sparse
    combination so never stores a zero coefficient."""
    prev = terms.get(key)
    if prev is not None:
        c = prev + c
    if c.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = c


def add_scaled(terms: dict, other: dict, c: QScalar | None = None) -> dict:
    """terms += c * other in one pass, c None meaning 1; returns terms."""
    if c is None:
        for key, x in other.items():
            accumulate(terms, key, x)
    elif not c.is_zero:
        for key, x in other.items():
            accumulate(terms, key, x * c)
    return terms


class ScalarRing:
    """Factory for scalars of one consistent mode; it keeps the powers of q
    it has built, since every Fock operator node asks for them per word."""

    def __init__(self, q0: RationalLike | None = None):
        self.q0 = None if q0 is None else _as_fraction(q0)
        if self.q0 is not None and not (-1 < self.q0 < 1):
            raise UsageError(f"pinned q must lie in (-1, 1), got {self.q0}")
        self._q_pows: dict[int, QScalar] = {}

    @property
    def exact(self) -> bool:
        return self.q0 is None

    def zero(self) -> QScalar:
        return _ZERO if self.exact else QScalar(None, None, self.q0, 0.0)

    def one(self) -> QScalar:
        return self.of(1)

    def q(self) -> QScalar:
        return self.q_pow(1)

    def q_pow(self, k: int) -> QScalar:
        p = self._q_pows.get(k)
        if p is None:
            if k < 0:
                raise UsageError("negative q power")
            if self.exact:
                p = QScalar((0,) * k + (1,), 1, None, None)
            else:
                p = QScalar(None, None, self.q0, float(self.q0) ** k)
            self._q_pows[k] = p
        return p

    def of(self, x: RationalLike) -> QScalar:
        x = _as_fraction(x)
        if self.q0 is not None:
            return QScalar(None, None, self.q0, float(x))
        return QScalar((x.numerator,), x.denominator, None, None) if x else _ZERO

    def __repr__(self):
        return "ScalarRing(exact)" if self.exact else f"ScalarRing(q0={self.q0})"

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and self.q0 == other.q0

    def __hash__(self):
        return hash(("ScalarRing", self.q0))


EXACT = ScalarRing()


def q_int(n: int, ring: ScalarRing = EXACT) -> QScalar:
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    if n < 0:
        raise UsageError("q_int needs n >= 0")
    if ring.exact:
        return QScalar((1,) * n, 1, None, None)
    return QScalar.pinned(sum(float(ring.q0) ** k for k in range(n)), ring.q0)


def q_fact(n: int, ring: ScalarRing = EXACT) -> QScalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise UsageError("q_fact needs n >= 0")
    out = ring.one()
    for i in range(1, n + 1):
        out = out * q_int(i, ring)
    return out


def q_fact_ratio(n: int, k: int, ring: ScalarRing = EXACT) -> QScalar:
    """[n]_q! / [n-k]_q! computed as the product [n-k+1]_q ... [n]_q."""
    if not 0 <= k <= n:
        raise UsageError("need 0 <= k <= n")
    out = ring.one()
    for i in range(n - k + 1, n + 1):
        out = out * q_int(i, ring)
    return out

