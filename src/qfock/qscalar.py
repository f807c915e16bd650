"""Scalar arithmetic for the deformation parameter q.

Every scalar is an element of the polynomial ring Q[q] with rational
coefficients.  A polynomial is stored as a tuple of int numerators, one per
power of q and without trailing zeros, over one positive int denominator.
The pair is kept canonical, gcd(den, *num) == 1 and zero is ((), 1), so equal
polynomials have equal (num, den).  Add, multiply and negate are integer
convolutions with at most one gcd per result; `coeffs` is a read-only view of
the coefficients as Fractions.

A sparse combination {key: scalar} has two forms.  `accumulate` and
`add_scaled` keep it canonical after every term and never store a zero.
`IntImage` keeps it open while many terms accumulate, as int numerator
lists over one shared denominator, and makes each coefficient canonical
once, at the end; `fock.apply` and `fock.apply_Pn` build every image
this way, and a `kspoly.NCPolynomial` is one, pruned, made canonical only
where it is read.  `fock.inner0` reads one side as an IntImage and the
other as its canonical scalars, each put over the shared denominator by
one multiplier only when it pairs, and makes one canonical scalar per
result through `QScalar.of_numerators`.  The arc-state transfer of `wick`
keeps each polynomial as one int, its value at q = 2^width (`pack`), on
which adding, scaling by an int and multiplying by q^k are single int
operations; `unpack` reads the numerators back while each fits its width.

Scalars come from the module names ZERO, ONE, `const` (a rational
constant) and `q_pow` (q^k).  A `ScalarRing` is only an evaluation point:
a rational q0 in (-1, 1), or none (`EXACT`).  It builds no scalar, has
no equality of its own and changes no arithmetic: refinement errors,
`moments --q` and norm estimates compute in Q[q] (or, for norms, from the
exact operator tree) and evaluate at q0 once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import UsageError

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
        return ZERO
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return QScalar(tuple(x // g for x in num), den // g)
    return QScalar(tuple(num), den)


def _monomial(a: tuple[int, ...]) -> bool:
    return a.count(0) == len(a) - 1


class QScalar:
    """An element of Q[q]."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # num a trailing-zero-free tuple of ints, den a positive int,
        # gcd(den, *num) == 1
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(coeffs: Iterable[RationalLike]) -> "QScalar":
        den, num = int_numerators(coeffs)
        return _poly(num, den)

    @staticmethod
    def of_numerators(num: list[int], den: int) -> "QScalar":
        """The canonical scalar of int numerators, one per power of q, over a
        positive den; num may hold trailing zeros and is consumed."""
        return _poly(num, den)

    @property
    def is_exact(self) -> bool:
        """Always True: every scalar is a polynomial in Q[q]."""
        return True

    @property
    def is_monomial(self) -> bool:
        """True for a nonzero y q^k / d, a nonzero constant among them."""
        return _monomial(self.num)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients in increasing powers of q."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QScalar") -> "QScalar":
        b = other.num
        if not b:
            return self
        a = self.num
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
        return QScalar(tuple(-x for x in self.num), self.den)

    def __mul__(self, other: "QScalar") -> "QScalar":
        a, b = self.num, other.num
        if not a or not b:
            return ZERO
        # a monomial factor y q^k / d, a constant among them, scales and
        # shifts the other one
        if _monomial(b):
            mono, keep = other, self
        elif _monomial(a):
            mono, keep = self, other
        else:
            if len(a) < len(b):
                a, b = b, a
            out = [0] * (len(a) + len(b) - 1)
            for i, y in enumerate(b):
                if y:
                    for j, x in enumerate(a, i):
                        out[j] += x * y
            return _poly(out, self.den * other.den)
        m, num = mono.num, keep.num
        k, y = len(m) - 1, m[-1]
        if mono.den == 1:
            # keep is canonical, so gcd(den, y * num) = gcd(den, y)
            den = keep.den
            g = gcd(den, y)
            if g != 1:
                y //= g
                den //= g
            if y == 1:
                if not k and den == keep.den:
                    return keep
                out = num
            else:
                out = tuple([x * y for x in num])
            return QScalar((0,) * k + out if k else out, den)
        out = [x * y for x in num]
        if k:
            out = [0] * k + out
        return _poly(out, keep.den * mono.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- evaluation / output ----------------------------------------------

    def subs(self, q0: RationalLike) -> Fraction:
        """Substitute a rational q, exactly."""
        q0 = _as_fraction(q0)
        v = Fraction(0)
        for x in reversed(self.num):
            v = v * q0 + x
        return v / self.den

    def __float__(self) -> float:
        if len(self.num) > 1:
            raise UsageError("cannot coerce a non-constant polynomial to float")
        return self.num[0] / self.den if self.num else 0.0

    def __str__(self) -> str:
        """The coefficients in increasing powers of q, each in lowest terms,
        e.g. "1 - 1/2*q + q^2": each is reduced from num[i] over den with
        one gcd, so the text is that of the Fraction coefficients."""
        num, den = self.num, self.den
        if not num:
            return "0"
        parts = []
        for i, x in enumerate(num):
            if not x:
                continue
            mag = -x if x < 0 else x
            if i and mag == den:
                term = "q" if i == 1 else f"q^{i}"
            else:
                g = gcd(mag, den)
                term = str(mag // g) if g == den else f"{mag // g}/{den // g}"
                if i:
                    term += "*q" if i == 1 else f"*q^{i}"
            if not parts:
                parts.append(term if x > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if x > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "QScalar":
        """Inverse of str(), e.g. "1 - 1/2*q + q^2"."""
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


ZERO = QScalar((), 1)
ONE = QScalar((1,), 1)


def const(x: RationalLike) -> QScalar:
    """The constant polynomial x."""
    x = _as_fraction(x)
    return QScalar((x.numerator,), x.denominator) if x else ZERO


def q_pow(k: int) -> QScalar:
    """The monomial q^k, k >= 0."""
    if k < 0:
        raise UsageError("negative q power")
    return QScalar((0,) * k + (1,), 1)


def accumulate(terms: dict, key, c: QScalar) -> None:
    """terms[key] += c, dropping the key when the sum is zero; a sparse
    combination so never stores a zero coefficient."""
    prev = terms.get(key)
    if prev is not None:
        c = prev + c
    if c.num:
        terms[key] = c
    else:
        terms.pop(key, None)


def add_scaled(terms: dict, other: dict, c: QScalar | None = None) -> dict:
    """terms += c * other in one pass, c None meaning 1; returns terms."""
    if c is None:
        for key, x in other.items():
            accumulate(terms, key, x)
    elif c.num:
        for key, x in other.items():
            accumulate(terms, key, x * c)
    return terms


def int_numerators(values: Iterable[RationalLike]) -> tuple[int, list[int]]:
    """Rationals as int numerators over their least common denominator."""
    fracs = [_as_fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return den, [x.numerator * (den // x.denominator) for x in fracs]


def addmul(terms: dict, key, num: list[int], z: int, s: int) -> None:
    """terms[key] += z q^s num, on the numerator lists of one IntImage; num
    is read, never kept."""
    # a constant num goes without a loop: in `fock.apply` a shift carries
    # each power of q, and 94% of the calls on `verify` and all on `refine`
    # pass one numerator
    acc = terms.get(key)
    if acc is None:
        acc = [num[0] * z] if len(num) == 1 else [x * z for x in num]
        terms[key] = [0] * s + acc if s else acc
        return
    short = s + len(num) - len(acc)
    if short > 0:
        acc += [0] * short
    if len(num) == 1:
        acc[s] += num[0] * z
    else:
        for j, x in enumerate(num, s):
            acc[j] += x * z


def pack(num: list[int], width: int) -> int:
    """The value at q = 2^width of the polynomial of int coefficients num,
    in increasing powers of q: one int holds the polynomial, and adding
    packed values, scaling them by an int and shifting them by k·width bits
    (a factor q^k) act on the polynomial, each one C-level int operation."""
    v = 0
    for x in reversed(num):
        v = (v << width) + x
    return v


def unpack(v: int, width: int) -> list[int]:
    """The int coefficients, in increasing powers of q, of the polynomial
    whose value at q = 2^width is v, each in [-2^(width-1), 2^(width-1)):
    the inverse of `pack` on polynomials whose coefficients fit there."""
    mask, half, out = (1 << width) - 1, 1 << (width - 1), []
    while v:
        x = v & mask
        if x >= half:
            x -= mask + 1
        out.append(x)
        v = (v - x) >> width
    return out


class IntImage:
    """A sparse combination of Q[q] scalars kept open while many terms
    accumulate into it: one positive int denominator and, per key, a mutable
    list of int numerators, one per power of q.  Its lists may hold trailing
    zeros or be all zero; `scalars` makes each canonical once.  Terms over
    another denominator d enter through `join`, which returns their
    multiplier, and `addmul`."""

    __slots__ = ("den", "terms")

    def __init__(self, den: int = 1, terms: dict | None = None):
        self.den = den
        self.terms = {} if terms is None else terms

    @staticmethod
    def of(terms: dict) -> "IntImage":
        """The image of a sparse combination {key: QScalar}."""
        den = lcm(*(c.den for c in terms.values()))
        return IntImage(den, {key: [x * (den // c.den) for x in c.num]
                              for key, c in terms.items()})

    def join(self, d: int) -> int:
        """Put the image over lcm(den, d), rescaling its numerators if that
        grows den; returns den // d, the multiplier of a term over d."""
        den = self.den
        if den % d:
            grow = d // gcd(den, d)
            for num in self.terms.values():
                for j, x in enumerate(num):
                    num[j] = x * grow
            den = self.den = den * grow
        return den // d

    def prune(self) -> "IntImage":
        """Drop the keys whose numerators are all zero."""
        self.terms = {key: num for key, num in self.terms.items() if any(num)}
        return self

    def add(self, other: "IntImage", c: QScalar | None = None) -> "IntImage":
        """self += c * other, c None meaning 1, returning self: each power of
        q in c is a multiplier and a shift, so a polynomial c is convolved
        with each key's numerators once."""
        if not other.terms:
            return self
        if c is None:
            mono, dc = ((0, 1),), 1
        else:
            mono, dc = [(s, y) for s, y in enumerate(c.num) if y], c.den
            if not mono:
                return self
        m = self.join(other.den * dc)
        terms = self.terms
        for s, y in mono:
            y *= m
            for key, num in other.terms.items():
                addmul(terms, key, num, y, s)
        return self

    def scalars(self) -> dict:
        """The combination as {key: canonical QScalar}, without zeros: one
        gcd per distinct numerator list, and equal coefficients share one
        immutable scalar."""
        den = self.den
        out = {}
        made: dict[tuple[int, ...], QScalar] = {}
        for key, num in self.terms.items():
            nums = tuple(num)
            c = made.get(nums)
            if c is None:
                c = made[nums] = _poly(num, den)
            if c.num:
                out[key] = c
        return out


class ScalarRing:
    """An optional evaluation point q0 in (-1, 1) at which float results
    (refinement errors, `moments --q`, norm estimates) are read off; q0 None
    means none.  It builds no scalars: those are the module's ZERO, ONE,
    `const` and `q_pow`."""

    def __init__(self, q0: RationalLike | None = None):
        self.q0 = None if q0 is None else _as_fraction(q0)
        if self.q0 is not None and not (-1 < self.q0 < 1):
            raise UsageError(f"q0 must lie in (-1, 1), got {self.q0}")


EXACT = ScalarRing()


def q_int(n: int) -> QScalar:
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    if n < 0:
        raise UsageError("q_int needs n >= 0")
    return QScalar((1,) * n, 1)


def q_fact(n: int) -> QScalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise UsageError("q_fact needs n >= 0")
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def q_fact_ratio(n: int, k: int) -> QScalar:
    """[n]_q! / [n-k]_q! computed as the product [n-k+1]_q ... [n]_q."""
    if not 0 <= k <= n:
        raise UsageError("need 0 <= k <= n")
    out = ONE
    for i in range(n - k + 1, n + 1):
        out = out * q_int(i)
    return out
