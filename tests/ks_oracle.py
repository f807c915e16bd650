"""Noncommutative polynomials over Q[q] one canonical QScalar per word, kept
as a test oracle.

`qfock.kspoly.NCPolynomial` keeps int numerators over one denominator and
makes a word's coefficient canonical only when `terms` is read; this form
adds, multiplies and reduces every term as it goes, with `accumulate` and
`add_scaled`, and the tests check the int form and its recursion against it.
"""

from __future__ import annotations

from qfock.errors import UsageError
from qfock.model import MomentSequence
from qfock.qscalar import ONE, QScalar, accumulate, add_scaled, const, q_pow

Word = tuple[int, ...]


class OracleNC:
    """A noncommutative polynomial in x_1, x_2, ... over Q[q], as
    {word: nonzero canonical QScalar}."""

    def __init__(self, terms: dict[Word, QScalar] | None = None):
        self.terms: dict[Word, QScalar] = {}
        for w, c in (terms or {}).items():
            if any(j < 1 for j in w):
                raise UsageError(f"variable indices start at 1: {w}")
            if not c.is_zero:
                self.terms[tuple(w)] = c

    @staticmethod
    def _of(terms: dict[Word, QScalar]) -> "OracleNC":
        out = OracleNC()
        out.terms = terms
        return out

    @staticmethod
    def x(j: int) -> "OracleNC":
        return OracleNC({(j,): ONE})

    @staticmethod
    def const(c) -> "OracleNC":
        return OracleNC({(): c if isinstance(c, QScalar) else const(c)})

    def __add__(self, other: "OracleNC") -> "OracleNC":
        return OracleNC._of(add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other: "OracleNC") -> "OracleNC":
        return OracleNC._of(add_scaled(dict(self.terms), other.terms, -ONE))

    def __mul__(self, other: "OracleNC") -> "OracleNC":
        out: dict[Word, QScalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return OracleNC._of(out)

    def scale(self, c: QScalar) -> "OracleNC":
        return OracleNC._of(add_scaled({}, self.terms, c))


def oracle_ks(word: Word, moments: MomentSequence,
              memo: dict[Word, OracleNC] | None = None) -> OracleNC:
    """A_word by the recursion of `kspoly.ks_poly`, one QScalar per term:

        A_(j,u) = x_j A_u - Σ_i q^{i-1} r_{j+u(i)} A_{u∖u(i)}
                          - Σ_i q^{i-1} A_{(j+u(i), u∖u(i))}."""
    memo = {} if memo is None else memo
    if word in memo:
        return memo[word]
    if not word:
        out = OracleNC({(): ONE})
    else:
        j, rest = word[0], word[1:]
        terms = (OracleNC.x(j) * oracle_ks(rest, moments, memo)).terms
        for i, ui in enumerate(rest):
            removed = rest[:i] + rest[i + 1:]
            qc = -q_pow(i)
            add_scaled(terms, oracle_ks(removed, moments, memo).terms,
                       qc * const(moments.r_at(j + ui)))
            add_scaled(terms, oracle_ks((j + ui,) + removed, moments, memo).terms, qc)
        out = OracleNC._of(terms)
    memo[word] = out
    return out
