"""The Kailath-Segall polynomials A_u in the power variables x_1, x_2, ....

Substituting for x_j the centred power process Y_j([0, t)) (the letter
x^{j-1} on each atom, no drift: `stochastic.ProcessFamily(model, label,
{j: 1}, 0)`) gives psi_u(t) = psi(Y_{u_1}, ..., Y_{u_n})(t), when A_u is
over the moments t r_k of t nu (the model's own at t = 1).  The one-variable
degenerations are the continuous q-Hermite and the centered q-Charlier
families.

Coefficients lie in Q[q] and come from the module names of `qscalar`; no
evaluation point enters them.  The polynomials A_w are memoised per moment
sequence, in the sequence's `ks_memo`.
"""

from __future__ import annotations

from typing import Sequence

from .errors import UsageError, check_size
from .model import MomentSequence
from .qscalar import (ONE, QScalar, accumulate, add_scaled, const, q_fact_ratio,
                      q_int, q_pow)

MAX_KS_LEN = 8
MAX_ROW_N = 6
MAX_OP_DEGREE = 20

Word = tuple[int, ...]


class NCPolynomial:
    """A noncommutative polynomial in variables x_1, x_2, ... over Q[q];
    words are tuples of variable indices."""

    def __init__(self, terms: dict[Word, QScalar] | None = None):
        self.terms: dict[Word, QScalar] = {}
        if terms:
            for w, c in terms.items():
                if any(j < 1 for j in w):
                    raise UsageError(f"variable indices start at 1: {w}")
                if not c.is_zero:
                    self.terms[tuple(w)] = c

    @staticmethod
    def _of(terms: dict[Word, QScalar]) -> "NCPolynomial":
        """A polynomial taking over terms, whose indices are >= 1 and with
        no zero coefficient."""
        out = NCPolynomial()
        out.terms = terms
        return out

    @staticmethod
    def one() -> "NCPolynomial":
        return NCPolynomial({(): ONE})

    @staticmethod
    def x(j: int) -> "NCPolynomial":
        return NCPolynomial({(j,): ONE})

    @staticmethod
    def const(c) -> "NCPolynomial":
        return NCPolynomial({(): c if isinstance(c, QScalar) else const(c)})

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        return NCPolynomial._of(add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return NCPolynomial._of(add_scaled(dict(self.terms), other.terms, -ONE))

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        out: dict[Word, QScalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return NCPolynomial._of(out)

    def scale(self, c: QScalar) -> "NCPolynomial":
        return NCPolynomial._of(add_scaled({}, self.terms, c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            mono = " ".join(f"x{j}" for j in w) or "1"
            parts.append(f"({self.terms[w]}) · {mono}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the orthogonalization recursion


def ks_poly(u: Sequence[int], moments: MomentSequence) -> NCPolynomial:
    """A_u by the recursion

        A_(j,u) = x_j A_u - Σ_i q^{i-1} r_{j+u(i)} A_{u∖u(i)}
                          - Σ_i q^{i-1} A_{(j+u(i), u∖u(i))},

    with A_∅ = 1 and A_(j) = x_j.  Every A_w the recursion builds is kept in
    the sequence's `ks_memo`, so it is freed with the sequence."""
    u = tuple(u)
    if any(j < 1 for j in u):
        raise UsageError(f"power indices must be >= 1: {u}")
    check_size("ks_poly word length", len(u), MAX_KS_LEN)
    return _ks(u, moments)


def _ks(word: Word, moments: MomentSequence) -> NCPolynomial:
    """A_word of `ks_poly`, for a checked word, through `ks_memo`."""
    got = moments.ks_memo.get(word)
    if got is not None:
        return got
    if not word:
        out = NCPolynomial.one()
    else:
        j, rest = word[0], word[1:]
        terms = (NCPolynomial.x(j) * _ks(rest, moments)).terms
        for i, ui in enumerate(rest):
            removed = rest[:i] + rest[i + 1:]
            qc = -q_pow(i)
            add_scaled(terms, _ks(removed, moments).terms,
                       qc * const(moments.r_at(j + ui)))
            add_scaled(terms, _ks((j + ui,) + removed, moments).terms, qc)
        out = NCPolynomial._of(terms)
    moments.ks_memo[word] = out
    return out


def ks_row_formula(j: int, n: int, moments: MomentSequence) -> NCPolynomial:
    """The closed form of A_(j,1,...,1) with n trailing ones:

        x_j A^(n) + Σ_{k=1}^n (-1)^k ([n]_q!/[n-k]_q!) (x_{j+k} + r_{j+k}) A^(n-k),

    where A^(m) = A_(1,...,1) on m ones."""
    check_size("ks_row_formula n =", n, MAX_ROW_N)
    a = {m: ks_poly((1,) * m, moments) for m in range(n + 1)}
    out = NCPolynomial.x(j) * a[n]
    for k in range(1, n + 1):
        coeff = q_fact_ratio(n, k)
        if k % 2:
            coeff = -coeff
        bracket = NCPolynomial.x(j + k) + NCPolynomial.const(moments.r_at(j + k))
        out = out + (bracket * a[n - k]).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# one-variable degenerations


def q_hermite(n: int) -> NCPolynomial:
    """H_0 = 1, H_1 = x, H_{n+1} = x H_n - [n]_q H_{n-1}."""
    check_size("q_hermite degree", n, MAX_OP_DEGREE)
    return _three_term(n, drift=False)


def q_charlier(n: int) -> NCPolynomial:
    """C_0 = 1, C_1 = x, C_{n+1} = x C_n - [n]_q C_n - [n]_q C_{n-1}."""
    check_size("q_charlier degree", n, MAX_OP_DEGREE)
    return _three_term(n, drift=True)


def _three_term(n: int, drift: bool) -> NCPolynomial:
    """P_n of P_0 = 1, P_1 = x, P_{m+1} = x P_m - alpha_m P_m - [m]_q P_{m-1},
    where alpha_m = [m]_q with drift and 0 without."""
    prev, p = NCPolynomial.one(), NCPolynomial.x(1)
    for m in range(1, n):
        qm, nxt = q_int(m), NCPolynomial.x(1) * p
        prev, p = p, (nxt - p.scale(qm) if drift else nxt) - prev.scale(qm)
    return p if n else prev
