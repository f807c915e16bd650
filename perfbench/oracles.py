"""Independent moment oracles: O(n^2) recursions on polynomials in q.

They share no code with qfock.  A polynomial is a list of Fraction
coefficients, lowest degree first, without trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _q_int(k: int) -> list:
    return [Fraction(1)] * k


def touchard_riordan(n: int) -> list:
    """Sum over perfect matchings of {1..n} of q^crossings (0 for odd n):
    (1-q)^{-m} sum_k (-1)^k q^{k(k+1)/2} [C(2m, m-k) - C(2m, m-k-1)], n = 2m.
    This is the vacuum moment of a q-Gaussian (r_2 = 1, all other r_k = 0)."""
    if n % 2:
        return []
    m = n // 2
    num = []
    for k in range(m + 1):
        c = comb(2 * m, m - k) - (comb(2 * m, m - k - 1) if m - k >= 1 else 0)
        term = [Fraction(0)] * (k * (k + 1) // 2) + [Fraction((-1) ** k * c)]
        num = _add(num, term)
    # divide by (1-q)^m: each division by (1-q) is a running prefix sum
    for _ in range(m):
        out, acc = [], Fraction(0)
        for c in num:
            acc += c
            out.append(acc)
        if acc != 0:
            raise ArithmeticError("Touchard-Riordan numerator not divisible")
        num = _trim(out)
    return num


def jacobi_moment(n: int, alpha, beta) -> list:
    """m_n = (J^n)_{00} for the Jacobi matrix with diagonal alpha(k) and
    off-diagonal products beta(k) (k >= 1), by the Motzkin-path recursion."""
    row = [[Fraction(1)]]  # row[k]: weight of paths of the current length ending at height k
    for _ in range(n):
        nxt = [[] for _ in range(len(row) + 1)]
        for k, w in enumerate(row):
            if not w:
                continue
            nxt[k + 1] = _add(nxt[k + 1], w)  # up step
            nxt[k] = _add(nxt[k], _mul(w, alpha(k)))  # level step
            if k:
                nxt[k - 1] = _add(nxt[k - 1], _mul(w, beta(k)))  # down step
        row = nxt
    return row[0]


def q_charlier_moment(n: int) -> list:
    """Moments of the all-ones point set (a single atom at 1 with mass 1):
    the q-Charlier chain alpha_k = 1 + [k]_q, beta_k = [k]_q."""
    return jacobi_moment(n, lambda k: _add([Fraction(1)], _q_int(k)),
                         lambda k: _q_int(k))


def parse_poly(text: str) -> list:
    """Coefficients of a printed polynomial in q such as "5/2 + q - 3*q^4"."""
    coeffs: dict[int, Fraction] = {}
    for tok in text.replace("- ", "-").replace("+ ", "").split():
        coef, q, var = tok.partition("q")
        power = int(var[1:]) if var.startswith("^") else (1 if q else 0)
        coef = coef.rstrip("*")
        c = Fraction(coef + "1") if coef in ("", "-") else Fraction(coef)
        coeffs[power] = coeffs.get(power, Fraction(0)) + c
    if not coeffs:
        return []
    return _trim([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])


def poly_text(p: list) -> str:
    """Plain coefficient list as text, for error messages."""
    return "[" + ", ".join(str(c) for c in p) + "]"
