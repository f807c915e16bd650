"""The law of X(1) by its Jacobi parameters, exactly, on three closed forms.

Write the monic orthogonal polynomials of X(1)'s law under the vacuum as
P_{n+1} = (x - alpha_n) P_n - beta_n P_{n-1}.  From the moments m_1..m_40
that `wick.suffix_moments` gives, the parameters n < 20 are read exactly
at a rational q0 by the Chebyshev algorithm below, which shares no code
with qfock but the moments it is given; so are the Hankel determinants
D_n = det[m_{i+j}], i, j < n.  The closed forms checked:

- q-Gaussian (Bozejko-Speicher, Comm. Math. Phys. 137, 1991):
  alpha_n = 0, beta_n = [n]_q;
- all-ones point set, the q-Poisson law: alpha_n = 1 + [n]_q,
  beta_n = [n]_q;
- the centred all-ones grid model: alpha_n = [n]_q, beta_n = [n]_q;
- on all three, D_n = prod_{k<n} [k]_q!, as a polynomial identity in q;
- the centred q-Poisson law of nu = c delta_x, drawn c > 0 and x != 0, on a
  one-atom grid model: alpha_n = x [n]_q, beta_n = c [n]_q for n < 9, from
  m_1..m_18 (the arc-state budget admits delta_2 through order 19).
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from qfock.suites import all_ones_model, all_ones_pointset, gaussian_model, grid_model
from qfock.wick import suffix_moments

K = 20  # Jacobi parameters alpha_n, beta_n for n < K, from m_1..m_{2K}


@cache
def moments(name: str) -> tuple:
    """m_1..m_{2K} of X(1) as polynomials in q, from `suffix_moments`."""
    if name == "pointset":
        x = all_ones_pointset().one()
    else:
        make = gaussian_model if name == "gaussian" else all_ones_model
        x = make(n_atoms=1).prefix_letter(1)
    return tuple(suffix_moments([x] * (2 * K)))


def at(c, q0) -> Fraction:
    """A moment polynomial at q0, by its coefficients."""
    return sum((x * q0 ** k for k, x in enumerate(c.coeffs)), Fraction(0))


def q_int(n: int, q0) -> Fraction:
    return sum((q0 ** i for i in range(n)), Fraction(0))


def jacobi(m: list, k: int) -> tuple[list, list]:
    """alpha_n and beta_n, n < k, from m_0..m_{2k-1} by the Chebyshev
    algorithm: sigma_n(l) = L(x^l P_n), sigma_{n+1}(l) = sigma_n(l + 1) -
    alpha_n sigma_n(l) - beta_n sigma_{n-1}(l), alpha_n = sigma_n(n + 1) /
    sigma_n(n) - sigma_{n-1}(n) / sigma_{n-1}(n - 1) and beta_n =
    sigma_n(n) / sigma_{n-1}(n - 1); beta_0 = m_0."""
    below = [Fraction(0)] * len(m)
    sigma = list(m)
    alpha, beta = [m[1] / m[0]], [m[0]]
    for n in range(1, k):
        below, sigma = sigma, [
            sigma[l + 1] - alpha[-1] * sigma[l] - beta[-1] * below[l]
            if l >= n else Fraction(0) for l in range(2 * k - n)]
        alpha.append(sigma[n + 1] / sigma[n] - below[n] / below[n - 1])
        beta.append(sigma[n] / below[n - 1])
    return alpha, beta


def det(a: list) -> Fraction:
    """The determinant of a square Fraction matrix by elimination with row
    swaps."""
    a = [list(row) for row in a]
    out = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    return out


def hankel_det(m: list, n: int) -> Fraction:
    return det([[m[i + j] for j in range(n)] for i in range(n)])


def q_factorial_product(n: int, q0) -> Fraction:
    """prod_{k<n} [k]_q! at q0."""
    out = Fraction(1)
    for k in range(n):
        for j in range(1, k + 1):
            out *= q_int(j, q0)
    return out


CLOSED_FORMS = {
    "gaussian": lambda n, q0: (Fraction(0), q_int(n, q0)),
    "pointset": lambda n, q0: (1 + q_int(n, q0), q_int(n, q0)),
    "grid": lambda n, q0: (q_int(n, q0), q_int(n, q0)),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@settings(max_examples=12, deadline=None)
@given(st.fractions(min_value=Fraction(-19, 20), max_value=Fraction(19, 20),
                    max_denominator=20))
def test_jacobi_parameters_are_closed_forms(name, q0):
    """alpha_n and beta_n for n < 20 at a drawn rational q0 of either sign
    are the family's closed forms."""
    m = [Fraction(1)] + [at(c, q0) for c in moments(name)]
    alpha, beta = jacobi(m, K)
    want = [CLOSED_FORMS[name](n, q0) for n in range(K)]
    assert alpha == [a for a, _ in want]
    assert beta[1:] == [b for _, b in want[1:]]


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_hankel_determinants_are_q_factorial_products(name):
    """D_n = prod_{k<n} [k]_q! for n <= 5 as polynomials in q: both sides
    agree at more integer points than the degree of either, which is at most
    the sum over rows of the largest degree of an entry."""
    ms = (None,) + moments(name)[:8]  # m_0 = 1 has degree 0

    def degree(j: int) -> int:
        return 0 if j == 0 else len(ms[j].coeffs) - 1

    for n in range(1, 6):
        bound = max(sum(max(degree(i + j) for j in range(n)) for i in range(n)),
                    sum(k * (k - 1) // 2 for k in range(n)))
        for t in range(bound + 1):
            m = [Fraction(1)] + [at(c, Fraction(t)) for c in ms[1:]]
            assert hankel_det(m, n) == q_factorial_product(n, t), (n, t)


@settings(max_examples=8, deadline=None)
@given(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5),
       st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
       st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=20))
@example(Fraction(1), Fraction(2), Fraction(3, 10))
@example(Fraction(4), Fraction(1, 3), Fraction(1, 2))
@example(Fraction(3, 2), Fraction(-2), Fraction(3, 10))
@example(Fraction(2, 5), Fraction(7, 3), Fraction(1, 2))
def test_q_poisson_jacobi_parameters(c, x, q0):
    """On the one-atom grid model of nu = c delta_x at cutoff 4, X(1) has
    alpha_n = x [n]_q and beta_n = c [n]_q for n < 9, at q0 and at -q0."""
    model = grid_model(((x, c),), n_atoms=1, cutoff=4, depth=6)
    ms = suffix_moments([model.prefix_letter(1)] * 18)
    for t in (q0, -q0):
        alpha, beta = jacobi([Fraction(1)] + [at(m, t) for m in ms], 9)
        assert alpha == [x * q_int(n, t) for n in range(9)]
        assert beta[1:] == [c * q_int(n, t) for n in range(1, 9)]
