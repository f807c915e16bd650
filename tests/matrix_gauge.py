"""A gauge given by a matrix: a fake of the `fock.Gauge` contract for tests.

Its columns are int numerators over the one least common denominator of the
matrix entries.  Nothing checks that the matrix is symmetric for a gram
form, so a test that takes an adjoint draws a letter gauge instead.
"""

from fractions import Fraction
from math import lcm

from qfock.fock import FockOperator, Gauge


class MatrixGauge(Gauge):
    """matrix[j][i] is the coefficient of e_j in T e_i."""

    def __init__(self, matrix):
        self.matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        self.den = lcm(*(x.denominator for row in self.matrix for x in row))
        self.columns = [
            tuple((j, int(row[i] * self.den)) for j, row in enumerate(self.matrix)
                  if row[i])
            for i in range(len(self.matrix))]

    def column(self, i):
        return self.columns[i]

    def support(self):
        return frozenset(range(len(self.matrix)))


def matrix_gauge(matrix) -> FockOperator:
    """The gauge node of a matrix."""
    return FockOperator.gauge(MatrixGauge(matrix))
