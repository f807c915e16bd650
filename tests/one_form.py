"""The one form of a one-particle vector, checked field by field.

A `fock.SparseVector` is a positive int den over (int index, nonzero int
numerator) pairs in strictly increasing index, in lowest terms.
"""

from fractions import Fraction
from math import gcd

from qfock.fock import SparseVector


def assert_one_form(sv, dim=None):
    """sv is a SparseVector in its one form, its indices in 0..dim-1 if dim
    is given."""
    assert type(sv) is SparseVector
    den, entries = sv
    assert type(den) is int and den > 0
    assert all(type(i) is int and type(z) is int and z for i, z in entries)
    indices = [i for i, _ in entries]
    assert indices == sorted(set(indices))
    assert dim is None or all(0 <= i < dim for i in indices)
    assert gcd(den, *(z for _, z in entries)) == 1


def rationals(sv) -> tuple:
    """A SparseVector's entries as (index, Fraction) pairs."""
    return tuple((i, Fraction(z, sv.den)) for i, z in sv.entries)
