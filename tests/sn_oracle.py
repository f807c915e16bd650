"""The q-symmetrizer as a sum over the symmetric group, kept as a test oracle.

P_n = sum_sigma q^{inv(sigma)} sigma costs n! terms per word; `qfock` builds
P_n by a factorisation instead, and the tests check it against this sum.
"""

from itertools import permutations
from typing import Sequence

from qfock.errors import UsageError
from qfock.fock import FockVector
from qfock.qscalar import q_pow


def inversions(sigma: Sequence[int]) -> int:
    """Number of pairs i < j with sigma(i) > sigma(j); sigma permutes 1..n."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise UsageError(f"not a permutation of 1..{n}: {sigma}")
    return sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])


def sym_group(n: int):
    """All permutations of 1..n as tuples (identity first for n <= 1)."""
    return permutations(range(1, n + 1))


def apply_Pn_sum(v: FockVector) -> FockVector:
    """Replace each degree-n word by its q-weighted sum of permutations."""
    out = FockVector(v.space, v.depth)
    for w, c in v.terms.items():
        for sigma in sym_group(len(w)):
            pw = tuple(w[s - 1] for s in sigma)
            out.add_term(pw, c * q_pow(inversions(sigma)))
    return out
