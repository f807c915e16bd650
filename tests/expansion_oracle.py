"""The Wick product expansion as a sum over extended partitions, kept as a
test oracle.

X(l_1)...X(l_n) = Σ_{(S, π)} q^{rc(S, π)} Π_{B ∉ S} (contraction of B)
W(⊗_{B ∈ S} product of B) lists every partition π of {1..n} times every
subset S of its blocks; `qfock.wick.product_expansion` sums the same terms by
an arc-state transfer instead, and the tests check it against this sum.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Sequence

from qfock.model import Letter, letter_pair
from qfock.partitions import enumerate_partitions, rc
from qfock.qscalar import QScalar, accumulate, const, q_pow


def block_letter(block: Sequence[Letter]) -> Letter:
    """The ordered product of a block's letters."""
    return reduce(mul, block)


def block_scalar(block: Sequence[Letter]) -> Fraction:
    """Closed-block contraction: mean for singletons, else the pairing of the
    first letter against the ordered product of the rest."""
    if len(block) == 1:
        return block[0].mean()
    return letter_pair(block[0], block_letter(block[1:]))


def expansion_by_word(letters: Sequence[Letter]) -> dict[tuple[Letter, ...], QScalar]:
    """{Wick word: coefficient}: each (S, π) adds q^{rc(S, π)} times its
    closed blocks' contractions to the word of its open blocks' products,
    blocks in order of least element.  Words holding a zero letter and zero
    sums drop out."""
    out: dict[tuple[Letter, ...], QScalar] = {}
    for pi in enumerate_partitions(len(letters)):
        blocks = [tuple(letters[i - 1] for i in block) for block in pi.blocks]
        for size in range(pi.size + 1):
            for S in combinations(range(pi.size), size):
                scalar = Fraction(1)
                for b, block in enumerate(blocks):
                    if b not in S:
                        scalar *= block_scalar(block)
                word = tuple(block_letter(blocks[b]) for b in S)
                if scalar and not any(l.is_zero for l in word):
                    accumulate(out, word, q_pow(rc(pi, S)) * const(scalar))
    return out
