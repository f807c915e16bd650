r"""Wick products of letter words and their partition expansions.

The Wick operator W(l_1 ⊗ ... ⊗ l_n) is the unique algebra element with
W(v)Ω = v; it is built by the recursion

    W(l_0 ⊗ rest) = X(l_0) W(rest)
                    - Σ_i q^{i-1} <xi_0, xi_i> W(rest \ l_i)
                    - Σ_i q^{i-1} W((l_0·l_i) ⊗ rest \ l_i)
                    - mean(l_0) W(rest),

whose mean term vanishes for centered (grid-model) letters, so one code path
covers both the grid model and the compound-Poisson algebra.

A product X(l_1)...X(l_n) expands over extended partitions (S, π): closed
blocks contract to scalars (the mean for singletons, a pairing for larger
blocks), open blocks survive as letters of a Wick word, and each term is
weighted by q^{rc(S, π)}.  `product_expansion` lists these terms.

`vacuum_moment` sums the closed case, φ[X(l_1)...X(l_n)] = Σ_π q^{rc(π)}
Π_B (block contraction), without listing partitions: a left-to-right
transfer over the arcs still pending at each position (the transfer-matrix
form of the crossing continued fractions of Flajolet and of Kasraoui–Zeng),
with a budget on the number of live states in place of a cap on n.

Letters are interned in their algebra (model.Letter), so they serve as keys
themselves: a key hashes and compares object ids, never Fraction payloads.
Wick operators are memoised per algebra, in its `wick_cache`, keyed by the
word of letters, and letter products and pairing rows are cached on the
letters.  Only two memos live for one call: `product_expansion`'s
closed-block scalars, keyed by the block's letters in position order, and
`vacuum_moment`'s pairings, keyed by (first letter, product letter).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from .errors import ResourceBudgetError, UsageError
from .fock import FockOperator, FockVector, apply
from .model import Letter, letter_pair
from .partitions import ExtendedPartition, enumerate_partitions, rc
from .qscalar import (ONE, IntImage, QScalar, accumulate, add_scaled, addmul,
                      const, q_pow)

MAX_PRODUCT_N = 8
# Live arc states vacuum_moment may hold after one position.  X(1)^n on the
# one-letter grid models peaks at 627 states at n = 16 and 3,949 at n = 20
# (0.6 s on the 2-atom three-point model and on the 1-atom Gaussian, on a
# 2-vCPU Xeon), and n = 21 needs 6,218; the all-ones point set reaches 3,679
# at n = 28 (2.5 s).
MAX_ARC_STATES = 4000


def _same_algebra(letters: Sequence[Letter]):
    if not letters:
        raise UsageError("need at least one letter")
    algebra = letters[0].algebra
    if any(l.algebra is not algebra for l in letters):
        raise UsageError("letters from different algebra instances")
    return algebra


def wick_operator(algebra, word: Sequence[Letter]) -> FockOperator:
    """The Wick operator of a letter word, memoized in the algebra's
    `wick_cache` under the word itself (letters hash by identity), so the
    operators are freed with their algebra."""
    word = tuple(word)
    cached = algebra.wick_cache.get(word)
    if cached is not None:
        return cached

    if not word:
        op = FockOperator.identity()
    else:
        l0, rest = word[0], word[1:]
        if l0.algebra is not algebra:
            raise UsageError("letter does not belong to this algebra")
        w_rest = wick_operator(algebra, rest)
        terms = [l0.field() * w_rest if rest else l0.field()]
        for i, li in enumerate(rest, start=1):
            removed = rest[:i - 1] + rest[i:]
            qc = q_pow(i - 1)
            pr = letter_pair(l0, li)
            if pr:
                terms.append(wick_operator(algebra, removed).scale(-(qc * const(pr))))
            prod = l0 * li
            if not prod.is_zero:
                terms.append(wick_operator(algebra, (prod,) + removed).scale(-qc))
        m = l0.mean()
        if m:
            terms.append(w_rest.scale(const(-m)))
        op = FockOperator.opsum(terms)

    algebra.wick_cache[word] = op
    return op


def word_vector(algebra, word: Sequence[Letter], depth: int) -> FockVector:
    """The tensor xi_1 ⊗ ... ⊗ xi_n as a Fock vector (Ω for the empty word)."""
    out = FockVector(algebra.space, depth, {(): ONE})
    for letter in reversed(tuple(word)):
        xi = letter.xi()
        nxt = FockVector(algebra.space, depth)
        for w, c in out.terms.items():
            for i, x in xi:
                nxt.add_term((i,) + w, c * const(x))
        out = nxt
    return out


def vacuum_vector(algebra) -> FockVector:
    return FockVector.vacuum(algebra.space, algebra.fock_depth)


def vacuum_expectation(algebra, op: FockOperator) -> QScalar:
    """phi[A] = <Ω, AΩ>_q, read off the vacuum coefficient of AΩ."""
    return apply(op, vacuum_vector(algebra)).vacuum_coefficient()


class WickElement:
    """A finite combination of Wick products of letter words."""

    def __init__(self, algebra, terms: dict[tuple[Letter, ...], QScalar]):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero}

    @staticmethod
    def from_word(algebra, word: Iterable[Letter], coeff: QScalar | None = None) -> "WickElement":
        return WickElement(algebra, {tuple(word): coeff or ONE})

    @staticmethod
    def one(algebra) -> "WickElement":
        return WickElement(algebra, {(): ONE})

    @staticmethod
    def from_vector(algebra, v: FockVector) -> "WickElement":
        """The unique Wick pre-image of a Fock vector (Ω-separating inverse)."""
        if v.space != algebra.space:
            raise UsageError("vector lives on a different one-particle space")
        terms = {tuple(algebra.basis_letter(i) for i in w): c
                 for w, c in v.terms.items()}
        return WickElement(algebra, terms)

    def operator(self) -> FockOperator:
        return FockOperator.opsum(
            [wick_operator(self.algebra, w).scale(c)
             for w, c in self.terms.items()])

    def vector(self, depth: int | None = None) -> FockVector:
        """The image of Ω: Σ coeff · (xi-word tensor)."""
        depth = self.algebra.fock_depth if depth is None else depth
        out = FockVector(self.algebra.space, depth)
        for w, c in self.terms.items():
            out = out + word_vector(self.algebra, w, depth).scale(c)
        return out

    def gamma(self) -> "WickElement":
        """Degree-n Wick components scaled by q^n."""
        return WickElement(self.algebra,
                           {w: c * q_pow(len(w)) for w, c in self.terms.items()})

    def __add__(self, other: "WickElement") -> "WickElement":
        if other.algebra is not self.algebra:
            raise UsageError("elements of different algebras")
        return WickElement(self.algebra, add_scaled(dict(self.terms), other.terms))

    def scale(self, c: QScalar) -> "WickElement":
        return WickElement(self.algebra, add_scaled({}, self.terms, c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def top_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def map_letters(self, fn) -> "WickElement":
        """Apply fn to every letter; words acquiring a zero letter drop out."""
        out: dict[tuple[Letter, ...], QScalar] = {}
        for w, c in self.terms.items():
            new = tuple(fn(l) for l in w)
            if not any(l.is_zero for l in new):
                accumulate(out, new, c)
        return WickElement(self.algebra, out)


# ---------------------------------------------------------------------------
# partition expansions


@dataclass(frozen=True)
class ExpansionTerm:
    """One (S, π) contribution: q^rc · scalar · W(word)."""

    ep: ExtendedPartition
    q_power: int
    scalar: Fraction
    word: tuple[Letter, ...]


def _block_letter(block: Sequence[Letter]) -> Letter:
    """The ordered product of a block's letters, each step read off the
    left factor's product memo."""
    return reduce(mul, block)


def _block_scalar(block: Sequence[Letter]) -> Fraction:
    """Closed-block contraction: mean for singletons, else the pairing of the
    first letter against the ordered product of the rest."""
    if len(block) == 1:
        return block[0].mean()
    return letter_pair(block[0], _block_letter(block[1:]))


def product_expansion(letters: Sequence[Letter]) -> list[ExpansionTerm]:
    """The expansion of X(l_1)...X(l_n) over extended partitions.

    Closed singletons contribute the letter mean, which vanishes for centered
    letters — the grid-model constraint Sing(π) ⊆ S emerges rather than being
    imposed.  Identically zero terms are dropped.  A block is the tuple of
    its letters in position order; each distinct closed block is contracted
    once per call, and open blocks multiply out through the letters' own
    product memos.
    """
    n = len(letters)
    _same_algebra(letters)
    if n > MAX_PRODUCT_N:
        raise ResourceBudgetError(
            f"product_expansion capped at n = {MAX_PRODUCT_N}, got {n}")
    scalars: dict[tuple[Letter, ...], Fraction] = {}
    out: list[ExpansionTerm] = []
    for pi in enumerate_partitions(n):
        blocks = [tuple([letters[i - 1] for i in block]) for block in pi.blocks]
        for size in range(pi.size + 1):
            for S in combinations(range(pi.size), size):
                scalar = Fraction(1)
                for b, block in enumerate(blocks):
                    if b in S:
                        continue
                    x = scalars.get(block)
                    if x is None:
                        x = scalars[block] = _block_scalar(block)
                    scalar *= x
                    if not scalar:
                        break
                if not scalar:
                    continue
                word = tuple(_block_letter(blocks[b]) for b in S)
                if any(l.is_zero for l in word):
                    continue
                ep = ExtendedPartition(pi, frozenset(S))
                out.append(ExpansionTerm(ep, rc(ep), scalar, word))
    return out


def expansion_operator(algebra, terms: Iterable[ExpansionTerm]) -> FockOperator:
    parts = [wick_operator(algebra, t.word).scale(q_pow(t.q_power) * const(t.scalar))
             for t in terms]
    return FockOperator.opsum(parts)


def expansion_ledger(terms: Iterable[ExpansionTerm]) -> str:
    """Human-readable expansion: one line per (S, π)."""
    lines = []
    for t in terms:
        word = " ⊗ ".join(l.algebra.describe(l.payload) for l in t.word) or "1"
        lines.append(f"{t.ep} | rc={t.q_power} | scalar={t.scalar} | W({word})")
    return "\n".join(lines)


def vacuum_moment(letters: Sequence[Letter]) -> QScalar:
    """<Ω, X(l_1)...X(l_n) Ω>_q = Σ_π q^{rc(π)} Π_B (block contraction),
    summed by a left-to-right transfer over arc states, not over partitions.

    An arc joins consecutive elements of a block; the state after a position
    is the tuple of blocks with an arc still pending there, in order of their
    last element, each kept as (first letter, product of its later letters),
    the product None while the block has one letter.
    The next letter is a singleton (weight: its mean, a move skipped when the
    mean is 0), opens a block, or ends the pending arc of the block at place
    p of h; that arc crosses the h-1-p arcs opened after it and still
    pending, so the move carries q^{h-1-p}, and the block then closes (weight
    letter_pair(first, rest·l)) or stays pending at the end of the tuple.
    Each crossing is so counted once, at its left arc's end.  The moment is
    a polynomial in q, and no evaluation point enters it (`moments --q`
    reads it at q0 afterwards).  The states after a position are one
    `qscalar.IntImage`, state -> int numerators per power of q over one
    shared denominator: a move of weight y/d joins d times the previous
    denominator and adds y times the multiplier it returns, shifted by the
    crossings, and the moment is made one canonical QScalar at the end.  A
    state is dropped when it has more pending arcs than positions left, and
    when more than MAX_ARC_STATES states are live after a position the call
    is refused.  Letters are interned, so states hash and compare object
    ids; block products come from the letters' own product memos, and each
    distinct pairing is computed once per call.
    """
    n = len(letters)
    _same_algebra(letters)
    # (first letter, product letter) -> the pairing as (numerator, denominator)
    pairs: dict[tuple[Letter, Letter], tuple[int, int]] = {}

    states = IntImage(1, {(): [1]})
    for pos, letter in enumerate(letters):
        left = n - 1 - pos  # positions after this one
        mean = letter.mean()
        den = states.den
        nxt = IntImage()
        terms, join = nxt.terms, nxt.join
        for state, num in states.terms.items():
            h = len(state)
            if mean and h <= left:
                addmul(terms, state, num,
                       mean.numerator * join(den * mean.denominator), 0)
            if h < left:
                addmul(terms, state + ((letter, None),), num, join(den), 0)
            for p, (first, rest) in enumerate(state):
                if rest is None:
                    grown = letter
                else:
                    grown = rest * letter
                    if grown.is_zero:
                        continue  # a zero product pairs to 0 whatever follows
                others = state[:p] + state[p + 1:]
                pair = pairs.get((first, grown))
                if pair is None:
                    x = letter_pair(first, grown)
                    pair = pairs[first, grown] = x.numerator, x.denominator
                y, d = pair
                if y:
                    addmul(terms, others, num, y * join(den * d), h - 1 - p)
                if h <= left:
                    addmul(terms, others + ((first, grown),), num, join(den),
                           h - 1 - p)
        if len(terms) > MAX_ARC_STATES:
            raise ResourceBudgetError(
                f"vacuum_moment needs {len(terms)} arc states at position "
                f"{pos + 1} of {n}, over the budget of {MAX_ARC_STATES}")
        states = nxt

    return QScalar.of_numerators(states.terms.get((), []), states.den)
