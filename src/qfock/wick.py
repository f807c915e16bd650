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
weighted by q^{rc(S, π)}.  One right-to-left transfer over the arcs still
pending at each position (the transfer-matrix form of the crossing continued
fractions of Flajolet and of Kasraoui–Zeng) sums these terms without listing
partitions: `product_expansion` keeps the states still pending after the
first position as Wick words, and `vacuum_moment` keeps only the closed case,
φ[X(l_1)...X(l_n)] = Σ_π q^{rc(π)} Π_B (block contraction).  Both share one
budget, MAX_ARC_STATES live states after a position, in place of a cap on n.

Letters are interned in their algebra (model.Letter), so they serve as keys
themselves: a key hashes and compares object ids, never Fraction payloads.
Wick operators are memoised per algebra, in its `wick_cache`, keyed by the
word of letters, and letter products and pairing rows are cached on the
letters.  Only one memo lives for one call: the transfer's pairings, keyed
by (letter, block product).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ResourceBudgetError, UsageError
from .fock import FockOperator, FockVector, apply
from .model import Letter, letter_pair
from .qscalar import (ONE, IntImage, QScalar, accumulate, add_scaled, addmul,
                      const, q_pow)

# Live arc states the transfer may hold after one position, in either case.
# The moment of X(1)^n on the 2-atom three-point model peaks at 1,083 states
# at n = 20 (0.2 s on a 2-vCPU Xeon) and 3,402 at n = 23 (1.1 s), and n = 24
# needs 4,073; where block products are null or the one letter again, n = 40
# peaks at 11 on the Gaussian and at 21 on the all-ones models.  Expanding
# X(1)^13 on the three-point model ends on 2,420 states; X(1)^14 needs 4,452.
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
        return WickElement(algebra, {tuple(word): ONE if coeff is None else coeff})

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
        """Σ c W(word): the one place a sum of Wick products is built."""
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
# the arc-state transfer


def _arc_transfer(letters: Sequence[Letter], closed: bool) -> IntImage:
    """Σ over extended partitions of X(l_1)...X(l_n), by a right-to-left
    transfer over the arcs still pending at each position.

    An arc joins consecutive elements of a block; an open block is one whose
    arc is still pending after the first position, to -∞.  The state after a
    position is the tuple of blocks with a pending arc, in order of their
    least element read so far, latest last, each kept as the product of its
    letters read so far.  The letter l is a closed singleton (weight: its
    mean, a move skipped when the mean is 0), opens a block (skipped when l
    is zero), or ends the pending arc of the block P at place p of h.  That
    arc is crossed by the h-1-p arcs pending from blocks read since P, so
    the move carries q^{h-1-p}, and each crossing is counted once, at its
    right arc's left end.  The block then closes (weight letter_pair(l, P))
    or stays pending, last, as l·P (skipped when l·P is zero).

    The states after a position are one `qscalar.IntImage`, state -> int
    numerators per power of q over one shared denominator: a move of weight
    y/d joins d times the previous denominator and adds y times the
    multiplier it returns, shifted by the crossings.  In the closed case a
    state is dropped when it has more pending arcs than positions left.
    More than MAX_ARC_STATES live states after a position refuse the call.
    Letters are interned, so states hash and compare object ids; products
    come from the letters' own product memos, and each distinct pairing is
    computed once per call.
    """
    n = len(letters)
    # (letter, product letter) -> the pairing as (numerator, denominator)
    pairs: dict[tuple[Letter, Letter], tuple[int, int]] = {}

    states = IntImage(1, {(): [1]})
    for pos in range(n - 1, -1, -1):
        letter = letters[pos]
        room = pos if closed else n  # a closed arc needs a position left
        mean = letter.mean()
        den = states.den
        nxt = IntImage()
        terms, join = nxt.terms, nxt.join
        for state, num in states.terms.items():
            h = len(state)
            if mean and h <= room:
                addmul(terms, state, num,
                       mean.numerator * join(den * mean.denominator), 0)
            if h < room and not letter.is_zero:
                addmul(terms, state + (letter,), num, join(den), 0)
            for p, block in enumerate(state):
                others = state[:p] + state[p + 1:]
                pair = pairs.get((letter, block))
                if pair is None:
                    x = letter_pair(letter, block)
                    pair = pairs[letter, block] = x.numerator, x.denominator
                y, d = pair
                if y:
                    addmul(terms, others, num, y * join(den * d), h - 1 - p)
                if h <= room:
                    grown = letter * block
                    if not grown.is_zero:
                        addmul(terms, others + (grown,), num, join(den),
                               h - 1 - p)
        if len(terms) > MAX_ARC_STATES:
            raise ResourceBudgetError(
                f"{'vacuum_moment' if closed else 'product_expansion'} needs "
                f"{len(terms)} arc states at position {pos + 1} of {n}, over "
                f"the budget of {MAX_ARC_STATES}")
        states = nxt
    return states


def product_expansion(letters: Sequence[Letter]) -> WickElement:
    """X(l_1)...X(l_n) = Σ_{(S, π)} q^{rc(S, π)} Π_{B ∉ S} (contraction of B)
    W(⊗_{B ∈ S} product of B), summed per Wick word: the open case of the
    arc-state transfer, each state left after the first position read as
    its word, least elements in increasing order.

    Closed singletons contribute the letter mean, which vanishes for centered
    letters — the grid-model constraint Sing(π) ⊆ S emerges rather than being
    imposed — and a word holding a zero letter drops out.
    """
    algebra = _same_algebra(letters)
    states = _arc_transfer(letters, closed=False).scalars()
    return WickElement(algebra, {state[::-1]: c for state, c in states.items()})


def vacuum_moment(letters: Sequence[Letter]) -> QScalar:
    """<Ω, X(l_1)...X(l_n) Ω>_q = Σ_π q^{rc(π)} Π_B (block contraction): the
    closed case of the arc-state transfer, read off its empty state.  The
    moment is a polynomial in q, and no evaluation point enters it
    (`moments --q` reads it at q0 afterwards)."""
    _same_algebra(letters)
    states = _arc_transfer(letters, closed=True)
    return QScalar.of_numerators(states.terms.get((), []), states.den)
