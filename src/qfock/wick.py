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
φ[X(l_1)...X(l_n)] = Σ_π q^{rc(π)} Π_B (block contraction).  The closed
transfer's empty state after each position is the moment of the suffix read
so far, and `suffix_moments` returns them all from one transfer.  All share
one budget, MAX_ARC_STATES live states after a position, in place of a cap
on n.  Each state's polynomial is one int, its value at a power of two.

Letters are interned in their algebra (model.Letter), so they serve as keys
themselves: a key hashes and compares object ids, never Fraction payloads.
Wick operators are memoised per algebra, in its `wick_cache`, keyed by the
word of letters, and letter products and pairing rows are cached on the
letters.  Only one memo lives for one call: the transfer's pairings, keyed
by (letter, block product).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import ResourceBudgetError, UsageError
from .fock import FockOperator, FockVector, apply
from .model import Letter, letter_pair
from .qscalar import (ONE, QScalar, accumulate, add_scaled, const, pack,
                      q_pow, unpack)

# Live arc states the transfer may hold after one position, in either case.
# The moment of X(1)^n on the 2-atom three-point model peaks at 1,083 states
# at n = 20 (0.1 s on a 2-vCPU Xeon) and 3,402 at n = 23 (0.4 s), and n = 24
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


def _arc_transfer(letters: Sequence[Letter],
                  closed: bool) -> Iterator[tuple[dict, int, int]]:
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

    Each state holds a polynomial of int numerators over the position's one
    denominator, kept as its value at q = 2^width (`qscalar.pack`): a move
    of weight y/d multiplies by y times the new denominator over d times
    the old one, and its q^k shifts by k·width bits, one int operation
    whatever the degree.  A position's denominator takes the lcm of its
    weights' denominators at once.  One bound on the sum of |coefficients|
    over all states grows, at each position, by the largest total
    multiplier of one state's moves; before it reaches 2^(width-1) the
    states are repacked at a larger width, so `qscalar.unpack` recovers
    every coefficient.  In the closed case a state is dropped when it has
    more pending arcs than positions left.  More than MAX_ARC_STATES live
    states after a position refuse the call.  Letters are interned, so
    states hash and compare object ids; products come from the letters' own
    product memos, and each distinct pairing is asked of `letter_pair`, which
    keeps it on the letter, once per call.

    (values, den, width) is yielded after each position, right to left.  In
    the closed case the empty state after position pos holds the moment of
    the suffix l_pos...l_n: a path of that suffix to the empty state has at
    most i - pos pending arcs after position i, within the i that the
    pruning allows, so no such path is dropped.
    """
    n = len(letters)
    # (letter, product letter) -> the pairing as (numerator, denominator)
    pairs: dict[tuple[Letter, Letter], tuple[int, int]] = {}

    # bound >= the sum of |numerator coefficients| over all states
    values, den, width, bound = {(): 1}, 1, 64, 1
    for pos in range(n - 1, -1, -1):
        letter = letters[pos]
        room = pos if closed else n  # a closed arc needs a position left
        mean = letter.mean()
        step = mean.denominator  # the position's denominator is den * step
        closing = {}  # block -> its pairing, then the multiplier of it
        for block in set().union(*values):
            pair = pairs.get((letter, block))
            if pair is None:
                x = letter_pair(letter, block)
                pair = pairs[letter, block] = x.numerator, x.denominator
            closing[block] = pair
            step = lcm(step, pair[1])
        size = step  # the largest |multiplier| of a move
        for block, (y, d) in closing.items():
            y = closing[block] = y * (step // d)
            if abs(y) > size:
                size = abs(y)
        by_mean = mean.numerator * (step // mean.denominator)
        # a state has at most n - pos - 1 blocks, so its moves' multipliers
        # sum to at most |by_mean| + (n - pos) (size + step)
        bound *= abs(by_mean) + (n - pos) * (size + step)
        if bound.bit_length() >= width:
            wider = max(2 * width, bound.bit_length() + 1)
            values = {state: pack(unpack(v, width), wider)
                      for state, v in values.items()}
            width = wider
        opens = not letter.is_zero
        nxt = {}
        for state, v in values.items():
            h = len(state)
            if by_mean and h <= room:
                nxt[state] = nxt.get(state, 0) + v * by_mean
            if opens and h < room:
                key = state + (letter,)
                nxt[key] = nxt.get(key, 0) + v * step
            for p, block in enumerate(state):
                others = state[:p] + state[p + 1:]
                shift = width * (h - 1 - p)
                y = closing[block]
                if y:
                    nxt[others] = nxt.get(others, 0) + (v * y << shift)
                if h <= room:
                    grown = letter * block
                    if not grown.is_zero:
                        key = others + (grown,)
                        nxt[key] = nxt.get(key, 0) + (v * step << shift)
        if len(nxt) > MAX_ARC_STATES:
            raise ResourceBudgetError(
                f"{'vacuum_moment' if closed else 'product_expansion'} needs "
                f"{len(nxt)} arc states at position {pos + 1} of {n}, over "
                f"the budget of {MAX_ARC_STATES}")
        values, den = nxt, den * step
        yield values, den, width


def _scalar(value: int, den: int, width: int) -> QScalar:
    """The canonical scalar of a packed state value over den."""
    return QScalar.of_numerators(unpack(value, width), den)


def _final_states(letters: Sequence[Letter],
                  closed: bool) -> tuple[dict, int, int]:
    """The arc states left after the first position."""
    for final in _arc_transfer(letters, closed):
        pass
    return final


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
    values, den, width = _final_states(letters, closed=False)
    return WickElement(algebra, {state[::-1]: _scalar(v, den, width)
                                 for state, v in values.items()})


def vacuum_moment(letters: Sequence[Letter]) -> QScalar:
    """<Ω, X(l_1)...X(l_n) Ω>_q = Σ_π q^{rc(π)} Π_B (block contraction): the
    closed case of the arc-state transfer, read off its empty state after
    the first position and of no other.  The moment is a polynomial in q,
    and no evaluation point enters it (`moments --q` reads it at q0
    afterwards)."""
    _same_algebra(letters)
    values, den, width = _final_states(letters, closed=True)
    return _scalar(values.get((), 0), den, width)


def suffix_moments(letters: Sequence[Letter]) -> list[QScalar]:
    """[vacuum_moment(letters[n - m:]) for m = 1..n], read off the empty
    state after each position of one closed transfer of the whole word, so
    X^m for m = 1..n costs one transfer of [X] * n.  Its budget is that of
    the whole word: the suffixes share its looser pruning."""
    _same_algebra(letters)
    return [_scalar(values.get((), 0), den, width)
            for values, den, width in _arc_transfer(letters, closed=True)]
