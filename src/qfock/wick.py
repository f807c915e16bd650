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
weighted by q^{rc(S, π)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ResourceBudgetError, UsageError
from .fock import FockOperator, FockVector, apply
from .model import Letter, letter_pair
from .partitions import (ExtendedPartition, enumerate_partitions, rc, rc_plain)
from .qscalar import QScalar

MAX_PRODUCT_N = 8
MAX_MOMENT_N = 10

_WICK_CACHE: dict[tuple, FockOperator] = {}


def _same_algebra(letters: Sequence[Letter]):
    if not letters:
        raise UsageError("need at least one letter")
    algebra = letters[0].algebra
    if any(l.algebra is not algebra for l in letters):
        raise UsageError("letters from different algebra instances")
    return algebra


def wick_operator(algebra, word: Sequence[Letter]) -> FockOperator:
    """The Wick operator of a letter word, memoized per algebra."""
    word = tuple(word)
    key = (algebra, word)
    cached = _WICK_CACHE.get(key)
    if cached is not None:
        return cached

    ring = algebra.ring
    if not word:
        op = FockOperator.identity(ring)
    else:
        l0, rest = word[0], word[1:]
        if l0.algebra is not algebra:
            raise UsageError("letter does not belong to this algebra")
        w_rest = wick_operator(algebra, rest)
        terms = [l0.field() * w_rest if rest else l0.field()]
        for i, li in enumerate(rest, start=1):
            removed = rest[:i - 1] + rest[i:]
            qc = ring.q_pow(i - 1)
            pr = letter_pair(l0, li)
            if pr:
                terms.append(wick_operator(algebra, removed).scale(
                    -(qc * ring.of(pr))))
            prod = l0 * li
            if not prod.is_zero:
                terms.append(wick_operator(algebra, (prod,) + removed).scale(-qc))
        m = l0.mean()
        if m:
            terms.append(w_rest.scale(-ring.of(m)))
        op = FockOperator.opsum(terms)

    _WICK_CACHE[key] = op
    return op


def word_vector(algebra, word: Sequence[Letter], depth: int) -> FockVector:
    """The tensor xi_1 ⊗ ... ⊗ xi_n as a Fock vector (Ω for the empty word)."""
    ring = algebra.ring
    out = FockVector(algebra.space, depth, {(): ring.one()})
    for letter in reversed(tuple(word)):
        xi = letter.xi()
        nxt = FockVector(algebra.space, depth)
        for w, c in out.terms.items():
            for i, x in xi:
                nxt.add_term((i,) + w, c * ring.of(x))
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
        return WickElement(algebra, {tuple(word): coeff or algebra.ring.one()})

    @staticmethod
    def one(algebra) -> "WickElement":
        return WickElement(algebra, {(): algebra.ring.one()})

    @staticmethod
    def from_vector(algebra, v: FockVector) -> "WickElement":
        """The unique Wick pre-image of a Fock vector (Ω-separating inverse)."""
        if v.space != algebra.space:
            raise UsageError("vector lives on a different one-particle space")
        terms = {tuple(algebra.basis_letter(i) for i in w): c
                 for w, c in v.terms.items()}
        return WickElement(algebra, terms)

    def operator(self) -> FockOperator:
        if not self.terms:
            return FockOperator.scalar(self.algebra.ring.zero())
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
        ring = self.algebra.ring
        return WickElement(self.algebra,
                           {w: c * ring.q_pow(len(w)) for w, c in self.terms.items()})

    def __add__(self, other: "WickElement") -> "WickElement":
        if other.algebra is not self.algebra:
            raise UsageError("elements of different algebras")
        out = dict(self.terms)
        for w, c in other.terms.items():
            cur = out.get(w)
            out[w] = c if cur is None else cur + c
        return WickElement(self.algebra, out)

    def scale(self, c: QScalar) -> "WickElement":
        return WickElement(self.algebra, {w: cc * c for w, cc in self.terms.items()})

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
            if any(l.is_zero for l in new):
                continue
            cur = out.get(new)
            out[new] = c if cur is None else cur + c
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


def _block_scalar(letters: Sequence[Letter], block: tuple[int, ...]) -> Fraction:
    """Closed-block contraction: mean for singletons, else the pairing of the
    first letter against the ordered product of the rest."""
    if len(block) == 1:
        return letters[block[0] - 1].mean()
    rest = letters[block[1] - 1]
    for i in block[2:]:
        rest = rest * letters[i - 1]
    return letter_pair(letters[block[0] - 1], rest)


def _block_letter(letters: Sequence[Letter], block: tuple[int, ...]) -> Letter:
    out = letters[block[0] - 1]
    for i in block[1:]:
        out = out * letters[i - 1]
    return out


def product_expansion(letters: Sequence[Letter]) -> list[ExpansionTerm]:
    """The expansion of X(l_1)...X(l_n) over extended partitions.

    Closed singletons contribute the letter mean, which vanishes for centered
    letters — the grid-model constraint Sing(π) ⊆ S emerges rather than being
    imposed.  Identically zero terms are dropped.
    """
    n = len(letters)
    _same_algebra(letters)
    if n > MAX_PRODUCT_N:
        raise ResourceBudgetError(
            f"product_expansion capped at n = {MAX_PRODUCT_N}, got {n}")
    out: list[ExpansionTerm] = []
    for pi in enumerate_partitions(n):
        for size in range(pi.size + 1):
            for S in combinations(range(pi.size), size):
                scalar = Fraction(1)
                for b, block in enumerate(pi.blocks):
                    if b in S:
                        continue
                    scalar *= _block_scalar(letters, block)
                    if not scalar:
                        break
                if not scalar:
                    continue
                word = tuple(_block_letter(letters, pi.blocks[b]) for b in S)
                if any(l.is_zero for l in word):
                    continue
                ep = ExtendedPartition(pi, frozenset(S))
                out.append(ExpansionTerm(ep, rc(ep), scalar, word))
    return out


def expansion_operator(algebra, terms: Iterable[ExpansionTerm]) -> FockOperator:
    ring = algebra.ring
    parts = [wick_operator(algebra, t.word).scale(ring.q_pow(t.q_power) * ring.of(t.scalar))
             for t in terms]
    if not parts:
        return FockOperator.scalar(ring.zero())
    return FockOperator.opsum(parts)


def expansion_ledger(terms: Iterable[ExpansionTerm]) -> str:
    """Human-readable expansion: one line per (S, π)."""
    lines = []
    for t in terms:
        word = " ⊗ ".join(l.algebra.describe(l.payload) for l in t.word) or "1"
        lines.append(f"{t.ep} | rc={t.q_power} | scalar={t.scalar} | W({word})")
    return "\n".join(lines)


def vacuum_moment(letters: Sequence[Letter]) -> QScalar:
    """<Ω, X(l_1)...X(l_n) Ω>_q as the partition sum Σ_π q^{rc(π)} Π_B (block
    contraction)."""
    n = len(letters)
    algebra = _same_algebra(letters)
    if n > MAX_MOMENT_N:
        raise ResourceBudgetError(
            f"vacuum_moment capped at n = {MAX_MOMENT_N}, got {n}")
    ring = algebra.ring
    total = ring.zero()
    for pi in enumerate_partitions(n):
        val = Fraction(1)
        for block in pi.blocks:
            val *= _block_scalar(letters, block)
            if not val:
                break
        if val:
            total = total + ring.q_pow(rc_plain(pi)) * ring.of(val)
    return total


# ---------------------------------------------------------------------------
# commutant (right) operators


def right_operator(letter: Letter) -> FockOperator:
    """X^r(f): η_1 ⊗ ... ⊗ η_n ↦ W(η_1 ⊗ ... ⊗ η_n) X(f) Ω."""
    algebra = letter.algebra

    def act(v: FockVector) -> FockVector:
        xf = apply(letter.field(), FockVector.vacuum(v.space, v.depth))
        out = FockVector(v.space, v.depth)
        for w, c in v.terms.items():
            basis_word = tuple(algebra.basis_letter(i) for i in w)
            out = out + apply(wick_operator(algebra, basis_word), xf).scale(c)
        return out

    return FockOperator.linear(act, "right-field")
