"""Specialisations of St_pi, kept as test oracles.

The Gaussian (singleton-pair) and free (noncrossing, q = 0) forms of the
partition-dependent stochastic measures, as Wick elements, and the block
classification they read with the crossing count rc_plain it tests for
noncrossing.  `qfock` itself never builds these; the tests compare them
with `st_pi_closed`.  `kernel_of` reads an index tuple's kernel, for the
flat sums that `st_pi_discrete` is checked against.
"""

from dataclasses import dataclass
from fractions import Fraction

from qfock.model import ProcessModel
from qfock.partitions import SetPartition, rc
from qfock.qscalar import const, q_pow
from qfock.stochastic import delta_process, psi_closed
from qfock.wick import WickElement


def kernel_of(u) -> SetPartition:
    """The partition of the positions 1..n of u into its level sets."""
    level: dict = {}
    for pos, v in enumerate(u, start=1):
        level.setdefault(v, []).append(pos)
    return SetPartition.of(level.values())


def rc_plain(pi: SetPartition) -> int:
    """rc of the partition with no open blocks."""
    return rc(pi, ())


@dataclass(frozen=True)
class Classification:
    is_noncrossing: bool
    singletons: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, ...], ...]
    inner_blocks: tuple[tuple[int, ...], ...] | None
    outer_blocks: tuple[tuple[int, ...], ...] | None


def classify(pi: SetPartition) -> Classification:
    """Noncrossing test, singleton/pair blocks, inner/outer split.

    Inner and outer blocks are only defined for noncrossing partitions; the
    fields are None otherwise and must not be requested.
    """
    noncrossing = rc_plain(pi) == 0
    singles = tuple(b for b in pi.blocks if len(b) == 1)
    pairs = tuple(b for b in pi.blocks if len(b) == 2)
    if not noncrossing:
        return Classification(False, singles, pairs, None, None)
    inner, outer = [], []
    for b in pi.blocks:
        covered = any(c[0] < b[0] and b[-1] < c[-1] for c in pi.blocks if c != b)
        (inner if covered else outer).append(b)
    return Classification(True, singles, pairs, tuple(inner), tuple(outer))


def st_pi_gaussian_form(pi: SetPartition, t, model: ProcessModel) -> WickElement:
    """The singleton-pair specialization q^{rc(Sing,pi)} t^{|Pairs|}
    psi_{|Sing|}(t); zero when pi has a block of size > 2."""
    t = Fraction(t)
    cls = classify(pi)
    if len(cls.singletons) + len(cls.pairs) != pi.size:
        return WickElement(model, {})
    sing = frozenset(i for i, b in enumerate(pi.blocks) if len(b) == 1)
    word = (model.prefix_letter(t, 1),) * len(cls.singletons)
    return WickElement.from_word(model, word,
                                 q_pow(rc(pi, sing)) * const(t ** len(cls.pairs)))


def st_pi_free_form(pi: SetPartition, t, model: ProcessModel) -> WickElement:
    """The noncrossing specialization R_{Inner}(t) psi(Delta_{|B|}: B in
    Outer); zero for crossing pi.  Meaningful at q = 0."""
    t = Fraction(t)
    cls = classify(pi)
    if not cls.is_noncrossing:
        return WickElement(model, {})
    factor = Fraction(1)
    for b in cls.inner_blocks:
        factor *= t * model.moments.r_at(len(b))
    procs = [delta_process(model, len(b)) for b in cls.outer_blocks]
    return psi_closed(procs, t).scale(const(factor))

