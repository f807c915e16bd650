"""Specialisations of St_pi and the chaos components, kept as test oracles.

The Gaussian (singleton-pair) and free (noncrossing, q = 0) forms of the
partition-dependent stochastic measures, and the vector of one chaos
component.  `qfock` itself never builds these; the tests compare them with
`st_pi_closed` and `chaos_decompose`.
"""

from fractions import Fraction

from qfock.fock import FockOperator, FockVector
from qfock.model import ProcessModel
from qfock.partitions import ExtendedPartition, SetPartition, classify, rc
from qfock.stochastic import (StepFunction, delta_process, psi_closed,
                              yhat_process)
from qfock.wick import wick_operator, word_vector


def st_pi_gaussian_form(pi: SetPartition, t, model: ProcessModel) -> FockOperator:
    """The singleton-pair specialization q^{rc(Sing,pi)} t^{|Pairs|}
    psi_{|Sing|}(t); the zero operator when pi has a block of size > 2."""
    ring = model.ring
    t = Fraction(t)
    cls = classify(pi)
    if len(cls.singletons) + len(cls.pairs) != pi.size:
        return FockOperator.scalar(ring.zero())
    sing = frozenset(i for i, b in enumerate(pi.blocks) if len(b) == 1)
    ep = ExtendedPartition(pi, sing)
    word = (model.prefix_letter(t, 1),) * len(cls.singletons)
    return wick_operator(model, word).scale(
        ring.q_pow(rc(ep)) * ring.of(t ** len(cls.pairs)))


def st_pi_free_form(pi: SetPartition, t, model: ProcessModel) -> FockOperator:
    """The noncrossing specialization R_{Inner}(t) psi(Delta_{|B|}: B in
    Outer); the zero operator for crossing pi.  Meaningful at q = 0."""
    ring = model.ring
    t = Fraction(t)
    cls = classify(pi)
    if not cls.is_noncrossing:
        return FockOperator.scalar(ring.zero())
    factor = Fraction(1)
    for b in cls.inner_blocks:
        factor *= t * model.moments.r_at(len(b))
    procs = [delta_process(model, len(b)) for b in cls.outer_blocks]
    return psi_closed(procs, t).scale(ring.of(factor))


def chaos_component_vector(model: ProcessModel, u: tuple[int, ...],
                           f: StepFunction) -> FockVector:
    """Σ_{a⃗} F_u(a⃗) ⊗_i (Yhat_{u(i)} letter on atom a_i)."""
    procs = {k: yhat_process(model, k) for k in set(u)}
    out = FockVector(model.space, model.fock_depth)
    for atoms, c in f.values.items():
        word = tuple(procs[k].letter(a) for a, k in zip(atoms, u))
        out = out + word_vector(model, word, model.fock_depth).scale(c)
    return out
