"""Set partitions and restricted-crossing statistics.

A partition of {1..n} is its blocks, each kept sorted and ordered by its
least element; every statistic below operates on that canonical form.  A
set of open blocks, given by their indices, extends a partition for `rc`:
open blocks survive as tensor factors in product expansions while closed
blocks contract to scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial, prod
from typing import Collection, Iterable, Iterator

from .errors import UsageError, check_size

MAX_ENUM_N = 12


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n} into nonempty blocks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(blocks: Iterable[Iterable[int]]) -> "SetPartition":
        bs = [tuple(sorted(b)) for b in blocks]
        if not bs:
            raise UsageError("a partition needs at least one block")
        if not all(bs):
            raise UsageError("a partition's blocks must be nonempty")
        bs.sort()
        elems = [e for b in bs for e in b]
        if len(set(elems)) != len(elems):
            raise UsageError("blocks are not disjoint")
        n = max(elems)
        if sorted(elems) != list(range(1, n + 1)):
            raise UsageError(f"blocks do not cover {{1..{n}}}: {tuple(bs)}")
        return SetPartition(n, tuple(bs))

    @property
    def size(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of {1..n} in restricted-growth-string order, streamed."""
    check_size("enumerate_partitions n =", n, MAX_ENUM_N, least=1)

    # rgs[i] is the block of element i + 1 and top[i] = max(rgs[:i + 1]); a
    # block's elements come in increasing order and blocks in order of their
    # least elements, so every partition is built canonical
    rgs = [0] * n
    top = [0] * n
    while True:
        blocks: list[list[int]] = [[] for _ in range(top[-1] + 1)]
        for e, b in enumerate(rgs, start=1):
            blocks[b].append(e)
        yield SetPartition(n, tuple(map(tuple, blocks)))
        # next restricted growth string
        for i in range(n - 1, 0, -1):
            if rgs[i] <= top[i - 1]:
                rgs[i] += 1
                rgs[i + 1:] = [0] * (n - i - 1)
                top[i:] = [max(top[i - 1], rgs[i])] * (n - i)
                break
        else:
            return


def rc(pi: SetPartition, open_blocks: Collection[int]) -> int:
    """Total number of right restricted crossings of pi with the blocks of
    index in open_blocks held open on the left, rc(S, pi).

    Each pair k < j of consecutive elements of a block is crossed by every
    other block with an element between them that is open there: held open
    in S, or starting left of k.
    """
    blocks = pi.blocks
    if not all(0 <= i < len(blocks) for i in open_blocks):
        raise UsageError(f"open-block indices out of range: {sorted(open_blocks)}")
    total = 0
    for b in blocks:
        for k, j in zip(b, b[1:]):
            for i, c in enumerate(blocks):
                if c[0] >= j:
                    break  # blocks are ordered by least element
                if (c[0] < k or i in open_blocks) and c is not b:
                    for e in c:
                        if e > k:
                            total += e < j  # c's first element past k
                            break
    return total


def index_tuples(N: int, pi: SetPartition) -> Iterator[tuple[int, ...]]:
    """All tuples in {1..N}^n constant exactly on the blocks of pi (distinct
    values across blocks), streamed."""
    if N < 1:
        raise UsageError("need N >= 1")
    owner = [0] * pi.n
    for b, block in enumerate(pi.blocks):
        for e in block:
            owner[e - 1] = b
    # a value per block, distinct, in lexicographic order
    for values in permutations(range(1, N + 1), pi.size):
        yield tuple(values[b] for b in owner)


def kernel_coefficients(pi: SetPartition) -> dict[tuple[int, ...], int]:
    """The nonzero c_κ of Σ_{ker u = pi} = Σ_κ c_κ Φ_κ over index tuples u,
    keyed by the owner of each point: its block among κ's blocks of two or
    more points, numbered from 1 by least element, or 0 at a singleton.  Φ_κ
    sums over the tuples constant on each such block, distinct across them,
    and free at the singletons.  By Möbius inversion of ψ_σ = Σ_{π ≥ σ} St_π
    (Rota–Wallstrom), c_κ sums μ(pi, σ) = Π_B (−1)^{k−1}(k−1)!, k the blocks
    of pi in B, over the σ ≥ pi whose blocks of two or more points merge
    into κ's."""
    out: dict = {}
    for sigma in enumerate_partitions(pi.size):
        mu = prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in sigma.blocks)
        big = [b for b in ([e for i in b for e in pi.blocks[i - 1]] for b in sigma.blocks)
               if len(b) > 1]
        for tau in ([t.blocks for t in enumerate_partitions(len(big))] if big else [()]):
            where = {e: j for j, b in enumerate(tau, start=1) for i in b for e in big[i - 1]}
            owner = tuple(where.get(e, 0) for e in range(1, pi.n + 1))
            out[owner] = out.get(owner, 0) + mu
    return {k: c for k, c in out.items() if c}
