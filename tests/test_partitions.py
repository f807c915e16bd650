from collections import Counter
from itertools import combinations, product
from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from qfock.errors import ResourceBudgetError, UsageError
from qfock.partitions import (SetPartition, enumerate_partitions, index_tuples,
                              kernel_coefficients, rc)
from sn_oracle import inversions
from stpi_forms import classify, kernel_of, rc_plain

P = SetPartition.of


# ---------------------------------------------------------------------------
# independent oracles for rc and for pair partitions; S, the open blocks of
# (S, pi), is a set of block indices


def _open_count_in_gap(pi: SetPartition, S, lo: int, hi: int) -> int:
    """Number of blocks meeting {lo..hi} that are open there: in S, or
    reaching left of lo."""
    if lo > hi:
        return 0
    count = 0
    for i, b in enumerate(pi.blocks):
        if any(lo <= e <= hi for e in b):
            if i in S or any(e < lo for e in b):
                count += 1
    return count


def rc_at(pi: SetPartition, S, k: int) -> int:
    """Right restricted crossings of (S, pi) at the point k."""
    b = next(b for b in pi.blocks if k in b)
    if k == b[-1]:
        return 0
    j = min(e for e in b if e > k)
    return _open_count_in_gap(pi, S, k + 1, j - 1)


def rc_per_point(pi: SetPartition, S) -> int:
    """rc as the sum of rc_at over every point of the ground set."""
    return sum(rc_at(pi, S, k) for k in range(1, pi.n + 1))


def rc_alternative(pi: SetPartition, S) -> int:
    """rc(S, pi) via rc(pi) plus, for each open block B, the number of blocks
    whose span strictly covers min(B)."""
    total = rc_plain(pi)
    for i in S:
        mb = pi.blocks[i][0]
        total += sum(1 for c in pi.blocks if c[0] < mb < c[-1])
    return total


def is_pair_partition_kk(pi: SetPartition, k: int) -> bool:
    if pi.n != 2 * k:
        return False
    return all(len(b) == 2 and b[0] <= k < b[1] for b in pi.blocks)


def induced_permutation(pi: SetPartition, k: int) -> tuple[int, ...]:
    """The permutation induced by a pair partition in Part2(k, k):
    sigma(i) = j - k where (k+1-i) is paired with j."""
    assert is_pair_partition_kk(pi, k)
    partner = dict(pi.blocks)
    return tuple(partner[k + 1 - i] - k for i in range(1, k + 1))


def crossing_pairs(pi: SetPartition) -> int:
    """Number of pairs of blocks {a<b}, {c<d} with a < c < b < d in a pair
    partition."""
    assert all(len(b) == 2 for b in pi.blocks)
    return sum(1 for a, b in pi.blocks for c, d in pi.blocks if a < c < b < d)


def extended_partitions(n: int):
    """Every (pi, S): a partition of {1..n} and a set of its blocks."""
    for pi in enumerate_partitions(n):
        for size in range(pi.size + 1):
            for s in combinations(range(pi.size), size):
                yield pi, frozenset(s)


def bell_number(n: int) -> int:
    """The number of partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def restrict(pi: SetPartition, S, k: int, m: int) -> tuple[SetPartition, frozenset]:
    """Restriction to {k..m}: the trace of each block, open if it was open or
    reaches left of k, relabelled by e -> e - k + 1 onto {1..m-k+1}; rc
    reads only the order of the points."""
    blocks, opens = [], []
    for i, b in enumerate(pi.blocks):
        trace = tuple(e - k + 1 for e in b if k <= e <= m)
        if trace:
            if i in S or b[0] < k:
                opens.append(trace)
            blocks.append(trace)
    sub = P(blocks)
    return sub, frozenset(sub.blocks.index(b) for b in opens)


class TestSetPartition:
    def test_canonical_order(self):
        pi = P([[4, 2], [3, 1]])
        assert pi.blocks == ((1, 3), (2, 4)) and pi.n == 4

    def test_not_disjoint(self):
        with pytest.raises(UsageError, match="blocks are not disjoint"):
            P([[1, 2], [2, 3]])

    def test_not_covering(self):
        with pytest.raises(UsageError, match=r"blocks do not cover \{1\.\.3\}"):
            P([[1, 3]])

    @pytest.mark.parametrize("blocks", [[[1, 2], []], [[], [1]], [[]]])
    def test_empty_block(self, blocks):
        # refused as a usage error, before the blocks are sorted by their
        # least elements
        with pytest.raises(UsageError, match="blocks must be nonempty"):
            P(blocks)

    def test_no_block(self):
        with pytest.raises(UsageError, match="at least one block"):
            P([])


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_are_bell(self, n):
        # the partitions are built without validation: each must be the
        # canonical, validated form of its own blocks
        pis = list(enumerate_partitions(n))
        assert len(pis) == len(set(pis)) == bell_number(n)
        assert all(pi == P(pi.blocks) for pi in pis)

    def test_distinct(self):
        seen = set(str(pi) for pi in enumerate_partitions(6))
        assert len(seen) == bell_number(6)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            next(enumerate_partitions(13))

    def test_bell_values(self):
        assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


class TestRestrictedCrossings:
    def test_crossing_pair(self):
        # the unique crossing pair partition of 4
        assert rc_plain(P([[1, 3], [2, 4]])) == 1
        assert rc_plain(P([[1, 4], [2, 3]])) == 0

    def test_rc_at_uses_restriction_rule(self):
        # for the closed {1,3}{2,4}: the crossing is charged at the point
        # whose successor gap contains the open-on-the-left block
        pi = P([[1, 3], [2, 4]])
        assert rc_at(pi, (), 2) == 1
        assert rc(pi, ()) == 1

    def test_open_blocks_add_crossings(self):
        pi = P([[1, 3], [2]])
        assert rc(pi, ()) == 0
        assert rc(pi, [1]) == 1  # {2} held open crosses the gap of {1,3}

    @pytest.mark.parametrize("opens", [[2], [-1], [0, 5]])
    def test_open_block_index_out_of_range(self, opens):
        with pytest.raises(UsageError, match="open-block indices out of range"):
            rc(P([[1, 3], [2]]), opens)

    def test_rc_alternative_agrees(self):
        for n in range(1, 6):
            for pi, S in extended_partitions(n):
                assert rc(pi, S) == rc_alternative(pi, S), f"{pi} S={sorted(S)}"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rc_matches_per_point_oracle(self, n):
        for pi, S in extended_partitions(n):
            assert rc(pi, S) == rc_per_point(pi, S) == rc_alternative(pi, S), \
                f"{pi} S={sorted(S)}"

    def test_rc_of_restrictions(self):
        for pi, S in extended_partitions(5):
            for k in range(1, 6):
                for m in range(k, 6):
                    r = restrict(pi, S, k, m)
                    assert rc(*r) == rc_per_point(*r) == rc_alternative(*r), \
                        f"{pi} S={sorted(S)} on [{k},{m}]"

    def test_pair_partition_rc_equals_crossings(self):
        for pi in enumerate_partitions(6):
            if all(len(b) == 2 for b in pi.blocks):
                assert rc_plain(pi) == crossing_pairs(pi)

    def test_induced_permutation_inversions(self):
        # rc of a (k,k) pair partition equals inversions of its permutation
        for pi in enumerate_partitions(6):
            if is_pair_partition_kk(pi, 3):
                sigma = induced_permutation(pi, 3)
                assert rc_plain(pi) == inversions(sigma)

    def test_restrict_keeps_left_reaching_open(self):
        pi, S = restrict(P([[1, 4], [2], [3, 5]]), (), 3, 5)
        # {1,4} reaches left of 3, so its trace {4}, relabelled {2}, is open
        assert {pi.blocks[i] for i in S} == {(2,)}
        assert pi.blocks == ((1, 3), (2,))


class TestClassification:
    def test_noncrossing_split(self):
        cls = classify(P([[1, 4], [2, 3]]))
        assert cls.inner_blocks == ((2, 3),)
        assert cls.outer_blocks == ((1, 4),)

    def test_crossing_has_no_split(self):
        cls = classify(P([[1, 3], [2, 4]]))
        assert not cls.is_noncrossing
        assert cls.inner_blocks is None and cls.outer_blocks is None

    def test_classify_pairs_singletons(self):
        cls = classify(P([[1, 3], [2], [4]]))
        assert cls.pairs == ((1, 3),)
        assert cls.singletons == ((2,), (4,))


class TestIndexTuples:
    def test_count_is_falling_factorial(self):
        pi = P([[1, 3], [2]])
        tuples = list(index_tuples(4, pi))
        assert len(tuples) == perm(4, 2) == 12

    def test_constant_exactly_on_blocks(self):
        pi = P([[1, 3], [2]])
        for t in index_tuples(3, pi):
            assert t[0] == t[2] != t[1]

    def test_order_is_lexicographic(self):
        # every tuple of kernel exactly pi, in the order of {1..N}^n
        for n in range(1, 6):
            for N in range(1, 6):
                by_kernel: dict = {}
                for u in product(range(1, N + 1), repeat=n):
                    by_kernel.setdefault(kernel_of(u), []).append(u)
                for pi in enumerate_partitions(n):
                    assert list(index_tuples(N, pi)) == by_kernel.get(pi, []), (str(pi), N)

    @given(st.integers(2, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_tuples_distinct(self, nvals, n):
        for pi in enumerate_partitions(n):
            seen = set(index_tuples(nvals, pi))
            expected = perm(nvals, pi.size)
            assert len(seen) == expected


class TestKernelCoefficients:
    def test_refinement_experiments(self):
        # split_q_half is X(t)^2 - Σ_u X_u^2, mixed_ones Σ_u X_u^2 X(t) - Σ_u X_u^3
        assert kernel_coefficients(P([[1], [2]])) == {(0, 0): 1, (1, 1): -1}
        assert kernel_coefficients(P([[1, 2], [3]])) == {(1, 1, 0): 1, (1, 1, 1): -1}
        # blocks numbered by least element: {1,3} before {2,4}
        assert kernel_coefficients(P([[1, 3], [2], [4]]))[(1, 2, 1, 2)] == -1

    def test_no_singleton_keeps_pi_alone(self):
        # with no singleton, c_kappa is the Möbius function summed over the
        # interval [pi, kappa]: 1 at pi, 0 elsewhere
        for n in range(2, 7):
            for pi in enumerate_partitions(n):
                if min(pi.block_sizes()) > 1:
                    owner = tuple(next(i for i, b in enumerate(pi.blocks, start=1) if e in b)
                                  for e in range(1, n + 1))
                    assert kernel_coefficients(pi) == {owner: 1}, str(pi)

    def test_signed_tuples_are_the_exact_kernel(self):
        # Σ_kappa c_kappa Φ_kappa as a signed multiset of tuples over N
        # atoms, an X(t) standing for every atom: Φ_kappa holds the tuples
        # constant on each block of kappa of two or more points (the points
        # of one nonzero owner), distinct across those blocks, and free
        # elsewhere.  It must hold each tuple of kernel exactly pi once, and
        # nothing else.
        for n in range(1, 6):
            for pi in enumerate_partitions(n):
                table = kernel_coefficients(pi)
                for n_atoms in range(1, 5):
                    signed = Counter()
                    for u in product(range(n_atoms), repeat=n):
                        for owner, c in table.items():
                            values = [{x for x, o in zip(u, owner) if o == j}
                                      for j in range(1, max(owner) + 1)]
                            if (all(len(v) == 1 for v in values)
                                    and len(set().union(*values)) == len(values)):
                                signed[u] += c
                    want = Counter(u for u in product(range(n_atoms), repeat=n)
                                   if kernel_of(u) == pi)
                    assert +signed == want and not -signed, (str(pi), n_atoms)
