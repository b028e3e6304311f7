"""Deterministic generators for the extremal and counterexample subsets.

Each constructor re-checks its claimed properties through the sumset engine
before returning and raises ConstructionError if a claim fails, so a returned
(group, subset) pair is always a verified instance.
"""

from __future__ import annotations

from .groups import AbelianGroup, GroupSubset, is_generating, mask_of, torsion_two
from .subsets import pair_cover, sigma


class ConstructionError(RuntimeError):
    """A constructed instance failed its own property check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


def tight_example(k: int) -> tuple[AbelianGroup, GroupSubset]:
    """A k-element generating subset of Z_3k with exactly 2k subset sums.

    S = {1} plus the nonzero multiples of 3, which keeps every subset sum
    in the two residue classes 0 and 1 mod 3 reachable below the bound.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    G = AbelianGroup.cyclic(3 * k)
    S = GroupSubset.from_indices(G, [1] + [3 * i for i in range(1, k)])
    _require(S.cardinality == k, "subset size is not k")
    _require(0 not in S, "0 sneaked into the subset")
    _require(is_generating(G, S), "subset does not generate")
    _require(sigma(S).cardinality == 2 * k, "subset-sum count is not 2k")
    return G, S


def even_counterexample(m: int) -> tuple[AbelianGroup, GroupSubset]:
    """A = {1, ..., m/2} in Z_m for even m: half the group, yet its pair
    cover misses 0 (two distinct elements of A never sum to m)."""
    if m < 4 or m % 2 != 0:
        raise ValueError(f"need even m >= 4, got {m}")
    G = AbelianGroup.cyclic(m)
    A = GroupSubset.from_indices(G, range(1, m // 2 + 1))
    _require(2 * A.cardinality >= m, "subset is smaller than half the group")
    _require(0 not in pair_cover(A), "pair cover unexpectedly contains 0")
    return G, A


def two_mod_four_counterexample(m: int) -> tuple[AbelianGroup, GroupSubset]:
    """For m = 2 mod 4: a half-size subset whose pair cover misses both
    0 and m/2 - 1."""
    if m < 6 or m % 4 != 2:
        raise ValueError(f"need m = 2 mod 4 with m >= 6, got {m}")
    G = AbelianGroup.cyclic(m)
    low = range(1, (m - 2) // 4 + 1)
    high = range(m // 2, (3 * m - 2) // 4 + 1)
    A = GroupSubset.from_indices(G, list(low) + list(high))
    _require(A.cardinality == m // 2, "subset size is not m/2")
    cover = pair_cover(A)
    _require(0 not in cover, "pair cover unexpectedly contains 0")
    _require(m // 2 - 1 not in cover, "pair cover unexpectedly contains m/2 - 1")
    return G, A


def near_tight_construction(G: AbelianGroup) -> GroupSubset:
    """The largest subset of G \\ {0} whose pair cover still misses something.

    Take every involution plus one representative of each pair {x, -x} of
    non-involutions, which realises 2|A| = |G| + |G_2| - 2.  Any partition
    of the non-involutions into K and -K works; the one taken here is the
    set {x != 0 : x <= -x by index}, the involutions being the x = -x, so
    each pair is represented by its member with the smaller index and
    certificates are reproducible.
    """
    if G.order < 2:
        raise ValueError("group must have at least 2 elements")
    A = GroupSubset(G, mask_of([x for x, y in enumerate(G.neg_table) if 0 < x <= y], G.order))
    _require(
        2 * A.cardinality == G.order + torsion_two(G).cardinality - 2,
        "size does not meet the threshold minus one",
    )
    _require(pair_cover(A).bits != G.full_mask, "pair cover unexpectedly covers G")
    return A
