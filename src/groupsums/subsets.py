"""Exact sumset computations over bit-vector subsets.

`h_hat(A, h)` is the set of sums of the h-element subsets of A (distinct
elements, no repetition) and `sigma(A)` the union over h = 1..|A|, i.e. the
set of all nonempty subset sums.  Both run a layered bit-vector dynamic
program whose inner step is a single translate-and-or per element, so the
cost is O(|A| * h) word operations on |G|-bit integers.

Convention: h = 0 yields {0}, the empty sum, even for A itself empty; this
makes the DP base case a first-class output and keeps the complement
identity h_hat(A, |A| - h) = full_sum(A) - h_hat(A, h) valid at both ends.
For h > |A| there are no h-subsets and the result is empty.  Sets containing
0 are accepted everywhere here; callers that need 0 excluded enforce that
themselves.

`naive_subset_sums` recomputes the same sets by explicit enumeration of the
subsets and is kept deliberately independent of the DP: it is the oracle the
tests cross-validate against.
"""

from __future__ import annotations

from itertools import combinations

from .groups import GroupSubset

ORACLE_CAP = 20


def h_hat(A: GroupSubset, h: int) -> GroupSubset:
    """Sums of the h-element subsets of A."""
    if h < 0:
        raise ValueError(f"subset size {h} is negative")
    G = A.group
    if h == 0:
        return GroupSubset(G, 1)
    if h > A.cardinality:
        return GroupSubset(G, 0)
    tr = G.translator()
    # dp[j] = sums of the j-subsets of the elements processed so far
    dp = [1] + [0] * h
    seen = 0
    for a in A.indices():
        seen += 1
        for j in range(min(seen, h), 0, -1):
            dp[j] |= tr(dp[j - 1], a)
    return GroupSubset(G, dp[h])


def sigma(A: GroupSubset) -> GroupSubset:
    """All nonempty subset sums of A."""
    G = A.group
    tr = G.translator()
    acc = 0
    for a in A.indices():
        acc |= tr(acc, a) | (1 << a)
    return GroupSubset(G, acc)


def pair_cover(A: GroupSubset) -> GroupSubset:
    """A together with the sums of its two-element subsets."""
    return A | h_hat(A, 2)


def naive_subset_sums(A: GroupSubset, h: int | None = None, cap: int = ORACLE_CAP) -> GroupSubset:
    """Reference computation by explicit subset enumeration.

    With h given, sums the h-subsets; with h omitted, all nonempty subsets.
    Exponential in |A| and refuses to run past `cap` elements.
    """
    if A.cardinality > cap:
        raise ValueError(f"oracle cap {cap} exceeded by a set of {A.cardinality} elements")
    G = A.group
    elems = A.indices()
    if h is not None:
        if h < 0:
            raise ValueError(f"subset size {h} is negative")
        sizes = [h] if h <= len(elems) else []
    else:
        sizes = list(range(1, len(elems) + 1))
    rows = {e: [G.add_index(x, e) for x in range(G.order)] for e in elems}
    bits = 0
    for size in sizes:
        for combo in combinations(elems, size):
            total = 0
            for e in combo:
                total = rows[e][total]
            bits |= 1 << total
    return GroupSubset(G, bits)
