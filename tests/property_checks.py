"""Property-check routines, each called by one unit test.

Quantification follows the stated ranges: exhaustive over every group of
order <= 12 (every subset, every h), seeded-random sampling over groups of
order <= 32, and full scans of order <= 64 for the halving/torsion facts.
"""

from __future__ import annotations

import random
import sys
import types
from functools import cache
from itertools import combinations, product
from math import comb, gcd
from unittest import mock

from groupsums import (
    AbelianGroup,
    GroupSubset,
    enumerate_groups_of_order,
    h_hat,
    is_generating,
    naive_subset_sums,
    pair_cover,
    search_lemma2_counterexamples,
    sigma,
    torsion_two,
    verify_pair_cover_threshold,
    verify_subset_sum_bound,
    verify_three_fold_cover,
    critical_number,
)
from groupsums import verify
from groupsums.verify import (
    ScanStats,
    _Lanes,
    _lane_tables,
    _scan_bound_sweep,
    _scan_pair_cover,
    _scan_sigma_lattice,
    _scan_three_fold,
)


def all_groups_up_to(max_n: int) -> list[AbelianGroup]:
    out: list[AbelianGroup] = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_groups_of_order(n))
    return out


def random_subset(rng: random.Random, G: AbelianGroup, max_card: int) -> GroupSubset:
    card = rng.randint(0, min(max_card, G.order))
    return GroupSubset.from_indices(G, rng.sample(range(G.order), card))


def check_oracle_equivalence_exhaustive(max_n: int = 12) -> int:
    """DP vs naive enumeration for every subset of every group, every h."""
    checked = 0
    for G in all_groups_up_to(max_n):
        for mask in range(1 << G.order):
            A = GroupSubset(G, mask)
            assert sigma(A) == naive_subset_sums(A), (G.spec, A.indices())
            for h in range(A.cardinality + 2):
                assert h_hat(A, h) == naive_subset_sums(A, h), (G.spec, A.indices(), h)
            checked += 1
    return checked


def check_oracle_equivalence_random(max_n: int = 32, trials: int = 80, seed: int = 0xD1CE) -> None:
    rng = random.Random(seed)
    groups = [G for G in all_groups_up_to(max_n) if G.order >= 2]
    for _ in range(trials):
        G = rng.choice(groups)
        A = random_subset(rng, G, max_card=10)
        assert sigma(A) == naive_subset_sums(A), (G.spec, A.indices())
        h = rng.randint(0, A.cardinality + 1)
        assert h_hat(A, h) == naive_subset_sums(A, h), (G.spec, A.indices(), h)


def check_monotonicity(trials: int = 100, max_n: int = 32, seed: int = 0xBEEF) -> None:
    """A inside B forces h_hat, sigma and pair_cover containment."""
    rng = random.Random(seed)
    groups = [G for G in all_groups_up_to(max_n) if G.order >= 2]
    for _ in range(trials):
        G = rng.choice(groups)
        B = random_subset(rng, G, max_card=G.order)
        sub = [i for i in B.indices() if rng.random() < 0.6]
        A = GroupSubset.from_indices(G, sub)
        assert sigma(A).bits & ~sigma(B).bits == 0
        assert pair_cover(A).bits & ~pair_cover(B).bits == 0
        h = rng.randint(0, max(A.cardinality, 1))
        assert h_hat(A, h).bits & ~h_hat(B, h).bits == 0


def _full_sum_index(G: AbelianGroup, A: GroupSubset) -> int:
    total = 0
    for e in A.indices():
        total = G.add_index(total, e)
    return total


def check_complement_identity(max_n: int = 32, seed: int = 0xFACE) -> None:
    """h_hat(A, |A| - h) is the reflection of h_hat(A, h) through the full sum."""
    rng = random.Random(seed)

    def check_one(G: AbelianGroup, A: GroupSubset) -> None:
        s_total = _full_sum_index(G, A)
        for h in range(A.cardinality + 1):
            left = h_hat(A, A.cardinality - h)
            right = h_hat(A, h).map_indices(G.neg_table).translate(s_total)
            assert left == right, (G.spec, A.indices(), h)

    for G in all_groups_up_to(8):
        for mask in range(1 << G.order):
            check_one(G, GroupSubset(G, mask))
    groups = [G for G in all_groups_up_to(max_n) if G.order >= 2]
    for _ in range(60):
        G = rng.choice(groups)
        check_one(G, random_subset(rng, G, max_card=9))


def check_negation_equivariance(max_n: int = 32, trials: int = 60, seed: int = 0xACE) -> None:
    rng = random.Random(seed)
    groups = [G for G in all_groups_up_to(max_n) if G.order >= 2]
    for _ in range(trials):
        G = rng.choice(groups)
        A = random_subset(rng, G, max_card=10)
        h = rng.randint(0, A.cardinality + 1)
        neg = G.neg_table
        assert h_hat(A.map_indices(neg), h) == h_hat(A, h).map_indices(neg)
        assert sigma(A.map_indices(neg)) == sigma(A).map_indices(neg)


def triangular_maps(G: AbelianGroup) -> list[tuple[int, ...]]:
    """T(G) from its definition, as index tables: every map
    e_i -> u_i e_i + sum_{j<i} a_ij e_j of the generators of the invariant
    factors d_i, u_i a unit mod d_i and a_ij in Z_{d_j}, identity first.
    On a cyclic group these are the unit scalings x -> ux in the order of u."""
    k = len(G.factors)
    images = [[lower + (u,) + (0,) * (k - i - 1)
               for lower in product(*map(range, G.factors[:i]))
               for u in range(1, d) if gcd(u, d) == 1]
              for i, d in enumerate(G.factors)]
    # the coordinates of each element in index order, the first factor fastest
    elements = [t[::-1] for t in product(*map(range, reversed(G.factors)))]
    return [tuple(G.tuple_to_index(sum(x[i] * g[i][c] for i in range(k)) % d
                                   for c, d in enumerate(G.factors))
                  for x in elements)
            for g in product(*images)]


def lane_group(G: AbelianGroup) -> list[list[int]]:
    """The automorphisms of the orbit lanes of G as index tables, identity
    first: Aut(G), else T(G), else none, by the width of their lane ints
    (`test_verify.py` checks which)."""
    return [list(range(G.order))] + _lane_tables(G)


def check_automorphism_equivariance(max_n: int = 32, seed: int = 0xF00D) -> None:
    """Every map of the lane group of every abelian group is an automorphism
    that commutes with sigma, h_hat and pair_cover and keeps generation,
    which is what lets the counting walks visit one set per orbit.  Each
    group is checked on a random set and on its part inside 2G, which
    generates no group of even order."""
    rng = random.Random(seed)
    for G in all_groups_up_to(max_n):
        A = random_subset(rng, G, max_card=9)
        doubles = sum(1 << x for x in set(G.double_table))
        h = rng.randint(0, A.cardinality + 1)
        for perm in lane_group(G):
            assert sorted(perm) == list(range(G.order)), G.spec
            for S in (A, GroupSubset(G, A.bits & doubles)):
                image = S.map_indices(perm)
                assert sigma(image) == sigma(S).map_indices(perm), (G.spec, perm)
                assert h_hat(image, h) == h_hat(S, h).map_indices(perm), (G.spec, perm)
                assert pair_cover(image) == pair_cover(S).map_indices(perm), (G.spec, perm)
                assert is_generating(G, image) == is_generating(G, S), (G.spec, perm)


def check_cardinality_bounds(max_n: int = 24, trials: int = 80, seed: int = 7) -> None:
    rng = random.Random(seed)
    groups = [G for G in all_groups_up_to(max_n) if G.order >= 2]
    for _ in range(trials):
        G = rng.choice(groups)
        A = random_subset(rng, G, max_card=12)
        for h in range(-1, A.cardinality + 2):
            if h < 0:
                continue
            hs = h_hat(A, h)
            assert hs.cardinality <= comb(A.cardinality, h)
            assert (hs.cardinality > 0) == (0 <= h <= A.cardinality)


def check_halving_counts(max_n: int = 64) -> int:
    """|{x : 2x = g}| is 0 or the 2-torsion size; doubling hits |G| points;
    |G| + |G_2| is even; the 2-torsion is a subgroup of the expected size."""
    groups = all_groups_up_to(max_n)
    for G in groups:
        t2 = torsion_two(G)
        g2 = t2.cardinality
        assert g2 == 1 << sum(1 for d in G.factors if d % 2 == 0)
        assert (G.order + g2) % 2 == 0
        total = 0
        for g in range(G.order):
            c = G.double_table.count(g)
            assert c in (0, g2), (G.spec, g, c)
            total += c
        assert total == G.order
        # subgroup closure of the 2-torsion
        for x in t2.indices():
            assert G.neg_table[x] in t2
            for y in t2.indices():
                assert G.add_index(x, y) in t2
    return len(groups)


def check_intersection_bound(max_n: int = 12) -> None:
    """Above the pair-cover threshold, A0 = A + {0} meets g - A0 in at least
    |G_2| + 2 points for every g outside A."""
    for G in all_groups_up_to(max_n):
        n = G.order
        if n < 2:
            continue
        g2 = torsion_two(G).cardinality
        threshold = (n + g2) // 2
        if threshold > n - 1:
            continue
        from itertools import combinations

        for size in range(threshold, n):
            for combo in combinations(range(1, n), size):
                A0 = GroupSubset.from_indices(G, combo + (0,))
                neg_a0 = A0.map_indices(G.neg_table)
                for g in range(n):
                    if g in combo:
                        continue
                    overlap = A0 & neg_a0.translate(g)
                    assert overlap.cardinality >= g2 + 2, (G.spec, combo, g)


def _expected_cover_stats(deficits: dict[int, int], cap: int) -> dict:
    """Scan statistics derived from every violating mask and its deficiency."""
    hist: dict[int, int] = {}
    first_of: dict[int, int] = {}
    for mask in sorted(deficits):
        d = deficits[mask]
        hist[d] = hist.get(d, 0) + 1
        first_of.setdefault(d, mask)
    return {
        "violations": len(deficits),
        "hist": hist,
        "reps": first_of,
        "witnesses": sorted(deficits)[:cap],
    }


def check_cover_scans_brute_force(max_n: int = 12, cap: int = 3) -> int:
    """Both cover scans, look-ahead pruning included, against brute force
    over every k-subset of their pools, for every group of order <= max_n
    and every k from 1 to the pool size: `_scan_pair_cover` on G \\ {0} and
    `_scan_three_fold` on G.  Returns the number of subsets checked."""
    checked = 0
    for G in all_groups_up_to(max_n):
        for k in range(1, G.order):
            checked += _check_cover_case(G, _scan_pair_cover, k, cap)[0]
        for k in range(1, G.order + 1):
            checked += _check_cover_case(G, _scan_three_fold, k, cap)[0]
    return checked


def check_dead_targets_stay_dead(max_order: int = 14) -> int:
    """The rule behind the `live` mask of `_scan_pair_cover`: an uncovered x
    that a node's look-ahead rules out is ruled out again in every child
    that leaves it uncovered.  A plain pair-cover walk (no lanes, no `live`
    mask) over every group of order <= max_order and every k from 2 to
    |G| - 2 counts, at each node with j picks left among the elements
    1..bound, the classes {c, x - c} that meet the candidates avoiding x and
    x - A, and rules x out when there are fewer than j.  Each x ruled out at
    a node is checked in each child that looks ahead (j - 1 >= 1) and
    leaves x uncovered.  Returns the number of (node, x) pairs checked."""
    checked = 0
    for G in all_groups_up_to(max_order):
        n = G.order
        add = [[G.add_index(a, b) for b in range(n)] for a in range(n)]
        sub = [[G.add_index(x, G.neg_table[a]) for a in range(n)] for x in range(n)]

        def dead(A: tuple[int, ...], cover: set[int], j: int, bound: int) -> set[int]:
            out = set()
            for x in set(range(n)) - cover:
                ok = {c for c in range(1, bound + 1) if c != x and sub[x][c] not in A}
                if len({frozenset((c, sub[x][c])) for c in ok}) < j:
                    out.add(x)
            return out

        def walk(A: tuple[int, ...], cover: set[int], j: int, bound: int) -> None:
            nonlocal checked
            if j == 0:
                return
            ruled_out = dead(A, cover, j, bound)
            if ruled_out == set(range(n)) - cover:
                return  # the look-ahead drops the node
            for e in range(j, bound + 1):
                child = A + (e,)
                child_cover = cover | {e} | {add[a][e] for a in A}
                if len(child_cover) == n:
                    continue
                if j > 1:
                    again = dead(child, child_cover, j - 1, e - 1)
                    for x in ruled_out - child_cover:
                        assert x in again, (G.spec, A, e, x)
                        checked += 1
                walk(child, child_cover, j - 1, e - 1)

        for k in range(2, n - 1):
            walk((), set(), k, n - 1)
    return checked


def check_pair_cover_walk_is_exact(max_order: int = 14) -> int:
    """The child rule of `_scan_pair_cover` is exact: with no lanes, so
    that every set is its own orbit, the walk enters the root and then
    exactly the nodes below which some leaf misses part of G, but for
    those below a forced node, one whose only failing completion misses
    one element, which the node files itself.  A node is a top-i prefix
    of its leaves (their i largest elements, as the walk adds elements in
    descending order), so over every group of order 3 to max_order and
    every k from 2 to |G| - 2 the calls to the walk's `rec` must be 1 plus
    the number of distinct top-i prefixes, i = 1..k, of the k-subsets of
    G \\ {0} whose pair cover is not all of G, for which no shorter
    prefix, the empty root included, has exactly one such completion, of
    deficiency 1.  Returns the number of (group, k) cases checked."""
    rec = next(code for code in _scan_pair_cover.__code__.co_consts
               if isinstance(code, types.CodeType) and code.co_name == "rec")
    cases = 0
    for G in all_groups_up_to(max_order):
        n = G.order
        add = [[G.add_index(a, b) for b in range(n)] for a in range(n)]
        for k in range(2, n - 1):
            # each top-i prefix, i = 0..k, and the deficiencies of its failing completions
            below: dict[tuple[int, ...], list[int]] = {}
            for combo in combinations(range(n - 1, 0, -1), k):
                cover = set(combo) | {add[a][b] for a, b in combinations(combo, 2)}
                if len(cover) < n:
                    for i in range(k + 1):
                        below.setdefault(combo[:i], []).append(n - len(cover))
            forced = {prefix for prefix, ds in below.items() if ds == [1]}
            prefixes = [p for p in below if p and not any(p[:i] in forced for i in range(len(p)))]
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event == "call" and frame.f_code is rec:
                    calls += 1

            with mock.patch("groupsums.verify._lane_tables", return_value=[]):
                sys.setprofile(count)
                try:
                    _scan_pair_cover(G, k=k, cap=0)
                finally:
                    sys.setprofile(None)
            assert calls == 1 + len(prefixes), (G.spec, k, calls, len(prefixes))
            cases += 1
    return cases


def check_three_fold_scan_on_thm4_orders(cap: int = 3) -> dict[str, int]:
    """The three-fold cover scan against brute force on thm4's own orders,
    one size below its threshold: Z14 at k = 7 and Z16 at k = 8, where
    violations exist.  Returns the violations per group."""
    return {f"Z{m}": _check_cover_case(AbelianGroup.cyclic(m), _scan_three_fold, m // 2, cap)[1]
            for m in (14, 16)}


def _check_cover_case(G: AbelianGroup, scan, k: int, cap: int) -> tuple[int, int]:
    """One cover scan against brute force over every k-subset of its pool:
    `_scan_pair_cover`, A with its pair sums over G \\ {0}, or
    `_scan_three_fold`, the three-element sums over G.  For the three-fold
    scan also the passes that target x = 0 and x = 1 alone, thm4's class
    passes: they file exactly the sets that miss x.  Returns the number of
    subsets checked and of violations."""
    three = scan is _scan_three_fold
    deficits, covers = {}, {}
    pool = range(0 if three else 1, G.order)
    for combo in combinations(pool, k):
        A = GroupSubset.from_indices(G, combo)
        cover = naive_subset_sums(A, 3) if three else A | naive_subset_sums(A, 2)
        if cover.cardinality < G.order:
            deficits[A.bits] = G.order - cover.cardinality
            covers[A.bits] = cover.bits
    want = _expected_cover_stats(deficits, cap)
    keys = ("violations", "hist", "reps", "witnesses")
    got = scan(G, k=k, cap=cap)
    assert {key: getattr(got, key) for key in keys} == want, (G.spec, scan.__name__, k)
    for x in range(min(2, G.order) if three else 0):
        missed = {mask: d for mask, d in deficits.items() if not covers[mask] >> x & 1}
        got = scan(G, k=k, cap=cap, targets=1 << x)
        assert {key: getattr(got, key) for key in keys} == _expected_cover_stats(missed, cap), (G.spec, k, x)
    return comb(len(pool), k), len(deficits)


def _lattice_table(G: AbelianGroup) -> dict[int, tuple[int, int, bool]]:
    """mask -> (|S|, |sigma(S)|, S generates G) for every nonempty S in
    G \\ {0}, in mask order.  With t the top element of S and R = S - {t},
    sigma(S) = sigma(R) | {t} | (sigma(R) + t) and <S> is the closure of
    <R> | {t} under addition, both computed from `G.add_index` tables."""
    n = G.order
    rows = [[G.add_index(x, t) for x in range(n)] for t in range(n)]

    def shift(bits: int, t: int) -> int:
        return sum(1 << rows[t][x] for x in range(n) if bits >> x & 1)

    closures: dict[tuple[int, int], int] = {}

    def close(H: int, t: int) -> int:
        if (H, t) not in closures:
            reached = H | 1 << t
            frontier = [x for x in range(n) if reached >> x & 1]
            while frontier:
                x = frontier.pop()
                for y in range(n):
                    z = rows[y][x]
                    if reached >> y & 1 and not reached >> z & 1:
                        reached |= 1 << z
                        frontier.append(z)
            closures[H, t] = reached
        return closures[H, t]

    sig, gen, table = {0: 0}, {0: 1}, {}
    for mask in range(2, 1 << n, 2):
        t = mask.bit_length() - 1
        rest = mask ^ (1 << t)
        sig[mask] = sig[rest] | 1 << t | shift(sig[rest], t)
        gen[mask] = close(gen[rest], t)
        table[mask] = (mask.bit_count(), sig[mask].bit_count(), gen[mask] == G.full_mask)
    return table


def check_subset_sum_scans_brute_force(max_n: int = 12, cap: int = 3) -> int:
    """Both subset-sum scans against every subset of G \\ {0}: the thm1
    sweep at every min_size from 1 to |G| - 1 (violations, equality cases
    and their witnesses), and the thm5 lattice walk (failing sets counted
    by size, and the least failing set of the largest size, all that
    `critical_number` reads).  The groups are those of order <= max_n,
    where each subset's sums are also checked against
    `naive_subset_sums`, and Z3xZ6, the smallest group on which pruning
    the thm1 sweep at |sums| >= 2 * (largest size below) instead of >
    loses equality cases.  Returns the number of subsets checked."""
    keys = ("violations", "hist", "reps", "witnesses")
    checked = 0
    for G in all_groups_up_to(max_n) + [AbelianGroup((3, 6))]:
        n = G.order
        table = _lattice_table(G)
        if n <= max_n:
            for mask, (_, got, _) in table.items():
                assert got == naive_subset_sums(GroupSubset(G, mask)).cardinality, (G.spec, mask)
        checked += len(table)
        failing = {mask: size for mask, (size, got, _) in table.items() if got < n}
        got, want = _scan_sigma_lattice(G), _expected_cover_stats(failing, 0)
        top = max(want["hist"], default=None)
        assert (got.violations, got.hist, got.reps.get(top)) == (
            want["violations"], want["hist"], want["reps"].get(top)), G.spec
        # generating sets below the bound, and equality cases, of any size
        deficits, equal = {}, []
        for mask, (size, got, generates) in table.items():
            if generates and got < min(n, 2 * size):
                deficits[mask] = min(n, 2 * size) - got
            elif generates and got == 2 * size < n:
                equal.append(mask)
        for min_size in range(1, n):
            big = {mask: d for mask, d in deficits.items() if table[mask][0] >= min_size}
            eq = {mask: 0 for mask in equal if table[mask][0] >= min_size}
            got, got_eq = _scan_bound_sweep(G, min_size=min_size, cap=cap)
            where = (G.spec, min_size)
            assert {key: getattr(got, key) for key in keys} == _expected_cover_stats(big, cap), where
            assert {key: getattr(got_eq, key) for key in keys} == _expected_cover_stats(eq, cap), where
    return checked


# -- reference walks ------------------------------------------------------------
#
# The walks of the counting scans as they were before the orbit rule: every
# set is entered and filed once, in increasing mask order, under lanes with
# no lane.  They take a scan's arguments, so they can stand in for it.


def plain_cover_scan(G: AbelianGroup, *, k: int, cap: int) -> ScanStats:
    """The walk of `_scan_pair_cover` without the orbit rule: size-k subsets
    of G \\ {0}, with its look-ahead and pair count."""
    tr = G.translator()
    neg = G.neg_table
    full = G.full_mask
    stats, lanes = ScanStats(cap), _Lanes(G.order, [])
    free = [((1 << b) - 1) << 1 for b in range(G.order)]
    nfree = [0]
    for e in range(1, G.order):
        nfree.append(nfree[-1] | (1 << neg[e]))
    halves = [0] * G.order
    for c, x in enumerate(G.double_table):
        halves[x] |= 1 << c

    def rec(j: int, bound: int, dp1: int, dp2: int, n1: int) -> None:
        cover = dp1 | dp2
        if cover == full:
            return
        if j == 0:
            stats.record(G.order - cover.bit_count(), dp1, lanes, 0)
            return
        avail = free[bound]
        navail = nfree[bound]
        uncovered = full ^ cover
        while uncovered:
            low = uncovered & -uncovered
            x = low.bit_length() - 1
            ok = avail & ~(low | tr(n1, x))
            size = ok.bit_count()
            if size >= j:
                both = ok & tr(navail & ~tr(dp1, neg[x]), x) & ~halves[x]
                if size - (both.bit_count() >> 1) >= j:
                    break
            uncovered ^= low
        else:
            return
        for c in range(j - 1, bound):
            e = c + 1
            rec(j - 1, c, dp1 | (1 << e), dp2 | tr(dp1, e), n1 | (1 << neg[e]))

    rec(k, G.order - 1, 0, 0, 0)
    return stats


def plain_bound_sweep(G: AbelianGroup, *, min_size: int, cap: int) -> tuple[ScanStats, ScanStats]:
    """The thm1 walk of `_scan_bound_sweep` without the orbit rule."""
    order = G.order
    tr = G.translator()
    full = G.full_mask
    stats, eq, lanes = ScanStats(cap), ScanStats(cap), _Lanes(order, [])
    generates = cache(lambda acc: is_generating(G, GroupSubset(G, acc)))

    def rec(pmask: int, size: int, limit: int, acc: int) -> None:
        got = acc.bit_count()
        if acc == full or got > 2 * (size + limit) or size + limit < min_size:
            return
        if size >= min_size:
            need = order if 2 * size >= order else 2 * size
            if got < need and generates(acc):
                stats.record(need - got, pmask << 1, lanes, 0)
            elif got == need < order and generates(acc):
                eq.record(0, pmask << 1, lanes, 0)
        for p in range(limit):
            e = p + 1
            rec(pmask | (1 << p), size + 1, p, acc | tr(acc, e) | (1 << e))

    rec(0, 0, order - 1, 0)
    return stats, eq


def plain_sigma_lattice(G: AbelianGroup) -> ScanStats:
    """The thm5 walk of `_scan_sigma_lattice` without the orbit rule,
    filing every failing set."""
    tr = G.translator()
    full = G.full_mask
    stats, lanes = ScanStats(0), _Lanes(G.order, [])

    def rec(pmask: int, size: int, limit: int, acc: int) -> None:
        if acc == full:
            return
        if size:
            stats.record(size, pmask << 1, lanes, 0)
        for p in range(limit):
            e = p + 1
            rec(pmask | (1 << p), size + 1, p, acc | tr(acc, e) | (1 << e))

    rec(0, 0, G.order - 1, 0)
    return stats


def _counting_cores(G: AbelianGroup, cap: int) -> list[dict]:
    """Certificate cores of every statement whose scan counts with the orbit
    rule on G: prop3.2, thm1 at min_size 1 and 5, thm5 and, on a cyclic
    group, lemma2-search."""
    kw = {"witness_cap": cap, "budget": G.order}
    runs = [lambda: verify_pair_cover_threshold(G, **kw)]
    runs += [lambda s=s: verify_subset_sum_bound(G, s, **kw) for s in (1, 5)]
    if G.order >= 3:
        runs.append(lambda: critical_number(G, **kw)[1])
        if G.is_cyclic:
            runs.append(lambda: search_lemma2_counterexamples(G.order, **kw))
    return [run().core() for run in runs]


def orbit_check_groups(max_n: int = 20) -> list[AbelianGroup]:
    """Every abelian group of order <= max_n, Z2xZ2xZ6, whose orbit rule
    has 335 lanes, one per automorphism but the identity, and Z3^3, whose
    215 lanes are T(G) but the identity, with -1 as well as 1 on its
    diagonal.  Z2^4, of order 16, has the 63 lanes of its T(G)."""
    return all_groups_up_to(max_n) + [AbelianGroup((2, 2, 6)), AbelianGroup((3, 3, 3))]


def check_orbit_walks_match_plain_walks(groups: list[AbelianGroup], caps=(0, 1, 16)) -> int:
    """The certificates of the orbit walks against those of the plain
    reference walks, on every group in `groups` at every witness cap.
    Returns the number of certificates compared."""
    plain = {"_scan_bound_sweep": plain_bound_sweep, "_scan_sigma_lattice": plain_sigma_lattice,
             "_scan_pair_cover": plain_cover_scan}
    compared = 0
    for G in groups:
        for cap in caps:
            with mock.patch.multiple(verify, **plain):
                want = _counting_cores(G, cap)
            assert _counting_cores(G, cap) == want, (G.spec, cap)
            compared += len(want)
    return compared


def check_thm4_matches_full_scan(max_m: int = 48) -> int:
    """Every thm4 certificate for even m in 12..max_m against that of the
    full scan over every x, which runs when the class passes are made to
    report a set.  Returns the number of certificates compared."""
    compared = 0
    for m in range(12, max_m + 1, 2):
        with mock.patch.object(verify, "_misses_a_class", lambda G, k: True):
            want = verify.dumps(verify_three_fold_cover(m, budget=max_m).core())
        got = verify.dumps(verify_three_fold_cover(m, budget=max_m).core())
        assert got == want, m
        compared += 1
    return compared
