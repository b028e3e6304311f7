"""Exhaustive searches that confirm or refute the cover statements, with
reproducible certificates.

Every verifier enumerates candidate subsets in colexicographic order (the
numeric order of their bitmasks) with incremental sumset state carried down
the recursion, and prunes a subtree once nothing below it can be a violation
or an extremal case.  A walk tests a child's prunes in its own loop, so it
calls only the children they keep.  Each walk's docstring gives its prunes
and why they are sound:

- `_scan_bound_sweep` (thm1) and `_scan_sigma_lattice` (thm5) walk the
  subset lattice of G \\ {0}.
- `_scan_pair_cover` (prop3.2 and lemma2-search) checks A with its pair
  sums over the pool G \\ {0}, and `_scan_three_fold` (thm4) the sums of
  three distinct elements over the pool G.  They share only their
  look-ahead tables (`_cover_tables`).  Each statement states its pool's
  size for `checked` and hands the scan's record to `_cover_answer`,
  which reads the certificate's fields from it.
- thm4 is decided by class representatives: `_three_fold_cover` runs
  the class passes of `_misses_a_class` first, and the full scan, for
  the exact counts and witnesses, only if one finds a set.

The walks that count every set of a kind (the thm1 sweep, the thm5 lattice
and the pair-cover scan of prop3.2 and lemma2-search) visit one set per
orbit of a group of automorphisms of G, the lane group that `_lane_tables`
lists: Aut(G) when its lane ints have at most `_MAX_LANE_BITS` bits, else
its triangular subgroup T(G) (`groups.automorphism_tables`) when its ints
do, else none.  `_Lanes` packs them.  An automorphism keeps sums, covers,
deficiencies and generation, and fixes 0, so a set's whole orbit is of its
kind and in the same pool.  A walk enters a set only if its mask is the
largest in its orbit, and files it once for every member of the orbit,
listing only the least members that can still be kept (`ScanStats.record`,
through which every walk files).  The rule passes to subtrees, as in
orderly generation (R. C. Read, "Every one a winner", 1978; B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each walk
reaches S from P = S \\ {min S}, and if some uP > P, the highest bit where
they differ lies above min S, so uS > S.  The argument asks only that u be
a bijection, and the orbit counts only that the lanes be a group.  A set
that is not the largest of its orbit thus has no descendant that is, and
its subtree is dropped.  With no lane, each set is its own orbit: thm4's
walk, and those of Z1, Z2 and the groups whose T(G) is too wide, such as
Z2^6, enter and file every set.

Each statement is a `Statement` in the `STATEMENTS` registry, and each
option has a row in `OPTIONS`: its default, bounds and help line.  The CLI
builds its `verify` subcommands and flags from the two.  `_run` is the one
frame of every run: `Statement.run`, `sweep` and the public verifiers,
which are thin names for `run`, all go through it.  Once, before any
group, it rejects an option that the statement does not take
(`Statement.options`) and reads each value as an integer within its
bounds; the CLI passes only the flags it is given.  For each group it
starts the clock and calls the statement's function, which alone knows
its domain: it raises `_OutsideDomain` for a group outside it, which
`sweep` skips, returns a vacuous answer where it has one before any
budget check, and otherwise names the order to `afford`, which compares
it with the budget, and runs its scan.

`checked` in a certificate is the number of candidate subsets implied by the
parameters (a binomial count, computed arithmetically); violation and
equality counts are exact.  Witness lists hold the least masks up to a cap
but always retain, per number of uncovered elements, the least witness
exhibiting that deficiency.
"""

from __future__ import annotations

import json
import operator
import time
from collections import namedtuple
from collections.abc import Callable
from functools import cache
from math import comb, inf

from . import __version__, dumps
from .groups import (
    AbelianGroup,
    GroupSubset,
    automorphism_count,
    automorphism_tables,
    bit_indices,
    enumerate_groups_of_order,
    is_generating,
    torsion_two,
)

Option = namedtuple("Option", "default least greatest help")
# The run options, which every statement takes.
RUN_OPTIONS = {
    "witness_cap": Option(16, 0, inf, "most witnesses listed in a certificate"),
    # Every scan walks its whole tree in one pass, in one process: at the
    # orders the default budget allows, splitting a scan over worker
    # processes cost more than it saved.  So `jobs` changes nothing.
    "jobs": Option(1, 1, 64, "ignored: every scan runs in one process"),
    "budget": Option(24, 1, inf, "largest group order to exhaust"),
}
# Every verifier option: the run options and the statements' own.
OPTIONS = {**RUN_OPTIONS, "min_size": Option(5, 1, inf, "minimum subset size for the sum-count bound")}

# `_lane_tables` takes Aut(G) when its lane ints, |Aut(G)|(|G| + 1) bits,
# have at most this many bits, else T(G) when its ints fit, else none.
# Wider ints cost more per node than the smaller orbits save: thm1 and thm5
# run 7-12 times faster under Aut(G) than under the unit scalings on
# Z2xZ4xZ4 (50,688 bits), thm1 at least 4 times faster on Z2xZ2xZ14
# (57,456), and both 2-8 times slower on Z3^3 (314,496), which takes T(G)
# (6,048 bits).  Where Aut(G) fits it is the better group: thm1 on Z2xZ14
# and Z6xZ6 takes 0.028 and 0.16 s under it, 0.071 and 0.42 s under T(G)
# (in process, min of 3, shared 2-core host).
_MAX_LANE_BITS = 1 << 16


def _lane_tables(G: AbelianGroup) -> list[list[int]]:
    """The lane group of G but the identity, each map as its table of
    images: Aut(G), else T(G), else none, as `_MAX_LANE_BITS` says."""
    for triangular in (False, True):
        if automorphism_count(G, triangular) * (G.order + 1) <= _MAX_LANE_BITS:
            return automorphism_tables(G, triangular)[1:]  # not the identity
    return []


VERIFIED = "verified"
REFUTED = "refuted"
VACUOUS = "vacuous"


class BudgetExceededError(RuntimeError):
    """The group is larger than the configured exhaustive-search budget."""


class _OutsideDomain(ValueError):
    """The statement says nothing about this group; `sweep` skips it."""


def _fresh(data):
    """A copy of JSON-like data that shares no dict or list with it."""
    if isinstance(data, dict):
        return {k: _fresh(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_fresh(v) for v in data]
    return data


class Verdict:
    """Outcome of one verification job, serializable as a certificate.
    `to_dict` gives the certificate, the `KEYS`, with fresh copies of
    `params` and `witnesses`; two verdicts are equal when their
    certificates are."""

    KEYS = ("statement", "group", "params", "status", "checked", "witnesses", "elapsed_ms",
            "toolchain_version")

    def __init__(self, statement: str, group: str, params: dict, status: str, checked: int,
                 witnesses: list[list[int]], elapsed_ms: int = 0,
                 toolchain_version: str = __version__):
        self.statement = statement
        self.group = group
        self.params = params
        self.status = status
        self.checked = checked
        self.witnesses = witnesses
        self.elapsed_ms = elapsed_ms
        self.toolchain_version = toolchain_version

    def __eq__(self, other):
        if not isinstance(other, Verdict):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"Verdict({', '.join(f'{k}={getattr(self, k)!r}' for k in self.KEYS)})"

    def to_dict(self) -> dict:
        return {k: _fresh(getattr(self, k)) for k in self.KEYS}

    def core(self) -> dict:
        """Everything except the timing; two runs of the same job agree here."""
        out = self.to_dict()
        del out["elapsed_ms"]
        return out

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def to_text(self) -> str:
        """The CLI's text form: a head line, then one line per witness."""
        keys = ("violations", "critical_number", "subset_size", "threshold_size",
                "min_size", "equality_count", "matches_known")
        shown = "  ".join(f"{key}={self.params[key]}" for key in keys if self.params.get(key) is not None)
        head = f"{self.statement} {self.group}: {self.status}  checked={self.checked}  {shown}  [{self.elapsed_ms} ms]"
        return "\n".join([head, *(f"  witness {{{', '.join(map(str, w))}}}" for w in self.witnesses)])

    @classmethod
    def from_dict(cls, d: dict) -> Verdict:
        """The verdict of a certificate: reads exactly the `KEYS`, copied."""
        return cls(**{k: _fresh(d[k]) for k in cls.KEYS})

    @classmethod
    def from_json(cls, text: str) -> Verdict:
        return cls.from_dict(json.loads(text))


# -- scans -------------------------------------------------------------------
#
# A node of a walk is the arguments of its recursive call: (j, bound, dp1,
# dp2, n1, lag, live) in the pair-cover `rec`, (j, bound, dp1, dp2, dp3, n1,
# n2) in the three-fold `rec3`, (mask, size, bound, acc, lag) in the lattice
# scans, where lag is the node's orbit lanes (`_Lanes`); its subtree adds
# pool elements below `bound`.  The pool is G \ {0}, or G in thm4's scan,
# and every mask and bound is by element.


class ScanStats:
    """What a scan found.  `record` files the sets of deficiency d that one
    node stands for, its whole orbit under the walk's `_Lanes`, which is
    the node alone when they have no lane: it adds their number to
    `violations`, which counts the sets filed, and to `hist[d]`, keeps the
    least mask of deficiency d in `reps[d]` and the `cap` least masks in
    `witnesses`.  Every walk files through it, in any mask order.  The
    bound sweep files its equality cases in a second record, with d = 0.
    The thm5 lattice walk takes d = the failing set's size.  It files a
    set of the largest size seen so far and only `count`s a smaller one,
    so `hist` counts failures by size, but only `reps[max(hist)]` is sure
    to be the least failing set of its size."""

    def __init__(self, cap: int):
        self.cap = cap
        self.violations = 0
        self.hist: dict[int, int] = {}
        self.reps: dict[int, int] = {}
        self.witnesses: list[int] = []

    def count(self, d: int, lanes: _Lanes, lag: int) -> int:
        """Count the sets of deficiency d that a node with lanes `lag`
        stands for, its orbit under `lanes`, of which its mask S is the
        largest, in `violations` and `hist[d]`, and return the size of its
        stabiliser, the identity and the lanes u with uS = S, whose lag is
        2^n.  The orbit has maps / stab sets."""
        maps = lanes.maps
        stab = maps - ((lag - lanes.ones) & lanes.guard).bit_count()
        orbit = maps // stab
        self.violations += orbit
        self.hist[d] = self.hist.get(d, 0) + orbit
        return stab

    def record(self, d: int, mask: int, lanes: _Lanes, lag: int) -> None:
        """File the sets of deficiency d that the node `mask` stands for:
        `count` them, its orbit under `lanes`, of which `mask` is the
        largest, and list them from imgs, whose lane for u holds uS, rebuilt
        from `lag`.  Once `cap` witnesses are held, a member at or above
        `below`, the larger of the last witness and `reps[d]`, changes
        neither; only the max(cap, 1) least members below it are listed,
        and none when no lane holds one; with no lane, `mask` alone."""
        stab = self.count(d, lanes, lag)
        imgs = (mask * lanes.ones | lanes.guard) - lag
        held, wit, most = self.reps.get(d, inf), self.witnesses, max(self.cap, 1)
        below = inf if len(wit) < self.cap else max(wit[-1] if wit else 0, held)
        if mask < below:  # the largest member, so every member is below
            members = lanes.least(imgs, lanes.under(imgs, mask), most, stab) + [mask]
        elif hits := lanes.under(imgs, below):
            members = lanes.least(imgs, hits, most, stab)
        else:
            return
        if members[0] < held:
            self.reps[d] = members[0]
        self.witnesses = sorted(wit + members)[:self.cap]


class _Lanes:
    """Maps of the n elements of G, packed for the orbit rule and for
    `ScanStats.record`.

    `tables` lists the maps but the identity, each as its table of images
    (table[x] is the image of x); `maps` counts them with the identity.
    The orbit rule asks only that each map be a bijection, and the orbit
    counts that the maps with the identity form a group.  The counting walks
    take the automorphisms of `_lane_tables`, which keep subset sums, pair
    covers, deficiencies and generation, so the orbit {uS} of a set S is
    all of one kind; thm4's walk takes none.  A packed int has one lane
    per table, n bits and a guard bit above them.  A node with element
    mask S carries `lag`, whose lane for u holds 2^n + S - uS, so S is the
    largest of its orbit exactly when lag & guard == guard.  The root's
    lag is `guard`.  A child adds an element e in neither S nor uS, so its
    lag is lag + step[e], where step[e] holds 2^e - 2^ue in lane u.  With
    no lane (thm4's walk, Z1, Z2, and the groups whose T(G) is too wide,
    such as Z2^6 and Z257) lag is 0 and every set passes and is its own
    orbit.  Each walk builds its lanes once.
    """

    def __init__(self, n: int, tables: list[list[int]]):
        self.order = n
        # the images of each e from a bytearray, set bit by bit and read once;
        # ORing the lanes into a growing int one by one costs 2-3 times as
        # much at a hundred lanes or more
        bufs = [bytearray(((n + 1) * len(tables) + 7) // 8) for _ in range(n)]
        for i, table in enumerate(tables):
            base = (n + 1) * i
            for buf, ue in zip(bufs, table):
                b = base + ue
                buf[b >> 3] |= 1 << (b & 7)
        self.maps = len(tables) + 1
        # a 1 at the foot of every lane; "0" when there is no lane
        self.ones = int(("0" * n + "1") * len(tables) or "0", 2)
        self.guard = self.ones << n
        self.lane = (1 << n) - 1
        self.step = [(self.ones << e) - int.from_bytes(buf, "little") for e, buf in enumerate(bufs)]

    def under(self, imgs: int, t: int) -> int:
        """The guard bits of the lanes of `imgs` that hold a mask below t."""
        return ~((imgs | self.guard) - t * self.ones) & self.guard

    def least(self, imgs: int, hits: int, most: int, stab: int) -> list[int]:
        """The `most` least masks in the lanes `hits` (guard bits) of imgs,
        in increasing order, where each mask fills `stab` lanes.  A
        selection: each step reads the first lane left, v, and either keeps
        every lane up to v, when that leaves no more than `most` masks, or
        drops v and every lane above it."""
        n, lane, keep, need = self.order, self.lane, 0, most * stab
        while hits.bit_count() > need:
            low = hits & -hits
            v = imgs >> (low.bit_length() - 1 - n) & lane
            upto = self.under(imgs, v + 1) & hits
            count = upto.bit_count()
            if count <= need:
                keep, need = keep | upto, need - count
                hits = hits ^ upto if need else 0
            else:
                hits &= self.under(imgs, v)
        return sorted({imgs >> (g - n) & lane for g in bit_indices(hits | keep)})


def _cover_tables(G: AbelianGroup, lo: int) -> tuple[list[int], list[int], list[int]]:
    """The look-ahead tables of a cover scan over the pool of elements lo
    and up, G \\ {0} or G: free[b], the pool's elements below b, a node's
    candidates; nfree[b], their negatives; halves[x], the elements c with
    2c = x."""
    neg = G.neg_table
    free = [((1 << b) - 1) >> lo << lo for b in range(G.order + 1)]
    nfree = [0] * (lo + 1)
    for e in range(lo, G.order):
        nfree.append(nfree[-1] | (1 << neg[e]))
    halves = [0] * G.order
    for c, x in enumerate(G.double_table):
        halves[x] |= 1 << c
    return free, nfree, halves


def _scan_pair_cover(G: AbelianGroup, *, k: int, cap: int) -> ScanStats:
    """Size-k subsets A of the pool G \\ {0} whose pair cover, A with its
    pair sums, misses part of G; A is the witness mask.

    A node with j picks left below `bound` looks ahead on each uncovered x.
    A leaf below it misses x only if its j picks T avoid x and x - A, the
    elements whose addition covers x; ok is those candidates.  The scan
    carries n1 = -A so that x - A is a single translate.  T also holds no
    two distinct elements summing to x.  Call c in ok an upper member when
    its partner x - c is in ok and below c (both = ok & (x - ok) without
    the c with 2c = x holds the pairs), and let lower be ok without them:
    the singles and the lower member of each pair.  No two elements of
    lower sum to x, so some leaf misses x exactly when |lower| =
    |ok| - |both|/2 >= j, that is when the slack s = |lower| - j is at
    least 0.  With avail the candidates below `bound`, x - ok is x - avail
    without x - x = 0 and the elements of A.  ok holds neither, so both
    takes ok & (x - avail), one translate of -avail.  At the root of a prop3.2 scan (A empty, j = (|G| + |G_2|)/2)
    |lower| is (|G| - 2 + h)/2 for the h halves of x (h <= |G_2|), the
    paper's counting bound, which is below j: a verified scan stops at the
    root.

    The child rule.  A child adds e in ok, so x stays uncovered, and keeps
    the candidates below e, less x - e.  Dropping an upper member costs
    lower nothing and dropping a single or a lower member costs one; an
    upper e also takes its partner, a lower member below it.  So the child
    keeps x alive exactly when at most s + 1 members of lower lie at or
    above e (e in lower), or at most s (e an upper member): exactly when e
    lies at or above t_x, the (s + 1)-th highest element of lower.  A node
    tests every x and calls the e in ok at or above t_x for some x, those
    only, so each child it calls has a leaf below it that misses part of G.

    The forced rule.  When one x alone survives a node's look-ahead, with
    slack 0 and no pair (both = 0), ok is the one set of j picks that
    leaves x uncovered, and no other x can stay uncovered, so A with ok is
    the only set below the node that misses part of G, and it misses x
    alone.  The node files it with deficiency 1 if it passes the lane test
    and calls no child: a set is the largest of its orbit only if all its
    prefixes are, so the walk down to it would file it exactly then.
    `forced` is ok at the first survivor that forces, and 0 once any
    other x survives.

    An x that the look-ahead rules out at a node is ruled out in every
    descendant that leaves it uncovered, since a child's |lower| falls by
    at least 1, as j does.  The walk carries `live`, the x no ancestor has
    ruled out, and looks ahead only on those.

    The walk enters only a set that is the largest of its orbit under the
    automorphisms of `_Lanes` and files each leaf for its whole orbit.  It
    builds the lanes and `upper` (upper[x] holds the c whose partner x - c
    is below c) the first time an x survives, so a scan settled at its
    root builds neither.
    """
    tr = G.translator()
    neg = G.neg_table
    stats = ScanStats(cap)
    free, nfree, halves = _cover_tables(G, 1)
    lanes = guard = step = None
    upper = [0] * G.order

    def rec(j: int, bound: int, dp1: int, dp2: int, n1: int, lag: int, live: int) -> None:
        nonlocal lanes, guard, step
        cover = dp1 | dp2
        if j == 0:
            stats.record(G.order - cover.bit_count(), dp1, lanes, lag)
            return
        avail = free[bound]
        navail = nfree[bound]
        uncovered = live & ~cover
        kids = 0
        forced = None
        while uncovered:
            low = uncovered & -uncovered
            x = low.bit_length() - 1
            uncovered ^= low
            ok = avail & ~(low | tr(n1, x))
            size = ok.bit_count()
            if size >= j:
                both = ok & tr(navail, x) & ~halves[x]
                slack = size - (both.bit_count() >> 1) - j
                if slack >= 0:
                    if step is None:  # at the root, whose lag is guard
                        lanes = _Lanes(G.order, _lane_tables(G))
                        lag = guard = lanes.guard
                        step = lanes.step
                        for c in range(G.order):  # c is upper for x = c + d, d below c
                            for y in bit_indices(tr((1 << c) - 1, c)):
                                upper[y] |= 1 << c
                    # the forced rule: ok, unless x has a pair or slack or is not alone
                    forced = 0 if forced is not None or both or slack else ok
                    lower = ok & ~(both & upper[x])
                    for _ in range(slack):
                        lower ^= 1 << (lower.bit_length() - 1)
                    t = lower.bit_length() - 1
                    kids |= ok >> t << t
                    continue
            live ^= low
        if forced:
            for e in bit_indices(forced):
                lag += step[e]
            if lag & guard == guard:
                stats.record(1, dp1 | forced, lanes, lag)
            return
        for e in bit_indices(kids):
            kid = lag + step[e]
            if kid & guard == guard:
                rec(j - 1, e, dp1 | (1 << e), dp2 | tr(dp1, e), n1 | (1 << neg[e]), kid, live)

    rec(k, G.order, 0, 0, 0, 0, G.full_mask)
    return stats


def _scan_three_fold(G: AbelianGroup, *, k: int, cap: int, targets: int | None = None) -> ScanStats:
    """Size-k subsets A of the pool G whose sums of three distinct elements
    miss one of the `targets`, all of G unless given; a leaf is filed with
    its whole deficiency.

    A node calls only the children that leave some target uncovered, and
    a node with j picks left below `bound` is dropped unless some
    uncovered target x could survive to a leaf, which needs j candidates
    avoiding x - (A +^ A).  The scan carries n1 = -A and n2 = -(A +^ A) so
    that x - (A +^ A) is a single translate.  The picks T of a leaf that
    miss x also hold no two distinct c and x - a - c for any a in A, since
    a + c + (x - a - c) = x would be a sum of three distinct elements (no
    candidate is in A).  So with ok the candidates, |T| <= |ok| -
    |both_a|/2, where both_a = ok & (x - a - ok) without the c with 2c =
    x - a, and x survives only if every a leaves that count at j or more;
    the loop over a stops at the first that does not.  The walk enters
    every set, and files each under lanes with no lane, as its own orbit.
    """
    tr = G.translator()
    neg = G.neg_table
    targets = G.full_mask if targets is None else targets
    stats = ScanStats(cap)
    free, nfree, halves = _cover_tables(G, 0)
    lanes = _Lanes(G.order, [])

    def rec3(j: int, bound: int, dp1: int, dp2: int, dp3: int, n1: int, n2: int) -> None:
        if j == 0:
            stats.record(G.order - dp3.bit_count(), dp1, lanes, 0)
            return
        avail = free[bound]
        uncovered = targets & ~dp3
        while uncovered:
            low = uncovered & -uncovered
            x = low.bit_length() - 1
            ok = avail & ~tr(n2, x)
            size = ok.bit_count()
            if size >= j:
                # -ok = nfree[bound] minus (A +^ A) - x; y = x - a runs over
                # the elements of x - A, and x - a - ok = -ok + y
                nok = nfree[bound] & ~tr(dp2, neg[x])
                ys = tr(n1, x)
                while ys:
                    ylow = ys & -ys
                    y = ylow.bit_length() - 1
                    if size - ((ok & tr(nok, y) & ~halves[y]).bit_count() >> 1) < j:
                        break
                    ys ^= ylow
                else:
                    break  # no a rules x out: it may survive to a leaf
            uncovered ^= low
        else:
            return
        for e in range(j - 1, bound):
            d3 = dp3 | tr(dp2, e)
            if d3 & targets != targets:
                ne = neg[e]
                rec3(j - 1, e, dp1 | (1 << e), dp2 | tr(dp1, e), d3, n1 | (1 << ne), n2 | tr(n1, ne))

    rec3(k, G.order, 0, 0, 0, 0, 0)
    return stats


def _scan_bound_sweep(G: AbelianGroup, *, min_size: int, cap: int) -> tuple[ScanStats, ScanStats]:
    """All subsets of G \\ {0} of size >= min_size.  Returns two records:
    the generating sets below the bound, filed by their shortfall, and the
    equality cases |sigma(S)| = 2|S| < |G|, filed with deficiency 0.

    A node's subtree adds elements below its `bound` and is the contiguous
    mask interval it tiles, visited node first and in mask order.  It
    enters only a set that is the largest of its orbit under `_Lanes`,
    tested before a child's sums are taken, and files it for its whole
    orbit.  A node's loop calls a child, with sums `a`, only when none of
    these drops it and its subtree:

    - the sums saturate (a = G), since every superset then meets the bound
      trivially, generates, and can be neither a violation nor an equality
      case;
    - |a| > 2 * (size + e), for the node's size and the child's element e.
      A descendant S' of the child adds to the node's set e and at most
      the e - 1 elements below it, so |S'| <= size + e, and sigma(S')
      contains a; hence |sigma(S')| > 2|S'| >= min(|G|, 2|S'|), which is
      neither a violation nor an equality case |sigma(S')| = 2|S'|.  Since
      a contains the node's sums, the loop starts where 2 * (size + e)
      reaches their count;
    - size + e < min_size, since no descendant is large enough; the loop
      starts past these children.

    Each rule also rules out the child itself, so a dropped child is never
    a violation or equality case, nor is any set of its orbit.  The root
    passes them, or its loop is empty.

    The bound holds only for generating sets, so only a node whose sums fall
    short of it or meet it with equality asks whether its set S generates
    G.  It asks that of its sums: S <= sigma(S) <= <S>, so <S> = <sigma(S)>.
    Many sets share their sums, so the answer is cached per scan on `acc`.
    """
    order = G.order
    tr = G.translator()
    full = G.full_mask
    stats, eq = ScanStats(cap), ScanStats(cap)
    generates = cache(lambda acc: is_generating(G, GroupSubset(G, acc)))
    lanes = _Lanes(G.order, _lane_tables(G))
    guard, step = lanes.guard, lanes.step

    def rec(mask: int, size: int, bound: int, acc: int, lag: int) -> None:
        got = acc.bit_count()
        if size >= min_size:
            need = order if 2 * size >= order else 2 * size
            if got < need and generates(acc):
                stats.record(need - got, mask, lanes, lag)
            elif got == need and generates(acc):
                eq.record(0, mask, lanes, lag)
        for e in range(max(1, min_size - size, (got + 1) // 2 - size), bound):
            kid = lag + step[e]
            if kid & guard == guard:
                a = acc | tr(acc, e) | (1 << e)
                if a != full and a.bit_count() <= 2 * (size + e):
                    rec(mask | (1 << e), size + 1, e, a, kid)

    rec(0, 0, order, 0, guard)
    return stats, eq


def _scan_sigma_lattice(G: AbelianGroup) -> ScanStats:
    """Every nonempty subset of G \\ {0} whose subset-sum set misses part
    of G, counted under its size; only `reps` of the largest size is read.

    The walk is the one of `_scan_bound_sweep`, but a child takes its sums
    before its lane test, so a saturated child, not called since it and
    every superset cover G, costs no addition of the wide lanes.  `top` is
    the largest size filed so far: a node of that size or larger is filed,
    a smaller one only counted.  As `top` only grows, every node of the
    final largest size is filed, and `reps` of that size is the least
    failing set of the size.  No witness is listed.
    """
    tr = G.translator()
    full = G.full_mask
    stats = ScanStats(0)
    lanes = _Lanes(G.order, _lane_tables(G))
    guard, step = lanes.guard, lanes.step
    top = 1  # the root, of size 0, is not filed

    def rec(mask: int, size: int, bound: int, acc: int, lag: int) -> None:
        nonlocal top
        if size >= top:
            top = size
            stats.record(size, mask, lanes, lag)
        elif size:
            stats.count(size, lanes, lag)
        for e in range(1, bound):
            a = acc | tr(acc, e) | (1 << e)
            if a != full:
                kid = lag + step[e]
                if kid & guard == guard:
                    rec(mask | (1 << e), size + 1, e, a, kid)

    rec(0, 0, G.order, 0, guard)
    return stats


def _cover_answer(G: AbelianGroup, params: dict, stats: ScanStats, checked: int) -> tuple:
    """The answer of a cover scan's record over `checked` candidate sets:
    any violation refutes."""
    params["violations"] = stats.violations
    return G.spec, params, REFUTED if stats.violations else VERIFIED, checked, _witnesses_with_reps(stats)


def _misses_a_class(G: AbelianGroup, k: int) -> bool:
    """Whether some size-k subset of Z_m = G misses 0 or, when 3 | m, 1 as
    a sum of three distinct elements, by one class pass for each:
    `_scan_three_fold` with that x as its only target.  If T misses x, the
    k-sets T + t and -T miss x + 3t and -x, so the x that some k-set misses
    make up whole classes: one when 3 does not divide m, and 0 and +-1 mod
    3 when it does."""
    return any(_scan_three_fold(G, k=k, cap=0, targets=1 << x).violations
               for x in ((0, 1) if G.order % 3 == 0 else (0,)))


def _witnesses_with_reps(stats: ScanStats) -> list[list[int]]:
    """The record's first `cap` witnesses in mask order, forcing in one
    representative per observed deficiency."""
    protected = set(stats.reps.values())
    others = sorted(set(stats.witnesses) - protected)[:max(0, stats.cap - len(protected))]
    return [bit_indices(m) for m in sorted(protected.union(others))[:stats.cap]]


def _integer(name: str, value) -> int:
    """`value` as an int; anything else, such as 2.5 or "2", is a TypeError
    that names it, never truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"need an integer {name}, got {name}={value!r}") from None


# -- statements ---------------------------------------------------------------
#
# A statement's function takes G, the witness cap, `afford` and the
# statement's own options.  It raises `_OutsideDomain` for a G outside the
# statement's domain and returns a vacuous answer where it has one; else it
# calls afford(order) and runs its scan.  Its answer is the certificate's
# fields from `group` to `witnesses`, which `_run` completes.


def _pair_cover_threshold(G: AbelianGroup, cap: int, afford) -> tuple:
    """Every A in G \\ {0} with 2|A| >= |G| + |G_2| pair-covers G.

    Only the exact threshold size t = (|G| + |G_2|)/2 is enumerated; the
    pair cover grows monotonically with A, so larger sizes follow.  When t
    exceeds the number of nonzero elements no such subset exists and the
    answer is vacuous.
    """
    g2 = torsion_two(G).cardinality
    threshold = (G.order + g2) // 2
    params: dict = {"threshold_size": threshold, "torsion_size": g2, "violations": 0}
    if threshold > G.order - 1:
        params["available_nonzero"] = G.order - 1
        return G.spec, params, VACUOUS, 0, []
    afford(G.order)
    return _cover_answer(G, params, _scan_pair_cover(G, k=threshold, cap=cap), comb(G.order - 1, threshold))


def _cyclic_order(G: AbelianGroup | int) -> int:
    """The order m of a cyclic G, given as a group or, by the verifiers that
    take m, as m itself; a group that is not cyclic is outside the domain."""
    if not isinstance(G, AbelianGroup):
        return _integer("m", G)
    if not G.is_cyclic:
        raise _OutsideDomain(f"the statement is about cyclic groups, got {G.spec}")
    return G.order


def _lemma2_search(G: AbelianGroup | int, cap: int, afford) -> tuple:
    """Hunt for A in Z_m \\ {0} with 2|A| >= m whose pair cover misses
    something.

    The claim under test says no such A exists; it holds for odd m (where it
    is the pair-cover threshold statement in disguise) and fails for every
    even m.  Only the minimal size ceil(m/2) is enumerated, by monotonicity.
    The search is exhaustive: it counts every counterexample of that size by
    deficiency and lists up to `cap` of them, keeping the first witness of
    each deficiency.  Z_m is built after the budget check.
    """
    m = _cyclic_order(G)
    if m < 3:
        raise _OutsideDomain(f"need m >= 3, got {m}")
    afford(m)
    G = AbelianGroup.cyclic(m)
    size = (m + 1) // 2
    stats = _scan_pair_cover(G, k=size, cap=cap)
    params = {"subset_size": size, "exhaustive": True,  # always; certificates keep the key
              "deficiency_histogram": {str(d): c for d, c in sorted(stats.hist.items())}}
    return _cover_answer(G, params, stats, comb(m - 1, size))


def _subset_sum_bound(G: AbelianGroup, cap: int, afford, min_size: int) -> tuple:
    """|sigma(S)| >= min(|G|, 2|S|) for every generating S in G \\ {0}
    with |S| >= min_size.

    The sweep is unconditional over the whole subset lattice, so both the
    small-subset and large-subset regimes of the bound are covered by the
    same run.  Equality cases |sigma(S)| = 2|S| < |G| are collected as
    extremal witnesses; `checked` counts all size-filtered candidates before
    the generating filter.
    """
    afford(G.order)
    npool = G.order - 1
    stats, eq = _scan_bound_sweep(G, min_size=min_size, cap=cap)
    checked = sum(comb(npool, j) for j in range(min_size, npool + 1))
    params = {"min_size": min_size, "violations": stats.violations, "equality_count": eq.violations}
    return (G.spec, params, REFUTED if stats.violations else VERIFIED, checked,
            _witnesses_with_reps(stats if stats.violations else eq))


def _critical_number(G: AbelianGroup, cap: int, afford) -> tuple:
    """Smallest s such that every size-s subset of G \\ {0} has full
    subset-sum coverage, by one walk of the subset lattice.

    Coverage failures propagate downward (a failing set's subsets fail), so
    the failing sizes are exactly 1..s-1 and every smaller size was
    refutable; the answer carries the first failing witness in colex order
    at size s - 1 plus exact failure counts per size.
    """
    if G.order < 3:
        raise _OutsideDomain(f"need |G| >= 3, got {G.order}")
    afford(G.order)
    n = G.order
    # Only hist and reps[max(hist)] are read below, so the walk lists no
    # witness and lists least members only at the largest size seen so far.
    stats = _scan_sigma_lattice(G)
    # No bound check is needed: for |G| >= 3, sigma(G \ {0}) = G (0 is
    # x + (-x), or a + b + (a + b) in Z2^k), so answer <= n - 1; and the
    # singletons always fail, so hist is not empty.
    answer = max(stats.hist) + 1
    failures_by_size = {str(s): stats.hist.get(s, 0) for s in range(1, answer + 1)}
    known = _known_critical_value(G)
    params = {
        "critical_number": answer,
        "known_value": known,
        "matches_known": None if known is None else answer == known,
        "failures_by_size": failures_by_size,
    }
    status = REFUTED if known is not None and answer != known else VERIFIED
    checked = sum(comb(n - 1, s) for s in range(1, answer + 1))
    return G.spec, params, status, checked, [bit_indices(stats.reps[answer - 1])] if cap else []


def _known_critical_value(G: AbelianGroup) -> int | None:
    """Classically known critical numbers for groups of even order |G| = 2k
    >= 4: k + 1 when k < 5, except Z2^3, and k otherwise."""
    n = G.order
    if n < 4 or n % 2:
        return None
    k = n // 2
    return k + 1 if k < 5 and G.factors != (2, 2, 2) else k


def _three_fold_cover(G: AbelianGroup | int, cap: int, afford) -> tuple:
    """For even m >= 12 every subset of Z_m of size m/2 + 1 has three-element
    sums covering all of Z_m.

    0 may belong to the subsets here; only the minimal size is enumerated,
    by monotonicity.  The class passes (`_misses_a_class`) run first, and
    the full scan runs for the exact counts and witnesses only if one finds
    a set, which by the theorem does not happen.  `checked` counts all
    C(m, k) sets either way.  Z_m is built after the budget check.
    """
    m = _cyclic_order(G)
    if m < 12 or m % 2:
        raise _OutsideDomain(f"need even m >= 12, got {m}")
    afford(m)
    G = AbelianGroup.cyclic(m)
    size = m // 2 + 1
    stats = _scan_three_fold(G, k=size, cap=cap) if _misses_a_class(G, size) else ScanStats(cap)
    return _cover_answer(G, {"subset_size": size}, stats, comb(m, size))


# -- the frame and the registry ---------------------------------------------------


def _run(st: Statement, groups, skip: bool, **options) -> list[Verdict]:
    """The frame of every run: the certificates of `st` on `groups`.  Once,
    before any group, it rejects an option `st` does not take and reads
    each of the others, or its default, as an integer within its row of
    `OPTIONS`.  Then for each group it starts a clock, calls the
    statement's function with afford(order), the budget check, and builds
    the `Verdict`.  A group outside the domain raises `_OutsideDomain`, or
    is left out if `skip`."""
    stray = sorted(set(options) - set(st.options))
    if stray:
        raise ValueError(f"{st.id} takes no {', '.join(stray)}")
    for name in st.options:
        default, least, greatest, _ = OPTIONS[name]
        value = options[name] = _integer(name, options.get(name, default))
        if not least <= value <= greatest:
            raise ValueError(f"need {least} <= {name} <= {greatest}, got {name}={value}")
    run = {name: options.pop(name) for name in RUN_OPTIONS}

    def afford(order: int) -> None:
        if order > run["budget"]:
            raise BudgetExceededError(f"group order {order} exceeds the search budget {run['budget']}")

    out = []
    for G in groups:
        t0 = time.perf_counter()
        try:
            answer = st.check(G, run["witness_cap"], afford, **options)
        except _OutsideDomain:
            if skip:
                continue
            raise
        out.append(Verdict(st.id, *answer, int(round((time.perf_counter() - t0) * 1000))))
    return out


class Statement:
    """One statement of the paper.  `check` is its function, and `options`
    names every keyword it takes: the run options, then its own."""

    def __init__(self, id: str, alias: str, check: Callable[..., tuple], options: tuple[str, ...] = ()):
        self.id = id
        self.alias = alias
        self.check = check
        self.options = (*RUN_OPTIONS, *options)

    def run(self, G: AbelianGroup, **run) -> Verdict:
        """The certificate on G under the `options` in `run`;
        `_OutsideDomain` if G lies outside the statement's domain."""
        return _run(self, [G], False, **run)[0]


STATEMENTS = {st.id: st for st in (
    Statement("prop3.2", "prop3", _pair_cover_threshold),
    Statement("lemma2-search", "lemma2", _lemma2_search),
    Statement("thm1", "thm1", _subset_sum_bound, ("min_size",)),
    Statement("thm4", "thm4", _three_fold_cover),
    Statement("thm5", "thm5", _critical_number),
)}


def sweep(statement: str, orders, *, cyclic_only: bool = False, **run) -> list[Verdict]:
    """Run one statement over all abelian (or all cyclic) groups of the
    given orders but those outside its domain, under the options in `run`
    (`Statement.options`).  Verdicts come back in order, then by
    isomorphism class."""
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}; expected one of {tuple(STATEMENTS)}")
    groups = (G for n in orders for G in ([AbelianGroup.cyclic(n)] if cyclic_only else enumerate_groups_of_order(n)))
    return _run(STATEMENTS[statement], groups, True, **run)


# -- the public verifiers: each is its statement's `run`, where lemma2-search
# and thm4 take m, the order of Z_m, for G; thm1 also takes min_size by
# position, and thm5 returns the critical number with the certificate

verify_pair_cover_threshold = STATEMENTS["prop3.2"].run
search_lemma2_counterexamples = STATEMENTS["lemma2-search"].run
verify_three_fold_cover = STATEMENTS["thm4"].run


def verify_subset_sum_bound(G: AbelianGroup, min_size: int = OPTIONS["min_size"].default, **run) -> Verdict:
    return STATEMENTS["thm1"].run(G, min_size=min_size, **run)


def critical_number(G: AbelianGroup, **run) -> tuple[int, Verdict]:
    v = STATEMENTS["thm5"].run(G, **run)
    return v.params["critical_number"], v
