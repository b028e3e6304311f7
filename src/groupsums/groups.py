"""Finite abelian groups in invariant-factor form, with table-driven arithmetic.

Every group here is a direct product Z_d1 x Z_d2 x ... x Z_dk whose factors
form a divisibility chain d1 | d2 | ... | dk (the invariant factors), so the
factor tuple is a canonical label for the isomorphism class.  An element is a
tuple (x1, ..., xk) with 0 <= xi < di, identified with the mixed-radix index

    x1 + d1*(x2 + d2*(x3 + ...))

in which the first factor varies fastest.  A subset of a group is a length-|G|
bit-vector over element indices, stored as an arbitrary-precision integer.
Each of the three bit-vector primitives has one home here:

- iterate: `bit_indices` lists the set bits of a mask;
- build: `mask_of`, its inverse, makes a mask from indices in one linear
  pass, where ORing bits into a growing int one at a time is quadratic;
- translate: `AbelianGroup.translator` shifts a subset by a group element
  with one masked shift per nonzero coordinate (a plain rotation in the
  cyclic case), looked up per element, which is what keeps the search
  loops in `groupsums.verify` branch-free and fast.

Negation and doubling tables are built on first use, so element negation,
2-torsion and halving counts are table lookups while constructing a large
group stays cheap.  Groups are immutable after construction and compare
equal exactly when their invariant factors agree.  Every group order is
capped at `MAX_ORDER` = 2^20, since a subset of a larger group would be a
bit-vector of more than a million bits.
"""

from __future__ import annotations

import operator
import re
from math import prod
from collections.abc import Iterable, Iterator

MAX_ORDER = 1 << 20
_MAX_DIGITS = 64  # per number in a spec; far below the interpreter's int() limit

_ATOM_RE = re.compile(r"Z(\d+)(?:\^(\d+))?$", re.IGNORECASE)


class GroupSpecError(ValueError):
    """Raised for malformed group descriptions or out-of-range orders."""


def _factor(d, what: str = "invariant factor") -> int:
    """An invariant factor, or the `what` named, as an int; anything not an
    integer, such as 2.5, 6.0 or "6", is an error, never truncated or parsed."""
    try:
        return operator.index(d)
    except TypeError:
        raise GroupSpecError(f"{what} {d!r} is not an integer") from None


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending.

    >>> bit_indices(0b10110)
    [1, 2, 4]
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def mask_of(indices: Iterable[int], n: int) -> int:
    """The n-bit mask whose set bits are `indices`: the inverse of `bit_indices`.

    The order of the indices and any repeats do not matter.  Each index
    sets one byte of a bytearray, which is read once as a binary numeral,
    so the cost is linear in n.  An index outside range(n) is a ValueError.

    >>> mask_of([4, 1, 2, 1], 5) == 0b10110
    True
    """
    flags = bytearray(n)
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for a {n}-bit mask")
        flags[i] = 1
    return int(flags[::-1].translate(_BINARY_DIGITS) or b"0", 2)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _partitions(e: int) -> Iterator[tuple[int, ...]]:
    """Partitions of e in decreasing-part form, largest-first order."""

    def gen(rest: int, mx: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, mx), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return gen(e, e)


def invariant_factors(cyclic_orders: Iterable[int]) -> tuple[int, ...]:
    """Canonical invariant factors of a direct product of cyclic groups.

    The prime-power components of all the given orders are pooled and
    regrouped: the largest factor takes the highest power of every prime,
    the next factor the second-highest, and so on.  Coprime factors
    therefore collapse and the result is the unique chain d1 | d2 | ... | dk.

    >>> invariant_factors([2, 3])
    (6,)
    >>> invariant_factors([4, 6])
    (2, 12)
    >>> invariant_factors([2, 2, 2])
    (2, 2, 2)
    """
    exps: dict[int, list[int]] = {}
    for m in cyclic_orders:
        if m < 1:
            raise ValueError(f"cyclic order {m} < 1")
        for p, e in factorize(m).items():
            exps.setdefault(p, []).append(e)
    for lst in exps.values():
        lst.sort(reverse=True)
    depth = max((len(lst) for lst in exps.values()), default=0)
    chain = []
    for i in range(depth):
        d = prod(p ** lst[i] for p, lst in exps.items() if i < len(lst))
        chain.append(d)
    return tuple(reversed(chain))


class AbelianGroup:
    """A finite abelian group Z_d1 x ... x Z_dk in invariant-factor form."""

    __slots__ = (
        "factors",
        "order",
        "full_mask",
        "_neg_table",
        "_double_table",
        "_strides",
        "_translator",
    )

    def __init__(self, factors: Iterable[int]):
        factors = tuple(map(_factor, factors))
        for d in factors:
            if d < 2:
                raise GroupSpecError(f"invariant factor {d} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise GroupSpecError(f"{factors} is not a divisibility chain")
        order = prod(factors) if factors else 1
        if order > MAX_ORDER:
            raise GroupSpecError(f"order {order} exceeds the maximum {MAX_ORDER}")
        self.factors = factors
        self.order = order
        self.full_mask = (1 << order) - 1
        strides = []
        s = 1
        for d in factors:
            strides.append(s)
            s *= d
        self._strides = tuple(strides)
        self._translator = None
        self._neg_table: list[int] | None = None
        self._double_table: list[int] | None = None

    @property
    def neg_table(self) -> list[int]:
        """neg_table[i] is the index of -x for the element x of index i."""
        if self._neg_table is None:
            self._neg_table = self._coordinatewise_table(lambda x, d: -x % d)
        return self._neg_table

    @property
    def double_table(self) -> list[int]:
        """double_table[i] is the index of 2x for the element x of index i."""
        if self._double_table is None:
            self._double_table = self._coordinatewise_table(lambda x, d: 2 * x % d)
        return self._double_table

    def _coordinatewise_table(self, op) -> list[int]:
        """Index table of the map applying op(x, d) to every coordinate.

        Built from the top factor down: an index is x + d*rest with x the
        coordinate of the current factor d, so each step is one
        comprehension over the table of the higher factors.
        """
        table = [0]
        for d in reversed(self.factors):
            images = [op(x, d) for x in range(d)]
            table = [y + d * rest for rest in table for y in images]
        return table

    # -- identity and rendering ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"AbelianGroup({self.factors})"

    @property
    def spec(self) -> str:
        """Canonical textual form, e.g. "Z2 x Z4"; the trivial group is "Z1"."""
        if not self.factors:
            return "Z1"
        return " x ".join(f"Z{d}" for d in self.factors)

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) <= 1

    @classmethod
    def cyclic(cls, m: int) -> "AbelianGroup":
        return cls(() if _factor(m) == 1 else (m,))

    # -- element encoding --------------------------------------------------

    def tuple_to_index(self, t: Iterable[int]) -> int:
        t = tuple(map(operator.index, t))
        if len(t) != len(self.factors):
            raise ValueError(f"{t} has wrong arity for {self.spec}")
        i = 0
        for d, x in zip(reversed(self.factors), reversed(t)):
            if not 0 <= x < d:
                raise ValueError(f"coordinate {x} out of range for Z{d}")
            i = i * d + x
        return i

    def _index_of(self, x: int) -> int:
        if not 0 <= (x := operator.index(x)) < self.order:
            raise ValueError(f"index {x} out of range for {self.spec}")
        return x

    # -- arithmetic ---------------------------------------------------------

    def add_index(self, i: int, j: int) -> int:
        out = 0
        for axis in range(len(self.factors) - 1, -1, -1):
            d = self.factors[axis]
            s = self._strides[axis]
            out = out * d + ((i // s) % d + (j // s) % d) % d
        return out

    # -- bit-vector translation ----------------------------------------------

    def translator(self):
        """The (bits, element_index) -> bits function of this group.

        A cyclic group rotates the whole vector.  Any other group adds g one
        coordinate at a time: adding r to a coordinate with stride s and
        factor d moves the indices below d - r up by `up` = r*s bits within
        every block of B = s*d consecutive indices and wraps the rest down by
        `down` = B - up, and two masks pick the two parts in every block at
        once.  The top coordinate's block is the whole vector, so its shift
        is a rotation too.  An element's masked shifts, one per nonzero
        coordinate, are filled in on its first use, so the table holds only
        the elements actually translated; the masks of each (coordinate, r)
        are made once and shared by every element that has r there.  The
        function is built once and kept on the group.
        """
        if self._translator is not None:
            return self._translator
        m, full = self.order, self.full_mask
        if len(self.factors) == 1:

            def rotate(bits: int, g: int) -> int:
                return ((bits << g) | (bits >> (m - g))) & full

            self._translator = rotate
            return rotate
        # per coordinate: stride, factor, and the masked shift for each r once made
        axes = [(s, d, [None] * d) for s, d in zip(self._strides, self.factors)]
        table: dict[int, tuple[tuple[int, int, int, int], ...]] = {}

        def shift(bits: int, g: int) -> int:
            try:
                ops = table[g]
            except KeyError:
                ops = []
                for s, d, made in axes:
                    if r := g // s % d:
                        if made[r] is None:
                            block, up = s * d, r * s
                            rep = full // ((1 << block) - 1)  # a 1 at the foot of every block
                            low = ((1 << (block - up)) - 1) * rep
                            made[r] = (low, full ^ low, up, block - up)
                        ops.append(made[r])
                ops = table[g] = tuple(ops)
            for low, high, up, down in ops:
                bits = ((bits & low) << up) | ((bits & high) >> down)
            return bits

        self._translator = shift
        return shift


class GroupSubset:
    """A subset of group elements as a length-|G| bit-vector.

    Bit i is set exactly when the element with index i is in the set.  The
    JSON form of a subset is its sorted list of element indices.
    """

    __slots__ = ("group", "bits")

    def __init__(self, group: AbelianGroup, bits: int = 0):
        if bits & ~group.full_mask:
            raise ValueError("bit-vector longer than the group order")
        self.group = group
        self.bits = bits

    @classmethod
    def from_indices(cls, group: AbelianGroup, indices: Iterable[int]) -> "GroupSubset":
        return cls(group, mask_of(map(group._index_of, indices), group.order))

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.bits))

    def _same_group(self, other: "GroupSubset") -> None:
        if self.group != other.group:
            raise ValueError(f"subset of {other.group.spec} used with {self.group.spec}")

    def __contains__(self, x: int) -> bool:
        return bool(self.bits >> self.group._index_of(x) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return self.cardinality

    def __or__(self, other: "GroupSubset") -> "GroupSubset":
        self._same_group(other)
        return GroupSubset(self.group, self.bits | other.bits)

    def __and__(self, other: "GroupSubset") -> "GroupSubset":
        self._same_group(other)
        return GroupSubset(self.group, self.bits & other.bits)

    def __sub__(self, other: "GroupSubset") -> "GroupSubset":
        self._same_group(other)
        return GroupSubset(self.group, self.bits & ~other.bits)

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.group, ~self.bits & self.group.full_mask)

    def translate(self, g: int) -> "GroupSubset":
        """The set {a + g : a in self}."""
        return GroupSubset(self.group, self.group.translator()(self.bits, self.group._index_of(g)))

    def map_indices(self, perm) -> "GroupSubset":
        """The set {perm[a] : a in self}."""
        return GroupSubset(self.group, mask_of([perm[i] for i in bit_indices(self.bits)], self.group.order))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSubset):
            return NotImplemented
        return self.group == other.group and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    def __repr__(self) -> str:
        return f"GroupSubset({self.group.spec}, {{{', '.join(map(str, self.indices()))}}})"


def parse_group_spec(text: str) -> AbelianGroup:
    """Parse "Z<n>" atoms joined by "x", with optional "^e" exponents.

    The result is always in canonical invariant-factor form, so coprime
    factors collapse, and "Z1" is the trivial group, as `spec` renders it:

    >>> parse_group_spec("Z9").factors
    (9,)
    >>> parse_group_spec("Z2^3").factors
    (2, 2, 2)
    >>> parse_group_spec("Z2xZ3").factors
    (6,)
    >>> parse_group_spec("Z2 x Z4").factors
    (2, 4)
    >>> parse_group_spec("Z1").order
    1
    """
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise GroupSpecError("empty group spec")
    orders: list[int] = []
    for atom in re.split("[xX]", compact):
        m = _ATOM_RE.fullmatch(atom)
        if m is None:
            raise GroupSpecError(f"bad group atom {atom!r} in {text!r}")
        if any(len(g) > _MAX_DIGITS for g in m.groups() if g):
            raise GroupSpecError(f"a number in {text!r} has more than {_MAX_DIGITS} digits")
        n = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if n < 1:
            raise GroupSpecError(f"cyclic order {n} < 1 in {text!r}")
        if e < 1:
            raise GroupSpecError(f"exponent {e} < 1 in {text!r}")
        if n == 1:
            continue  # the trivial group, whatever its exponent
        # n**e >= 2**e, so a large e is rejected before n**e is computed
        if e >= MAX_ORDER.bit_length() or prod(orders) * n**e > MAX_ORDER:
            raise GroupSpecError(f"order of {text!r} exceeds the maximum {MAX_ORDER}")
        orders.extend([n] * e)
    return AbelianGroup(invariant_factors(orders))


def enumerate_groups_of_order(n: int) -> list[AbelianGroup]:
    """All abelian groups of order n, one per isomorphism class.

    Classes are produced by choosing a partition of each prime exponent,
    and listed deterministically: fewest invariant factors first, then by
    the factor tuple.

    >>> [g.factors for g in enumerate_groups_of_order(8)]
    [(8,), (2, 4), (2, 2, 2)]
    >>> [g.factors for g in enumerate_groups_of_order(12)]
    [(12,), (2, 6)]
    """
    n = _factor(n, "order")
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > MAX_ORDER:
        raise GroupSpecError(f"order {n} exceeds the maximum {MAX_ORDER}")
    primes = sorted(factorize(n).items())
    pools: list[list[int]] = [[]]
    for p, e in primes:
        pools = [base + [p**part_e for part_e in part] for base in pools for part in _partitions(e)]
    groups = [AbelianGroup(invariant_factors(orders)) for orders in pools]
    groups.sort(key=lambda g: (len(g.factors), g.factors))
    return groups


def torsion_two(G: AbelianGroup) -> GroupSubset:
    """The subgroup {x : 2x = 0} of elements of order at most 2."""
    return GroupSubset(G, mask_of([i for i, d in enumerate(G.double_table) if d == 0], G.order))


def automorphism_count(G: AbelianGroup, triangular: bool = False) -> int:
    """|Aut(G)|, or |T(G)| with `triangular`, counted without listing a map.

    Aut(G) is the product of the automorphism groups of the Sylow subgroups.
    For Z_{p^e_1} x ... x Z_{p^e_k} with e_1 <= ... <= e_k, C. J. Hillar and
    D. L. Rhea ("Automorphisms of finite abelian groups", Amer. Math.
    Monthly 114, 2007) count

        prod_i (p^d_i - p^(i-1)) * p^(e_i (k - d_i)) * p^((e_i - 1)(k - c_i + 1))

    where d_i is the largest and c_i the least index l with e_l = e_i.  A
    map of T(G) picks a unit mod d_i and an element of each Z_{d_j}, j < i,
    for each e_i, so |T(G)| = prod_i phi(d_i) d_1 ... d_(i-1).

    >>> [automorphism_count(parse_group_spec(s)) for s in ("Z12", "Z2xZ14", "Z2xZ2xZ6", "Z2^4")]
    [4, 36, 336, 20160]
    """
    count = 1
    if triangular:
        for i, d in enumerate(G.factors):
            units = prod(p ** (e - 1) * (p - 1) for p, e in factorize(d).items())  # phi(d)
            count *= units * prod(G.factors[:i])
        return count
    for p in factorize(G.order):
        # the factors form a divisibility chain, so the exponents ascend
        es = [e for e in (factorize(d).get(p, 0) for d in G.factors) if e]
        k = len(es)
        for i, e in enumerate(es, 1):
            d = max(l for l, f in enumerate(es, 1) if f == e)
            c = min(l for l, f in enumerate(es, 1) if f == e)
            count *= (p**d - p ** (i - 1)) * p ** (e * (k - d)) * p ** ((e - 1) * (k - c + 1))
    return count


def automorphism_tables(G: AbelianGroup, triangular: bool = False) -> list[list[int]]:
    """Every automorphism of G, or of T(G) with `triangular`, as its table of
    images (table[x] is the index of the image of x), identity first.

    A homomorphism is fixed by the images g_i of the generators e_i of the
    invariant factors d_i, and any g_i with d_i g_i = 0 give one.  The search
    picks g_1, g_2, ... in turn, keeping the table of the map on
    <e_1, ..., e_i>, which is the indices below d_1 ... d_i; the index
    x + t d_1 ... d_i maps to table[x] + t g_(i+1).  The map stays one-to-one
    exactly when no multiple t g_(i+1), 0 < t < d_(i+1), is already an image,
    and a one-to-one map of G into itself is onto.  The search takes one
    leaf per map listed, so ask `automorphism_count` first.

    T(G) is the group of the lower triangular maps with a unit diagonal,
    e_i -> u_i e_i + sum_{j<i} a_ij e_j with u_i a unit mod d_i: with
    `triangular` each g_i is taken from <e_1, ..., e_i> alone, where the
    check keeps just the g_i whose i-th coordinate is a unit.  It holds
    every unit scaling x -> ux, and on a cyclic group it is all of Aut(G),
    listed in the order of u.
    """
    n = G.order
    add = [[0]]  # add[a][b]: the index of a + b, built from the top factor down
    for d in reversed(G.factors):
        add = [[(x + y) % d + d * s for s in row for y in range(d)] for row in add for x in range(d)]
    tables: list[list[int]] = []

    def extend(i: int, table: list[int]) -> None:
        if i == len(G.factors):
            tables.append(table)
            return
        d = G.factors[i]
        seen = bytearray(n)
        for y in table:
            seen[y] = 1
        for g in range(1, len(table) * d if triangular else n):
            multiples, m = [], g
            for _ in range(d - 1):
                if seen[m]:
                    break
                multiples.append(m)
                m = add[m][g]
            else:
                if m == 0:
                    extend(i + 1, table + [add[y][tg] for tg in multiples for y in table])

    extend(0, [0])
    return tables


def subgroup_generated(G: AbelianGroup, S: GroupSubset) -> GroupSubset:
    """The subgroup <S>, grown from H = {0} by each s in S to H + <s>, the
    fixpoint of H |= H + s."""
    if S.group != G:
        raise ValueError(f"subset of {S.group.spec} used with {G.spec}")
    tr = G.translator()
    H = 1
    for s in S.indices():
        shifted = tr(H, s)
        while shifted & ~H:
            H |= shifted
            shifted = tr(shifted, s)
    return GroupSubset(G, H)


def is_generating(G: AbelianGroup, S: GroupSubset) -> bool:
    return subgroup_generated(G, S).bits == G.full_mask

