import doctest
import importlib
import inspect
import pkgutil
from itertools import product
from math import prod

import pytest

from groupsums import (
    AbelianGroup,
    GroupSpecError,
    GroupSubset,
    enumerate_groups_of_order,
    invariant_factors,
    is_generating,
    near_tight_construction,
    parse_group_spec,
    sigma,
    subgroup_generated,
    torsion_two,
)
from groupsums.groups import bit_indices, mask_of
import groupsums

from property_checks import all_groups_up_to, check_halving_counts


def test_module_doctests():
    # every module whose source holds an example must run one, wherever it moves
    found = []
    for info in pkgutil.iter_modules(groupsums.__path__):
        mod = importlib.import_module(f"groupsums.{info.name}")
        if ">>>" in inspect.getsource(mod):
            result = doctest.testmod(mod)
            assert result.failed == 0 and result.attempted > 0, info.name
            found.append(info.name)
    assert found


# -- parsing and canonical form --------------------------------------------


def test_parse_single_cyclic():
    G = parse_group_spec("Z9")
    assert G.factors == (9,)
    assert G.order == 9


def test_parse_exponent():
    assert parse_group_spec("Z2^3").factors == (2, 2, 2)


def test_parse_crt_collapse():
    assert parse_group_spec("Z2xZ3").factors == (6,)


def test_parse_mixed():
    assert parse_group_spec("Z2xZ4").factors == (2, 4)
    assert parse_group_spec("Z2 x Z4").factors == (2, 4)
    assert parse_group_spec("Z4xZ6").factors == (2, 12)


def test_crt_collapse_matches_raw_product():
    # independent check that Z2 x Z3 is cyclic of order 6: the raw product,
    # built with plain tuple arithmetic, has an element of additive order 6
    orders = []
    for a, b in product(range(2), range(3)):
        x, y = a, b
        k = 1
        while (x, y) != (0, 0):
            x, y = (x + a) % 2, (y + b) % 3
            k += 1
        orders.append(k)
    assert max(orders) == 6
    assert parse_group_spec("Z2xZ3") == parse_group_spec("Z6")


@pytest.mark.parametrize("bad", ["", "Z", "Z0", "Q5", "Z2^0", "Z2^", "Z2xx Z3", "Z-3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_parse_order_cap():
    assert parse_group_spec("Z2^20").order == 2**20
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z2^25")
    with pytest.raises(GroupSpecError):
        enumerate_groups_of_order(2**20 + 1)
    # a huge exponent is rejected before a list of its factors is built
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z2^" + "9" * 30)
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z3xZ2^20000000")
    assert parse_group_spec("Z1^" + "9" * 30 + "xZ6").factors == (6,)
    # a number past the interpreter's int() digit limit is a spec error
    for text in ("Z" + "9" * 5000, "Z2^" + "9" * 5000, "Z1^" + "9" * 5000):
        with pytest.raises(GroupSpecError, match="in 'Z"):
            parse_group_spec(text)


def test_invariant_factor_chain_enforced():
    with pytest.raises(GroupSpecError):
        AbelianGroup((3, 2))
    with pytest.raises(GroupSpecError):
        AbelianGroup((2, 3))
    with pytest.raises(GroupSpecError):
        AbelianGroup((1, 4))


@pytest.mark.parametrize("factor", [2.5, 6.0, "6", 1.0])
def test_non_integer_factors_rejected(factor):
    with pytest.raises(GroupSpecError, match=repr(factor)):
        AbelianGroup((factor,))
    with pytest.raises(GroupSpecError, match=repr(factor)):
        AbelianGroup.cyclic(factor)


@pytest.mark.parametrize("n", [8.0, 7.0, "8"])
def test_non_integer_orders_rejected(n):
    """An order that is not an integer is an error that names it, whether
    or not its value is a whole number with groups of that order."""
    with pytest.raises(GroupSpecError, match=f"order {repr(n)} is not an integer"):
        enumerate_groups_of_order(n)


def test_invariant_factors_helper():
    assert invariant_factors([12, 60]) == (12, 60)
    assert invariant_factors([8, 2, 4]) == (2, 4, 8)
    assert invariant_factors([]) == ()


def test_spec_rendering_round_trips():
    groups = all_groups_up_to(64)
    assert groups[0] == AbelianGroup(()) and groups[0].spec == "Z1"
    for G in groups:
        assert parse_group_spec(G.spec) == G
    assert parse_group_spec("Z1xZ6") == parse_group_spec("Z6")


# -- element encoding and arithmetic ----------------------------------------


def test_encoding_bijection():
    for G in all_groups_up_to(36):
        indices = [G.tuple_to_index(t) for t in product(*map(range, G.factors))]
        assert sorted(indices) == list(range(G.order)), G.spec


def test_first_factor_varies_fastest():
    G = parse_group_spec("Z2xZ4")
    assert [G.tuple_to_index(t) for t in [(0, 0), (1, 0), (0, 1), (1, 1)]] == [0, 1, 2, 3]


def test_add_examples():
    Z9 = parse_group_spec("Z9")
    assert Z9.add_index(4, 7) == 2
    G = parse_group_spec("Z2xZ4")
    x = G.tuple_to_index((1, 3))
    y = G.tuple_to_index((1, 2))
    assert G.add_index(x, y) == G.tuple_to_index((0, 1))


def test_inverse_law():
    for G in all_groups_up_to(24):
        for i in range(G.order):
            assert G.add_index(i, G.neg_table[i]) == 0
            assert G.add_index(0, i) == i


def test_translate_matches_addition():
    import random

    rng = random.Random(99)
    for G in all_groups_up_to(32):
        tr = G.translator()
        for bits in [rng.getrandbits(G.order) for _ in range(3)]:
            A = GroupSubset(G, bits)
            for g in range(G.order):
                expect = 0
                b = bits
                while b:
                    low = b & -b
                    expect |= 1 << G.add_index(low.bit_length() - 1, g)
                    b ^= low
                assert tr(bits, g) == expect, (G.spec, bits, g)
                assert A.translate(g).bits == expect, (G.spec, bits, g)


def test_translator_is_cached_and_filled_lazily():
    G = parse_group_spec("Z2^12")
    tr = G.translator()
    assert G.translator() is tr
    assert sigma(GroupSubset.from_indices(G, [1, 2, 4])).cardinality == 7
    (table,) = [c.cell_contents for c in tr.__closure__ if isinstance(c.cell_contents, dict)]
    assert sorted(table) == [1, 2, 4]
    # the masked shift for each (coordinate, r) is made once, and 7 = 1 + 2 + 4 shares all three
    tr(1, 7)
    assert [id(op) for op in table[7]] == [id(table[g][0]) for g in (1, 2, 4)]


def test_tables_are_built_on_first_use():
    G = parse_group_spec("Z2^16")
    assert G._neg_table is None and G._double_table is None
    assert G.neg_table[5] == 5 and G._double_table is None
    assert torsion_two(G).cardinality == G.order
    for H in all_groups_up_to(24):
        for i in range(H.order):
            assert H.double_table[i] == H.add_index(i, i)


# -- torsion and halvings ------------------------------------------------------


def test_torsion_examples():
    assert torsion_two(parse_group_spec("Z9")).indices() == (0,)
    assert torsion_two(parse_group_spec("Z6")).indices() == (0, 3)
    t = torsion_two(parse_group_spec("Z2xZ4"))
    assert t.indices() == (0, 1, 4, 5)
    assert t.cardinality == 4


def test_halving_examples():
    Z9 = parse_group_spec("Z9")
    Z6 = parse_group_spec("Z6")
    assert Z9.double_table.count(5) == 1
    assert Z6.double_table.count(1) == 0
    assert Z6.double_table.count(2) == 2


def test_halving_counts_up_to_64():
    assert check_halving_counts(64) > 100


# -- subgroups ------------------------------------------------------------------


def test_subgroup_closure_example():
    Z9 = parse_group_spec("Z9")
    S = GroupSubset.from_indices(Z9, [3, 6])
    assert subgroup_generated(Z9, S).indices() == (0, 3, 6)
    assert not is_generating(Z9, S)


def test_singleton_one_generates():
    for m in (2, 5, 9, 12):
        G = AbelianGroup.cyclic(m)
        assert is_generating(G, GroupSubset.from_indices(G, [1]))


def test_empty_set_generates_trivial_subgroup():
    for G in (parse_group_spec("Z5"), parse_group_spec("Z2xZ4")):
        assert subgroup_generated(G, GroupSubset(G, 0)).indices() == (0,)
        assert not is_generating(G, GroupSubset(G, 0))


def test_subgroup_closure_is_subgroup():
    import random

    rng = random.Random(5)
    for G in all_groups_up_to(20):
        if G.order < 2:
            continue
        S = GroupSubset.from_indices(G, rng.sample(range(G.order), min(3, G.order)))
        H = subgroup_generated(G, S)
        for x in H.indices():
            assert G.neg_table[x] in H
            for y in H.indices():
                assert G.add_index(x, y) in H


# -- classification -----------------------------------------------------------


def test_enumerate_examples():
    assert [g.factors for g in enumerate_groups_of_order(8)] == [(8,), (2, 4), (2, 2, 2)]
    assert [g.factors for g in enumerate_groups_of_order(6)] == [(6,)]
    assert [g.factors for g in enumerate_groups_of_order(12)] == [(12,), (2, 6)]
    assert [g.factors for g in enumerate_groups_of_order(1)] == [()]


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_groups_of_order(0)


def _partition_count(e: int) -> int:
    counts = [1] + [0] * e
    for part in range(1, e + 1):
        for total in range(part, e + 1):
            counts[total] += counts[total - part]
    return counts[e]


def test_enumerate_count_matches_partition_numbers():
    from groupsums.groups import factorize

    for n in range(1, 65):
        expected = prod(_partition_count(e) for e in factorize(n).values()) if n > 1 else 1
        groups = enumerate_groups_of_order(n)
        assert len(groups) == expected
        assert len({g.factors for g in groups}) == len(groups)
        for g in groups:
            assert g.order == n


# -- subsets as bit-vectors ------------------------------------------------------


def test_subset_basics():
    Z6 = parse_group_spec("Z6")
    A = GroupSubset.from_indices(Z6, [5, 1, 3])
    assert A.indices() == (1, 3, 5)
    assert len(A) == 3 and list(A) == [1, 3, 5]
    assert 3 in A and 2 not in A
    assert A.complement().indices() == (0, 2, 4)
    assert (A | GroupSubset.from_indices(Z6, [0])).indices() == (0, 1, 3, 5)
    assert (A & GroupSubset.from_indices(Z6, [1, 2])).indices() == (1,)
    assert (A - GroupSubset.from_indices(Z6, [1])).indices() == (3, 5)
    assert A.map_indices(Z6.neg_table).indices() == (1, 3, 5)
    assert A.translate(1).indices() == (0, 2, 4)
    assert A == GroupSubset.from_indices(Z6, [1, 3, 5])
    assert hash(A) == hash(GroupSubset.from_indices(Z6, [1, 3, 5]))


def test_subset_cross_group_ops_rejected():
    Z6 = parse_group_spec("Z6")
    Z7 = parse_group_spec("Z7")
    with pytest.raises(ValueError):
        GroupSubset.from_indices(Z6, [1]) | GroupSubset.from_indices(Z7, [1])


def test_subset_overlong_bits_rejected():
    Z6 = parse_group_spec("Z6")
    with pytest.raises(ValueError):
        GroupSubset(Z6, 1 << 6)


def test_subset_index_out_of_range_rejected():
    Z6 = parse_group_spec("Z6")
    A = GroupSubset.from_indices(Z6, [0, 2])
    for bad in (6, -1):
        with pytest.raises(ValueError):
            GroupSubset.from_indices(Z6, [bad])
    # a bytearray would wrap a negative index without an error
    for bad in (6, 7, -1, -6):
        with pytest.raises(ValueError):
            A.map_indices([0, 1, bad, 3, 4, 5])
        with pytest.raises(ValueError, match=f"index {bad} out of range"):
            mask_of([0, bad], 6)


@pytest.mark.parametrize("bad", [2.0, 1.5, "1", None])
def test_non_integer_indices_rejected(bad):
    G = parse_group_spec("Z2xZ6")
    A = GroupSubset.from_indices(G, [1, 2])
    for use in (lambda: G.tuple_to_index((bad, 0)), lambda: G.tuple_to_index((1, bad)),
                lambda: GroupSubset.from_indices(G, [bad]), lambda: bad in A,
                lambda: A.translate(bad), lambda: mask_of([bad], 12)):
        with pytest.raises(TypeError):
            use()
    assert G.tuple_to_index((True, 2)) == 5 and GroupSubset.from_indices(G, [True]).indices() == (1,)


# -- building a mask ----------------------------------------------------------


def _per_bit(indices) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def test_mask_of_inverts_bit_indices():
    import random

    rng = random.Random(35)
    for n in (0, 1, 7, 8, 9, 64, 65, 1000):
        for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            indices = bit_indices(mask)
            assert mask_of(indices, n) == mask, (n, mask)
            # the order of the indices and repeats do not matter
            shuffled = indices + rng.choices(indices, k=len(indices) // 2)
            rng.shuffle(shuffled)
            assert mask_of(iter(shuffled), n) == mask, (n, mask)


def _near_tight_per_bit(G: AbelianGroup) -> int:
    """The near-tight set as an ascending scan builds it: every involution
    but 0, then the first unseen member of each pair {x, -x}."""
    involutions = _per_bit(i for i, d in enumerate(G.double_table) if d == 0)
    bits, seen = involutions & ~1, 0
    for x in range(G.order):
        if not (seen | involutions) >> x & 1:
            bits |= 1 << x
            seen |= 1 << x | 1 << G.neg_table[x]
    return bits


def test_one_pass_masks_match_per_bit_masks():
    import random

    rng = random.Random(64)
    for G in all_groups_up_to(64):
        n = G.order
        assert torsion_two(G).bits == _per_bit(i for i in range(n) if G.add_index(i, i) == 0), G.spec
        if n >= 2:
            assert near_tight_construction(G).bits == _near_tight_per_bit(G), G.spec
        indices = rng.choices(range(n), k=rng.randint(0, 2 * n))
        A = GroupSubset.from_indices(G, indices)
        assert A.bits == _per_bit(indices), G.spec
        perm = rng.sample(range(n), n)
        assert A.map_indices(perm).bits == _per_bit(perm[i] for i in indices), G.spec
        assert A.map_indices(G.neg_table).bits == _per_bit(G.neg_table[i] for i in indices), G.spec
