from itertools import combinations

from groupsums.colex import rank


def test_rank_order_is_mask_order():
    for n, k in [(7, 3), (9, 4)]:
        combos = list(combinations(range(n), k))
        by_rank = sorted(combos, key=rank)
        by_mask = sorted(combos, key=lambda c: sum(1 << i for i in c))
        assert by_rank == by_mask
        assert [rank(c) for c in by_rank] == list(range(len(combos)))
