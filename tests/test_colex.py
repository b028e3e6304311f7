from itertools import combinations

import pytest

from groupsums.colex import mask_of, rank, unrank


def test_rank_unrank_round_trip():
    for n, k in [(6, 3), (8, 4), (10, 2), (5, 5), (7, 1)]:
        for combo in combinations(range(n), k):
            r = rank(combo)
            assert unrank(r, k) == combo


def test_rank_order_is_mask_order():
    for n, k in [(7, 3), (9, 4)]:
        combos = list(combinations(range(n), k))
        by_rank = sorted(combos, key=rank)
        by_mask = sorted(combos, key=mask_of)
        assert by_rank == by_mask
        assert [rank(c) for c in by_rank] == list(range(len(combos)))


def test_unrank_rejects_nonsense():
    with pytest.raises(ValueError):
        unrank(-1, 3)

