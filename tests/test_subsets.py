import pytest

from groupsums import (
    AbelianGroup,
    GroupSubset,
    h_hat,
    naive_subset_sums,
    pair_cover,
    parse_group_spec,
    sigma,
)

from property_checks import (
    check_automorphism_equivariance,
    check_cardinality_bounds,
    check_complement_identity,
    check_intersection_bound,
    check_monotonicity,
    check_negation_equivariance,
    check_oracle_equivalence_exhaustive,
    check_oracle_equivalence_random,
)


def subset(spec: str, indices) -> GroupSubset:
    return GroupSubset.from_indices(parse_group_spec(spec), indices)


# -- h_hat ---------------------------------------------------------------------


def test_h_hat_pairs_z6():
    assert h_hat(subset("Z6", [1, 2, 3]), 2).indices() == (3, 4, 5)


def test_h_hat_pairs_z8():
    assert h_hat(subset("Z8", [1, 2, 3, 4]), 2).indices() == (3, 4, 5, 6, 7)


def test_h_hat_single_is_identity():
    A = subset("Z11", [2, 5, 7])
    assert h_hat(A, 1) == A


def test_h_hat_full_size_is_total_sum():
    A = subset("Z11", [2, 5, 7])
    assert h_hat(A, 3).indices() == (3,)


def test_h_hat_empty_sum_convention():
    A = subset("Z6", [1, 2])
    assert h_hat(A, 0).indices() == (0,)
    assert h_hat(GroupSubset(parse_group_spec("Z6"), 0), 0).indices() == (0,)


def test_h_hat_oversize_empty():
    A = subset("Z6", [1, 2])
    assert h_hat(A, 3).cardinality == 0


def test_h_hat_negative_rejected():
    with pytest.raises(ValueError):
        h_hat(subset("Z6", [1]), -1)


def test_h_hat_zero_member_allowed():
    A = subset("Z6", [0, 1, 2])
    assert h_hat(A, 2) == naive_subset_sums(A, 2)
    assert h_hat(A, 2).indices() == (1, 2, 3)


# -- sigma ----------------------------------------------------------------------


def test_sigma_z9_tight_set():
    s = sigma(subset("Z9", [1, 3, 6]))
    assert s.indices() == (0, 1, 3, 4, 6, 7)
    assert s.cardinality == 6


def test_sigma_empty():
    assert sigma(GroupSubset(parse_group_spec("Z9"), 0)).cardinality == 0


def test_sigma_singleton():
    assert sigma(subset("Z9", [5])).indices() == (5,)


# -- pair cover -------------------------------------------------------------------


def test_pair_cover_half_interval_misses_zero():
    assert pair_cover(subset("Z6", [1, 2, 3])).indices() == (1, 2, 3, 4, 5)


def test_pair_cover_mod4_set_misses_two():
    assert pair_cover(subset("Z6", [1, 3, 4])).indices() == (1, 3, 4, 5)


def test_pair_cover_empty():
    assert pair_cover(GroupSubset(parse_group_spec("Z6"), 0)).cardinality == 0


# -- naive oracle ------------------------------------------------------------------


def test_naive_matches_frozen_examples():
    assert naive_subset_sums(subset("Z6", [1, 2, 3]), 2).indices() == (3, 4, 5)
    assert naive_subset_sums(subset("Z8", [1, 2, 3, 4]), 2).indices() == (3, 4, 5, 6, 7)
    assert naive_subset_sums(subset("Z9", [1, 3, 6])).indices() == (0, 1, 3, 4, 6, 7)
    assert naive_subset_sums(subset("Z7", [5]), 2).cardinality == 0


def test_naive_cap_enforced():
    G = AbelianGroup.cyclic(30)
    big = GroupSubset.from_indices(G, range(1, 23))
    with pytest.raises(ValueError):
        naive_subset_sums(big)
    small = GroupSubset.from_indices(G, range(1, 9))
    with pytest.raises(ValueError):
        naive_subset_sums(small, cap=7)
    assert naive_subset_sums(small, cap=8) == sigma(small)


# -- property suites ------------------------------------------------------------------


def test_oracle_equivalence_exhaustive_small_orders():
    assert check_oracle_equivalence_exhaustive(12) > 0


def test_oracle_equivalence_random_orders():
    check_oracle_equivalence_random(32)


def test_monotonicity():
    # what lets the cover verifiers enumerate only the minimal subset size
    check_monotonicity()


def test_sigma_decomposes_into_h_hat_layers():
    import random

    rng = random.Random(3)
    for G in [parse_group_spec(s) for s in ("Z7", "Z12", "Z2xZ4", "Z3x Z9", "Z16")]:
        for _ in range(15):
            A = GroupSubset.from_indices(G, rng.sample(range(G.order), rng.randint(0, min(8, G.order))))
            union = 0
            for h in range(1, A.cardinality + 1):
                union |= h_hat(A, h).bits
            assert union == sigma(A).bits


def test_complement_identity():
    check_complement_identity()


def test_negation_equivariance():
    check_negation_equivariance()


def test_automorphism_equivariance():
    check_automorphism_equivariance()


def test_cardinality_bounds():
    check_cardinality_bounds()


def test_intersection_bound_above_threshold():
    check_intersection_bound(12)
