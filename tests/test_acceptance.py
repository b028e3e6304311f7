"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers after asserting the criterion at its stated budget.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as they go.
The property suites of `property_checks.py` are run once each, by the
tests named after them in `test_subsets.py` and `test_groups.py`.
"""

import time
from math import comb

from groupsums import (
    AbelianGroup,
    GroupSubset,
    REFUTED,
    VACUOUS,
    VERIFIED,
    critical_number,
    enumerate_groups_of_order,
    near_tight_construction,
    pair_cover,
    parse_group_spec,
    search_lemma2_counterexamples,
    sigma,
    tight_example,
    torsion_two,
    verify_pair_cover_threshold,
    verify_subset_sum_bound,
    verify_three_fold_cover,
)


def _passed(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_lemma2_falsification():
    t0 = time.perf_counter()
    witnesses_seen = 0
    for m in range(4, 21, 2):
        v = search_lemma2_counterexamples(m)
        assert v.status == REFUTED, m
        assert len(v.witnesses) >= 1, m
        witnesses_seen += len(v.witnesses)
        if m % 4 == 2:
            G = AbelianGroup.cyclic(m)
            two_missing = [
                w for w in v.witnesses
                if pair_cover(GroupSubset.from_indices(G, w)).cardinality == m - 2
            ]
            assert two_missing, f"no two-missing witness reported for m={m}"
    for m in range(5, 18, 2):
        v = search_lemma2_counterexamples(m)
        assert v.status == VERIFIED, m
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"lemma2 falsification took {elapsed:.1f}s"
    _passed("1", f"even m=4..20 refuted, odd m=5..17 verified, {elapsed:.2f}s")


def test_criterion_2_near_tight_construction():
    t0 = time.perf_counter()
    classes = 0
    for n in range(2, 33):
        for G in enumerate_groups_of_order(n):
            A = near_tight_construction(G)
            assert 2 * A.cardinality == G.order + torsion_two(G).cardinality - 2, G.spec
            assert pair_cover(A).bits != G.full_mask, G.spec
            classes += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"construction sweep took {elapsed:.1f}s"
    _passed("2", f"{classes} isomorphism classes of order 2..32, {elapsed:.2f}s")


def test_criterion_3_pair_cover_threshold():
    t0 = time.perf_counter()
    statuses = []
    for n in range(1, 17):
        for G in enumerate_groups_of_order(n):
            v = verify_pair_cover_threshold(G)
            assert v.status in (VERIFIED, VACUOUS), (G.spec, v.status)
            statuses.append(v.status)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"threshold sweep took {elapsed:.1f}s"
    _passed("3", f"{statuses.count('verified')} verified / {statuses.count('vacuous')} vacuous, {elapsed:.2f}s")


def test_criterion_4_subset_sum_bound():
    t0 = time.perf_counter()
    orders_seen = set()
    for n in range(1, 17):
        for G in enumerate_groups_of_order(n):
            v = verify_subset_sum_bound(G, 5)
            assert v.status == VERIFIED, G.spec
            orders_seen.add(n)
    for m in range(17, 20):
        assert verify_subset_sum_bound(AbelianGroup.cyclic(m), 5).status == VERIFIED
    assert {6, 8, 10} <= orders_seen  # residual even orders explicitly swept
    t20 = time.perf_counter()
    v20 = verify_subset_sum_bound(AbelianGroup.cyclic(20), 5)
    dt20 = time.perf_counter() - t20
    assert v20.status == VERIFIED
    assert v20.checked == (1 << 19) - sum(comb(19, j) for j in range(5)) == 519252
    assert dt20 < 10.0, f"order-20 run took {dt20:.1f}s"
    elapsed = time.perf_counter() - t0
    _passed("4", f"abelian <=16 and cyclic <=20 verified; Z20 scan {dt20:.2f}s of 10s budget, total {elapsed:.2f}s")


def test_criterion_5_critical_numbers():
    t0 = time.perf_counter()
    table = [
        ("Z4", 3), ("Z6", 4), ("Z8", 5), ("Z2^2", 3), ("Z2xZ4", 5),
        ("Z2^3", 4), ("Z10", 5), ("Z12", 6), ("Z2xZ6", 6), ("Z14", 7),
    ]
    got = []
    for spec, expected in table:
        c, v = critical_number(parse_group_spec(spec))
        assert c == expected, (spec, c, expected)
        assert v.params["matches_known"] is True
        got.append(c)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"critical numbers took {elapsed:.1f}s"
    assert got == [3, 4, 5, 3, 5, 4, 5, 6, 6, 7]
    _passed("5", f"critical numbers {got}, {elapsed:.2f}s")


def test_criterion_6_three_fold_cover():
    t0 = time.perf_counter()
    expected_counts = {12: 792, 14: 3003, 16: 11440}
    for m, count in expected_counts.items():
        v = verify_three_fold_cover(m)
        assert v.status == VERIFIED, m
        assert v.checked == count, (m, v.checked)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"three-fold cover took {elapsed:.1f}s"
    _passed("6", f"m=12,14,16 verified ({sum(expected_counts.values())} subsets), {elapsed:.2f}s")


def test_criterion_7_tight_example():
    for k in range(3, 13):
        G, S = tight_example(k)
        assert sigma(S).cardinality == 2 * k, k
    G15, S15 = tight_example(5)
    v = verify_subset_sum_bound(G15, 5)
    assert list(S15.indices()) in v.witnesses, "tight k=5 set missing from Z15 equality witnesses"
    _passed("7", "sigma counts are exactly 2k for k=3..12; k=5 set among Z15 equality witnesses")

