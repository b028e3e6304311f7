import json
import random
import sys
import types
from itertools import combinations
from math import comb, prod
from unittest import mock

import pytest

from groupsums import (
    AbelianGroup,
    BudgetExceededError,
    GroupSubset,
    REFUTED,
    VACUOUS,
    VERIFIED,
    Verdict,
    critical_number,
    enumerate_groups_of_order,
    is_generating,
    naive_subset_sums,
    pair_cover,
    parse_group_spec,
    search_lemma2_counterexamples,
    sigma,
    sweep,
    verify_pair_cover_threshold,
    verify_subset_sum_bound,
    verify_three_fold_cover,
)
from groupsums.groups import MAX_ORDER, GroupSpecError, automorphism_count, automorphism_tables, bit_indices
from groupsums.verify import (
    OPTIONS,
    STATEMENTS,
    ScanStats,
    _MAX_LANE_BITS,
    _Lanes,
    _known_critical_value,
    _lane_tables,
    _misses_a_class,
    _scan_bound_sweep,
    _scan_pair_cover,
    _scan_sigma_lattice,
    _scan_three_fold,
    dumps,
)

from property_checks import (
    _expected_cover_stats,
    all_groups_up_to,
    check_orbit_walks_match_plain_walks,
    check_cover_scans_brute_force,
    check_dead_targets_stay_dead,
    check_pair_cover_walk_is_exact,
    check_subset_sum_scans_brute_force,
    check_thm4_matches_full_scan,
    check_three_fold_scan_on_thm4_orders,
    orbit_check_groups,
    triangular_maps,
)

MAX_JOBS = OPTIONS["jobs"].greatest
DEFAULT_WITNESS_CAP = OPTIONS["witness_cap"].default

# The walks of the scans: `rec` inside `_scan_pair_cover`, `_scan_bound_sweep`
# and `_scan_sigma_lattice`, and `rec3` inside `_scan_three_fold`.  Each walk
# tests a child's prunes in the parent's loop, so every call but the root's
# is a node that passed them.
_WALKS = frozenset(code for scan in (_scan_pair_cover, _scan_three_fold, _scan_bound_sweep,
                                     _scan_sigma_lattice)
                   for code in scan.__code__.co_consts
                   if isinstance(code, types.CodeType) and code.co_name in ("rec", "rec3"))


def _walk_calls(run):
    """What `run()` returns and the number of calls it makes to the walks of
    the scans, which is a count of nodes entered, the same on every machine.
    Only the walks' own code objects count, so a helper of the same name
    elsewhere cannot inflate a pin."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in _WALKS:
            calls += 1

    sys.setprofile(count)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, calls


# -- pair-cover threshold -------------------------------------------------------


def test_threshold_z5():
    v = verify_pair_cover_threshold(parse_group_spec("Z5"))
    assert v.status == VERIFIED
    assert v.params["threshold_size"] == 3
    assert v.checked == 4


def test_threshold_z6():
    v = verify_pair_cover_threshold(parse_group_spec("Z6"))
    assert v.status == VERIFIED
    assert v.params["threshold_size"] == 4
    assert v.checked == 5


def test_threshold_vacuous_on_elementary_two_groups():
    v = verify_pair_cover_threshold(parse_group_spec("Z2^2"))
    assert v.status == VACUOUS
    assert v.params["threshold_size"] == 4
    assert v.checked == 0 and v.witnesses == []
    # vacuity is decided without enumeration, so the budget is irrelevant
    big = verify_pair_cover_threshold(parse_group_spec("Z2^8"))
    assert big.status == VACUOUS


def test_threshold_sweep_small_orders_never_refuted():
    for v in sweep("prop3.2", range(1, 17)):
        assert v.status in (VERIFIED, VACUOUS), v.group


def test_threshold_scan_is_settled_at_the_root():
    """At the root of a prop3.2 scan the pair-aware look-ahead bound is the
    paper's counting bound, which is below the threshold, so the scan makes
    O(|G|) translator calls rather than one per node.  A weaker look-ahead
    changes no certificate; this count is what pins it."""
    statuses = []
    for n in range(1, 65):
        for G in enumerate_groups_of_order(n):
            calls = 0
            tr = G.translator()

            def counting(bits, g):
                nonlocal calls
                calls += 1
                return tr(bits, g)

            G._translator = counting
            v = verify_pair_cover_threshold(G, budget=64)
            statuses.append(v.status)
            if v.status != VACUOUS:
                assert 0 < calls <= 4 * n, (G.spec, calls)
    assert (statuses.count(VERIFIED), statuses.count(VACUOUS)) == (110, 7)


def test_a_settled_root_makes_two_translates_per_element():
    """A prop3.2 root that settles the scan makes at most two translator
    calls per element x: x - A for its candidates ok, and x - avail for
    its pairs, which is x - ok with A and 0 added, and ok holds neither.
    It builds neither lanes nor `upper`.  Every group of order <= 64."""
    for n in range(1, 65):
        for G in enumerate_groups_of_order(n):
            tr, calls = G.translator(), []
            G._translator = lambda bits, g: calls.append(g) or tr(bits, g)
            if verify_pair_cover_threshold(G, budget=64).status == VERIFIED:
                assert 0 < len(calls) <= 2 * n, (G.spec, len(calls))


def test_threshold_checks_jobs_and_cap_before_vacuity():
    for spec in ("Z2^2", "Z2^3", "Z5"):
        G = parse_group_spec(spec)
        for kwargs in ({"jobs": 0, "witness_cap": -5}, {"jobs": 0}, {"witness_cap": -1}, {"budget": 0}):
            with pytest.raises(ValueError):
                verify_pair_cover_threshold(G, **kwargs)
    with pytest.raises(ValueError):
        sweep("prop3.2", range(1, 3), jobs=0)


def test_order_of_checks():
    # the budget is checked before the cyclic group is built, which would
    # raise GroupSpecError above the largest supported order
    for run in (search_lemma2_counterexamples, verify_three_fold_cover):
        with pytest.raises(BudgetExceededError):
            run(2**21)
    # prop3.2 decides vacuity before the budget
    assert verify_pair_cover_threshold(parse_group_spec("Z2^8"), budget=1).status == VACUOUS
    with pytest.raises(BudgetExceededError):
        verify_pair_cover_threshold(parse_group_spec("Z5"), budget=4)


# -- lemma-2 counterexample search ------------------------------------------------


FROZEN_LEMMA2 = {
    4: (3, {"1": 3}),
    6: (6, {"1": 4, "2": 2}),
    8: (20, {"1": 20}),
    10: (42, {"1": 36, "2": 6}),
    12: (105, {"1": 98, "2": 7}),
    14: (244, {"1": 232, "2": 12}),
}


def test_lemma2_m6_full_witness_list():
    v = search_lemma2_counterexamples(6)
    assert v.status == REFUTED
    assert v.checked == 10
    assert v.params["violations"] == 6
    assert v.params["deficiency_histogram"] == {"1": 4, "2": 2}
    assert v.witnesses == [[1, 2, 3], [1, 3, 4], [1, 2, 5], [2, 3, 5], [1, 4, 5], [3, 4, 5]]


def test_lemma2_m7_verified():
    v = search_lemma2_counterexamples(7)
    assert v.status == VERIFIED
    assert v.checked == 15
    assert v.params["violations"] == 0
    assert v.witnesses == []


def test_lemma2_m10_two_missing_witness():
    v = search_lemma2_counterexamples(10)
    assert v.status == REFUTED
    assert [1, 2, 5, 6, 7] in v.witnesses
    missing = pair_cover(GroupSubset.from_indices(parse_group_spec("Z10"), [1, 2, 5, 6, 7])).complement()
    assert missing.indices() == (0, 4)


@pytest.mark.parametrize("m", sorted(FROZEN_LEMMA2))
def test_lemma2_frozen_counts(m):
    v = search_lemma2_counterexamples(m)
    violations, hist = FROZEN_LEMMA2[m]
    assert v.status == REFUTED
    assert v.checked == comb(m - 1, m // 2)
    assert v.params["violations"] == violations
    assert v.params["deficiency_histogram"] == hist


@pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
def test_lemma2_odd_agrees_with_threshold_verifier(m):
    a = search_lemma2_counterexamples(m)
    b = verify_pair_cover_threshold(AbelianGroup.cyclic(m))
    assert a.status == b.status == VERIFIED
    assert a.checked == b.checked
    assert a.params["subset_size"] == b.params["threshold_size"]


def test_lemma2_witnesses_are_genuine():
    G = parse_group_spec("Z12")
    v = search_lemma2_counterexamples(12)
    for w in v.witnesses:
        A = GroupSubset.from_indices(G, w)
        assert 2 * A.cardinality >= 12
        assert 0 not in A
        cover = A | naive_subset_sums(A, 2)
        assert cover.bits != G.full_mask


def test_lemma2_deficiency_reps_survive_a_small_cap():
    v = search_lemma2_counterexamples(10, witness_cap=2)
    assert len(v.witnesses) == 2
    assert [1, 2, 3, 4, 5] in v.witnesses
    assert [1, 2, 5, 6, 7] in v.witnesses


def test_lemma2_deficiency_witnesses_across_even_orders():
    from groupsums import even_counterexample, two_mod_four_counterexample

    for m in range(4, 21, 2):
        v = search_lemma2_counterexamples(m)
        G = AbelianGroup.cyclic(m)
        deficiencies = {
            m - pair_cover(GroupSubset.from_indices(G, w)).cardinality for w in v.witnesses
        }
        # the half-interval counterexample is the colex-first violation, so a
        # one-missing witness is always reported
        assert list(even_counterexample(m)[1].indices()) in v.witnesses
        assert 1 in deficiencies
        if m % 4 == 2:
            assert 2 in deficiencies
            assert list(two_mod_four_counterexample(m)[1].indices()) in v.witnesses


def test_jobs_and_witness_cap_validated(monkeypatch):
    with pytest.raises(ValueError):
        search_lemma2_counterexamples(8, jobs=0)
    with pytest.raises(ValueError):
        verify_subset_sum_bound(parse_group_spec("Z7"), witness_cap=-1)
    # thm4 checks them before its class passes
    for kwargs in ({"jobs": 0}, {"witness_cap": -1}):
        with pytest.raises(ValueError):
            verify_three_fold_cover(12, **kwargs)
    # too many jobs is refused
    assert MAX_JOBS == 64
    for run in (
        lambda jobs: search_lemma2_counterexamples(16, jobs=jobs),
        lambda jobs: verify_three_fold_cover(12, jobs=jobs),
        lambda jobs: verify_pair_cover_threshold(parse_group_spec("Z7"), jobs=jobs),
        lambda jobs: sweep("thm1", [4], jobs=jobs),
    ):
        with pytest.raises(ValueError):
            run(MAX_JOBS + 1)
    assert verify_pair_cover_threshold(parse_group_spec("Z7"), jobs=MAX_JOBS).status == VERIFIED
    # every option, and the m that lemma2 and thm4 take, is read through
    # `operator.index`: a float is a `TypeError` before any walk runs, and
    # it names its value
    for scan in ("_scan_pair_cover", "_scan_three_fold", "_scan_bound_sweep", "_scan_sigma_lattice"):
        monkeypatch.setattr(f"groupsums.verify.{scan}", mock.Mock(side_effect=AssertionError("a walk ran")))
    Z12 = parse_group_spec("Z12")
    for run, named in (
        (lambda: critical_number(Z12, witness_cap=0.5), "witness_cap=0.5"),
        (lambda: verify_pair_cover_threshold(Z12, jobs=1.5), "jobs=1.5"),
        (lambda: verify_pair_cover_threshold(Z12, budget=30.5), "budget=30.5"),
        (lambda: verify_pair_cover_threshold(parse_group_spec("Z2^3"), budget=30.5), "budget=30.5"),
        (lambda: sweep("thm4", range(1, 5), budget=2.5), "budget=2.5"),
        (lambda: verify_three_fold_cover(12, witness_cap=2.5), "witness_cap=2.5"),
        (lambda: verify_subset_sum_bound(Z12, 2.5), "min_size=2.5"),
        (lambda: sweep("thm1", [4], min_size=2.5), "min_size=2.5"),
        (lambda: search_lemma2_counterexamples(12, jobs=2.0), "jobs=2.0"),
        (lambda: sweep("thm5", [12], witness_cap=1.0), "witness_cap=1.0"),
        (lambda: search_lemma2_counterexamples(3.0), "m=3.0"),
        (lambda: verify_three_fold_cover(12.0), "m=12.0"),
    ):
        with pytest.raises(TypeError, match=named):
            run()


def test_lemma2_rejects_tiny_m():
    with pytest.raises(ValueError):
        search_lemma2_counterexamples(2)


def test_lemma2_budget():
    with pytest.raises(BudgetExceededError):
        search_lemma2_counterexamples(30)
    raised = search_lemma2_counterexamples(26, budget=26)
    assert raised.status == REFUTED


# -- subset-sum bound ---------------------------------------------------------------


def test_bound_z6_residual_case():
    v = verify_subset_sum_bound(parse_group_spec("Z6"))
    assert v.status == VERIFIED
    assert v.checked == 1  # only {1,2,3,4,5} has size >= 5


def test_bound_z9_candidate_count():
    v = verify_subset_sum_bound(parse_group_spec("Z9"))
    assert v.status == VERIFIED
    assert v.checked == 93
    assert v.params == {"min_size": 5, "violations": 0, "equality_count": 0}


FROZEN_EQUALITY_COUNTS = {
    "Z10": 0,
    "Z11": 10,
    "Z12": 5,
    "Z13": 12,
    "Z14": 9,
    "Z15": 18,
    "Z16": 10,
    "Z2xZ6": 3,
    "Z2xZ4": 0,
    "Z2^3": 0,
    "Z3^2": 0,
}

FROZEN_CANDIDATES = {"Z12": 1486, "Z13": 3302, "Z14": 7099, "Z15": 14913, "Z16": 30827}


@pytest.mark.parametrize("spec", sorted(FROZEN_EQUALITY_COUNTS))
def test_bound_frozen_equality_counts(spec):
    G = parse_group_spec(spec)
    v = verify_subset_sum_bound(G)
    assert v.status == VERIFIED
    assert v.params["violations"] == 0
    assert v.params["equality_count"] == FROZEN_EQUALITY_COUNTS[spec]
    if spec in FROZEN_CANDIDATES:
        assert v.checked == FROZEN_CANDIDATES[spec]


def test_bound_z15_equality_witnesses():
    v = verify_subset_sum_bound(parse_group_spec("Z15"), witness_cap=32)
    expected = [
        [3, 4, 7, 8, 11], [1, 3, 6, 9, 12], [2, 3, 6, 9, 12], [3, 4, 6, 9, 12],
        [3, 5, 6, 9, 12], [3, 6, 7, 9, 12], [3, 6, 8, 9, 12], [3, 6, 9, 10, 12],
        [4, 7, 8, 11, 12], [3, 6, 9, 11, 12], [2, 4, 6, 11, 13], [2, 4, 9, 11, 13],
        [3, 6, 9, 12, 13], [1, 6, 7, 8, 14], [1, 7, 8, 9, 14], [3, 6, 9, 12, 14],
        [1, 2, 3, 13, 14], [1, 2, 12, 13, 14],
    ]
    assert v.witnesses == expected


def test_bound_equality_witnesses_are_genuine():
    for spec in ("Z11", "Z15", "Z2xZ6"):
        G = parse_group_spec(spec)
        v = verify_subset_sum_bound(G)
        for w in v.witnesses:
            A = GroupSubset.from_indices(G, w)
            assert naive_subset_sums(A).cardinality == 2 * A.cardinality < G.order


def test_bound_budget():
    with pytest.raises(BudgetExceededError):
        verify_subset_sum_bound(AbelianGroup.cyclic(25))
    with pytest.raises(ValueError):
        verify_subset_sum_bound(parse_group_spec("Z9"), 0)


def test_bound_small_min_size_exploration():
    # below the stated regime nothing is asserted by the statement, but the
    # sweep itself must still run and count candidates correctly
    v = verify_subset_sum_bound(parse_group_spec("Z7"), 1)
    assert v.checked == (1 << 6) - 1


# -- critical number -------------------------------------------------------------------


THEOREM5_VALUES = [
    ("Z4", 3), ("Z6", 4), ("Z8", 5), ("Z2^2", 3), ("Z2xZ4", 5),
    ("Z2^3", 4), ("Z10", 5), ("Z12", 6), ("Z2xZ6", 6), ("Z14", 7),
]


@pytest.mark.parametrize("spec,expected", THEOREM5_VALUES)
def test_critical_number_known_values(spec, expected):
    G = parse_group_spec(spec)
    c, v = critical_number(G)
    assert c == expected
    assert v.status == VERIFIED
    assert v.params["critical_number"] == expected
    assert v.params["matches_known"] is True
    assert v.checked == sum(comb(G.order - 1, s) for s in range(1, c + 1))


def test_critical_number_witness_fails_at_previous_size():
    for spec in ("Z6", "Z8", "Z2xZ4", "Z10"):
        G = parse_group_spec(spec)
        c, v = critical_number(G)
        (w,) = v.witnesses
        A = GroupSubset.from_indices(G, w)
        assert A.cardinality == c - 1
        assert naive_subset_sums(A).bits != G.full_mask


def test_critical_number_odd_order_has_no_known_value():
    c, v = critical_number(parse_group_spec("Z9"))
    assert v.params["known_value"] is None
    assert v.params["matches_known"] is None
    assert v.status == VERIFIED


def test_known_critical_values_match_the_walk_on_even_orders():
    # the golden cores stop at order 16; this reaches every even order to 28
    groups = [G for n in range(4, 29, 2) for G in enumerate_groups_of_order(n)]
    assert len(groups) == 26
    for G in groups:
        c, _ = critical_number(G, witness_cap=0, budget=28)
        assert _known_critical_value(G) == c, G.spec


def test_critical_number_upward_closure():
    for spec in ("Z6", "Z8", "Z2xZ4"):
        G = parse_group_spec(spec)
        c, _ = critical_number(G)
        full = G.full_mask
        for size in (c, c + 1):
            for combo in combinations(range(1, G.order), size):
                assert sigma(GroupSubset.from_indices(G, combo)).bits == full
        assert any(
            sigma(GroupSubset.from_indices(G, combo)).bits != full
            for combo in combinations(range(1, G.order), c - 1)
        )


def test_critical_number_rejects_tiny_groups():
    with pytest.raises(ValueError):
        critical_number(parse_group_spec("Z2"))


def test_nonzero_elements_sum_to_every_element():
    # why critical_number needs no bound check: sigma(G \ {0}) = G once |G| >= 3
    groups = [G for n in range(3, 65) for G in enumerate_groups_of_order(n)]
    assert len(groups) == 115
    for G in groups:
        assert sigma(GroupSubset.from_indices(G, range(1, G.order))).bits == G.full_mask, G.spec


# -- three-fold cover -----------------------------------------------------------------


def test_three_fold_cover_counts():
    for m, count in [(12, 792), (14, 3003), (16, 11440)]:
        v = verify_three_fold_cover(m)
        assert v.status == VERIFIED
        assert v.checked == count == comb(m, m // 2 + 1)
        assert v.params["violations"] == 0


def test_three_fold_scan_node_count():
    """The pair rule of the three-fold scan pins its node count: a weaker
    look-ahead changes no certificate, only the number of `rec3` calls,
    which is the same on every machine.  The full pass over every x enters
    1,992 nodes on Z28 and 2,456 on Z30 (75,631 and 132,904 without the
    pair rule).  A verified thm4 runs only its class passes: 757 nodes on
    Z28 (x = 0) and 942 + 779 on Z30 (x = 0 and x = 1)."""
    for m, full_want, classes_want in ((28, 1_992, 757), (30, 2_456, 1_721)):
        G = AbelianGroup.cyclic(m)
        _, full = _walk_calls(lambda: _scan_three_fold(G, k=m // 2 + 1, cap=DEFAULT_WITNESS_CAP))
        assert full == full_want, (m, full)
        v, classes = _walk_calls(lambda: verify_three_fold_cover(m, budget=64))
        assert v.status == VERIFIED
        assert classes == classes_want, (m, classes)


def test_three_fold_scan_matches_brute_force_on_thm4_orders():
    # one size below thm4's threshold, so the scan has violations to find
    assert check_three_fold_scan_on_thm4_orders() == {"Z14": 212, "Z16": 34}


class _Missed(Exception):
    """A scan filed a leaf."""


def _some_three_fold_miss(G: AbelianGroup, k: int) -> bool:
    """Whether the full three-fold scan over every x finds a k-subset of G
    that misses some x, stopped at the first leaf it files."""

    def stop(*args, **kwargs):
        raise _Missed

    try:
        with mock.patch.object(ScanStats, "record", stop):
            _scan_three_fold(G, k=k, cap=0)
    except _Missed:
        return True
    return False


def test_class_passes_agree_with_the_full_scan():
    """Some k-subset of Z_m misses a class representative (0, and 1 when
    3 | m) exactly when the full scan finds a violation, for every m in
    6..21 and k in 3..m/2 + 2."""
    cases = 0
    for m in range(6, 22):
        G = AbelianGroup.cyclic(m)
        for k in range(3, m // 2 + 3):
            assert _misses_a_class(G, k) == _some_three_fold_miss(G, k), (m, k)
            cases += 1
    assert cases == 104
    # both classes are needed when 3 | m
    for m, k, missed in ((15, 8, [0]), (21, 9, [1])):
        G = AbelianGroup.cyclic(m)
        hits = [x for x in (0, 1) if _scan_three_fold(G, k=k, cap=0, targets=1 << x).violations]
        assert hits == missed and _some_three_fold_miss(G, k), (m, k)


def test_a_failed_class_pass_runs_the_full_scan(monkeypatch):
    """When a class pass finds a set, `verify_three_fold_cover` runs the
    full scan over every x, at its own size and witness cap, and certifies
    that scan's record.  At thm4's size no class pass finds a set, so one is
    forced here: the verifier then enters exactly the full scan's nodes
    (1,992 on Z28, against 813 for its class pass), and its certificate is
    the same at witness caps 0 and 16."""
    for m in (12, 28):
        G = AbelianGroup.cyclic(m)
        for cap in (0, DEFAULT_WITNESS_CAP):
            want, classes = _walk_calls(lambda: verify_three_fold_cover(m, witness_cap=cap, budget=m))
            _, full = _walk_calls(lambda: _scan_three_fold(G, k=m // 2 + 1, cap=cap))
            with monkeypatch.context() as patched:
                patched.setattr("groupsums.verify._misses_a_class", lambda G, k: True)
                got, forced = _walk_calls(lambda: verify_three_fold_cover(m, witness_cap=cap, budget=m))
            assert forced == full > classes, (m, cap, forced, full, classes)
            assert dumps(got.core()) == dumps(want.core()), (m, cap)


def test_thm4_certificates_match_the_full_scan():
    # every even m in 12..36; tests/property_checks.py runs 12..48
    assert check_thm4_matches_full_scan(36) == 13


def test_three_fold_cover_preconditions():
    for bad in (11, 13, 10, 0):
        with pytest.raises(ValueError):
            verify_three_fold_cover(bad)
    with pytest.raises(BudgetExceededError):
        verify_three_fold_cover(26)


# -- shared verifier machinery ----------------------------------------------------------


def test_cover_scans_match_brute_force():
    # every group of order <= 12, every k: violations exist near the prune frontier
    assert check_cover_scans_brute_force(12) > 10_000


def test_dead_targets_stay_dead():
    # every group of order <= 14, every k in 2..|G| - 2
    assert check_dead_targets_stay_dead(14) == 8_300


def test_pair_cover_walk_is_exact():
    # every group of order 3..14, every k in 2..|G| - 2
    assert check_pair_cover_walk_is_exact(14) == 92


def test_subset_sum_scans_match_brute_force():
    # every group of order <= 12 plus Z3xZ6: 2**17 - 1 subsets from Z3xZ6 alone
    assert check_subset_sum_scans_brute_force(12) > 130_000


def test_lattice_scan_counts(monkeypatch):
    """A weaker prune, a lost generation cache or a smaller lane group
    changes no certificate, only the number of walk calls and of generation
    tests, which are the same on every machine.  Each walk calls only the
    children its prunes keep: thm1 Z24 enters 4,249 nodes and makes 11
    tests (22,223 nodes without the orbit rule), thm5 Z20 enters 2,311
    nodes (16,572), lemma2 Z24 7,529 (23,777) and lemma2 Z26 10,156
    (51,476), since a pair-cover node whose one failing completion misses
    one element files it itself.  Under all 36 automorphisms thm1 Z2xZ14
    enters 3,632 nodes (8,522 under the 12 maps of T(G)) and under all
    336 thm5 Z2xZ2xZ6 enters 573 (5,382 under 16).  Z2^4 has 20,160
    automorphisms, above the bound, so its lanes are the 64 maps of T(G):
    thm1 enters 98 nodes and thm5 151 (1,392 and 2,376 without the orbit
    rule).  thm1 Z28 and thm5 Z24 are the bench's own runs."""
    tests = 0

    def counted_is_generating(G, S):
        nonlocal tests
        tests += 1
        return is_generating(G, S)

    monkeypatch.setattr("groupsums.verify.is_generating", counted_is_generating)
    Z2xZ14, Z2xZ2xZ6, Z2_4 = (parse_group_spec(s) for s in ("Z2xZ14", "Z2xZ2xZ6", "Z2^4"))
    for run, want in (
        (lambda: verify_subset_sum_bound(parse_group_spec("Z24")), (4_249, 11)),
        (lambda: verify_subset_sum_bound(parse_group_spec("Z28"), budget=28), (8_171, 8)),
        (lambda: critical_number(parse_group_spec("Z20")), (2_311, 0)),
        (lambda: critical_number(parse_group_spec("Z24")), (10_163, 0)),
        (lambda: search_lemma2_counterexamples(24), (7_529, 0)),
        (lambda: search_lemma2_counterexamples(26, budget=26), (10_156, 0)),
        (lambda: verify_subset_sum_bound(Z2xZ14, budget=28), (3_632, 5)),
        (lambda: critical_number(Z2xZ2xZ6)[1], (573, 0)),
        (lambda: verify_subset_sum_bound(Z2_4), (98, 7)),
        (lambda: critical_number(Z2_4)[1], (151, 0)),
    ):
        tests = 0
        _, nodes = _walk_calls(run)
        assert (nodes, tests) == want


def test_thm5_lists_only_at_the_largest_size(monkeypatch):
    """The thm5 walk lists least members, through `ScanStats.record`, only
    at the largest failing size it has seen, and only counts a smaller
    set: the sizes it lists never fall, and it lists every node of the
    final largest size, whose least member `critical_number` reads.  Z24
    lists 51 of its 10,162 nodes, Z2xZ2xZ6 28 of 572 and Z2^4 22 of 150,
    4 of them at the largest size, 7."""
    counted, listed = [], []
    count, record = ScanStats.count, ScanStats.record
    monkeypatch.setattr(ScanStats, "count", lambda self, d, *a: counted.append(d) or count(self, d, *a))
    monkeypatch.setattr(ScanStats, "record", lambda self, d, *a: listed.append(d) or record(self, d, *a))
    for spec, want in (("Z24", (51, 10_162)), ("Z2xZ2xZ6", (28, 572)), ("Z2^4", (22, 150))):
        counted.clear()
        listed.clear()
        critical_number(parse_group_spec(spec))
        top = max(counted)
        assert listed == sorted(listed), spec
        assert listed.count(top) == counted.count(top), spec
        assert (len(listed), len(counted)) == want, spec


def test_lanes_are_built_once_and_only_past_the_root(monkeypatch):
    """The orbit lanes are |G| ints of about |Aut(G)||G| bits, and listing
    Aut(G) takes up to some ms, so only a pair-cover walk that reaches a
    child builds them, once per walk: a prop3.2 scan settled at its root
    builds none, on a cyclic group or not.  Nor does it build its table of
    upper pair members, which takes |G| translates: the root makes at most
    the look-ahead's three per element.  thm4's walk builds lanes with no
    lane, once per pass, and lists no automorphism."""
    built = []
    monkeypatch.setattr("groupsums.verify._Lanes",
                        lambda n, tables: built.append((n, len(tables))) or _Lanes(n, tables))
    for spec in ("Z24", "Z2xZ14", "Z2xZ2xZ6"):
        G = parse_group_spec(spec)
        tr, calls = G.translator(), []
        G._translator = lambda bits, g: calls.append(g) or tr(bits, g)
        assert verify_pair_cover_threshold(G, budget=28).status == "verified"
        assert 0 < len(calls) <= 3 * G.order, (spec, len(calls))
    assert built == []
    verify_three_fold_cover(12)
    assert built == [(12, 0), (12, 0)]  # the class passes for 0 and 1
    built.clear()
    search_lemma2_counterexamples(12)
    assert built == [(12, 3)]


class _SpyLanes(_Lanes):
    """Lanes that keep each imgs `ScanStats.record` lists from."""

    def under(self, imgs: int, t: int) -> int:
        self.seen.append(imgs)
        return super().under(imgs, t)


def test_lag_packs_the_orbit_rule():
    """A node's `lag`, guard plus step[e] for each e of its mask S, holds
    2^n + S - uS in the lane of each map u.  On every abelian group of
    order <= 16 under its `_lane_tables`, for 40 seeded random masks and
    the largest of each one's orbit: the lane test passes exactly when S is
    the largest of {uS}; then `count` returns the number of maps, the
    identity included, that fix S, and `record` lists from imgs holding uS
    in the lane of u."""
    rng, tested = random.Random(33), 0
    for G in all_groups_up_to(16):
        n, tables = G.order, _lane_tables(G)
        lanes = _SpyLanes(n, tables)
        for mask in [rng.getrandbits(n) for _ in range(40)]:
            for S in (mask, max(sum(1 << t[e] for e in bit_indices(mask)) for t in [range(n), *tables])):
                images = [sum(1 << t[e] for e in bit_indices(S)) for t in tables]
                lag = lanes.guard + sum(lanes.step[e] for e in bit_indices(S))
                largest = max(images, default=0) <= S
                assert (lag & lanes.guard == lanes.guard) == largest, (G.spec, S)
                if largest:
                    assert ScanStats(0).count(0, lanes, lag) == 1 + images.count(S), (G.spec, S)
                    lanes.seen = []
                    ScanStats(1).record(0, S, lanes, lag)
                    assert [lanes.seen[0] >> (n + 1) * i & (2 << n) - 1 for i in range(len(tables))] == images
                    tested += 1
    assert tested > 1_000


def test_lattice_translator_calls():
    """The thm1 walk tests a child's lanes before it takes the child's sums,
    and the thm5 walk takes the sums first, so that a saturated child costs
    no addition of its lanes, which on Z2xZ2xZ6 are 8,400 bits wide.  The
    translator calls of the bench's lattice certificates, the same on every
    machine: thm1 Z28 and Z2xZ14 make 24,855 and 8,911 (37,718 and 18,105
    with the sums first), thm5 Z24, Z2xZ2xZ6 and Z28 38,696, 2,979 and
    101,779 (25,107, 1,062 and 69,022 with the lanes first)."""
    for spec, run, want in (
        ("Z28", verify_subset_sum_bound, 24_855),
        ("Z2xZ14", verify_subset_sum_bound, 8_911),
        ("Z24", critical_number, 38_696),
        ("Z2xZ2xZ6", critical_number, 2_979),
        ("Z28", critical_number, 101_779),
    ):
        G = parse_group_spec(spec)
        tr, calls = G.translator(), []
        G._translator = lambda bits, g: calls.append(g) or tr(bits, g)
        run(G, budget=28)
        assert len(calls) == want, (spec, run.__name__)


def test_lane_less_filing_in_any_order():
    """With no lane (Z2^6 has none, and thm4's walk takes none) every mask
    is its own orbit, and `record` keeps the exact counts, the least mask
    of each deficiency and the `cap` least masks in whatever order the
    masks come."""
    assert _lane_tables(parse_group_spec("Z2^6")) == []
    lanes, rng = _Lanes(64, []), random.Random(26)
    deficits = {rng.getrandbits(64): rng.randint(1, 6) for _ in range(400)}
    masks = sorted(deficits)
    for cap in (0, 1, 3, 16, 500):
        for _ in range(5):
            rng.shuffle(masks)
            stats = ScanStats(cap)
            for mask in masks:
                stats.record(deficits[mask], mask, lanes, 0)
            got = {key: getattr(stats, key) for key in ("violations", "hist", "reps", "witnesses")}
            assert got == _expected_cover_stats(deficits, cap), cap


def test_orbit_walks_match_plain_walks():
    # every group of order <= 20, Z2xZ2xZ6 and Z3^3, at witness caps 0, 1 and 16
    assert check_orbit_walks_match_plain_walks(orbit_check_groups(20)) == 444


def test_jobs_is_checked_and_changes_nothing():
    """Every statement's certificate core is the same at jobs 1, 2 and 64,
    and the sweep's, and jobs 0 and 65 raise `ValueError`, on those of Z12,
    Z2xZ6 and Z2^3 that the statement's sweep over orders 8 and 12 keeps."""
    groups = [parse_group_spec(spec) for spec in ("Z12", "Z2xZ6", "Z2^3")]
    compared = 0
    for st in STATEMENTS.values():
        swept = {v.group: dumps(v.core()) for v in sweep(st.id, [8, 12])}
        for G in groups:
            if G.spec not in swept:
                continue
            cores = [dumps(st.run(G, jobs=jobs).core()) for jobs in (1, 2, MAX_JOBS)]
            assert swept[G.spec] == cores[0] == cores[1] == cores[2], (G.spec, st.id)
            for jobs in (0, MAX_JOBS + 1):
                with pytest.raises(ValueError):
                    st.run(G, jobs=jobs)
            compared += 1
    assert compared == 11


def test_public_verifiers_are_their_statements_runs():
    """Over each statement's sweep of orders 8 and 12, its public verifier
    and `STATEMENTS[id].run` give the sweep's certificate core on every
    group in the domain, and `critical_number`'s answer is the one in its
    certificate."""
    public = {
        "prop3.2": verify_pair_cover_threshold,
        "lemma2-search": lambda G: search_lemma2_counterexamples(G.order),
        "thm1": verify_subset_sum_bound,
        "thm4": lambda G: verify_three_fold_cover(G.order),
        "thm5": lambda G: critical_number(G)[1],
    }
    compared = 0
    for st in STATEMENTS.values():
        for v in sweep(st.id, [8, 12]):
            G = parse_group_spec(v.group)
            cores = [dumps(x.core()) for x in (v, st.run(G), public[st.id](G))]
            assert cores[0] == cores[1] == cores[2], (st.id, G.spec)
            compared += 1
            if st.id == "thm5":
                answer, verdict = critical_number(G)
                assert answer == verdict.params["critical_number"] == v.params["critical_number"], G.spec
    assert compared == 18


def test_the_frame_times_each_whole_run(monkeypatch):
    """A certificate's `elapsed_ms` runs from the frame's clock start,
    before the statement's function, to its `Verdict`, one clock per
    certificate.  On a fake clock that only a 2 s scan moves, each
    certificate that scans reads 2000 ms, and a vacuous one 0 ms."""
    import groupsums.verify as verify

    now = [0.0]
    scan = verify._scan_pair_cover

    def slow_scan(*args, **kwargs):
        now[0] += 2.0
        return scan(*args, **kwargs)

    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(verify, "_scan_pair_cover", slow_scan)
    assert verify_pair_cover_threshold(parse_group_spec("Z5")).elapsed_ms == 2000
    assert [v.elapsed_ms for v in sweep("lemma2-search", range(1, 9))] == [2000] * 6
    assert verify_pair_cover_threshold(parse_group_spec("Z2^3")).elapsed_ms == 0


def test_lanes_hold_a_group_of_automorphisms(monkeypatch):
    """On every abelian group of order <= 36 the lane tables are
    automorphisms, table[a + b] = table[a] + table[b] and one-to-one, no two
    equal and none the identity, and `step[e]` holds 2^e - 2^table[e] in
    lane i: (ones << e) - step[e] holds the image of e there.  Up to the
    bound they are all of Aut(G), one per automorphism but the identity by
    the count of Hillar and Rhea, and a cyclic group's are its unit
    scalings in the order of u.  Above it Aut(G) is never listed and the
    lanes are T(G): the maps of its definition, as many as the product
    formula says, and closed under composition, since the maps among them
    that move one generator e_i generate them and nothing else."""
    listed = []
    monkeypatch.setattr("groupsums.verify.automorphism_tables", lambda G, triangular:
                        listed.append((G.spec, triangular)) or automorphism_tables(G, triangular))
    groups = all_groups_up_to(36)
    above = [G.spec for G in groups if automorphism_count(G) * (G.order + 1) > _MAX_LANE_BITS]
    assert above == ["Z2 x Z2 x Z2 x Z2", "Z3 x Z3 x Z3", "Z2 x Z2 x Z2 x Z4", "Z2 x Z2 x Z2 x Z2 x Z2"]
    for G in groups:
        n = G.order
        tables = _lane_tables(G)
        lanes = _Lanes(n, tables)
        add = [[G.add_index(a, b) for b in range(n)] for a in range(n)]
        for i, table in enumerate(tables):
            assert sorted(table) == list(range(n)), (G.spec, i)
            assert all([table[s] for s in add[a]] == [add[table[a]][t] for t in table]
                       for a in range(n)), (G.spec, i)
            assert all((lanes.ones << e) - lanes.step[e] >> (n + 1) * i & (2 << n) - 1 == 1 << table[e]
                       for e in range(n)), (G.spec, i)
        maps = {tuple(t) for t in tables} | {tuple(range(n))}
        assert len(maps) == lanes.maps == automorphism_count(G, G.spec in above), G.spec
        if G.is_cyclic:
            assert tables == [list(t) for t in triangular_maps(G)[1:]], G.spec
        if G.spec in above:
            assert maps == set(triangular_maps(G)), G.spec
            # the maps moving one generator e_i generate exactly T(G), so it is closed
            basis = [prod(G.factors[:i]) for i in range(len(G.factors))]
            movers = [t for t in maps if sum(t[e] != e for e in basis) == 1]
            reached, todo = {tuple(range(n))}, [tuple(range(n))]
            while todo:
                a = todo.pop()
                for b in movers:
                    ab = tuple(map(a.__getitem__, b))
                    if ab not in reached:
                        reached.add(ab)
                        todo.append(ab)
            assert reached == maps, G.spec
    assert listed == [(G.spec, G.spec in above) for G in groups]
    assert [automorphism_count(parse_group_spec(s)) for s in ("Z2xZ14", "Z2xZ2xZ6", "Z4xZ4", "Z5^2",
                                                               "Z3^3", "Z2^5")] == [
        36, 336, 96, 480, 11_232, 9_999_360]
    assert [automorphism_count(parse_group_spec(s), True) for s in ("Z2xZ14", "Z3^3", "Z2^3xZ4", "Z2^5",
                                                                     "Z2^3xZ6", "Z2^4xZ4", "Z2^6")] == [
        12, 216, 128, 1_024, 128, 2_048, 32_768]


def test_no_lanes_when_t_g_is_too_wide(monkeypatch):
    """Z2^6 and Z2^4xZ4 have |T(G)| = 32,768 and 2,048, so T(G)'s lane ints,
    like Aut(G)'s, are wider than the bound: nothing is listed and the lane
    group is the identity alone."""
    listed = []
    monkeypatch.setattr("groupsums.verify.automorphism_tables", lambda *args: listed.append(args))
    for spec in ("Z2^6", "Z2^4xZ4"):
        G = parse_group_spec(spec)
        assert automorphism_count(G, True) * (G.order + 1) > _MAX_LANE_BITS
        assert _lane_tables(G) == [], spec
        lanes = _Lanes(G.order, [])
        assert lanes.maps == 1 and lanes.ones == lanes.guard == 0, spec
    assert listed == []


def test_sweep_checks_its_inputs_before_its_loop():
    # orders with no group in the domain must not hide a bad argument
    for statement, orders, kwargs in (
        ("thm4", range(1, 5), {"jobs": 0, "witness_cap": -5}),
        ("thm5", range(1, 3), {"witness_cap": -1, "min_size": 3}),
        ("prop3.2", range(1, 3), {"min_size": 3}),
        ("thm4", range(1, 5), {"budget": 0}),
        ("thm4", range(1, 5), {"budget": -3}),
    ):
        with pytest.raises(ValueError):
            sweep(statement, orders, **kwargs)
    with pytest.raises(TypeError, match="integer.*budget=2.5"):
        sweep("thm4", range(1, 5), budget=2.5)
    assert [v.group for v in sweep("thm1", range(1, 3), min_size=3)] == ["Z1", "Z2"]
    # a bad min_size is no domain error: the sweep raises, not skips
    with pytest.raises(ValueError, match="min_size"):
        sweep("thm1", range(1, 5), min_size=0)
    # an order is read as an integer, as a group's factors are
    with pytest.raises(GroupSpecError, match="order 8.0 is not an integer"):
        sweep("thm1", [8.0])


def test_sweep_skips_only_domain_errors(monkeypatch):
    """Any other error raised while a statement runs on a group, here a
    ValueError from the scan, stops the sweep."""
    monkeypatch.setattr("groupsums.verify._scan_bound_sweep", mock.Mock(side_effect=ValueError("a scan failed")))
    with pytest.raises(ValueError, match="a scan failed"):
        sweep("thm1", [4])


def test_sweep_unknown_statement():
    with pytest.raises(ValueError):
        sweep("thm2", range(3, 5))


def test_sweep_skips_out_of_domain_orders():
    vs = sweep("thm4", range(4, 17))
    assert [v.group for v in vs] == ["Z12", "Z14", "Z16"]
    vs = sweep("lemma2-search", range(4, 21, 2))
    assert all(v.status == REFUTED for v in vs)
    # only the cyclic group of an order is in the cyclic statements' domain
    assert [v.group for v in sweep("lemma2-search", [8])] == ["Z8"]
    assert [v.group for v in sweep("thm4", [16])] == ["Z16"]
    # lemma2 checks its domain before its budget, so Z2 is skipped
    assert sweep("lemma2-search", range(1, 3), budget=1) == []
    # an order above MAX_ORDER is an error for every statement
    for statement in STATEMENTS:
        for cyclic_only in (False, True):
            with pytest.raises(GroupSpecError):
                sweep(statement, [MAX_ORDER + 1], cyclic_only=cyclic_only)


def test_sweep_thm5_example_orders():
    vs = sweep("thm5", [4, 6, 8, 10, 12])
    got = {(v.group, v.params["critical_number"]) for v in vs}
    assert ("Z4", 3) in got and ("Z8", 5) in got and ("Z12", 6) in got
    assert all(v.params["matches_known"] in (True, None) for v in vs)


def test_sweep_cyclic_only():
    vs = sweep("thm1", [8], cyclic_only=True)
    assert [v.group for v in vs] == ["Z8"]


# -- certificates --------------------------------------------------------------------


def _every_certificate():
    """Every verdict of a sweep over the orders 1..12, for each statement,
    at witness caps 0 and 16."""
    return [v for st in STATEMENTS for cap in (0, 16) for v in sweep(st, range(1, 13), witness_cap=cap)]


def _scribble(data):
    """Change every dict and list inside JSON-like data in place."""
    if isinstance(data, dict):
        for value in data.values():
            _scribble(value)
        data["scribbled"] = 99
    elif isinstance(data, list):
        for value in data:
            _scribble(value)
        data.append(99)


def test_verdict_json_round_trip():
    for v in _every_certificate():
        again = Verdict.from_json(v.to_json())
        assert again == v
        assert json.loads(v.to_json()) == v.to_dict()


def test_verdict_dict_is_a_copy():
    for v in _every_certificate():
        before = v.to_json()
        _scribble(v.to_dict())
        assert v.to_json() == before


def test_verdict_from_dict_copies_the_certificate_keys():
    v = search_lemma2_counterexamples(6)
    d = {**v.to_dict(), "metrics": {"wall_s": 1.0}}
    again = Verdict.from_dict(d)
    assert again == v and not hasattr(again, "metrics")
    d["params"]["subset_size"] = 0
    d["witnesses"][0].append(5)
    assert again == v
    for key in Verdict.KEYS:
        with pytest.raises(KeyError):
            Verdict.from_dict({k: x for k, x in v.to_dict().items() if k != key})


def test_verdict_equality_and_repr():
    for v in _every_certificate():
        other = REFUTED if v.status == VERIFIED else VERIFIED
        assert v != Verdict.from_dict({**v.to_dict(), "status": other})
        assert v != v.to_dict()
        # a verdict is a tuple of its fields, as an Option is, and unhashable
        assert v == tuple(v) == tuple(v.to_dict().values())
        with pytest.raises(TypeError):
            hash(v)
        fields = ", ".join(f"{k}={x!r}" for k, x in v.to_dict().items())
        assert repr(v) == f"Verdict({fields})"


def test_verdict_schema_keys():
    v = verify_pair_cover_threshold(parse_group_spec("Z5"))
    assert set(v.to_dict()) == {
        "statement", "group", "params", "status", "checked",
        "witnesses", "elapsed_ms", "toolchain_version",
    }
    assert v.toolchain_version
