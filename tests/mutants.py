"""Hand-made mutants of the search and the check that must fail on each.

Each row says what the mutant breaks, names a source file, a text that
occurs exactly once in it, the text to put in its place, and the pytest
node that must fail once the replacement is made in a copy of the tree.  A
row with `survives` set is an expected survivor: the mutant changes no
certificate and no pinned count, and the string says why.
`test_mutants.py` checks that every old text still occurs exactly once, so
a row goes stale loudly when the code moves.

`python tests/mutants.py` runs every row: it copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, applies the row there and runs
its check, one row at a time, after one run of all the checks on an
unchanged copy; each pytest process starts with plugin autoloading off.  It
prints each row as killed or survived with its time and exits 1 if any row
ends otherwise than its `survives` field says.  It uses the standard
library and pytest only, and is not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    what: str
    file: str
    old: str
    new: str
    check: str
    survives: str | None = None


VERIFY = "src/groupsums/verify.py"
COVER_BRUTE = "tests/test_verify.py::test_cover_scans_match_brute_force"
LATTICE_BRUTE = "tests/test_verify.py::test_subset_sum_scans_match_brute_force"
REC3_NODES = "tests/test_verify.py::test_three_fold_scan_node_count"
CLASSES = "tests/test_verify.py::test_class_passes_agree_with_the_full_scan"
FAILED_CLASS = "tests/test_verify.py::test_a_failed_class_pass_runs_the_full_scan"
CHECKS = "tests/test_verify.py::test_jobs_and_witness_cap_validated"
OPTION_ROWS = "tests/test_cli.py::test_each_option_row_bounds_every_run"
LATTICE_COUNTS = "tests/test_verify.py::test_lattice_scan_counts"
ORBIT = "tests/test_verify.py::test_orbit_walks_match_plain_walks"
LANES = "tests/test_verify.py::test_lanes_are_built_once_and_only_past_the_root"
AUT = "tests/test_verify.py::test_lanes_hold_a_group_of_automorphisms"
TOO_WIDE = "tests/test_verify.py::test_no_lanes_when_t_g_is_too_wide"
GROUPS = "src/groupsums/groups.py"
GOLDEN = "tests/test_golden_cores.py::test_golden_cores_are_unchanged"
IMPORTS = "tests/test_cli.py::test_import_leaves_out_unneeded_modules"
SWEEP_CHECKS = "tests/test_verify.py::test_sweep_checks_its_inputs_before_its_loop"
SWEEP_SKIPS = "tests/test_verify.py::test_sweep_skips_out_of_domain_orders"
SWEEP_DOMAIN_ONLY = "tests/test_verify.py::test_sweep_skips_only_domain_errors"
CLI = "src/groupsums/cli.py"
CLI_REJECTS = "tests/test_cli.py::test_verify_rejects_flags_it_would_drop"
CLI_GIVEN = "tests/test_cli.py::test_verify_passes_only_the_flags_given"
CLI_JSON = "tests/test_cli.py::test_every_command_json_round_trips"
CLI_EMPTY = "tests/test_cli.py::test_empty_sweep_text_prints_nothing"
CLI_BUDGET = "tests/test_cli.py::test_budget_exit_three"
THRESHOLD_Z5 = "tests/test_verify.py::test_threshold_z5"
THREE_FOLD_COUNTS = "tests/test_verify.py::test_three_fold_cover_counts"
LEMMA2_Z7 = "tests/test_verify.py::test_lemma2_m7_verified"
ROOT = "tests/test_verify.py::test_threshold_scan_is_settled_at_the_root"
ROOT_TRANSLATES = "tests/test_verify.py::test_a_settled_root_makes_two_translates_per_element"
EXACT = "tests/test_verify.py::test_pair_cover_walk_is_exact"
THM5_TOP = "tests/test_verify.py::test_thm5_lists_only_at_the_largest_size"
KNOWN_CRITICAL = "tests/test_verify.py::test_known_critical_values_match_the_walk_on_even_orders"
LAG = "tests/test_verify.py::test_lag_packs_the_orbit_rule"
TRANSLATES = "tests/test_verify.py::test_lattice_translator_calls"
MASK_ROUND_TRIP = "tests/test_groups.py::test_mask_of_inverts_bit_indices"
NON_INTEGER_ORDERS = "tests/test_groups.py::test_non_integer_orders_rejected"
TABLES = "tests/test_groups.py::test_tables_are_built_on_first_use"
VERDICT_COPY = "tests/test_verify.py::test_verdict_dict_is_a_copy"
ORDER_OF_CHECKS = "tests/test_verify.py::test_order_of_checks"
FRAME_CLOCK = "tests/test_verify.py::test_the_frame_times_each_whole_run"
CLI_CLOSED_AT_START = "tests/test_cli.py::test_stdout_closed_at_start_exits_141"
CLI_CLOSED_AFTER_START = "tests/test_cli.py::test_stdout_closed_after_start_exits_141"

_PAIR_RULE = "if size - ((ok & tr(nok, y) & ~halves[y]).bit_count() >> 1) < j:"
_REC3_SIZE = """            if size >= j:
                # -ok = nfree[bound] minus (A +^ A) - x; y = x - a runs over
"""
_CLASSES = "for x in ((0, 1) if G.order % 3 == 0 else (0,)))"
_THM4_SCAN = "_scan_three_fold(G, k=size, cap=cap) if _misses_a_class(G, size) else ScanStats(cap)"
_FRAME_BOUNDS = "        if not least <= value <= greatest:\n"
_FRAME_CHECK = """    for name in st.options:
        default, least, greatest, _ = OPTIONS[name]
        value = options[name] = _integer(name, options.get(name, default))
""" + _FRAME_BOUNDS + """            raise ValueError(f"need {least} <= {name} <= {greatest}, got {name}={value}")
"""
_FRAME_CALL = """            answer = st.check(G, run["witness_cap"], afford, **options)\n"""
_FRAME_CLOCK = "        t0 = time.perf_counter()\n        try:\n" + _FRAME_CALL
_FRAME_LOOP = "    for G in groups:\n"
_FRAME = _FRAME_CHECK + """    run = {name: options.pop(name) for name in RUN_OPTIONS}

    def afford(order: int) -> None:
        if order > run["budget"]:
            raise BudgetExceededError(f"group order {order} exceeds the search budget {run['budget']}")

    out = []
""" + _FRAME_LOOP + _FRAME_CLOCK
# a second bounds check, after the statement has run
_FRAME_LATE = """            for name, value in {**run, **options}.items():
                if not OPTIONS[name].least <= value <= OPTIONS[name].greatest:
                    raise ValueError(f"{name}={value}")
"""


def _frame_bounds_late(early: str) -> str:
    """The frame that checks an option's bounds before any group only where
    the condition `early` holds, and every option's once the statement has
    run on a group."""
    check = _FRAME_BOUNDS.replace("if not", f"if {early} and not")
    return _FRAME.replace(_FRAME_BOUNDS, check).replace(_FRAME_CALL, _FRAME_CALL + _FRAME_LATE)


_LEMMA2_CHECKS = """    if m < 3:
        raise _OutsideDomain(f"need m >= 3, got {m}")
    afford(m)
"""
_THM4_DOMAIN = 'raise _OutsideDomain(f"need even m >= 12, got {m}")'
_THM1_TESTS = """            if got < need and generates(acc):
                stats.record(need - got, mask, lanes, lag)
            elif got == need and generates(acc):
"""
_REC_SIZE = """            if size >= j:
                both = ok & tr(navail, x) & ~halves[x]
"""
_BOTH = "both = ok & tr(navail, x) & ~halves[x]"
_FORCED = "forced = 0 if forced is not None or both or slack else ok"
_FORCED_FILE = """            if lag & guard == guard:
                stats.record(1, dp1 | forced, lanes, lag)
"""
_THM5_FILE = """        if size >= top:
            top = size
"""
_CANONICAL = "if kid & guard == guard:"
_LATTICE_CHILD = """                    rec(mask | (1 << e), size + 1, e, a, kid)
"""
_THM1_START = "range(max(1, min_size - size, (got + 1) // 2 - size), bound)"
_THM1_SIZE = "a.bit_count() <= 2 * (size + e)"
_THM1_CHILD = """        for e in """ + _THM1_START + """:
            kid = lag + step[e]
            """ + _CANONICAL + """
                a = acc | tr(acc, e) | (1 << e)
                if a != full and """ + _THM1_SIZE + """:
""" + _LATTICE_CHILD
_THM5_CHILD = """        for e in range(1, bound):
            a = acc | tr(acc, e) | (1 << e)
            if a != full:
                kid = lag + step[e]
                """ + _CANONICAL + """
""" + _LATTICE_CHILD
_REC_CHILD = """        for e in bit_indices(kids):
            kid = lag + step[e]
            """ + _CANONICAL + """
                rec(j - 1, e, dp1 | (1 << e), dp2 | tr(dp1, e), n1 | (1 << neg[e]), kid, live)
"""
_SLACK = "slack = size - (both.bit_count() >> 1) - j"
_UPPER = """                        for c in range(G.order):  # c is upper for x = c + d, d below c
                            for y in bit_indices(tr((1 << c) - 1, c)):
                                upper[y] |= 1 << c
"""
_CHILD_RULE = """                    lower = ok & ~(both & upper[x])
                    for _ in range(slack):
                        lower ^= 1 << (lower.bit_length() - 1)
                    t = lower.bit_length() - 1
                    kids |= ok >> t << t
                    continue
"""
_REPS = """        if members[0] < held:
            self.reps[d] = members[0]
"""

MUTANTS = [
    # -- the pair rule of the three-fold scan
    Mutant("the pair rule keeps the c with 2c = x - a", VERIFY,
           _PAIR_RULE, _PAIR_RULE.replace(" & ~halves[y]", ""),
           COVER_BRUTE),
    Mutant("the pair rule pairs c with x - c instead of x - a - c", VERIFY,
           _PAIR_RULE, "if size - ((ok & tr(nok, x) & ~halves[x]).bit_count() >> 1) < j:",
           COVER_BRUTE),
    Mutant("the pair rule counts both elements of each pair", VERIFY,
           _PAIR_RULE, _PAIR_RULE.replace(" >> 1", ""),
           COVER_BRUTE),
    Mutant("the pair rule drops x when its count reaches j exactly", VERIFY,
           _PAIR_RULE, _PAIR_RULE.replace("< j", "<= j"),
           COVER_BRUTE),
    Mutant("the pair rule is off", VERIFY,
           "                ys = tr(n1, x)\n",
           "                ys = 0\n",
           REC3_NODES),
    # -- the look-ahead of the three-fold scan
    Mutant("the three-fold scan builds n1 and n2 from e instead of -e", VERIFY,
           "            ne = neg[e]\n", "            ne = e\n",
           COVER_BRUTE),
    Mutant("the three-fold look-ahead leaves out the candidate just below bound", VERIFY,
           "        avail = free[bound]\n        uncovered = targets & ~dp3\n",
           "        avail = free[bound - 1]\n        uncovered = targets & ~dp3\n",
           COVER_BRUTE),
    Mutant("the three-fold look-ahead drops x when exactly j candidates avoid it", VERIFY,
           _REC3_SIZE, _REC3_SIZE.replace(">= j", "> j"),
           COVER_BRUTE),
    # -- the look-ahead and the pair count of the pair-cover scan
    Mutant("the pair-cover look-ahead drops x when exactly j candidates avoid it", VERIFY,
           _REC_SIZE, _REC_SIZE.replace(">= j", "> j"),
           COVER_BRUTE),
    Mutant("the pair-cover look-ahead leaves out the candidate just below bound", VERIFY,
           "        avail = free[bound]\n        navail = nfree[bound]\n",
           "        avail = free[bound - 1]\n        navail = nfree[bound]\n",
           COVER_BRUTE),
    Mutant("the pair-cover tables are built from element 0", VERIFY,
           "_cover_tables(G, 1)", "_cover_tables(G, 0)",
           COVER_BRUTE),
    Mutant("the cover tables leave element 0 in the pair-cover pool", VERIFY,
           "free = [((1 << b) - 1) >> lo << lo for", "free = [((1 << b) - 1) for",
           COVER_BRUTE),
    Mutant("the cover tables' negatives are one element ahead of the pool", VERIFY,
           "nfree = [0] * (lo + 1)", "nfree = [0] * lo",
           COVER_BRUTE),
    Mutant("the prop3.2 verifier counts its sets in G, 0 included", VERIFY,
           "comb(G.order - 1, threshold)", "comb(G.order, threshold)",
           THRESHOLD_Z5),
    Mutant("the lemma2-search verifier counts its sets in Z_m, 0 included", VERIFY,
           "comb(m - 1, size)", "comb(m, size)",
           LEMMA2_Z7),
    Mutant("a pair-cover child takes candidates below e - 1 instead of e", VERIFY,
           _REC_CHILD, _REC_CHILD.replace("rec(j - 1, e,", "rec(j - 1, e - 1,"),
           COVER_BRUTE),
    Mutant("the pair-cover root leaves out the pool's top element", VERIFY,
           "    rec(k, G.order, 0, 0, 0, 0, G.full_mask)\n",
           "    rec(k, G.order - 1, 0, 0, 0, 0, G.full_mask)\n",
           COVER_BRUTE),
    Mutant("the pair-cover scan builds n1 from e instead of -e", VERIFY,
           _REC_CHILD, _REC_CHILD.replace("n1 | (1 << neg[e])", "n1 | (1 << e)"),
           COVER_BRUTE),
    # a child then looks ahead only on the x its parent has not ruled out,
    # the surviving one included, so its look-ahead can miss a live x
    Mutant("the live mask loses the x that survives the look-ahead", VERIFY,
           _CHILD_RULE, _CHILD_RULE.replace("                    continue\n", ""),
           COVER_BRUTE),
    # -- the child rule of the pair-cover scan
    # t_x one bit too low is still sound, but the walk then enters nodes
    # whose leaves all cover G, or fails on a shift by -1 when j = 1
    Mutant("the child rule takes t_x one bit too low", VERIFY,
           _CHILD_RULE, _CHILD_RULE.replace("range(slack)", "range(slack + 1)"),
           EXACT),
    Mutant("the child rule takes t_x one bit too high", VERIFY,
           _CHILD_RULE, _CHILD_RULE.replace("range(slack)", "range(slack - 1)"),
           COVER_BRUTE),
    Mutant("the children come from lower in place of ok", VERIFY,
           _CHILD_RULE, _CHILD_RULE.replace("kids |= ok >> t << t", "kids |= lower >> t << t"),
           COVER_BRUTE),
    Mutant("the look-ahead still stops at the first surviving x", VERIFY,
           _CHILD_RULE, _CHILD_RULE.replace("continue", "break"),
           COVER_BRUTE),
    Mutant("upper compares with <=, so c = x - c is an upper member", VERIFY,
           _UPPER, _UPPER.replace("(1 << c) - 1", "(2 << c) - 1"),
           COVER_BRUTE,
           survives="the bit that upper[2c] gains for c is never read: `both` already leaves out "
                    "the c with 2c = x, so both & upper[x] is the same set"),
    # no certificate changes; a settled root then makes |G| more translates,
    # three per element, which the lanes test's bound of 3|G| allows
    Mutant("the pair-cover scan builds upper before its root's look-ahead", VERIFY,
           "    upper = [0] * G.order\n",
           "    upper = [0] * G.order\n"
           "    for c in range(G.order):\n"
           "        for y in bit_indices(tr((1 << c) - 1, c)):\n"
           "            upper[y] |= 1 << c\n",
           ROOT_TRANSLATES),
    Mutant("the pair count keeps the c with 2c = x", VERIFY,
           _BOTH, _BOTH.replace(" & ~halves[x]", ""),
           COVER_BRUTE),
    Mutant("the pair count counts both elements of each pair", VERIFY,
           _SLACK, _SLACK.replace("(both.bit_count() >> 1)", "both.bit_count()"),
           COVER_BRUTE),
    # no certificate changes, since the look-ahead and the child rule
    # without pairs are still sound, but a verified prop3.2 scan no longer
    # stops at its root
    Mutant("the pair count is off", VERIFY,
           _BOTH, _BOTH.replace("both = ok & ", "both = 0 & "),
           ROOT),
    Mutant("the pair count translates -avail by -x instead of x", VERIFY,
           _BOTH, _BOTH.replace("tr(navail, x)", "tr(navail, neg[x])"),
           COVER_BRUTE),
    # no certificate changes, since x - ok is x - avail without A and 0 and
    # ok holds neither, but a settled root then makes three translates per
    # element
    Mutant("the pair count takes x - A out of x - avail", VERIFY,
           _BOTH, _BOTH.replace("tr(navail, x)", "tr(navail & ~tr(dp1, neg[x]), x)"),
           ROOT_TRANSLATES),
    # -- the forced completion of the pair-cover scan
    Mutant("the forced set is filed with deficiency 2", VERIFY,
           _FORCED_FILE, _FORCED_FILE.replace("record(1,", "record(2,"),
           COVER_BRUTE),
    Mutant("a survivor with pairs forces", VERIFY,
           _FORCED, _FORCED.replace(" or both", ""),
           COVER_BRUTE),
    Mutant("a survivor with slack forces", VERIFY,
           _FORCED, _FORCED.replace(" or slack", ""),
           COVER_BRUTE),
    Mutant("a second survivor may force", VERIFY,
           _FORCED, _FORCED.replace("forced is not None or ", ""),
           COVER_BRUTE),
    Mutant("the forced set skips the lane test", VERIFY,
           _FORCED_FILE, _FORCED_FILE.replace("lag & guard == guard", "True"),
           COVER_BRUTE),
    # -- the known critical values of thm5
    Mutant("the known critical value is k + 1 up to order 10", VERIFY,
           "return k + 1 if k < 5 and", "return k + 1 if k <= 5 and",
           KNOWN_CRITICAL),
    Mutant("the known critical value drops the Z2^3 exception", VERIFY,
           " and G.factors != (2, 2, 2) else k", " else k",
           KNOWN_CRITICAL),
    # -- the class passes of thm4
    Mutant("drop class 1 when 3 | m", VERIFY,
           _CLASSES, _CLASSES.replace("(0, 1) if", "(0,) if"),
           CLASSES),
    Mutant("drop class 0 when 3 | m", VERIFY,
           _CLASSES, _CLASSES.replace("(0, 1) if", "(1,) if"),
           CLASSES),
    # a class pass then files leaves that cover x but miss another element;
    # no verdict changes, since such a leaf is a violation all the same
    Mutant("a class pass prunes only once every x is covered", VERIFY,
           "            if d3 & targets != targets:\n", "            if d3 != G.full_mask:\n",
           COVER_BRUTE),
    Mutant("a class pass looks ahead on every uncovered x", VERIFY,
           "        uncovered = targets & ~dp3\n", "        uncovered = G.full_mask ^ dp3\n",
           REC3_NODES),
    Mutant("a thm4 verdict trusts its class passes even when one finds a set", VERIFY,
           _THM4_SCAN, "ScanStats(cap)",
           FAILED_CLASS),
    # no certificate changes, since the full scan finds what the class passes
    # would, but a verified thm4 Z28 then enters 1,992 nodes instead of 757
    Mutant("the thm4 verifier skips its class passes and always runs the full scan", VERIFY,
           _THM4_SCAN, "_scan_three_fold(G, k=size, cap=cap)",
           REC3_NODES),
    Mutant("the thm4 verifier counts its sets in Z_m \\ {0}", VERIFY,
           "comb(m, size)", "comb(m - 1, size)",
           THREE_FOLD_COUNTS),
    # -- the frame of every run
    Mutant("the frame fills in the defaults but checks no option", VERIFY,
           _FRAME_CHECK, "    for name in st.options:\n        options.setdefault(name, OPTIONS[name].default)\n",
           CHECKS),
    # `verify thm1 --group Z6 --budget 0` then exits 3, not 2
    Mutant("the frame checks the run options' bounds only after the statement has run", VERIFY,
           _FRAME, _frame_bounds_late("name not in RUN_OPTIONS"),
           CLI_REJECTS),
    # `verify thm1 --group Z30 --min-size 0` then exits 3, not 2
    Mutant("the frame checks min_size's bounds only after thm1 has compared its order with the budget", VERIFY,
           _FRAME, _frame_bounds_late("name in RUN_OPTIONS"),
           CLI_REJECTS),
    # sweep("thm1", [], min_size=0) then returns [] with no error
    Mutant("statement options are checked only when a group runs", VERIFY,
           _FRAME, _FRAME.replace("    for name in st.options:\n", "    for name in RUN_OPTIONS:\n").replace(
               _FRAME_LOOP, _FRAME_LOOP + "".join("    " + line for line in _FRAME_CHECK.replace(
                   "st.options", "st.options[len(RUN_OPTIONS):]").splitlines(True))),
           OPTION_ROWS),
    # verify_pair_cover_threshold(Z7, jobs=65) then runs
    Mutant("a bounded option's greatest value goes unchecked", VERIFY,
           _FRAME_BOUNDS, "        if not least <= value:\n",
           CHECKS),
    # sweep("thm1", [], min_size=0) then returns []
    Mutant("a least bound off by one", VERIFY,
           _FRAME_BOUNDS, "        if not least - 1 <= value <= greatest:\n",
           OPTION_ROWS),
    Mutant("the frame skips the budget check", VERIFY,
           '        if order > run["budget"]:\n', "        if False:\n",
           ORDER_OF_CHECKS),
    # every certificate then reads 0 ms, whatever its scan took
    Mutant("the frame starts its clock after the scan", VERIFY,
           _FRAME_CLOCK, "        try:\n" + _FRAME_CALL + "            t0 = time.perf_counter()\n",
           FRAME_CLOCK),
    # sweep("thm4", range(1, 5), budget=0) then returns [] with no error
    Mutant("the budget has no least value", VERIFY,
           '"budget": Option(24, 1, inf,', '"budget": Option(24, -inf, inf,',
           SWEEP_CHECKS),
    # critical_number(Z12, witness_cap=0.5) then lists a witness
    Mutant("the integer reader lets a float through", VERIFY,
           "        return operator.index(value)\n", "        return value\n",
           CHECKS),
    # search_lemma2_counterexamples(3.0) then fails in AbelianGroup.cyclic
    Mutant("lemma2 and thm4 read m by its value", VERIFY,
           '        return _integer("m", G)\n', "        return G\n",
           CHECKS),
    # -- the domains: a verifier refuses a group outside its statement's
    # domain with `_OutsideDomain`, and `sweep` skips exactly those groups
    # a ValueError from a scan then drops the group from a sweep
    Mutant("sweep skips a group on any ValueError, not only a domain error", VERIFY,
           "        except _OutsideDomain:\n", "        except ValueError:\n",
           SWEEP_DOMAIN_ONLY),
    # sweep("thm4", range(4, 17)) then stops at Z4 with an error
    Mutant("thm4's domain check raises a plain ValueError", VERIFY,
           _THM4_DOMAIN, _THM4_DOMAIN.replace("_OutsideDomain", "ValueError"),
           SWEEP_SKIPS),
    # sweep("thm4", [16]) then certifies Z16 once for each group of order 16
    Mutant("the cyclic statements take any group of the order", VERIFY,
           "    if not G.is_cyclic:\n", "    if False:\n",
           SWEEP_SKIPS),
    # sweep("lemma2-search", range(1, 3), budget=1) then exceeds the budget on Z2
    Mutant("lemma2 compares its order with the budget before checking its domain", VERIFY,
           _LEMMA2_CHECKS, "    afford(m)\n" + _LEMMA2_CHECKS.replace("    afford(m)\n", ""),
           SWEEP_SKIPS),
    # -- the thm1 sweep
    Mutant("an equality case need not generate G", VERIFY,
           "elif got == need and generates(acc):",
           "elif got == need:",
           LATTICE_BRUTE),
    Mutant("the generation cache is keyed on the set's size", VERIFY,
           _THM1_TESTS,
           _THM1_TESTS.replace("generates(acc)", "rec.__dict__.setdefault(size, generates(acc))"),
           LATTICE_BRUTE),
    # no certificate changes, since <S> = <sigma(S)>, but thm1 Z24 then makes
    # 335 generation tests where the cache on the sums makes 11
    Mutant("the generation test asks of S instead of its sums", VERIFY,
           _THM1_TESTS,
           _THM1_TESTS.replace("generates(acc)", "generates(mask)"),
           LATTICE_COUNTS),
    Mutant("the thm1 size look-ahead allows one element fewer below a child", VERIFY,
           _THM1_SIZE, _THM1_SIZE.replace("size + e", "size + e - 1"),
           LATTICE_BRUTE),
    # in the child loop this also drops children that can still be filed
    Mutant("the thm1 size look-ahead drops a child whose sums are twice its largest descendant", VERIFY,
           _THM1_SIZE, _THM1_SIZE.replace("<=", "<"),
           LATTICE_BRUTE),
    Mutant("the thm1 loop starts one element above the bound its sums allow", VERIFY,
           _THM1_START, _THM1_START.replace("(got + 1) // 2 - size", "(got + 1) // 2 - size + 1"),
           LATTICE_BRUTE),
    Mutant("the thm1 loop starts one element above the bound min_size allows", VERIFY,
           _THM1_START, _THM1_START.replace("min_size - size", "min_size - size + 1"),
           LATTICE_BRUTE),
    # a set with 0 is then filed; 0 adds no sum, so some fall short
    Mutant("the thm1 loop starts at element 0", VERIFY,
           _THM1_START, _THM1_START.replace("max(1,", "max(0,"),
           LATTICE_BRUTE),
    Mutant("the thm5 loop starts at element 0", VERIFY,
           _THM5_CHILD, _THM5_CHILD.replace("range(1, bound)", "range(bound)"),
           LATTICE_BRUTE),
    Mutant("the thm1 lattice sums leave out the new element", VERIFY,
           _THM1_CHILD, _THM1_CHILD.replace("acc | tr(acc, e) | (1 << e)", "acc | tr(acc, e)"),
           LATTICE_BRUTE),
    Mutant("the thm5 lattice sums leave out the new element", VERIFY,
           _THM5_CHILD, _THM5_CHILD.replace("acc | tr(acc, e) | (1 << e)", "acc | tr(acc, e)"),
           LATTICE_BRUTE),
    # a node whose sums are all of G, with 2|S| >= |G|, is then filed as an
    # equality case
    Mutant("thm1 checks a child whose sums saturate", VERIFY,
           _THM1_CHILD, _THM1_CHILD.replace("if a != full and a.bit_count()", "if a.bit_count()"),
           LATTICE_BRUTE),
    Mutant("thm5 files a child whose sums saturate", VERIFY,
           _THM5_CHILD, _THM5_CHILD.replace("            if a != full:\n", "            if True:\n"),
           LATTICE_BRUTE),
    Mutant("thm5 files the empty set at its root", VERIFY,
           "        elif size:\n", "        else:\n",
           LATTICE_BRUTE),
    # the first node of each size is then the only one filed at it
    Mutant("thm5 files a node only above the largest size seen so far", VERIFY,
           _THM5_FILE, _THM5_FILE.replace(">=", ">"),
           LATTICE_BRUTE),
    # no certificate changes: every node is then filed, as before the rule
    Mutant("thm5 never raises the largest size seen so far", VERIFY,
           _THM5_FILE, _THM5_FILE.replace("            top = size\n", ""),
           THM5_TOP),
    # -- the orbit rule of the counting walks
    # every walk is then the plain walk: thm1 Z24 enters 22,223 nodes
    Mutant("the orbit rule is off", VERIFY,
           "        self.order = n\n", "        self.order, tables = n, []\n",
           LATTICE_COUNTS),
    # the lanes of Z2xZ14 and Z2xZ2xZ6 are then their 12 and 16 maps of T(G)
    Mutant("the lanes are T(G) below the bound too", VERIFY,
           "    for triangular in (False, True):\n",
           "    for triangular in (True,):\n",
           LATTICE_COUNTS),
    Mutant("T(G) is taken even when its lane ints are too wide", VERIFY,
           "        if automorphism_count(G, triangular) * (G.order + 1) <= _MAX_LANE_BITS:\n",
           "        if triangular or automorphism_count(G, triangular) * (G.order + 1) <= _MAX_LANE_BITS:\n",
           TOO_WIDE),
    Mutant("the automorphism search drops its one-to-one check", GROUPS,
           "                if seen[m]:\n                    break\n", "",
           AUT),
    Mutant("one automorphism is left out of the lanes", VERIFY,
           "return automorphism_tables(G, triangular)[1:]",
           "return automorphism_tables(G, triangular)[2:]",
           LATTICE_BRUTE),
    # the identity's lane then counts in every stabiliser and in `maps`
    Mutant("the lane tables keep the identity", VERIFY,
           "return automorphism_tables(G, triangular)[1:]",
           "return automorphism_tables(G, triangular)[:]",
           LATTICE_BRUTE),
    Mutant("the T(G) search takes g_i from one element past <e_1, ..., e_i>", GROUPS,
           "for g in range(1, len(table) * d if triangular else n):",
           "for g in range(1, len(table) * d + 1 if triangular else n):",
           AUT),
    Mutant("the count of T(G) drops phi(d_i)", GROUPS,
           "count *= units * prod(G.factors[:i])", "count *= prod(G.factors[:i])",
           AUT),
    Mutant("the count of Hillar and Rhea swaps c_i and d_i", GROUPS,
           "p ** (e * (k - d)) * p ** ((e - 1) * (k - c + 1))",
           "p ** (e * (k - c)) * p ** ((e - 1) * (k - d + 1))",
           AUT),
    Mutant("the thm1 walk enters every set", VERIFY,
           _THM1_CHILD, _THM1_CHILD.replace(_CANONICAL, "if True:"),
           LATTICE_BRUTE),
    Mutant("the thm5 walk enters every set", VERIFY,
           _THM5_CHILD, _THM5_CHILD.replace(_CANONICAL, "if True:"),
           LATTICE_BRUTE),
    Mutant("the pair-cover walk enters every set", VERIFY,
           _REC_CHILD, _REC_CHILD.replace(_CANONICAL, "if True:"),
           COVER_BRUTE),
    Mutant("the thm5 walk enters a set only if it is greater than every other image", VERIFY,
           _THM5_CHILD,
           _THM5_CHILD.replace(_CANONICAL, "if (kid - lanes.ones) & guard == guard:"),
           ORBIT),
    Mutant("the pair-cover walk enters a set only if it is greater than every other image", VERIFY,
           _REC_CHILD,
           _REC_CHILD.replace(_CANONICAL, "if (kid - lanes.ones) & guard == guard:"),
           COVER_BRUTE),
    Mutant("the pair-cover scan builds its lanes before its root's look-ahead", VERIFY,
           "    lanes = guard = step = None\n",
           "    lanes = _Lanes(G.order, _lane_tables(G))\n"
           "    guard, step = lanes.guard, lanes.step\n",
           LANES),
    # the walk then files each leaf under lag = 0 with lanes, which `count`
    # reads as a stabiliser of 2 when there are two lanes or more
    Mutant("thm4's walk files under the lane group instead of no lane", VERIFY,
           "    lanes = _Lanes(G.order, [])\n", "    lanes = _Lanes(G.order, _lane_tables(G))\n",
           COVER_BRUTE),
    # -- the packed orbit value, lag = 2^n + S - uS in each lane
    Mutant("step[e] has its sign flipped", VERIFY,
           'self.step = [(self.ones << e) - int.from_bytes(buf, "little") for e, buf in enumerate(bufs)]',
           'self.step = [int.from_bytes(buf, "little") - (self.ones << e) for e, buf in enumerate(bufs)]',
           LAG),
    Mutant("the pair-cover root's lag stays 0 when its lanes are built", VERIFY,
           "                        lag = guard = lanes.guard\n", "                        guard = lanes.guard\n",
           COVER_BRUTE),
    Mutant("the stabiliser counts lanes with the guard bit of lag, not of lag - ones", VERIFY,
           "stab = maps - ((lag - lanes.ones) & lanes.guard).bit_count()",
           "stab = maps - (lag & lanes.guard).bit_count()",
           LAG),
    Mutant("record rebuilds imgs without the guard bits", VERIFY,
           "imgs = (mask * lanes.ones | lanes.guard) - lag", "imgs = mask * lanes.ones - lag",
           LAG),
    # no certificate changes, but each child the lane test drops costs a translate
    Mutant("the thm1 walk takes a child's sums before its lane test", VERIFY,
           _THM1_CHILD, """        for e in """ + _THM1_START + """:
            a = acc | tr(acc, e) | (1 << e)
            if a != full and """ + _THM1_SIZE + """:
                kid = lag + step[e]
                """ + _CANONICAL + """
""" + _LATTICE_CHILD,
           TRANSLATES),
    Mutant("an orbit counts as one set", VERIFY,
           "orbit = maps // stab", "orbit = 1",
           LATTICE_BRUTE),
    Mutant("an orbit's stabiliser is not counted", VERIFY,
           "orbit = maps // stab", "orbit = maps",
           LATTICE_BRUTE),
    Mutant("the rep is the orbit's greatest listed member, not its least", VERIFY,
           _REPS, _REPS.replace("[0]", "[-1]"),
           LATTICE_BRUTE),
    Mutant("the witnesses take only the greatest listed member of an orbit", VERIFY,
           "self.witnesses = sorted(wit + members)[:self.cap]",
           "self.witnesses = sorted(wit + members[-1:])[:self.cap]",
           LATTICE_BRUTE),
    Mutant("the listing bound ignores the least mask of the deficiency", VERIFY,
           "max(wit[-1] if wit else 0, held)", "(wit[-1] if wit else 0)",
           LATTICE_BRUTE),
    Mutant("an orbit lists one member fewer than it keeps", VERIFY,
           "n, lane, keep, need = self.order, self.lane, 0, most * stab",
           "n, lane, keep, need = self.order, self.lane, 0, (most - 1) * stab",
           LATTICE_BRUTE),
    Mutant("the selection drops the lanes up to v where it should keep them", VERIFY,
           "                hits &= self.under(imgs, v)\n",
           "                hits &= ~self.under(imgs, v + 1)\n",
           LATTICE_BRUTE),
    Mutant("thm1 files its equality cases in the violation record", VERIFY,
           "eq.record(0,", "stats.record(0,",
           LATTICE_BRUTE),
    # -- the bit-vector builder
    Mutant("mask_of sets bit i + 1 for index i", GROUPS,
           "        flags[i] = 1\n", "        flags[(i + 1) % n] = 1\n",
           MASK_ROUND_TRIP),
    # -- reading an order
    # enumerate_groups_of_order(8.0) then lists the groups of order 8
    Mutant("enumerate_groups_of_order reads n by its value", GROUPS,
           '    n = _factor(n, "order")\n', "",
           NON_INTEGER_ORDERS),
    # -- the records
    # each read of neg_table then builds a new table
    Mutant("neg_table is a plain property", GROUPS,
           "    @cached_property\n    def neg_table(", "    @property\n    def neg_table(",
           TABLES),
    Mutant("to_dict shares params and witnesses with the verdict", VERIFY,
           "{k: _fresh(v) for k, v in zip(self.KEYS, self)}", "dict(zip(self.KEYS, self))",
           VERDICT_COPY),
    # -- the start-up path
    Mutant("verify.py imports dataclasses again", VERIFY,
           "import json\n", "import dataclasses\nimport json\n",
           IMPORTS),
    Mutant("cli.py imports verify at the top again", CLI,
           "from . import dumps\n", "from . import dumps, verify\n",
           IMPORTS),
    # -- the CLI's run flags
    Mutant("the CLI passes a default the command line does not give", CLI,
           "type=int, default=argparse.SUPPRESS,", "type=int, default=default,",
           CLI_GIVEN),
    # -- the CLI's one print site
    Mutant("main prints the text form under --json", CLI,
           "text = dumps(payload)", "text = text",
           CLI_JSON),
    Mutant("main prints a line for a result with empty text", CLI,
           "        if text:\n", "        if True:\n",
           CLI_EMPTY),
    # print then drops the text, and the call exits 0
    Mutant("main writes to a stdout closed at start", CLI,
           "            if sys.stdout is None:", "            if False:",
           CLI_CLOSED_AT_START),
    Mutant("main takes EBADF from a stdout closed after start for an error", CLI,
           "(errno.EPIPE, errno.EBADF)", "(errno.EPIPE,)",
           CLI_CLOSED_AFTER_START),
    Mutant("main prints the missing payload of an error under --json", CLI,
           "if payload is not None and args.json:", "if args.json:",
           CLI_BUDGET),
]


def _pytest(tree: Path, *checks: str) -> tuple[int, float]:
    # no check uses a plugin, and importing the installed ones (hypothesis
    # alone takes about a second) would be most of a row's start-up
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *checks],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - t0


def _copy(root: Path, tree: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(root / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "pyproject.toml", tree)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _copy(root, Path(tmp))
        code, took = _pytest(Path(tmp), *sorted({m.check for m in MUTANTS}))
    print(f"unchanged tree: {'pass' if code == 0 else 'FAIL'} {took:5.1f} s")
    if code != 0:
        return 1
    wrong = 0
    for i, m in enumerate(MUTANTS, 1):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy(root, tree)
            source = (tree / m.file).read_text()
            if source.count(m.old) != 1:
                print(f"{i:2} stale     {m.what}")
                wrong += 1
                continue
            (tree / m.file).write_text(source.replace(m.old, m.new))
            code, took = _pytest(tree, m.check)
        # pytest exits 1 when a test fails; other codes mean it could not run the check
        verdict = {0: "survived", 1: "killed"}.get(code, f"error {code}")
        expected = "survived" if m.survives else "killed"
        wrong += verdict != expected
        flag = "" if verdict == expected else "  <- expected " + expected
        print(f"{i:2} {verdict:9} {took:5.1f} s  {m.what}{flag}")
    print(f"{len(MUTANTS)} mutants, {wrong} unexpected, {time.perf_counter() - t0:.1f} s in all")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
