"""Hand-made mutants of the search and the check that must fail on each.

Each row names a source file, a text that occurs exactly once in it, the
text to put in its place, and the pytest node that must fail once the
replacement is made in a copy of the tree.  A row with `survives` set is an
expected survivor: the mutant changes no certificate and no pinned count,
and the string says why.  `test_mutants.py` checks that every old text
still occurs exactly once, so a row goes stale loudly when the code moves.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    check: str
    survives: str | None = None


VERIFY = "src/groupsums/verify.py"
_FILE_TASK = """        if cut and comb(bound, j) <= cut:
            stats.tasks.append((dp1 >> lo, bound))
            return
"""

MUTANTS = [
    # the pair-cover scan files a task before its look-ahead
    Mutant(VERIFY,
           "        avail = free[bound]\n        navail = nfree[bound]\n",
           _FILE_TASK + "        avail = free[bound]\n        navail = nfree[bound]\n",
           "tests/test_verify.py::test_split_files_only_live_tasks"),
    # the three-fold scan files a task before its look-ahead
    Mutant(VERIFY,
           "        avail = free[bound]\n        uncovered = full ^ dp3\n",
           _FILE_TASK + "        avail = free[bound]\n        uncovered = full ^ dp3\n",
           "tests/test_verify.py::test_split_files_only_live_tasks"),
    # a one-job cover scan splits itself too
    Mutant(VERIFY,
           "cut = comb(bound, k - fixed.bit_count()) // (4 * jobs) if jobs > 1 else 0",
           "cut = comb(bound, k - fixed.bit_count()) // (4 * jobs) if jobs > 0 else 0",
           "tests/test_verify.py::test_pool_never_outnumbers_its_tasks"),
    # the merge keeps the greatest first mask per deficiency
    Mutant(VERIFY,
           "self.reps[d] = min(mask, self.reps.get(d, mask))",
           "self.reps[d] = max(mask, self.reps.get(d, mask))",
           "tests/test_verify.py::test_subset_sum_scans_match_brute_force"),
    # the merge keeps the witnesses in arrival order
    Mutant(VERIFY,
           "self.witnesses = sorted(self.witnesses + other.witnesses)[:self.cap]",
           "self.witnesses = (self.witnesses + other.witnesses)[:self.cap]",
           "tests/test_verify.py::test_subset_sum_scans_match_brute_force"),
    # the merge keeps the equality witnesses in arrival order
    Mutant(VERIFY,
           "self.eq_witnesses = sorted(self.eq_witnesses + other.eq_witnesses)[:self.cap]",
           "self.eq_witnesses = (self.eq_witnesses + other.eq_witnesses)[:self.cap]",
           "tests/test_verify.py::test_subset_sum_scans_match_brute_force"),
    # the thm5 top pass files saturated subtrees as well: thm5 Z8 at jobs 32
    # then files 43 tasks, more than its jobs, where it filed 23
    Mutant(VERIFY,
           """        if acc == full:
            return
        if cut and (1 << limit) <= cut:
            stats.tasks.append((pmask, limit))
            return
""",
           """        if cut and (1 << limit) <= cut:
            stats.tasks.append((pmask, limit))
            return
        if acc == full:
            return
""",
           "tests/test_verify.py::test_pool_never_outnumbers_its_tasks"),
    # a single filed task starts a pool of one
    Mutant(VERIFY,
           "    if len(tasks) < 2:\n",
           "    if not tasks:\n",
           "tests/test_verify.py::test_pool_never_outnumbers_its_tasks",
           survives="the task's records are the same in a worker, so only the fork cost "
                    "differs, and no tested scan files exactly one task"),
]
