"""Colexicographic indexing of fixed-size index combinations.

A combination c_1 < c_2 < ... < c_k of nonnegative integers has rank

    rank(c) = C(c_1, 1) + C(c_2, 2) + ... + C(c_k, k)

and ranks enumerate combinations in colexicographic order, which coincides
with the numeric order of their bitmasks.  The searches in `groupsums.verify`
walk combinations in this order, and a counterexample search that stops at
its first witness reports that witness's rank plus one as the number of
candidates it checked.

>>> [rank(c) for c in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]]
[0, 1, 2, 3, 4, 5]
"""

from __future__ import annotations

from math import comb
from typing import Sequence


def rank(combo: Sequence[int]) -> int:
    r = 0
    for i, c in enumerate(combo, start=1):
        r += comb(c, i)
    return r
