"""Re-checks of certificates and CLI results that do not trust the search.

Every witness is re-derived with `naive_subset_sums` (explicit subset
enumeration) and `GroupSubset`, and subgroup generation with element-wise
table arithmetic.  Nothing here imports `groupsums.verify`.  Each check
returns a list of problems; an empty list means the output holds up.
"""

from __future__ import annotations

from groupsums import GroupSubset, naive_subset_sums, parse_group_spec


def _generates(G, elems) -> bool:
    closure = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in elems:
            y = G.add_index(x, s)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return len(closure) == G.order


def _torsion_two_size(G) -> int:
    return sum(1 for x in range(G.order) if G.add_index(x, x) == 0)


def check_certificate(cert: dict) -> list[str]:
    """Re-check each witness of one certificate against its statement."""
    G = parse_group_spec(cert["group"])
    statement = cert["statement"]
    params = cert["params"]
    problems: list[str] = []
    where = f"{statement} {cert['group']}"

    def need(cond: bool, what: str, w) -> None:
        if not cond:
            problems.append(f"{where}: witness {w}: {what}")

    if statement in ("prop3.2", "lemma2-search", "thm4"):
        violations = params["violations"]
        if (violations > 0) != (cert["status"] == "refuted"):
            problems.append(f"{where}: status {cert['status']} with {violations} violations")
    hist = params.get("deficiency_histogram")
    if hist is not None and sum(hist.values()) != params["violations"]:
        problems.append(f"{where}: deficiency histogram does not add up to the violations")

    for w in cert["witnesses"]:
        A = GroupSubset.from_indices(G, w)
        need(A.cardinality == len(w), "repeated element", w)
        if statement in ("prop3.2", "lemma2-search"):
            size = params["threshold_size" if statement == "prop3.2" else "subset_size"]
            need(A.cardinality == size and 0 not in A, f"not a {size}-subset of the nonzero elements", w)
            deficiency = G.order - (A | naive_subset_sums(A, 2)).cardinality
            need(deficiency > 0, "pair cover is all of G", w)
            if hist is not None:
                need(str(deficiency) in hist, f"deficiency {deficiency} missing from the histogram", w)
        elif statement == "thm4":
            need(A.cardinality == params["subset_size"], "wrong size", w)
            need(naive_subset_sums(A, 3).cardinality < G.order, "three-fold sums cover G", w)
        elif statement == "thm5":
            size = params["critical_number"] - 1
            need(A.cardinality == size and 0 not in A, f"not a {size}-subset of the nonzero elements", w)
            need(naive_subset_sums(A).cardinality < G.order, "subset sums cover G", w)
            need(params["failures_by_size"].get(str(size), 0) > 0, "no failures counted at its size", w)
        elif statement == "thm1":
            need(0 not in A and A.cardinality >= params["min_size"], "not an admissible subset", w)
            need(_generates(G, w), "does not generate G", w)
            got = naive_subset_sums(A).cardinality
            if cert["status"] == "verified":
                need(got == 2 * A.cardinality < G.order, f"|sigma| = {got} is not 2|S| < |G|", w)
            else:
                need(got < min(G.order, 2 * A.cardinality), f"|sigma| = {got} meets the bound", w)
        else:
            problems.append(f"{where}: unknown statement")
            break
    return problems


def check_set_result(payload: dict) -> list[str]:
    """A `sigma`, `hhat` or `paircover` CLI result against explicit enumeration."""
    G = parse_group_spec(payload["group"])
    A = GroupSubset.from_indices(G, payload["input"])
    op = payload["operation"]
    if op == "sigma":
        want = naive_subset_sums(A)
    elif op == "hhat":
        want = naive_subset_sums(A, payload["h"])
    else:
        want = A | naive_subset_sums(A, 2)
    if payload["result"] != list(want.indices()) or payload["cardinality"] != want.cardinality:
        return [f"{op} over {payload['group']} of {payload['input']} differs from enumeration"]
    return []


def check_construction(payload: dict) -> list[str]:
    """A `construct tight` or `construct near-tight` CLI result."""
    G = parse_group_spec(payload["group"])
    A = GroupSubset.from_indices(G, payload["subset"])
    params = payload["params"]
    problems = []
    if 0 in A or A.cardinality != payload["size"]:
        problems.append("subset contains 0 or has the wrong size")
    if payload["generates"] != _generates(G, payload["subset"]):
        problems.append("generation flag is wrong")
    if payload["construction"] == "tight":
        k = params["k"]
        if G.order != 3 * k or A.cardinality != k or naive_subset_sums(A).cardinality != 2 * k:
            problems.append(f"not a tight example for k={k}")
    else:
        missing = (A | naive_subset_sums(A, 2)).complement()
        if 2 * A.cardinality != G.order + _torsion_two_size(G) - 2:
            problems.append("size is not the threshold minus one")
        if not missing.cardinality or params["pair_cover_missing"] != list(missing.indices()):
            problems.append("pair cover misses other elements than claimed")
    return [f"construct {payload['construction']} {payload['group']}: {p}" for p in problems]
