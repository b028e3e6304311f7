"""Command-line front end: set computations, constructions, verifiers, sweeps.

Exit codes: 0 = computed / all statements verified; 1 = a refutation was
found and reported (expected for the even-order counterexample searches);
2 = usage or precondition error; 3 = search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .constructions import (
    ConstructionError,
    even_counterexample,
    near_tight_construction,
    tight_example,
    two_mod_four_counterexample,
)
from .groups import AbelianGroup, GroupSpecError, GroupSubset, enumerate_groups_of_order, is_generating, parse_group_spec
from .subsets import h_hat, pair_cover, sigma
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_WITNESS_CAP,
    KNOWN_STATEMENTS,
    REFUTED,
    BudgetExceededError,
    Verdict,
    critical_number,
    search_lemma2_counterexamples,
    sweep,
    verify_pair_cover_threshold,
    verify_subset_sum_bound,
    verify_three_fold_cover,
)

_RANGE_RE = re.compile(r"(\d+)\.\.(\d+)$")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def dumps(payload) -> str:
    """Canonical JSON rendering; parsing and re-rendering is byte-identical."""
    return json.dumps(payload, indent=2, sort_keys=True)


def parse_order_range(text: str) -> range:
    m = _RANGE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad order range {text!r}, expected e.g. 3..16")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise ValueError(f"empty order range {text!r}")
    return range(a, b + 1)


def parse_element_list(G: AbelianGroup, text: str) -> GroupSubset:
    """Comma-separated element indices, or (a,b) tuples for multi-factor groups."""
    text = text.strip()
    if not text:
        return GroupSubset(G, 0)
    if "(" in text:
        # split() keeps the tuple bodies at odd positions and the text
        # around them at even ones, which must be commas and nothing else
        parts = _TUPLE_RE.split(text)
        between = [p.strip() for p in parts[::2]]
        if between[0] or between[-1] or any(p != "," for p in between[1:-1]):
            raise ValueError(f"bad element list {text!r}, expected tuples like (1,0),(0,2)")
        indices = []
        for inner in parts[1::2]:
            coords = tuple(int(x) for x in inner.split(","))
            indices.append(G.tuple_to_index(coords))
        return GroupSubset.from_indices(G, indices)
    return GroupSubset.from_indices(G, (int(x) for x in text.split(",")))


def _set_command(args, operation: str) -> int:
    G = parse_group_spec(args.group)
    A = parse_element_list(G, args.set)
    if operation == "hhat":
        result = h_hat(A, args.h)
    elif operation == "sigma":
        result = sigma(A)
    else:
        result = pair_cover(A)
    payload = {
        "group": G.spec,
        "operation": operation,
        "input": list(A.indices()),
        "result": list(result.indices()),
        "cardinality": result.cardinality,
    }
    if operation == "hhat":
        payload["h"] = args.h
    if args.json:
        print(dumps(payload))
    else:
        inside = ", ".join(map(str, result.indices()))
        print(f"{operation} over {G.spec}: {{{inside}}} ({result.cardinality} elements)")
    return 0


def _construct_command(args) -> int:
    if args.kind == "tight":
        G, A = tight_example(args.k)
        params = {"k": args.k, "subset_sum_count": sigma(A).cardinality}
    elif args.kind == "even-ce":
        G, A = even_counterexample(args.m)
        params = {"m": args.m, "pair_cover_missing": _missing(G, A)}
    elif args.kind == "mod4-ce":
        G, A = two_mod_four_counterexample(args.m)
        params = {"m": args.m, "pair_cover_missing": _missing(G, A)}
    else:
        G = parse_group_spec(args.group)
        A = near_tight_construction(G)
        params = {
            "torsion_size": sum(1 for d in G.double_table if d == 0),
            "pair_cover_missing": _missing(G, A),
        }
    payload = {
        "construction": args.kind,
        "group": G.spec,
        "subset": list(A.indices()),
        "size": A.cardinality,
        "generates": is_generating(G, A),
        "params": params,
    }
    if args.json:
        print(dumps(payload))
    else:
        inside = ", ".join(map(str, A.indices()))
        extras = " ".join(f"{k}={v}" for k, v in params.items())
        print(f"{args.kind} in {G.spec}: {{{inside}}} ({A.cardinality} elements) {extras}")
    return 0


def _missing(G: AbelianGroup, A: GroupSubset) -> list[int]:
    return list(pair_cover(A).complement().indices())


def _groups_command(args) -> int:
    groups = enumerate_groups_of_order(args.n)
    if args.json:
        print(dumps({"order": args.n, "groups": [g.spec for g in groups]}))
    else:
        for g in groups:
            print(g.spec)
    return 0


def _verify_single(statement: str, args) -> list[Verdict]:
    common = dict(witness_cap=args.witness_cap, jobs=args.jobs, budget=args.budget)
    G = parse_group_spec(args.group)
    if statement == "lemma2-search":
        if not G.is_cyclic:
            raise ValueError("the pair-cover search runs on cyclic groups")
        return [search_lemma2_counterexamples(
            G.order, exhaustive=not args.first_only, symmetry=args.symmetry, **common)]
    if statement == "thm4":
        if not G.is_cyclic:
            raise ValueError("the three-fold cover statement is about cyclic groups")
        return [verify_three_fold_cover(G.order, symmetry=args.symmetry, **common)]
    if statement == "prop3.2":
        return [verify_pair_cover_threshold(G, symmetry=args.symmetry, **common)]
    if statement == "thm1":
        return [verify_subset_sum_bound(G, args.min_size, **common)]
    return [critical_number(G, **common)[1]]


def _verify_command(args) -> int:
    if args.which == "sweep":
        statement = args.statement
        if statement not in KNOWN_STATEMENTS:
            raise ValueError(f"unknown statement {statement!r}; known: {', '.join(KNOWN_STATEMENTS)}")
    else:
        statement = {
            "prop3": "prop3.2",
            "lemma2": "lemma2-search",
            "thm1": "thm1",
            "thm4": "thm4",
            "thm5": "thm5",
        }[args.which]
    if getattr(args, "group", None):
        verdicts = _verify_single(statement, args)
    elif getattr(args, "order_range", None):
        verdicts = sweep(
            statement,
            parse_order_range(args.order_range),
            cyclic_only=args.cyclic,
            min_size=args.min_size,
            witness_cap=args.witness_cap,
            jobs=args.jobs,
            symmetry=args.symmetry,
            budget=args.budget,
            exhaustive=not args.first_only,
        )
    else:
        raise ValueError("need --group or --order-range")
    if args.json:
        if len(verdicts) == 1 and args.which != "sweep" and getattr(args, "group", None):
            print(verdicts[0].to_json())
        else:
            print(dumps([v.to_dict() for v in verdicts]))
    else:
        for v in verdicts:
            print(render_verdict(v))
    return 1 if any(v.status == REFUTED for v in verdicts) else 0


def render_verdict(v: Verdict) -> str:
    decorations = []
    for key in ("violations", "critical_number", "subset_size", "threshold_size",
                "min_size", "equality_count", "matches_known"):
        if key in v.params and v.params[key] is not None:
            decorations.append(f"{key}={v.params[key]}")
    head = (
        f"{v.statement} {v.group}: {v.status}  checked={v.checked}  "
        + "  ".join(decorations)
        + f"  [{v.elapsed_ms} ms]"
    )
    lines = [head]
    for w in v.witnesses:
        lines.append(f"  witness {{{', '.join(map(str, w))}}}")
    return "\n".join(lines)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _add_common_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="group spec, e.g. Z6 or Z2xZ4")
    p.add_argument("--order-range", help="inclusive order range, e.g. 3..16")
    p.add_argument("--cyclic", action="store_true", help="sweep cyclic groups only")
    p.add_argument("--min-size", type=int, default=5, help="minimum subset size for the sum-count bound")
    p.add_argument("--witness-cap", type=_int_at_least(0), default=DEFAULT_WITNESS_CAP)
    p.add_argument("--symmetry", action="store_true",
                   help="search orbit representatives under unit multiplication (cyclic groups)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel worker processes")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="largest group order to exhaust")
    p.add_argument("--first-only", action="store_true",
                   help="stop the counterexample search at the first witness")
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsums",
        description="Exact subset-sum sets and exhaustive cover verifiers for finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for op in ("hhat", "sigma", "paircover"):
        p = sub.add_parser(op, help=f"compute {op} of a subset")
        p.add_argument("--group", required=True)
        p.add_argument("--set", required=True, help="element indices, e.g. 1,3,6 or (1,0),(0,2)")
        if op == "hhat":
            p.add_argument("--h", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=lambda a, op=op: _set_command(a, op))

    c = sub.add_parser("construct", help="generate a checked extremal or counterexample subset")
    csub = c.add_subparsers(dest="kind", required=True)
    p = csub.add_parser("tight")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_construct_command)
    p = csub.add_parser("even-ce")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_construct_command)
    p = csub.add_parser("mod4-ce")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_construct_command)
    p = csub.add_parser("near-tight")
    p.add_argument("--group", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_construct_command)

    v = sub.add_parser("verify", help="run an exhaustive verifier")
    vsub = v.add_subparsers(dest="which", required=True)
    for name in ("prop3", "lemma2", "thm1", "thm4", "thm5"):
        p = vsub.add_parser(name)
        _add_common_verify_flags(p)
        p.set_defaults(func=_verify_command)
    p = vsub.add_parser("sweep")
    p.add_argument("--statement", required=True, help=f"one of: {', '.join(KNOWN_STATEMENTS)}")
    _add_common_verify_flags(p)
    p.set_defaults(func=_verify_command)

    g = sub.add_parser("groups", help="list abelian groups of an order")
    g.add_argument("n", type=int)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_groups_command)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"counterexample to a construction claim: {exc}", file=sys.stderr)
        return 1
    except (GroupSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
