"""Command-line front end: set computations, constructions, verifiers, sweeps.

Each command returns its exit code, its JSON payload and its text form, and
`main` alone prints them; a command that reports an error returns neither.

Exit codes: 0 = computed / all statements verified; 1 = a refutation was
found and reported (expected for the even-order counterexample searches);
2 = usage or precondition error; 3 = search budget exceeded; 141 = stdout
was closed before the output was written (as `| head` does), or when the
process started (as `>&-` does), the status of a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys

from . import dumps
from .groups import AbelianGroup, GroupSubset, enumerate_groups_of_order, is_generating, parse_group_spec, torsion_two

_RANGE_RE = re.compile(r"(\d+)\.\.(\d+)$")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def parse_order_range(text: str) -> range:
    m = _RANGE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad order range {text!r}, expected e.g. 3..16")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise ValueError(f"empty order range {text!r}")
    if a < 1:
        raise ValueError(f"order range {text!r} starts below 1, the order of the trivial group")
    return range(a, b + 1)


def parse_element_list(G: AbelianGroup, text: str) -> GroupSubset:
    """Comma-separated element indices, or (a,b) tuples for multi-factor
    groups.  An element listed twice is an error, since the subset sums of a
    multiset are not those of its set."""
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
        elements = [tuple(int(x) for x in inner.split(",")) for inner in parts[1::2]]
        indices = [G.tuple_to_index(t) for t in elements]
    else:
        elements = indices = [int(x) for x in text.split(",")]
    A = GroupSubset.from_indices(G, indices)
    seen = set()
    for element, i in zip(elements, indices):
        if i in seen:
            raise ValueError(f"element {element} is listed more than once in {text!r}")
        seen.add(i)
    return A


def _set_command(args, operation: str):
    from .subsets import h_hat, pair_cover, sigma

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
    inside = ", ".join(map(str, result.indices()))
    return 0, payload, f"{operation} over {G.spec}: {{{inside}}} ({result.cardinality} elements)"


def _construct_command(args):
    from .constructions import (
        ConstructionError,
        even_counterexample,
        near_tight_construction,
        tight_example,
        two_mod_four_counterexample,
    )
    from .subsets import pair_cover, sigma

    try:
        if args.kind == "tight":
            G, A = tight_example(args.k)
            params = {"k": args.k, "subset_sum_count": sigma(A).cardinality}
        else:
            if args.kind == "near-tight":
                G = parse_group_spec(args.group)
                A = near_tight_construction(G)
                params = {"torsion_size": torsion_two(G).cardinality}
            else:
                build = even_counterexample if args.kind == "even-ce" else two_mod_four_counterexample
                G, A = build(args.m)
                params = {"m": args.m}
            params["pair_cover_missing"] = list(pair_cover(A).complement().indices())
    except ConstructionError as exc:
        print(f"counterexample to a construction claim: {exc}", file=sys.stderr)
        return 1, None, ""
    payload = {
        "construction": args.kind,
        "group": G.spec,
        "subset": list(A.indices()),
        "size": A.cardinality,
        "generates": is_generating(G, A),
        "params": params,
    }
    inside = ", ".join(map(str, A.indices()))
    extras = " ".join(f"{k}={v}" for k, v in params.items())
    return 0, payload, f"{args.kind} in {G.spec}: {{{inside}}} ({A.cardinality} elements) {extras}"


def _groups_command(args):
    specs = [g.spec for g in enumerate_groups_of_order(args.n)]
    return 0, {"order": args.n, "groups": specs}, "\n".join(specs)


def _verify_command(args):
    from .verify import OPTIONS, REFUTED, STATEMENTS, BudgetExceededError, sweep

    statement = STATEMENTS[args.statement]
    # only the flags given, so a flag left out takes the library's default;
    # the library's one frame checks each value and rejects a stray option
    options = {k: v for k, v in vars(args).items() if k in OPTIONS}
    try:
        if args.which == "sweep":
            verdicts = sweep(statement.id, parse_order_range(args.order_range), cyclic_only=args.cyclic, **options)
            payload = [v.to_dict() for v in verdicts]
        else:
            verdicts = [statement.run(parse_group_spec(args.group), **options)]
            payload = verdicts[0].to_dict()
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, None, ""
    code = 1 if any(v.status == REFUTED for v in verdicts) else 0
    return code, payload, "\n".join(v.to_text() for v in verdicts)


def _add_set_args(p: argparse.ArgumentParser, op: str) -> None:
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True, help="element indices, e.g. 1,3,6 or (1,0),(0,2)")
    if op == "hhat":
        p.add_argument("--h", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=lambda a: _set_command(a, op))


def _add_construct_args(c: argparse.ArgumentParser, _: str) -> None:
    csub = c.add_subparsers(dest="kind", required=True)
    for kind, flag, value_type in (("tight", "--k", int), ("even-ce", "--m", int),
                                   ("mod4-ce", "--m", int), ("near-tight", "--group", str)):
        p = csub.add_parser(kind)
        p.add_argument(flag, type=value_type, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_construct_command)


def _add_verify_flags(p: argparse.ArgumentParser, names) -> None:
    from .verify import OPTIONS

    for name in names:
        default, least, greatest, text = OPTIONS[name]
        p.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS,
                       help=f"{text} (default {default}, from {least} to {greatest})")
    p.add_argument("--json", action="store_true")


def _add_verify_args(v: argparse.ArgumentParser, _: str) -> None:
    from .verify import OPTIONS, STATEMENTS

    vsub = v.add_subparsers(dest="which", required=True)
    for statement in STATEMENTS.values():
        p = vsub.add_parser(statement.alias, help=f"verify {statement.id} on one group")
        p.add_argument("--group", required=True, help="group spec, e.g. Z6 or Z2xZ4")
        _add_verify_flags(p, statement.options)
        p.set_defaults(func=_verify_command, statement=statement.id)
    p = vsub.add_parser("sweep", help="verify a statement, named by --statement, on a range of orders")
    p.add_argument("--statement", required=True, choices=STATEMENTS)
    p.add_argument("--order-range", required=True, help="inclusive order range, e.g. 3..16")
    p.add_argument("--cyclic", action="store_true", help="sweep cyclic groups only")
    _add_verify_flags(p, OPTIONS)
    p.set_defaults(func=_verify_command)


def _add_groups_args(g: argparse.ArgumentParser, _: str) -> None:
    g.add_argument("n", type=int)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_groups_command)


# Each command: its help line and what adds its arguments and subcommands.
_COMMANDS = {
    "hhat": ("compute hhat of a subset", _add_set_args),
    "sigma": ("compute sigma of a subset", _add_set_args),
    "paircover": ("compute paircover of a subset", _add_set_args),
    "construct": ("generate a checked extremal or counterexample subset", _add_construct_args),
    "verify": ("run an exhaustive verifier", _add_verify_args),
    "groups": ("list abelian groups of an order", _add_groups_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every command has its name and help line, but only
    `command` gets its arguments and subcommands, or every command when
    `command` names none.  A command line that starts with `command` shows
    nothing of the other commands beyond that, so it parses, prints and
    exits as under the full parser."""
    parser = argparse.ArgumentParser(
        prog="groupsums",
        description="Exact subset-sum sets and exhaustive cover verifiers for finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command == name or command not in _COMMANDS:
            add_args(p, name)
    return parser


def main(argv=None) -> int:
    """Run one command and print its result: the payload as JSON under
    `--json`, else the text form unless it is empty.  Each handler imports
    the modules it needs, so a call loads `verify`, `subsets` or
    `constructions` only if its command runs them."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, text = args.func(args)
        if payload is not None and args.json:
            text = dumps(payload)
        if text:
            if sys.stdout is None:  # fd 1 was closed at start, and print would drop the text
                return 141
            print(text, flush=True)
        return code
    except OSError as exc:
        if exc.errno not in (errno.EPIPE, errno.EBADF):  # a closed pipe, or fd 1 closed since start
            raise
        # devnull under stdout, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
