import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from groupsums.cli import build_parser, dumps, main, parse_element_list, parse_order_range
from groupsums import enumerate_groups_of_order, parse_group_spec
from groupsums.verify import OPTIONS, RUN_OPTIONS, STATEMENTS, Verdict, sweep

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Standard modules the package does not need; every CLI call would pay to load them.
UNNEEDED = ("copy", "dataclasses", "inspect", "multiprocessing", "typing")


def test_import_leaves_out_unneeded_modules():
    """`import groupsums` loads none of its submodules, `import groupsums.cli`
    only `groups`, and a CLI call only what its command runs: `groups`,
    `sigma` and `construct tight` leave `verify` unloaded.  Since no scan
    starts a pool, a verify call at the most jobs does not import
    multiprocessing, and with every submodule loaded, no module of
    `UNNEEDED` is.  `-S` keeps the host's site packages from loading one
    first, and `-B` writes no bytecode into the tree."""
    script = f"""
import sys
sys.path.insert(0, {str(ROOT / 'src')!r})
held = set(sys.modules)
def report(*extra):
    print(*extra, sorted(m for m in sys.modules if m.startswith("groupsums")), file=sys.stderr)
import groupsums
report()
import groupsums.cli
report()
from groupsums.cli import main
report([main(a) for a in (["groups", "4", "--json"], ["sigma", "--group", "Z6", "--set", "1,2"],
                          ["construct", "tight", "--k", "3"])])
report(main(["verify", "lemma2", "--group", "Z12", "--jobs", "64"]), "multiprocessing" in sys.modules)
import groupsums.constructions, groupsums.subsets, groupsums.verify
print(sorted(set({UNNEEDED!r}) & (set(sys.modules) - held)), file=sys.stderr)
"""
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                          capture_output=True, text=True, check=True)
    cli = "'groupsums', 'groupsums.cli'"
    assert done.stderr.splitlines() == [
        "['groupsums']",
        f"[{cli}, 'groupsums.groups']",
        f"[0, 0, 0] [{cli}, 'groupsums.constructions', 'groupsums.groups', 'groupsums.subsets']",
        f"1 False [{cli}, 'groupsums.constructions', 'groupsums.groups', 'groupsums.subsets', 'groupsums.verify']",
        "[]",
    ], done.stderr


# Each command path: every command, `construct` kind and `verify` subcommand.
COMMAND_PATHS = [
    *(["hhat"], ["sigma"], ["paircover"], ["construct"], ["verify"], ["groups"]),
    *(["construct", kind] for kind in ("tight", "even-ce", "mod4-ce", "near-tight")),
    *(["verify", st.alias] for st in STATEMENTS.values()),
    ["verify", "sweep"],
]


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
def test_command_parser_prints_and_exits_as_the_full_parser(capsys, path):
    """`--help` and a usage error with a required flag left out print the
    same bytes and exit with the same code under the parser built for the
    command as under the full parser."""
    for argv, want in ((path + ["--help"], 0), (path, 2)):
        seen = []
        for parser in (build_parser(path[0]), build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            seen.append((exc.value.code, *capsys.readouterr()))
        assert seen[0] == seen[1], argv
        code, out, err = seen[0]
        assert code == want and (err if code else out), argv


def test_sigma_command(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "Z9", "--set", "1,3,6")
    assert code == 0
    assert "{0, 1, 3, 4, 6, 7}" in out
    assert "(6 elements)" in out


def test_hhat_command_json(capsys):
    code, out, _ = run(capsys, "hhat", "--group", "Z6", "--set", "1,2,3", "--h", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == [3, 4, 5]
    assert payload["h"] == 2


def test_paircover_command(capsys):
    code, out, _ = run(capsys, "paircover", "--group", "Z6", "--set", "1,3,4")
    assert code == 0
    assert "{1, 3, 4, 5}" in out


def test_tuple_element_notation(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "Z2xZ4", "--set", "(1,0),(0,2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == [1, 4]


def test_parse_element_list_rejects_bad_index():
    G = parse_group_spec("Z6")
    with pytest.raises(ValueError):
        parse_element_list(G, "7")


def test_element_list_rejects_text_outside_tuples(capsys):
    code, out, err = run(capsys, "paircover", "--group", "Z2xZ4", "--set", "(1,0),junk")
    assert code == 2 and out == ""
    assert "bad element list" in err
    G = parse_group_spec("Z2xZ4")
    for text in ("(1,0)(0,2)", "x(1,0)", "(1,0),,(0,2)", "(1,0),", "(1,0),5"):
        with pytest.raises(ValueError):
            parse_element_list(G, text)
    assert parse_element_list(G, " (1,0) , (0,2) ").indices() == (1, 4)


def test_parse_order_range():
    assert list(parse_order_range("3..5")) == [3, 4, 5]
    with pytest.raises(ValueError):
        parse_order_range("5..3")
    with pytest.raises(ValueError):
        parse_order_range("3-5")
    with pytest.raises(ValueError):
        parse_order_range("0..4")


def test_verify_lemma2_json_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "lemma2", "--group", "Z6", "--json")
    assert code == 1  # refutation reported: witnesses present
    payload = json.loads(out)
    assert payload["status"] == "refuted"
    assert [1, 2, 3] in payload["witnesses"]


def test_verify_thm5_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "thm5", "--group", "Z8")
    assert code == 0
    assert "critical_number=5" in out


def test_verify_thm1_group(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--group", "Z9")
    assert code == 0
    assert "verified" in out and "checked=93" in out


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(capsys, "verify", "lemma2", "--group", "Z10", "--json")
    assert code == 1
    assert dumps(json.loads(out)) + "\n" == out


def test_sweep_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "sweep", "--statement", "prop3.2", "--order-range", "3..8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert dumps(payload) + "\n" == out
    assert {v["status"] for v in payload} <= {"verified", "vacuous"}


@pytest.mark.parametrize("argv", [
    "hhat --group Z6 --set 1,2,3 --h 2",
    "sigma --group Z2xZ4 --set (1,0),(0,2)",
    "paircover --group Z6 --set 1,3,4",
    "construct tight --k 3",
    "construct even-ce --m 8",
    "construct mod4-ce --m 10",
    "construct near-tight --group Z2xZ4",
    "groups 8",
    "verify thm5 --group Z8",
    "verify sweep --statement lemma2-search --order-range 3..6",
])
def test_every_command_json_round_trips(capsys, argv):
    """Each command path prints under `--json` exactly the bytes that
    `dumps` gives for the payload it prints, and nothing on stderr."""
    code, out, err = run(capsys, *argv.split(), "--json")
    assert code in (0, 1) and err == "", argv
    assert dumps(json.loads(out)) + "\n" == out, argv


# (group, checked, threshold_size, torsion_size, available_nonzero or None)
_PROP3_SWEEP_3_8 = [
    ("Z3", 1, 2, 1, None), ("Z4", 1, 3, 2, None), ("Z2 x Z2", 0, 4, 4, 3),
    ("Z5", 4, 3, 1, None), ("Z6", 5, 4, 2, None), ("Z7", 15, 4, 1, None),
    ("Z8", 21, 5, 2, None), ("Z2 x Z4", 7, 6, 4, None), ("Z2 x Z2 x Z2", 0, 8, 8, 7),
]


def test_sweep_output_is_pinned(capsys):
    # the bytes `verify prop3 --order-range 3..8 --json` printed before
    # ranges moved to `verify sweep`, with elapsed_ms masked
    expected = []
    for group, checked, threshold, g2, available in _PROP3_SWEEP_3_8:
        params = {"threshold_size": threshold, "torsion_size": g2, "violations": 0}
        if available is not None:
            params["available_nonzero"] = available
        expected.append({
            "checked": checked, "elapsed_ms": 0, "group": group, "params": params,
            "statement": "prop3.2", "status": "vacuous" if available else "verified",
            "toolchain_version": "0.1.0", "witnesses": [],
        })
    code, out, _ = run(capsys, "verify", "sweep", "--statement", "prop3.2", "--order-range", "3..8", "--json")
    assert code == 0
    assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) == dumps(expected) + "\n"


def test_jobs_flag_yields_identical_certificates(capsys):
    _, out1, _ = run(capsys, "verify", "lemma2", "--group", "Z12", "--json", "--jobs", "1")
    _, out2, _ = run(capsys, "verify", "lemma2", "--group", "Z12", "--json", "--jobs", "3")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_groups_command(capsys):
    code, out, _ = run(capsys, "groups", "8")
    assert code == 0
    assert out.splitlines() == ["Z8", "Z2 x Z4", "Z2 x Z2 x Z2"]
    code, out, _ = run(capsys, "groups", "16", "--json")
    assert json.loads(out)["groups"][0] == "Z16"


def test_construct_commands(capsys):
    code, out, _ = run(capsys, "construct", "tight", "--k", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "Z9" and payload["subset"] == [1, 3, 6]
    assert payload["params"]["subset_sum_count"] == 6

    code, out, _ = run(capsys, "construct", "even-ce", "--m", "8", "--json")
    assert json.loads(out)["params"]["pair_cover_missing"] == [0]

    code, out, _ = run(capsys, "construct", "mod4-ce", "--m", "10", "--json")
    assert json.loads(out)["params"]["pair_cover_missing"] == [0, 4]

    code, out, _ = run(capsys, "construct", "near-tight", "--group", "Z2xZ4", "--json")
    payload = json.loads(out)
    assert payload["subset"] == [1, 2, 3, 4, 5]


def test_construction_error_exits_one(capsys, monkeypatch):
    import groupsums.constructions as constructions

    def fail(k):
        raise constructions.ConstructionError(f"tight example for k={k} misses a sum")

    monkeypatch.setattr(constructions, "tight_example", fail)
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "construct", "tight", "--k", "3", *json_flag)
        assert (code, out) == (1, ""), json_flag
        assert err == "counterexample to a construction claim: tight example for k=3 misses a sum\n"


def test_empty_sweep_text_prints_nothing(capsys):
    """A text sweep with no group in the statement's domain prints no line
    at all, not even an empty one; its `--json` form prints an empty list."""
    argv = ("verify", "sweep", "--statement", "thm4", "--order-range", "3..8")
    assert run(capsys, *argv) == (0, "", "")
    assert run(capsys, *argv, "--json") == (0, "[]\n", "")


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "verify", "thm4", "--group", "Z11")[0] == 2
    assert run(capsys, "verify", "thm1")[0] == 2  # no --group
    assert run(capsys, "sigma", "--group", "Zfive", "--set", "1")[0] == 2
    assert run(capsys, "sigma", "--group", "Z2^" + "9" * 30, "--set", "1")[:2] == (2, "")
    huge = "Z" + "9" * 5000
    code, out, err = run(capsys, "sigma", "--group", huge, "--set", "1")
    assert (code, out) == (2, "") and repr(huge) in err
    assert run(capsys, "verify", "sweep", "--statement", "thm9", "--order-range", "3..4")[0] == 2
    assert run(capsys, "construct", "tight", "--k", "2")[0] == 2
    assert run(capsys, "verify", "lemma2", "--group", "Z2xZ4")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    for group, text, repeated in (("Z6", "1,1,2", "1"), ("Z2xZ4", "(1,0),(1,0)", "(1, 0)")):
        code, out, err = run(capsys, "sigma", "--group", group, "--set", text, "--json")
        assert (code, out) == (2, "") and f"element {repeated} is listed more than once" in err


def test_bad_jobs_and_witness_cap_exit_two(capsys):
    """The error names the option and the value it rejects: argparse for a
    value that is not an integer, the verifier for one out of range."""
    for flag, value, named in (("--jobs", "0", "jobs=0"), ("--jobs", "-2", "jobs=-2"),
                               ("--witness-cap", "-1", "witness_cap=-1"), ("--budget", "0", "budget=0"),
                               ("--jobs", "two", "argument --jobs: invalid int value: 'two'"),
                               ("--jobs", "65", "jobs=65")):
        code, out, err = run(capsys, "verify", "lemma2", "--group", "Z8", flag, value)
        assert code == 2, (flag, value)
        assert out == "" and named in err, (flag, value, err)
    assert run(capsys, "verify", "prop3", "--group", "Z7", "--jobs", "64")[0] == 0


@pytest.mark.parametrize("name", OPTIONS)
def test_each_option_row_bounds_every_run(capsys, name):
    """Each row of the option table holds on the first statement that takes
    it, on Z1: through `Statement.run`, through a sweep over no order, and
    through the CLI.  Its least value passes, and one less, one more than
    its greatest value and a float fail, naming the option and the value."""
    row = OPTIONS[name]
    st = next(st for st in STATEMENTS.values() if name in st.options)
    flag = "--" + name.replace("_", "-")
    Z1 = parse_group_spec("Z1")
    assert st.run(Z1, **{name: row.least}).group == "Z1"
    assert sweep(st.id, [], **{name: row.least}) == []
    assert run(capsys, "verify", st.alias, "--group", "Z1", flag, str(row.least))[0] == 0
    bad = [(row.least - 1, ValueError)]
    if row.greatest != math.inf:
        bad.append((row.greatest + 1, ValueError))
    bad.append((row.least + 0.5, TypeError))
    for value, error in bad:
        named = f"{name}={value}"
        for call in (lambda: st.run(Z1, **{name: value}), lambda: sweep(st.id, [], **{name: value})):
            with pytest.raises(error, match=re.escape(named)):
                call()
        code, out, err = run(capsys, "verify", st.alias, "--group", "Z1", flag, str(value))
        if error is TypeError:  # argparse reads the flag as an int, and names it
            named = f"argument {flag}: invalid int value: '{value}'"
        assert (code, out) == (2, "") and named in err, (value, err)


def test_verify_help_lists_the_option_rows(capsys):
    """`verify <alias> --help` lists the run options' flags and that
    statement's own, and `verify sweep --help` the flag of every row."""
    flags = {"--" + name.replace("_", "-"): name for name in OPTIONS}
    own = {"thm1": ["min_size"]}
    for path, names in [*((st.alias, [*RUN_OPTIONS, *own.get(st.id, [])]) for st in STATEMENTS.values()),
                        ("sweep", list(OPTIONS))]:
        code, out, _ = run(capsys, "verify", path, "--help")
        listed = [flags[f] for f in dict.fromkeys(re.findall(r"--[a-z-]+", out)) if f in flags]
        assert (code, listed) == (0, names), path


def test_budget_exit_three(capsys):
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "verify", "lemma2", "--group", "Z40", *json_flag)
        assert (code, out) == (3, ""), json_flag
        assert "budget" in err


@pytest.mark.parametrize("argv", ["groups 12", "verify thm1 --group Z12 --json"])
def test_closed_stdout_exits_141(argv):
    """A reader that closes stdout before the CLI writes, as `| head` may,
    is no refutation: the call exits 141, the status of a process killed
    by SIGPIPE, with nothing on stderr.  The pipe's read end is closed
    before the CLI starts, so its first write fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.Popen([sys.executable, "-B", "-m", "groupsums.cli", *argv.split()], stdout=write,
                                 stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    finally:
        os.close(write)
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, ""), err


@pytest.mark.parametrize("argv", ["sigma --group Z9 --set 1,3,6", "verify thm1 --group Z12 --json"])
def test_stdout_closed_at_start_exits_141(argv):
    """A process started with fd 1 closed, as `>&-` starts it, has no
    `sys.stdout`, and print would drop the result without an error: the
    call exits 141, as for a closed pipe, with nothing on stderr."""
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-B", "-m", "groupsums.cli",
                           *argv.split()], stderr=subprocess.PIPE, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stderr) == (141, ""), done.stderr


@pytest.mark.parametrize("argv", ["sigma --group Z9 --set 1,3,6", "verify thm1 --group Z12 --json"])
def test_stdout_closed_after_start_exits_141(argv):
    """When fd 1 is closed after start, the write fails with EBADF, not
    with a broken pipe: the call exits 141 all the same, with no
    traceback."""
    script = (f"import os, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); from groupsums.cli import main; "
              f"os.close(1); sys.exit(main({argv.split()!r}))")
    done = subprocess.run([sys.executable, "-B", "-c", script], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (141, ""), done.stderr


def test_budget_flag_lifts_the_cap(capsys):
    code, out, _ = run(capsys, "verify", "lemma2", "--group", "Z26", "--budget", "26")
    assert code == 1


@pytest.mark.parametrize("argv", [
    "verify thm1 --group Z6 --symmetry",
    "verify thm1 --group Z6 --first-only",
    "verify prop3 --group Z6 --first-only",
    "verify prop3 --group Z6 --min-size 99",
    "verify thm5 --group Z6 --symmetry",
    "verify lemma2 --group Z8 --order-range 3..4",
    "verify lemma2 --group Z8 --cyclic",
    "verify sweep --statement lemma2-search --group Z8 --cyclic",
    "verify thm1 --group Z6 --budget -5",
    "verify thm1 --group Z6 --budget 0",
    "verify thm1 --group Z30 --min-size 0",
    "verify prop3 --group Z2^3 --budget 0",
    "verify sweep --statement thm1 --order-range 3..4 --symmetry",
    "verify sweep --statement prop3.2 --order-range 3..4 --min-size 3",
    "verify sweep --statement thm4 --order-range 12..12 --first-only",
    "verify prop3 --group Z7 --symmetry",
    "verify lemma2 --group Z8 --symmetry",
    "verify thm4 --group Z12 --symmetry",
    "verify sweep --statement prop3.2 --order-range 7..8 --symmetry",
    "verify prop3 --order-range 3..4",
    "verify thm1 --group Z6 --cyclic",
    "verify sweep --statement thm1 --group Z6",
    "verify lemma2 --group Z8 --first-only",
    "verify sweep --statement lemma2-search --order-range 4..6 --first-only",
])
def test_verify_rejects_flags_it_would_drop(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "", argv
    assert err.strip(), argv


def test_verify_passes_only_the_flags_given(capsys, monkeypatch):
    """A flag left out is not passed on, so the verifier's own default holds."""
    import groupsums.verify as verify

    seen = []

    def record(result):
        return lambda *args, **kwargs: seen.append(kwargs) or result

    monkeypatch.setattr(STATEMENTS["thm1"], "run", record(verify.verify_subset_sum_bound(parse_group_spec("Z6"))))
    monkeypatch.setattr(verify, "sweep", record([]))
    for argv in ("verify thm1 --group Z6", "verify thm1 --group Z6 --jobs 2 --min-size 3",
                 "verify sweep --statement thm1 --order-range 3..4",
                 "verify sweep --statement thm1 --order-range 3..4 --jobs 2 --min-size 3"):
        assert run(capsys, *argv.split())[0] == 0, argv
    assert seen == [{}, {"jobs": 2, "min_size": 3},
                    {"cyclic_only": False}, {"cyclic_only": False, "jobs": 2, "min_size": 3}]


def test_cli_and_sweep_agree_on_every_statement(capsys):
    """On every group of order 1..14, `verify <alias>` exits 2 with an
    error and no output exactly where `sweep` skips the group, and
    otherwise gives the sweep's certificate, for the group asked for."""
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    listed = re.search(r"\{([^}]*)\}", out).group(1).split(",")
    assert sorted(listed) == sorted([st.alias for st in STATEMENTS.values()] + ["sweep"])
    refused = {}
    for st in STATEMENTS.values():
        refused[st.id] = []
        for n in range(1, 15):
            swept = [v.core() for v in sweep(st.id, [n])]
            single = []
            for G in enumerate_groups_of_order(n):
                code, out, err = run(capsys, "verify", st.alias, "--group", G.spec, "--json")
                if code == 2:
                    assert out == "" and err.startswith("error: "), (st.id, G.spec)
                    refused[st.id].append(G.spec)
                    continue
                assert code in (0, 1), (st.id, G.spec)
                single.append(Verdict.from_json(out).core())
                assert single[-1]["group"] == G.spec, (st.id, G.spec)
            assert swept == single, (st.id, n)
    every = [G.spec for n in range(1, 15) for G in enumerate_groups_of_order(n)]
    assert refused["prop3.2"] == refused["thm1"] == []
    assert refused["thm5"] == ["Z1", "Z2"]
    assert refused["lemma2-search"] == [g for g in every if "x" in g or g in ("Z1", "Z2")]
    assert refused["thm4"] == [g for g in every if g not in ("Z12", "Z14")]


def _readme_cli_lines() -> list[str]:
    text = README.read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_readme_library_block_runs(capsys):
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = re.search(r"print\(sigma\(A\)\.indices\(\)\)\s*# (.*)", block).group(1)
    exec(block, {})
    first, *rest = capsys.readouterr().out.splitlines()
    assert first == expected == "(0, 1, 3, 4, 6, 7, 9, 10, 12, 13)"
    assert Verdict.from_json("\n".join(rest)).status == "verified"


def test_readme_cli_block_runs(capsys):
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "groupsums", line
        code, out, err = run(capsys, *argv[1:])
        # the lemma2 searches refute the claim on even orders
        assert code == (1 if "lemma2" in line else 0), (line, err)
        assert out, line
