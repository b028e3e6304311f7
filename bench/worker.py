"""Child process of the benchmark `bench/run.py`.

`run.py` starts one child at a time and reads its standard output.

    worker.py cert STATEMENT GROUP     one certificate through the library API
    worker.py setup KIND [GROUP ...]   the set-up a workload pays, then exit
    worker.py cli ARG ...              the groupsums CLI, with time stamps
    worker.py probe SEED [--tiny]      per-layer micro-measurements

`cert`, `setup` and `probe` print one JSON object as their last stdout line.
`cli` leaves stdout to the CLI and puts its stamps on the last stderr line,
after STAMP_MARK.  Stamps are `time.monotonic()` readings, which share one
clock with `run.py` on Linux, so `run.py` can place them on its own
timeline.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.monotonic()

# Order cap handed to every verifier: the workloads reach order 28, above the
# library default of 24.
BUDGET = 64
STAMP_MARK = "BENCH-STAMPS "


def canonical(payload) -> str:
    """The byte form in which certificates are compared with the reference."""
    return json.dumps(payload, indent=2, sort_keys=True)


def run_statement(statement: str, G, jobs: int = 1):
    """One certificate of `statement` on group G, as a Verdict."""
    from groupsums import (
        critical_number,
        search_lemma2_counterexamples,
        verify_pair_cover_threshold,
        verify_subset_sum_bound,
        verify_three_fold_cover,
    )

    if statement == "prop3.2":
        return verify_pair_cover_threshold(G, jobs=jobs, budget=BUDGET)
    if statement == "thm1":
        return verify_subset_sum_bound(G, jobs=jobs, budget=BUDGET)
    if statement == "thm5":
        return critical_number(G, jobs=jobs, budget=BUDGET)[1]
    if statement == "lemma2-search":
        return search_lemma2_counterexamples(G.order, jobs=jobs, budget=BUDGET)
    if statement == "thm4":
        return verify_three_fold_cover(G.order, jobs=jobs, budget=BUDGET)
    raise ValueError(f"unknown statement {statement!r}")


def cert_mode(statement: str, spec: str) -> None:
    from groupsums import parse_group_spec

    G = parse_group_spec(spec)
    G.translator()
    t_setup = time.monotonic()
    verdict = run_statement(statement, G)
    t_search = time.monotonic()
    verdict.to_json()  # what the CLI would print; the render span times it
    core = canonical(verdict.core())
    t_render = time.monotonic()
    print(json.dumps({
        "core": core,
        "stamps": {"start": T_START, "setup": t_setup, "search": t_search, "render": t_render},
    }))


def setup_mode(kind: str, specs: list[str]) -> None:
    """`groups`: import the package, build each group and its translator.
    `cli`: import the CLI module.  `pool`: import the CLI module and start
    and stop a two-worker fork pool, as `verify --jobs 2` does."""
    if kind == "groups":
        from groupsums import parse_group_spec

        for spec in specs:
            parse_group_spec(spec).translator()
    elif kind in ("cli", "pool"):
        import groupsums.cli  # noqa: F401

        if kind == "pool":
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(processes=2) as pool:
                pool.map(abs, [1, 2])
    else:
        raise ValueError(f"unknown set-up kind {kind!r}")
    print(json.dumps({"stamps": {"start": T_START, "setup": time.monotonic()}}))


def cli_mode(argv: list[str]) -> int:
    import io

    from groupsums.cli import main

    t_setup = time.monotonic()
    real_stdout = sys.stdout
    sys.stdout = captured = io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdout = real_stdout
    t_search = time.monotonic()
    real_stdout.write(captured.getvalue())
    real_stdout.flush()
    t_render = time.monotonic()
    stamps = {"start": T_START, "setup": t_setup, "search": t_search, "render": t_render}
    print(STAMP_MARK + json.dumps(stamps), file=sys.stderr)
    return code


# -- per-layer probes ------------------------------------------------------

TRANSLATE_SHAPES = (
    "Z28", "Z2xZ14", "Z24", "Z2xZ2xZ6", "Z32", "Z4xZ8", "Z2xZ16", "Z2xZ2xZ2xZ4", "Z2xZ2xZ2xZ2xZ2",
)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _random_sets(G, rng, count: int, size: int):
    from groupsums import GroupSubset

    return [GroupSubset.from_indices(G, rng.sample(range(1, G.order), size)) for _ in range(count)]


def _largest_sweep() -> list[dict]:
    """The longest `verify sweep` output in the reference, as verdict dicts."""
    from pathlib import Path

    outputs = json.loads((Path(__file__).parent / "reference.json").read_text())["outputs"]
    sweeps = [o["output"] for key, o in outputs.items() if key.startswith("verify sweep")]
    return max(sweeps, key=lambda s: len(canonical(s)))


def probe_mode(seed: int, tiny: bool) -> None:
    """Time single layers through their public functions; print the figures."""
    import random

    from groupsums import (
        AbelianGroup,
        Verdict,
        enumerate_groups_of_order,
        h_hat,
        near_tight_construction,
        pair_cover,
        parse_group_spec,
        sigma,
        tight_example,
    )

    rng = random.Random(seed)
    reps = 1 if tiny else 5
    out: dict[str, float] = {}

    nvec = 2 if tiny else 40
    for spec in TRANSLATE_SHAPES:
        G = parse_group_spec(spec)
        tr = G.translator()
        vecs = [rng.getrandbits(G.order) for _ in range(nvec)]
        elems = range(G.order)

        def translate_all(tr=tr, vecs=vecs, elems=elems):
            for bits in vecs:
                for g in elems:
                    tr(bits, g)

        out[f"groups.translate_ns.{spec}"] = _median_time(translate_all, reps) / (nvec * G.order) * 1e9

    factor_lists = [g.factors for n in range(3, 33) for g in enumerate_groups_of_order(n)]
    out["groups.build_us"] = _median_time(
        lambda: [AbelianGroup(f) for f in factor_lists], reps) / len(factor_lists) * 1e6
    out["groups.enumerate_us"] = _median_time(
        lambda: [enumerate_groups_of_order(n) for n in range(3, 21)], reps) * 1e6

    nsets = 4 if tiny else 200
    for name, spec, op in (
        ("subsets.sigma_us.Z28", "Z28", sigma),
        ("subsets.sigma_us.Z2xZ14", "Z2xZ14", sigma),
        ("subsets.h_hat_us.Z28", "Z28", lambda A: h_hat(A, 3)),
        ("subsets.pair_cover_us.Z2xZ2xZ6", "Z2xZ2xZ6", pair_cover),
    ):
        sets = _random_sets(parse_group_spec(spec), rng, nsets, 10)
        out[name] = _median_time(lambda op=op, sets=sets: [op(A) for A in sets], reps) / nsets * 1e6

    near_groups = [g for n in range(4, 25) for g in enumerate_groups_of_order(n)]
    out["constructions.near_tight_ms"] = _median_time(
        lambda: [near_tight_construction(g) for g in near_groups], reps) * 1e3
    out["constructions.tight_ms"] = _median_time(
        lambda: [tight_example(k) for k in range(3, 13)], reps) * 1e3

    Z16 = parse_group_spec("Z16")
    serial, pooled = [], []
    for _ in range(reps if tiny else 3):
        serial.append(_median_time(lambda: run_statement("prop3.2", Z16, jobs=1), 1))
        pooled.append(_median_time(lambda: run_statement("prop3.2", Z16, jobs=2), 1))
    out["verify.pool_start_s"] = sorted(pooled)[len(pooled) // 2] - sorted(serial)[len(serial) // 2]

    verdicts = [Verdict.from_dict(dict(d, elapsed_ms=0)) for d in _largest_sweep()]
    rounds = 2 if tiny else 50
    out["verify.json_us"] = _median_time(
        lambda: [[Verdict.from_json(v.to_json()) for v in verdicts] for _ in range(rounds)], reps,
    ) / rounds * 1e6
    print(json.dumps(out))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cert":
        cert_mode(rest[0], rest[1])
    elif mode == "setup":
        setup_mode(rest[0], rest[1:])
    elif mode == "cli":
        return cli_mode(rest)
    elif mode == "probe":
        probe_mode(int(rest[0]), "--tiny" in rest)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
