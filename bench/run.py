#!/usr/bin/env python3
"""Certificate benchmark for groupsums: four workloads, checked against the
seed's certificates, timed end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --write-reference

Run it from a source checkout; it needs nothing beyond the standard library
and `src/groupsums`.  The benchmark process starts one child at a time (closed
loop) and checks every output before the next child starts.  With
`--trace 0` it prints the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones; the last stdout line is the result object.
METRICS.md explains every metric and what it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"
PY = sys.executable

CHILD_TIMEOUT_S = 60.0
# calib_loop() time on a quiet host; end-to-end times are scaled to it
CALIB_REF_S = 0.025
SETUP_PROBES = 9
INTERP_PROBES = 7
SET_POOL_SIZE = 16

sys.path.insert(0, str(BENCH))
from worker import STAMP_MARK, TRANSLATE_SHAPES, canonical  # noqa: E402

# -- workloads ----------------------------------------------------------------
#
# A certificate slot is (statement, group, tiny group).  Metric names always
# use the full group; the self-test runs the same slots on the tiny groups
# (order <= 12) so that it exercises every code path in seconds.

CYCLIC = (
    ("prop3.2", "Z28", "Z12"),
    ("thm1", "Z28", "Z12"),
    ("thm5", "Z24", "Z12"),
    ("lemma2-search", "Z24", "Z12"),
    ("thm4", "Z28", "Z12"),
)
NONCYCLIC = (
    ("prop3.2", "Z2xZ14", "Z2xZ6"),
    ("thm1", "Z2xZ14", "Z2xZ6"),
    ("thm5", "Z2xZ2xZ6", "Z2xZ2xZ2"),
)
STATEMENTS = ("prop3.2", "lemma2-search", "thm1", "thm4", "thm5")
SET_OPS = ("sigma", "hhat", "paircover")
SET_GROUPS = (("Z28", "Z12"), ("Z2xZ14", "Z2xZ6"), ("Z2xZ2xZ6", "Z2xZ2xZ2"))
PARALLEL = (
    ("prop3.2", "prop3", "Z28", "Z12"),
    ("lemma2-search", "lemma2", "Z24", "Z12"),
    ("thm1", "thm1", "Z28", "Z12"),
)
WORKLOADS = ("cyclic-exhaust", "noncyclic-exhaust", "cli-sweep", "parallel-jobs2")
# parallel-jobs2 is left out of BENCHMARK.json: its figures depend on whether
# the shared host leaves the second core free (see METRICS.md).  Traced runs
# still make one pass of it for the parallel.* metrics.
CLI_CALLS = tuple(f"verify-sweep-{s}" for s in STATEMENTS) + SET_OPS + (
    "construct-near-tight", "construct-tight", "groups")
SPAN_KINDS = ("pass", "certificate", "setup", "search", "render", "check")
# a certificate span is tiled by its four children, so its self time is zero
SELF_TIME_KINDS = ("pass", "setup", "search", "render", "check")


@dataclass(frozen=True)
class Job:
    """One child process: a certificate through the API, or one CLI call."""

    name: str
    kind: str  # "cert" or "cli"
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(("cert",) + self.args if self.kind == "cert" else self.args)

    def argv(self, traced: bool) -> list[str]:
        if self.kind == "cert":
            return [PY, str(WORKER), "cert", *self.args]
        if traced:
            return [PY, str(WORKER), "cli", *self.args]
        return [PY, "-m", "groupsums.cli", *self.args]


def cert_jobs(slots, tiny: bool) -> list[Job]:
    return [Job(f"{st}.{full}", "cert", (st, small if tiny else full)) for st, full, small in slots]


def set_job(op: str, group: str, elems: list[int]) -> Job:
    args = [op, "--group", group, "--set", ",".join(map(str, elems))]
    if op == "hhat":
        args += ["--h", "3"]
    return Job(op, "cli", tuple(args + ["--json"]))


def fixed_cli_jobs(tiny: bool) -> list[Job]:
    orders = "3..8" if tiny else "3..20"
    jobs = [
        Job(f"verify-sweep-{s}", "cli",
            ("verify", "sweep", "--statement", s, "--order-range", orders, "--json"))
        for s in STATEMENTS
    ]
    return jobs + [
        Job("construct-near-tight", "cli",
            ("construct", "near-tight", "--group", "Z2xZ4" if tiny else "Z2xZ2xZ6", "--json")),
        Job("construct-tight", "cli", ("construct", "tight", "--k", "3" if tiny else "9", "--json")),
        Job("groups", "cli", ("groups", "12" if tiny else "32", "--json")),
    ]


def parallel_jobs(cert, tiny: bool, jobs: int) -> Job:
    statement, command, full, small = cert
    args = ("verify", command, "--group", small if tiny else full, "--budget", "64",
            "--jobs", str(jobs), "--json")
    return Job(f"{statement}.{full}.jobs{jobs}", "cli", args)


def pass_jobs(workload: str, rng: random.Random, pass_no: int, tiny: bool, set_pool: dict) -> list[Job]:
    """The certificate list of one pass; the seed fixes its order and inputs."""
    if workload == "cyclic-exhaust":
        jobs = cert_jobs(CYCLIC, tiny)
    elif workload == "noncyclic-exhaust":
        jobs = cert_jobs(NONCYCLIC, tiny)
    elif workload == "cli-sweep":
        jobs = fixed_cli_jobs(tiny)
        for i, op in enumerate(SET_OPS):
            full, small = SET_GROUPS[(pass_no + i) % len(SET_GROUPS)]
            group = small if tiny else full
            jobs.append(set_job(op, group, rng.choice(set_pool[group])))
    elif workload == "parallel-jobs2":
        certs = list(PARALLEL)
        rng.shuffle(certs)
        return [parallel_jobs(c, tiny, j) for c in certs for j in (1, 2)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def setup_argv(workload: str, tiny: bool) -> list[str]:
    """The child whose run time is the workload's set-up time."""
    if workload in ("cyclic-exhaust", "noncyclic-exhaust"):
        slots = CYCLIC if workload == "cyclic-exhaust" else NONCYCLIC
        return [PY, str(WORKER), "setup", "groups", *sorted({s[2 if tiny else 1] for s in slots})]
    return [PY, str(WORKER), "setup", "pool" if workload == "parallel-jobs2" else "cli"]


# -- children -------------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: str
    err: str
    t_spawn: float
    t_exit: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool
    calib_s: float = 0.0  # the calibration sample taken just before the child

    @property
    def wall(self) -> float:
        return self.t_exit - self.t_spawn


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict) -> Child:
    """Run one child to completion, collecting output and its resource usage
    (which includes any worker processes it waited for)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = t_spawn + CHILD_TIMEOUT_S - time.monotonic()
            if left <= 0:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=proc.returncode,
        out=b"".join(chunks[proc.stdout]).decode(),
        err=b"".join(chunks[proc.stderr]).decode(),
        t_spawn=t_spawn,
        t_exit=t_exit,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        timed_out=timed_out,
    )


def calib_loop() -> float:
    """A fixed pure-Python int-shift loop: host speed, independent of groupsums."""
    t0 = time.perf_counter()
    x = 1
    for i in range(200_000):
        x = ((x << 3) ^ i) & 0xFFFFFFFF
    return time.perf_counter() - t0


class Session:
    """What one benchmark run shares: the reference, the child environment,
    and a host-speed sample taken before every child it starts."""

    def __init__(self, reference: dict, tiny: bool) -> None:
        self.reference = reference
        self.tiny = tiny
        self.env = child_env()
        self.calib: list[float] = []

    def spawn(self, argv: list[str]) -> Child:
        sample = calib_loop()
        self.calib.append(sample)
        child = spawn(argv, self.env)
        child.calib_s = sample
        return child


def scaled_wall(child: Child) -> float:
    """The child's wall time at the reference host speed.

    Other tenants of the host slow everything in it, by up to about 1.8x
    for minutes at a time, far beyond what longer runs can average out.
    The calibration loop slows with them, so the wall time is multiplied
    by CALIB_REF_S over the sample taken just before the child."""
    return child.wall * CALIB_REF_S / child.calib_s


def stamps_of(job: Job, child: Child) -> dict | None:
    if job.kind == "cert":
        lines = child.out.splitlines()
        return json.loads(lines[-1])["stamps"] if lines else None
    for line in reversed(child.err.splitlines()):
        if line.startswith(STAMP_MARK):
            return json.loads(line[len(STAMP_MARK):])
    return None


# -- correctness ------------------------------------------------------------------


def strip_timing(payload):
    """Certificate `core()` form of CLI verify output: drop `elapsed_ms`."""
    if isinstance(payload, list):
        return [strip_timing(p) for p in payload]
    return {k: v for k, v in payload.items() if k != "elapsed_ms"}


def output_of(job: Job, child: Child):
    """The comparable output of a child: a certificate core or CLI JSON."""
    if job.kind == "cert":
        return json.loads(json.loads(child.out.splitlines()[-1])["core"])
    payload = json.loads(child.out)
    return strip_timing(payload) if job.args[0] == "verify" else payload


def oracle_problems(job: Job, output) -> list[str]:
    import oracle  # imports groupsums, on the path only once main() found it

    if job.kind == "cert" or job.args[0] == "verify":
        certs = output if isinstance(output, list) else [output]
        return [p for c in certs for p in oracle.check_certificate(c)]
    if job.args[0] in SET_OPS:
        return oracle.check_set_result(output)
    if job.args[0] == "construct":
        return oracle.check_construction(output)
    return []


def check(job: Job, child: Child, reference: dict) -> list[str]:
    """Why this child's output is wrong; empty when it matches the seed
    reference byte for byte, exits as expected and passes the oracle."""
    if child.timed_out:
        return [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]
    ref = reference["outputs"].get(job.key)
    if ref is None:
        return ["no reference output"]
    problems = []
    if child.code != ref["exit"]:
        problems.append(f"exit code {child.code}, expected {ref['exit']}: {child.err.strip()[-300:]}")
    try:
        output = output_of(job, child)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    if canonical(output) != canonical(ref["output"]):
        problems.append("certificate core differs from the seed reference")
    try:
        return problems + oracle_problems(job, output)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"the oracle cannot read the output: {exc!r}"]


# -- tracing -------------------------------------------------------------------------


class Tracer:
    """Spans recorded around the calls into each layer, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None, **attrs) -> int:
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name,
                           "start": start, "end": end, **attrs})
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                p = self.spans[s["parent"]]
                covered[p["id"]] += max(0.0, min(s["end"], p["end"]) - max(s["start"], p["start"]))
        return [s["end"] - s["start"] - covered[s["id"]] for s in self.spans]


# -- passes ----------------------------------------------------------------------------


@dataclass
class Record:
    job: Job
    child: Child
    problems: list[str]
    stamps: dict | None
    t_checked: float


def run_pass(session: Session, jobs: list[Job], tracer: Tracer | None = None,
             parent: int | None = None, workload: str = "") -> list[Record]:
    records = []
    for job in jobs:
        child = session.spawn(job.argv(tracer is not None))
        problems = check(job, child, session.reference)
        try:
            stamps = stamps_of(job, child)
        except (ValueError, KeyError):
            stamps = None
        if tracer is not None and stamps is None and not problems:
            problems = ["no time stamps from the child"]
        records.append(Record(job, child, problems, stamps, time.monotonic()))
        for p in problems:
            print(f"FAILED {job.key}: {p}", file=sys.stderr)
    if tracer is not None:
        pass_id = tracer.add("pass", records[0].child.t_spawn, records[-1].t_checked, parent,
                             workload=workload)
        for r in records:
            c = r.child
            cert = tracer.add("certificate", c.t_spawn, r.t_checked, pass_id, job=r.job.key)
            if r.stamps is not None:
                tracer.add("setup", c.t_spawn, r.stamps["setup"], cert)
                tracer.add("search", r.stamps["setup"], r.stamps["search"], cert)
                tracer.add("render", r.stamps["search"], c.t_exit, cert)
            tracer.add("check", c.t_exit, r.t_checked, cert)
    return records


def pass_wall(records: list[Record]) -> float:
    """Seconds the children of a pass ran; checks between them are excluded."""
    return sum(r.child.wall for r in records)


def per_job_medians(passes: list[list[Record]], time_of) -> dict[str, float]:
    """Each job's median `time_of(child)` across the passes."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            samples.setdefault(r.job.name, []).append(time_of(r.child))
    return {name: median(v) for name, v in samples.items()}


def jobs2_speedup(records: list[Record]) -> float:
    """Summed --jobs 1 wall time over summed --jobs 2 wall time."""
    return (sum(r.child.wall for r in records if r.job.name.endswith("jobs1"))
            / sum(r.child.wall for r in records if r.job.name.endswith("jobs2")))


def jobs2_ratio(records: list[Record], attr: str) -> dict[str, float]:
    """Per parallel certificate: `attr` at --jobs 1 over `attr` at --jobs 2."""
    by_name = {r.job.name: getattr(r.child, attr) for r in records}
    return {
        f"{st}.{full}": by_name[f"{st}.{full}.jobs1"] / by_name[f"{st}.{full}.jobs2"]
        for st, _, full, _ in PARALLEL if f"{st}.{full}.jobs2" in by_name
    }


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg": os.getloadavg(),
    }


def run_workload_passes(session: Session, workload: str, seed: int, seconds: float,
                        tracer: Tracer | None = None, parent: int | None = None,
                        min_passes: int = 1) -> list[list[Record]]:
    """Closed loop of passes until the next one would end more than half a
    pass after `seconds`."""
    rng = random.Random(seed)
    passes: list[list[Record]] = []
    t0 = time.monotonic()
    while True:
        jobs = pass_jobs(workload, rng, len(passes), session.tiny, session.reference["set_pool"])
        passes.append(run_pass(session, jobs, tracer, parent, workload))
        elapsed = time.monotonic() - t0
        if len(passes) >= min_passes and elapsed + pass_wall(passes[-1]) / 2 > seconds:
            return passes


def setup_children(session: Session, workload: str, count: int) -> list[Child]:
    argv = setup_argv(workload, session.tiny)
    children = []
    for _ in range(count):
        child = session.spawn(argv)
        if child.code != 0:
            raise RuntimeError(f"set-up child failed: {child.err.strip()[-300:]}")
        children.append(child)
    return children


def tally(passes: list[list[Record]]) -> tuple[int, int]:
    records = [r for p in passes for r in p]
    return len(records), sum(1 for r in records if r.problems)


def measure(workload: str, seed: int, seconds: float, session: Session) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics."""
    session.spawn(setup_argv(workload, session.tiny))  # warm-up: bytecode caches, page cache
    setups = setup_children(session, workload, 2 if session.tiny else SETUP_PROBES)
    passes = run_workload_passes(session, workload, seed, seconds, min_passes=1 if session.tiny else 2)
    attempted, failed = tally(passes)
    # A pass's wall time is built from each job's median across the passes,
    # so that one child slowed by the host does not move the figure.
    scaled = per_job_medians(passes, scaled_wall)
    metrics = {
        "wall_s": (sum(scaled.values()), "s"),
        "setup_s": (median(scaled_wall(c) for c in setups), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (median([max(r.child.maxrss_mb for r in p) for p in passes]), "MB"),
    }
    info = {"samples": {"wall_s": len(passes), "setup_s": len(setups)},
            "raw_wall_and_calib_s": {"setup": [(c.wall, c.calib_s) for c in setups],
                                     "passes": [[(r.job.name, r.child.wall, r.child.calib_s) for r in p]
                                                for p in passes]}}
    if workload == "parallel-jobs2":
        info["jobs2_speedup"] = jobs2_speedup([r for p in passes for r in p])
    return result(attempted, failed, metrics), info


def interp_samples(session: Session, argv: list[str], count: int) -> float:
    return median([session.spawn(argv).wall for _ in range(count)])


def measure_traced(workload: str, seed: int, _seconds: float, session: Session) -> tuple[dict, dict]:
    """Traced run: an untraced pass of this workload as the overhead
    baseline, then a traced pass of every workload (so that every per-layer
    metric is reported), then the single-layer probes.  Its length is fixed
    by the work, not by `seconds`, so that it stays short."""
    tiny = session.tiny
    session.spawn(setup_argv(workload, tiny))
    tracer = Tracer()
    root = tracer.add("workload", time.monotonic(), 0.0, None, workload=workload)
    baseline = run_pass(session, pass_jobs(workload, random.Random(seed), 0, tiny,
                                           session.reference["set_pool"]))
    own = run_workload_passes(session, workload, seed, 0, tracer, root)
    own_pass_ids = [s["id"] for s in tracer.spans if s["name"] == "pass"]
    others = [p for w in WORKLOADS if w != workload
              for p in run_workload_passes(session, w, seed, 0, tracer, root)]
    probe = session.spawn([PY, str(WORKER), "probe", str(seed)] + (["--tiny"] if tiny else []))
    if probe.code != 0:
        raise RuntimeError(f"probe child failed: {probe.err.strip()[-500:]}")
    interp = interp_samples(session, [PY, "-c", "pass"], 2 if tiny else INTERP_PROBES)
    imported = interp_samples(session, [PY, "-c", "import groupsums.cli"], 2 if tiny else INTERP_PROBES)
    tracer.spans[root]["end"] = time.monotonic()

    records = [r for p in own + others for r in p]
    metrics: dict[str, tuple[float, str]] = {}
    units = per_layer_units()
    for name, value in json.loads(probe.out.splitlines()[-1]).items():
        metrics[name] = (value, units[name])
    for st, full, _ in CYCLIC + NONCYCLIC:
        metrics[f"verify.s.{st}.{full}"] = (median(
            r.stamps["search"] - r.stamps["setup"] for r in records
            if r.job.name == f"{st}.{full}" and r.stamps), "s")
    for name in CLI_CALLS:
        metrics[f"cli.call_s.{name}"] = (median(r.child.wall for r in records if r.job.name == name), "s")
    parallel_passes = [p for p in own + others if p[0].job.name.endswith(("jobs1", "jobs2"))]
    metrics["parallel.jobs2_speedup"] = (median(jobs2_speedup(p) for p in parallel_passes), "x")
    for key in jobs2_ratio(parallel_passes[0], "wall"):
        metrics[f"parallel.speedup.{key}"] = (
            median(jobs2_ratio(p, "wall")[key] for p in parallel_passes), "x")
        metrics[f"parallel.cpu_ratio.{key}"] = (
            median(1 / jobs2_ratio(p, "cpu_s")[key] for p in parallel_passes), "ratio")
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imported - interp, "s")
    metrics["calib.loop_s"] = (median(session.calib), "s")

    selfs = tracer.self_times()
    by_pass: dict[int, dict[str, float]] = {pid: dict.fromkeys(SPAN_KINDS, 0.0) for pid in own_pass_ids}
    for s in tracer.spans[1:]:
        top = s
        while top["name"] != "pass":
            top = tracer.spans[top["parent"]]
        if top["id"] in by_pass:
            by_pass[top["id"]][s["name"]] += selfs[s["id"]]
    for kind in SELF_TIME_KINDS:
        metrics[f"trace.self_s.{kind}"] = (median(b[kind] for b in by_pass.values()), "s")
    traced_wall = median(pass_wall(p) for p in own)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - pass_wall(baseline), "s")

    attempted, failed = tally(own + others + [baseline])
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}{'-tiny' if tiny else ''}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "spans": [dict(s, self_s=selfs[s["id"]]) for s in tracer.spans],
    }, indent=1))
    info = {"trace_file": str(trace_file.relative_to(ROOT)), "calib_loop_s": session.calib}
    return result(attempted, failed, metrics), info


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in
    BENCHMARK.json order."""
    units = {f"groups.translate_ns.{s}": "ns" for s in TRANSLATE_SHAPES}
    units |= {"groups.build_us": "us", "groups.enumerate_us": "us"}
    units |= dict.fromkeys(("subsets.sigma_us.Z28", "subsets.sigma_us.Z2xZ14",
                            "subsets.h_hat_us.Z28", "subsets.pair_cover_us.Z2xZ2xZ6"), "us")
    units |= {"constructions.near_tight_ms": "ms", "constructions.tight_ms": "ms"}
    units |= {f"verify.s.{st}.{full}": "s" for st, full, _ in CYCLIC + NONCYCLIC}
    units |= {"verify.pool_start_s": "s", "verify.json_us": "us"}
    units |= {"parallel.jobs2_speedup": "x"}
    units |= {f"parallel.speedup.{st}.{full}": "x" for st, _, full, _ in PARALLEL}
    units |= {f"parallel.cpu_ratio.{st}.{full}": "ratio" for st, _, full, _ in PARALLEL}
    units |= {"cli.interp_s": "s", "cli.import_s": "s"}
    units |= {f"cli.call_s.{c}": "s" for c in CLI_CALLS}
    units |= {"calib.loop_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"}
    units |= {f"trace.self_s.{k}": "s" for k in SELF_TIME_KINDS}
    return units


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- reference, self-test, entry point -------------------------------------------


def all_jobs(tiny: bool, set_pool: dict) -> list[Job]:
    jobs = cert_jobs(CYCLIC, tiny) + cert_jobs(NONCYCLIC, tiny) + fixed_cli_jobs(tiny)
    jobs += [parallel_jobs(c, tiny, j) for c in PARALLEL for j in (1, 2)]
    for full, small in SET_GROUPS:
        group = small if tiny else full
        jobs += [set_job(op, group, elems) for op in SET_OPS for elems in set_pool[group]]
    return jobs


def make_set_pool() -> dict:
    """Random subsets of the nonzero elements that the seeds choose from."""
    sys.path.insert(0, str(SRC))
    from groupsums import parse_group_spec

    rng = random.Random(1512_03040)
    pool = {}
    for full, small in SET_GROUPS:
        for spec, sizes in ((full, (8, 12)), (small, (3, 5))):
            order = parse_group_spec(spec).order
            pool[spec] = [sorted(rng.sample(range(1, order), rng.randint(*sizes)))
                          for _ in range(SET_POOL_SIZE)]
    return pool


def write_reference() -> int:
    """Record every output of the current code as the reference.  Run once,
    on the seed code; a later change that alters a certificate must show up
    as a failure, not as a new reference."""
    env = child_env()
    reference = {"set_pool": make_set_pool(), "outputs": {}}
    for tiny in (False, True):
        for job in all_jobs(tiny, reference["set_pool"]):
            child = spawn(job.argv(False), env)
            output = output_of(job, child)
            problems = oracle_problems(job, output)
            if child.timed_out or problems:
                print(f"{job.key}: {problems or 'timed out'}", file=sys.stderr)
                return 1
            reference["outputs"][job.key] = {"exit": child.code, "output": output}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference['outputs'])} reference outputs to {REFERENCE.relative_to(ROOT)}")
    return 0


def validate(res: dict, spec: dict, trace: int) -> list[str]:
    """Schema and metric-name problems of one result object."""
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or not res.get("attempted", 0) >= 1:
        problems.append(f"correct={res.get('correct')} attempted={res.get('attempted')} failed={res.get('failed')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != declared:
        problems.append(f"metric names or units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(declared.items()))}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: {m}")
        elif not trace and m["value"] <= 0:
            problems.append(f"{name} is not positive")
    return problems


def self_test() -> int:
    """Every workload on tiny groups, untraced and traced; checks the schema."""
    spec = json.loads(SPEC.read_text())
    if list(per_layer_units()) != [m["name"] for m in spec["per_layer"]]:
        print("per_layer in BENCHMARK.json is not per_layer_units()", file=sys.stderr)
        return 1
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("BENCHMARK.json names an unknown workload", file=sys.stderr)
        return 1
    reference = load_reference()
    problems = []
    # one traced run suffices: it runs a traced pass of every workload
    for workload, trace in [(w, 0) for w in WORKLOADS] + [("cli-sweep", 1)]:
        res, _ = (measure_traced if trace else measure)(workload, 1, 0, Session(reference, tiny=True))
        problems += [f"{workload} --trace {trace}: {p}" for p in validate(res, spec, trace)]
    for p in problems:
        print(p, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "groupsums" / "__init__.py").is_file():
        print(f"error: no groupsums sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} is missing", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    facts = machine_facts()
    fn = measure_traced if args.trace else measure
    res, info = fn(args.workload, args.seed, args.seconds, Session(load_reference(), tiny=False))
    print("# info " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                  "machine": facts, **info}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
