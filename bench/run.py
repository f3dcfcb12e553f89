"""Benchmark runner for ssweight: whole CLI commands, timed in-process.

Run from the repository root:

    python3 bench/run.py --workload check-ladder --seed 1 --seconds 40 --trace 0

One client runs one command at a time through ``ssweight.cli.main(argv)``
(a closed loop with nothing else in flight).  Inputs are JSON documents
written at set-up from the seed and passed with ``--input``.  Each pass runs
every input once, in an order shuffled by the seed; passes repeat until the
next one would overrun ``--seconds`` (at least ``MIN_PASSES``).  Every
timing metric is built from per-input medians over the passes.  Timings are
reported in normalised seconds: each wall time is divided by the time of a
fixed computation measured next to it and multiplied by ``REF_SECONDS``,
which cancels the slow drift of a shared machine (see README.md); the raw
wall seconds are printed beside them as ``*_wall_s``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (see ``spans.py``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--steady N`` runs the workload N times, with seeds ``seed .. seed+N-1``,
and prints the median, quartiles and relative spread of each end-to-end
metric next to its bound in ``BENCHMARK.json``.

``--pin`` rewrites ``pins.json`` from the program as it is: stdout digests
of ``check --all`` on the unmodified check-ladder documents and the
basis-invariant ``report`` summaries of the report-ladder sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
PINS = os.path.join(HERE, "pins.json")
MIN_PASSES = 3
SETUP_REPEATS = 5  # set-up runs at least this often and at least SETUP_SECONDS
SETUP_SECONDS = 2.0
PROBE_SHARE = 0.05  # reference samples after a command last about this share of it
REF_SECONDS = 0.010  # a normalised second counts one reference product as 10 ms
WORKLOADS = ("check-ladder", "report-ladder", "validate-docs")
END_TO_END = ("setup_s", "ladder_s", "large_s", "small_s", "ok_ratio", "peak_rss_mib")
LARGEST = {"check-ladder": "ngon:20", "report-ladder": "ngon:40", "validate-docs": "ngon:40"}


@dataclass
class Case:
    label: str  # source rung, plus the mutation kind for mutated documents
    argv: list
    expect: dict
    small: bool  # source is in the builtin corpus
    text: str = ""
    times: list = field(default_factory=list)  # wall seconds, one per pass
    norm: list = field(default_factory=list)  # the same in normalised seconds


# -- set-up ------------------------------------------------------------------


def _sources(workload):
    builtins = inputs.builtin_labels()
    rungs = {
        "check-ladder": inputs.CHECK_RUNGS,
        "report-ladder": inputs.REPORT_RUNGS,
        "validate-docs": inputs.CHECK_RUNGS + inputs.REPORT_RUNGS,
    }[workload]
    return [(label, label in builtins) for label in dict.fromkeys(builtins + list(rungs))]


def make_cases(workload: str, seed: int, pins: dict) -> list[Case]:
    """Build every input document of a workload and its expected outcome."""
    cases = []
    for label, small in _sources(workload):
        sc = inputs.build_rung(label)
        rng = random.Random(f"{seed}:{label}")
        if workload == "check-ladder":
            cases.append(Case(label, ["check", "--all", "--format", "json"], pins["check"][label], small, sc.dumps()))
            continue
        changed = inputs.basis_change(sc.to_json_dict(), rng)
        if workload == "report-ladder":
            cases.append(Case(label, ["report", "--format", "json"], pins["report"][label], small, inputs.dumps(changed)))
            continue
        argv = ["validate", "--format", "json"]
        cases.append(Case(label, argv, {"valid": True}, small, inputs.dumps(changed)))
        for kind in list(inputs.SEMANTIC) + list(inputs.MALFORMED):
            doc = inputs.mutate(changed, kind, random.Random(f"{seed}:{label}:{kind}"))
            if doc is not None:
                expect = {"violation": inputs.SEMANTIC[kind]} if kind in inputs.SEMANTIC else {"malformed": kind}
                cases.append(Case(f"{label} [{kind}]", argv, expect, small, inputs.dumps(doc)))
    return cases


def setup(workload: str, seed: int, workdir: str):
    """Generate and write the documents; returns the cases and set-up time."""
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    t0 = time.perf_counter()
    cases = make_cases(workload, seed, pins)
    os.makedirs(workdir, exist_ok=True)
    for i, case in enumerate(cases):
        path = os.path.join(workdir, f"{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.text)
        case.argv = case.argv + ["--input", path]
    return cases, time.perf_counter() - t0


# -- one command ----------------------------------------------------------------


def run_command(argv):
    """Run the CLI in-process; returns (exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed command, not a failed run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return None, out.getvalue(), f"{type(exc).__name__}: {exc} ({os.path.basename(where.filename)}:{where.lineno})"
    return rc, out.getvalue(), ""


def _json(stdout: str) -> dict:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


def verdict(case: Case, rc, stdout: str) -> str:
    """Empty when the command met its expectation, else the reason."""
    exp = case.expect
    if "sha256" in exp:
        if rc != exp["exit"]:
            return f"exit {rc}, expected {exp['exit']}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return "" if digest == exp["sha256"] else "stdout differs from the pinned digest"
    if "summary" in exp:
        if rc != exp["exit"]:
            return f"exit {rc}, expected {exp['exit']}"
        try:
            same = inputs.report_summary(_json(stdout)) == exp["summary"]
        except (KeyError, TypeError, AttributeError):
            same = False
        return "" if same else "summary differs from its source"
    payload = _json(stdout)
    if "malformed" in exp:
        if (rc == 2 and not stdout) or (rc == 1 and payload.get("ok") is False):
            return ""
        return f"exit {rc}, expected 2, or 1 with a verdict"
    if "valid" in exp:
        return "" if rc == 0 and payload.get("ok") is True else f"exit {rc}, expected a valid verdict"
    codes = {v["code"] for v in payload.get("violations", [])}
    if rc == 1 and exp["violation"] in codes:
        return ""
    return f"exit {rc} with {sorted(codes)}, expected exit 1 with {exp['violation']}"


class Tally:
    """Attempted and failed commands; a failure that completed with a wrong
    output also makes the run incorrect, one that raised does not."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = {}

    def record(self, case: Case, rc, stdout: str, error: str):
        self.attempted += 1
        reason = error or verdict(case, rc, stdout)
        if reason:
            self.failed += 1
            self.wrong += not error
            self.reasons.setdefault(case.label, reason)


# -- the machine's speed at the moment ----------------------------------------------

_REF = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(16)] for i in range(16)]


def reference_seconds() -> float:
    """Time of one fixed dense 16 x 16 Fraction product, about 10 ms: the
    same kind of work as the program's, done by the benchmark's own code."""
    gc.collect()
    t = time.perf_counter()
    cols = list(zip(*_REF))
    [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in _REF]
    return time.perf_counter() - t


def local_reference(gaps, k) -> float:
    """Median of the reference samples in the gaps before and after command
    k, widened a gap at a time until it holds at least four."""
    lo, hi = k, k + 1
    samples = gaps[lo] + gaps[hi]
    while len(samples) < 4 and (lo > 0 or hi < len(gaps) - 1):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(gaps) - 1)
        samples = [x for gap in gaps[lo : hi + 1] for x in gap]
    return statistics.median(samples)


def probe(seconds: float) -> list:
    """Reference samples worth about PROBE_SHARE of ``seconds``, at least one."""
    samples = [reference_seconds()]
    while sum(samples) < PROBE_SHARE * seconds:
        samples.append(reference_seconds())
    return samples


def run_pass(cases, rng, tally, tracer=None, outputs=None):
    """Run every case once, in shuffled order, with reference samples before
    the first command and after each one."""
    order = list(cases)
    rng.shuffle(order)
    gaps = [probe(1.0)]
    for case in order:
        gc.collect()
        with tracer.span("cli") if tracer else contextlib.nullcontext() as command:
            if tracer:
                tracer.command = command
            t = time.perf_counter()
            rc, stdout, error = run_command(case.argv)
            case.times.append(time.perf_counter() - t)
        if tracer:
            tracer.command = None
        gaps.append(probe(case.times[-1]))
        tally.record(case, rc, stdout, error)
        if outputs is not None:
            outputs[case.label] = (rc, stdout)
    for k, case in enumerate(order):
        case.norm.append(case.times[-1] / local_reference(gaps, k) * REF_SECONDS)
    return sum(case.norm[-1] for case in order)


# -- metrics --------------------------------------------------------------------


def end_to_end(workload, cases, setup, tally):
    """Every end-to-end figure as name -> (value, unit, sample count); the
    ``*_s`` timings are in normalised seconds, ``*_wall_s`` in wall seconds."""
    passes = len(cases[0].times)
    small = [c for c in cases if c.small]
    large = next(c for c in cases if c.label == LARGEST[workload])
    out = {}
    for suffix, attr in (("s", "norm"), ("wall_s", "times")):
        out[f"setup_{suffix}"] = (statistics.median(setup[attr]), "s", len(setup[attr]))
        med = {c.label: statistics.median(getattr(c, attr)) for c in cases}
        out[f"ladder_{suffix}"] = (sum(med.values()), "s", passes * len(cases))
        out[f"large_{suffix}"] = (med[large.label], "s", passes)
        out[f"small_{suffix}"] = (sum(med[c.label] for c in small), "s", passes * len(small))
    out["ok_ratio"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio", tally.attempted)
    out["failed_ratio"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1)
    return out


def layer_metrics(tracer, outputs, traced, untraced):
    stats, counters = tracer.stats(), tracer.counters()
    out = {}
    out["cli.self_s"] = (stats["cli"][1], "s")
    out["cli.stdout_bytes"] = (sum(len(stdout.encode()) for _, stdout in outputs.values()), "B")
    command_wall = {s[1]: s[6] - s[5] for s in tracer.spans() if s[0] == "cli"}
    suites = tracer.suite_seconds()
    check_wall = sum(w for cid, w in command_wall.items() if cid in suites)
    out["cli.pool_overlap"] = (sum(suites.values()) / check_wall if check_wall else 0.0, "ratio")
    for name in LAYER_SPANS:
        calls, cpu = stats[name]
        if name != "polygons.report":
            out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (cpu, "s")
    mults = counters["matmul.mults"]
    out["linalg.matmul.mults"] = (mults, "count")
    out["linalg.matmul.useful_ratio"] = (counters["matmul.useful"] / mults if mults else 0.0, "ratio")
    cells = counters["rref.cells"]
    out["linalg.rref.density"] = (counters["rref.nnz"] / cells if cells else 0.0, "ratio")
    out["linalg.max_rows"] = (counters["max_rows"], "count")
    out["linalg.max_cols"] = (counters["max_cols"], "count")
    out["linalg.max_entry_bits"] = (counters["max_entry_bits"], "bit")
    out["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return out


LAYER_SPANS = (
    "strata.loads",
    "strata.validate",
    "strata.tau",
    "strata.rho",
    "strata.level_pairing",
    "strata.level_lefschetz",
    "spectral.build_e1",
    "spectral.compute_e2",
    "spectral.d1",
    "spectral.induced_map",
    "checks.log_hl",
    "checks.wm",
    "checks.h1",
    "hodge_lefschetz.hl_from_strata",
    "hodge_lefschetz.hl_cohomology",
    "hodge_lefschetz.check_hl_axioms",
    "polygons.report",
    "linalg.matmul",
    "linalg.rank",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.column_space_basis",
    "linalg.solve",
    "linalg.inverse",
    "linalg.signature",
    "linalg.quotient",
    "linalg.subspace",
    "linalg.induced_map",
)
# counts that must repeat exactly between two traced passes
EXACT = {
    "cli.stdout_bytes",
    "linalg.matmul.mults",
    "linalg.matmul.useful_ratio",
    "linalg.rref.density",
    "linalg.max_rows",
    "linalg.max_cols",
    "linalg.max_entry_bits",
}


# -- modes ------------------------------------------------------------------------


def measure(args, workdir):
    gaps, times = [probe(1.0)], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        cases, dt = setup(args.workload, args.seed, workdir)
        times.append(dt)
        gaps.append(probe(dt))
    norm = [t / local_reference(gaps, k) * REF_SECONDS for k, t in enumerate(times)]
    setup_samples = {"times": times, "norm": norm}
    rng = random.Random(f"{args.seed}:order")
    tally = Tally()
    problems = []
    if not args.trace:
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            run_pass(cases, rng, tally)
            end = time.perf_counter()
            if len(cases[0].times) >= MIN_PASSES and end - t0 + (end - start) > args.seconds:
                break
        for case in cases:
            print(
                f"median {statistics.median(case.times):9.4f} wall s {statistics.median(case.norm):9.4f} s  {case.label}",
                file=sys.stderr,
            )
        figures = end_to_end(args.workload, cases, setup_samples, tally)
        for name, (value, unit, n) in figures.items():
            print(f"{name:14s} {value:12.6f} {unit:6s} n={n}")
        metrics = {k: figures[k][:2] for k in END_TO_END}
    else:
        from spans import Tracer

        # traced, untraced, traced: the first pass also warms up, and the
        # overhead compares the two passes after it
        runs, outputs, cost = [], [], []
        for traced in (True, False, True):
            tracer = Tracer() if traced else None
            out = {}
            with tracer.installed() if traced else contextlib.nullcontext():
                cost.append(run_pass(cases, rng, tally, tracer, out))
            outputs.append(out)
            if traced:
                runs.append(tracer)
        if not outputs[0] == outputs[1] == outputs[2]:
            problems.append("traced stdout differs from untraced stdout")
        first = layer_metrics(runs[0], outputs[0], cost[0], cost[1])
        metrics = layer_metrics(runs[1], outputs[2], cost[2], cost[1])
        for name, (value, _) in metrics.items():
            if (name in EXACT or name.endswith(".calls")) and value != first[name][0]:
                problems.append(f"{name} differs between two traced passes")
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:14.6f} {unit}")
    for label, reason in sorted(tally.reasons.items()):
        print(f"failed: {label}: {reason}")
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    return {
        "correct": not tally.wrong and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def steady(args):
    """Run the workload N times with consecutive seeds; spread per metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {}
    for i in range(args.steady):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {args.seed + i} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {args.seed + i}: " + " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
        print(f"{name:14s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:.4f}  bound {bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "runs": args.steady, "metrics": summary}, sort_keys=True))


def pin():
    """Record the outputs every later run is checked against."""
    pins = {"check": {}, "report": {}}
    for label, _ in _sources("check-ladder"):
        rc, stdout, error = run_with_input(["check", "--all", "--format", "json"], inputs.build_rung(label).dumps())
        if error:
            raise RuntimeError(f"check on {label} raised {error}")
        pins["check"][label] = {"exit": rc, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    for label, _ in _sources("report-ladder"):
        rc, stdout, error = run_with_input(["report", "--format", "json"], inputs.build_rung(label).dumps())
        if error:
            raise RuntimeError(f"report on {label} raised {error}")
        pins["report"][label] = {"exit": rc, "summary": inputs.report_summary(json.loads(stdout))}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_with_input(argv, text):
    path = os.path.join(HERE, ".work", f"pin-{os.getpid()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return run_command(argv + ["--input", path])
    finally:
        os.remove(path)


def main():
    parser = argparse.ArgumentParser(description="ssweight benchmark (run from the repository root)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="run N seeds and report the spread")
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json from the current program")
    args = parser.parse_args()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        steady(args)
        return 0
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    # a terminated run still removes its documents
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ssweight", "cli.py")):
        print("error: run from the repository root; src/ssweight is missing", file=sys.stderr)
        sys.exit(2)
    os.environ.pop("SSWEIGHT_NO_PARALLEL", None)
    sys.path.insert(0, src)
    import inputs
    from ssweight import cli

    sys.exit(main())
