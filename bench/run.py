"""Benchmark of the ``gurevich`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload large_sparse --seed 1 --seconds 20 --trace 0

One closed-loop client drives ``gurevich.cli.main`` in this process: each
query starts when the previous one has returned.  A run writes the
workload's documents from ``--seed``, makes one warm-up pass that is not
counted, then repeats passes over the fixed query list for ``--seconds``
and checks every output against an independent reference.

``--trace 0`` reports the end-to-end metrics, with pass and query times in
yardsticks (see ``yardstick.py``) and their seconds printed before the
result.  ``--trace 1`` reports the
per-layer metrics instead: it alternates untraced and traced passes, then
makes one pass under ``tracemalloc``, and writes every span to
``.bench_work/``.  The last line of standard output is one JSON object;
the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Applied by re-executing the interpreter: the hash seed fixes frozenset
# iteration order (determinize walks frozensets) and one BLAS thread keeps
# dense mat-vec times steady.  The malloc settings make glibc serve every
# block from its heap and never hand freed memory back, so a dense matrix
# reuses pages this process has already touched instead of faulting in
# fresh ones (whose cost swings with the host's memory pressure).  All act
# on this process and its children only.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}
SETUP_REPEATS = 9

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import gurevich.cli\n"
    "t = time.perf_counter() - t\n"
    "assert gurevich.cli.__file__.startswith(sys.argv[1]), gurevich.cli.__file__\n"
    "print(repr(t))\n"
)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def pin_environment() -> None:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def import_seconds() -> float:
    """Wall time of ``import gurevich.cli`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


@dataclass
class Outcome:
    """One execution of one query."""

    seconds: float
    code: int | None  # None when an exception escaped cli.main
    error: str  # class of that exception
    stderr: str  # first line
    problems: list[str]  # disagreements with the reference

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.error and not self.problems


def execute(main, query, recorder=None) -> Outcome:
    """Run one query through ``main``, timed; then check its output."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        root = recorder.open("cli.main") if recorder else None
        start = time.perf_counter()
        try:
            code = main(list(query.argv))
        except Exception as e:  # anything escaping the CLI is a failed query
            error = type(e).__name__
            err.write(f"{error}: {e}\n")
        seconds = time.perf_counter() - start
        if recorder:
            recorder.close(root)
    problems = query.check(out.getvalue()) if code == 0 and not error else []
    return Outcome(seconds, code, error, err.getvalue().strip().split("\n")[0], problems)


def error_class(main, query) -> str:
    """Exception class behind a failed query, caught at the subcommand handler."""
    import gurevich.cli as cli

    seen = []
    handlers = {name: getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")}

    def catching(fn):
        def handler(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                seen.append(type(e).__name__)
                raise

        return handler

    try:
        for name, fn in handlers.items():
            setattr(cli, name, catching(fn))
        outcome = execute(main, query)
    finally:
        for name, fn in handlers.items():
            setattr(cli, name, fn)
    return outcome.error or (seen[-1] if seen else "-")


@dataclass
class Pass:
    """One pass over the query list."""

    queries: list[float]  # wall time of each query, checks excluded
    yardstick: float  # median yardstick time over the pass

    @property
    def seconds(self) -> float:
        return sum(self.queries)

    @property
    def yardsticks(self) -> float:
        return self.seconds / self.yardstick


def run_pass(main, queries, checked, recorder=None) -> Pass:
    """One pass over the query list, with a yardstick timed before each query."""
    import yardstick

    seconds, yardsticks = [], []
    for q in queries:
        yardsticks.append(yardstick.seconds())
        outcome = execute(main, q, recorder)
        checked.setdefault(q.name, []).append(outcome)
        seconds.append(outcome.seconds)
    return Pass(seconds, statistics.median(yardsticks))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    args = parse_args()
    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "gurevich", "cli.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gurevich.cli

    if not gurevich.cli.__file__.startswith(SRC):
        print(f"error: imported {gurevich.cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    import tracing
    import workloads
    from gurevich.cli import main as cli_main

    print("# env " + json.dumps(environment()))
    t = time.perf_counter()
    queries, probes = workloads.build(args.workload, args.seed, workdir)
    print(f"# generated {len(queries)} queries and {len(probes)} probes in {time.perf_counter() - t:.2f} s")

    # the generated data stays alive for the checks; keep it out of the
    # collector's way, as it would be in a process that only runs the CLI
    gc.collect()
    gc.freeze()
    checked: dict[str, list[Outcome]] = {}  # every execution, warm-up included
    run_pass(cli_main, queries, checked)  # warm-up
    recorder = tracing.Recorder()
    untraced, traced, layer_passes, spans = [], [], [], []
    # fresh-interpreter imports for setup_s run between passes, so that
    # their median spans the run rather than one moment of it
    imports = []
    wants_imports = SETUP_REPEATS if args.trace == 0 else 0
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli_main, queries, checked))
        if len(imports) < wants_imports:
            imports.append(import_seconds())
        if args.trace:
            with recorder.installed():
                traced.append(run_pass(cli_main, queries, checked, recorder=recorder))
            layer_passes.append(tracing.pass_totals(recorder.spans))
            spans += recorder.take()
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    while len(imports) < wants_imports:
        imports.append(import_seconds())
    probe_failures = run_probes(cli_main, probes)
    alloc = {}
    if args.trace:
        recorder.track_alloc = True
        tracemalloc.start()
        try:
            with recorder.installed():
                run_pass(cli_main, queries, checked, recorder=recorder)
        finally:
            tracemalloc.stop()
        alloc = tracing.alloc_peaks(recorder.spans)
        spans += recorder.take()
        path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracing.write_spans(path, spans)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")

    attempted, failed = report_failures(cli_main, queries, checked)
    samples = [t for p in untraced for t in p.queries]
    for i, q in enumerate(queries):
        per_query = [p.queries[i] for p in untraced]
        print(f"# query {q.name}: median {statistics.median(per_query):.4f} s over {len(per_query)}")
    print("# pass seconds " + " ".join(f"{p.seconds:.4f}" for p in untraced))
    print("# pass yardstick seconds " + " ".join(f"{p.yardstick:.6f}" for p in untraced))
    print(f"# median pass {statistics.median(p.seconds for p in untraced):.4f} s, "
          f"median query {statistics.median(samples):.4f} s")
    print(f"# {len(untraced)} timed passes, {len(samples)} query samples, "
          f"fail_share {failed / attempted:.4f}")

    if args.trace:
        overhead = (statistics.median(p.yardsticks for p in traced)
                    / statistics.median(p.yardsticks for p in untraced) - 1.0)
        metrics = layer_metrics(tracing.median_totals(layer_passes), alloc, overhead,
                                len(probe_failures))
    else:
        metrics = end_to_end_metrics(untraced, statistics.median(imports))
    print(json.dumps({
        "correct": failed == 0 and "wrong answer" not in probe_failures.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_probes(cli_main, probes) -> dict[str, str]:
    """Run each probe once; returns the failing ones with how they failed."""
    failures = {}
    for q in probes:
        o = execute(cli_main, q)
        if o.ok:
            print(f"# probe {q.name}: answered correctly (seed commit: {q.known_failure})")
            continue
        if o.code == 0:
            failures[q.name] = "wrong answer"
            print(f"# probe {q.name}: WRONG ANSWER {o.problems[:3]}")
            continue
        failures[q.name] = f"exit {o.code} {error_class(cli_main, q)}"
        print(f"# probe {q.name}: {failures[q.name]} {o.stderr!r} (seed commit: {q.known_failure})")
    return failures


def report_failures(cli_main, queries, checked) -> tuple[int, int]:
    """(attempted, failed) over every checked execution; prints each failing query."""
    attempted = failed = 0
    for q in queries:
        runs = checked[q.name]
        bad = [o for o in runs if not o.ok]
        attempted += len(runs)
        failed += len(bad)
        if bad:
            o = bad[0]
            cls = o.error or error_class(cli_main, q)
            print(f"# FAILED {q.name}: {len(bad)} of {len(runs)} executions; first: exit {o.code} "
                  f"{cls} {o.stderr!r} {o.problems[:3]}")
    return attempted, failed


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict:
    """Pass and query times are in yardsticks timed in the same pass (see
    yardstick.py); their medians in seconds are printed before the result."""
    queries = [t / p.yardstick for p in passes for t in p.queries]
    return {
        "pass_yardsticks": metric(statistics.median(p.yardsticks for p in passes), "yardstick"),
        "query_p50_yardsticks": metric(statistics.median(queries), "yardstick"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }


def layer_metrics(layers: dict, alloc: dict, overhead: float, probe_failures: int) -> dict:
    values = {**layers, **alloc, "cli.probe_failures": probe_failures,
              "trace.overhead_share": overhead}
    return {name: metric(value, unit_of(name)) for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
