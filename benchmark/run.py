"""Benchmark of the spin-epsilon CLI commands and the library functions under them.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

One run repeats the workload's pass (a fixed list of operations generated
from the seed) in a closed loop with one caller for about ``--seconds``,
then checks the outputs of the first pass, untimed.  The process pins itself
to one CPU.  With ``--trace 0`` it interleaves reference chunks
(``reference.py``) with the operations and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Every line but the last is
human-readable detail and one ``report`` JSON line; the last line is the
result object.  ``all`` runs every workload, untraced and traced, each in its
own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
# A run holds at least this many passes, however long they take.
MIN_PASSES = 2
NAMES = ("cli", "oracle")

# (name, unit, better, bound) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref", "chunks", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]


@dataclass
class Result:
    seconds: float
    status: str  # "ok", "declared" (the known low-T underflow) or "failed"
    error: str
    stdout: str
    csv: str | None
    value: object
    digest: str
    ref_owed: tuple[int, int] | None = None  # reference chunks run after this call


def _digest_value(value) -> bytes:
    if value is None:
        return b""
    if hasattr(value, "probs"):
        return value.probs.tobytes()
    if hasattr(value, "tobytes"):
        return value.tobytes()
    return repr(value).encode()


def run_op(op, stdout_path, csv_path, state, cli) -> Result:
    """Run one operation with stdout sent to a file; time only the call."""
    stderr = io.StringIO()
    value, code, error = None, 0, ""
    argv = None if op.argv is None else op.argv + (["--out", csv_path] if op.writes_csv else [])
    with open(stdout_path, "w") as stdout:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                if argv is not None:
                    code = cli.main(argv)
                else:
                    value = op.call(state)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code, error = None, traceback.format_exc(limit=3)
            stdout.flush()
            seconds = time.perf_counter() - start
    error = error or stderr.getvalue()
    if code == 0:
        status = "ok"
    elif code == 2 and op.kind == "complexity" and "underflows double precision" in error:
        status = "declared"
    else:
        status = "failed"
    digest = hashlib.sha256(str(code).encode())
    for path in (stdout_path, csv_path if op.writes_csv else None):
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    digest.update(_digest_value(value))
    return Result(seconds, status, error.strip()[-400:], stdout_path,
                  csv_path if op.writes_csv else None, value, digest.hexdigest())


def run_pass(workload, index, work, cli, tracer=None, after_op=None) -> list[Result]:
    """One pass over the workload's operations.  Every pass writes the same
    paths, since ``sweep`` prints its --out path; files of pass 0 move to
    ``first/`` for the checks, and later passes keep only digests."""
    state: dict = {}
    results = []
    first = os.path.join(work, "first")
    os.makedirs(first, exist_ok=True)
    if tracer is not None:
        tracer.run = index
        tracer.install()
    try:
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = i
            paths = [os.path.join(work, f"op{i}.out"), os.path.join(work, f"op{i}.csv")]
            result = run_op(op, *paths, state, cli)
            if after_op is not None:
                result.ref_owed = after_op(result.seconds)
            for path in paths:
                if os.path.exists(path) and index == 0:
                    os.replace(path, os.path.join(first, os.path.basename(path)))
                elif os.path.exists(path):
                    os.remove(path)
            if index == 0:
                result.stdout = os.path.join(first, f"op{i}.out")
                result.csv = result.csv and os.path.join(first, f"op{i}.csv")
            if index > 0 or op.check is None:
                result.value = None  # a kept ring ensemble would raise later passes' peak RSS
            results.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


def measure_setup() -> list[float]:
    """Wall time of a fresh ``python -c "import spin_epsilon.cli"``."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spin_epsilon.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown" outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "spin_epsilon")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def check_run(workload, passes) -> tuple[dict, int, int, int]:
    """Check pass 0's outputs, and every later pass's digests against pass 0.

    Returns (problems by "pass/op", attempted, failed, declared failures).
    """
    first = passes[0]
    bad_output = {}
    for i, (op, result) in enumerate(zip(workload.ops, first)):
        if result.status == "ok" and op.check is not None:
            try:
                problem = op.check(result, op)
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=2)
            if problem:
                bad_output[i] = problem
    problems, failed, declared = {}, 0, 0
    for k, results in enumerate(passes):
        for i, result in enumerate(results):
            if result.status == "declared":
                declared += 1
                problem = None
            elif result.status == "failed":
                problem = f"{workload.ops[i].argv or workload.ops[i].kind}: {result.error}"
            elif result.digest != first[i].digest:
                problem = "output differs from pass 0"
            else:
                problem = bad_output.get(i)
            if problem:
                failed += 1
                problems.setdefault(f"{k}/{i}", problem)
    attempted = sum(len(results) for results in passes)
    return problems, attempted, failed, declared


def wall_seconds(passes) -> float:
    """Each operation's median time over the passes, summed over the pass.

    A burst of contention on a shared machine then moves one operation's
    samples instead of a whole pass."""
    return sum(statistics.median(r.seconds for r in runs) for runs in zip(*passes))


def wall_in_chunks(passes, interleaver) -> float:
    """``wall_seconds`` with every call's time first divided by the median of
    the reference chunks run around it."""
    return sum(statistics.median(r.seconds / interleaver.local(r.ref_owed) for r in runs)
               for runs in zip(*passes))


def end_to_end(workload, passes, setup, interleaver, peak_rss_mb, attempted, failed,
               declared) -> dict:
    """Named end-to-end metrics: name -> (value, unit, samples, statistic)."""
    wall = wall_seconds(passes)
    ref = interleaver.samples
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup), "median"),
        "wall_ref": (wall_in_chunks(passes, interleaver), "chunks", len(passes),
                     "sum of per-operation medians, each call over the median reference "
                     "chunk around it"),
        "wall_s": (wall, "s", len(passes), "sum of per-operation medians"),
        "ref_chunk_ms": (statistics.median(ref) * 1e3, "ms", len(ref), "median"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "max"),
        "error_rate": ((failed + declared) / attempted, "share", attempted, "ratio"),
        "declared_underflow_share": (declared / attempted, "share", attempted, "ratio"),
    }
    for name, kinds, count in workload.throughput:
        seconds = sum(statistics.median(r.seconds for r in runs)
                      for op, runs in zip(workload.ops, zip(*passes)) if op.kind in kinds)
        metrics[name] = (count / seconds, "1/s", len(passes),
                         f"per-pass count / per-operation medians of {', '.join(kinds)}")
    for kind in workload.latency:
        times = [r.seconds * 1e3 for results in passes
                 for op, r in zip(workload.ops, results) if op.kind == kind]
        high, above = p90(times)
        metrics[f"{kind}_p50_ms"] = (statistics.median(times), "ms", len(times), "median")
        metrics[f"{kind}_p90_ms"] = (high, "ms", len(times), f"p90 ({above} samples above)")
    return metrics


def pin_to_one_cpu() -> int:
    """Pin this process, and the processes it starts, to the lowest CPU it
    may run on, before numpy loads.  ``run_sweep``'s GIL-bound thread pool
    runs a 5000-point sweep in 0.65 s on one core and 1.65 s on two, and
    1.0 s on two when the second core is busy: unpinned, the benchmark
    measures what else the host runs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    sys.path.insert(0, SRC)
    import numpy
    import spin_epsilon
    import spin_epsilon.cli as cli
    import checks
    import reference
    import tracing
    import workloads

    load_start = os.getloadavg()
    setup = [] if args.trace else measure_setup()
    workload = workloads.build(args.workload, args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tracer = tracing.Tracer(spin_epsilon) if args.trace else None
    interleaver = None if tracer else reference.Interleaver()
    try:
        for op in workload.warmup:
            run_op(op, os.path.join(work, "warm.out"), os.path.join(work, "warm.csv"), {}, cli)
        if interleaver:
            reference.chunk()
        # A new pass starts while the run has fewer than MIN_PASSES or the
        # pass would end no more than half a pass after the deadline; the
        # traced run alternates untraced and traced passes, in pairs.
        passes, traced, spent = [], [], []
        step = 2 if tracer else 1
        deadline = time.perf_counter() + args.seconds
        while (len(passes) < MIN_PASSES
               or time.perf_counter() + statistics.median(spent) / 2 <= deadline):
            start = time.perf_counter()
            for k in range(step):
                gc.collect()
                use_tracer = tracer if k == 1 else None
                passes.append(run_pass(workload, len(passes), work, cli, use_tracer,
                                       interleaver and interleaver.after_op))
                traced.append(use_tracer is not None)
            spent.append(time.perf_counter() - start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, attempted, failed, declared = check_run(workload, passes)
        refined = [checks.tmax_refined(r.stdout) for op, r in zip(workload.ops, passes[0])
                   if op.kind == "tmax" and r.status == "ok"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = os.getloadavg()

    untraced = [p for p, t in zip(passes, traced) if not t]
    if tracer:
        plain = wall_seconds(untraced)
        overhead = (wall_seconds([p for p, t in zip(passes, traced) if t]) - plain) / plain
        metrics = tracing.layer_metrics(
            tracer.spans, sum(traced), sum(refined) / len(refined) if refined else 0.0, overhead)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write(spans_path)
        named = {name: (value, unit, samples, "per traced pass")
                 for name, (value, unit, samples) in metrics.items()}
        reported = {name: metrics[name][:2] for name, _, _ in tracing.METRICS}
    else:
        named = end_to_end(workload, untraced, setup, interleaver, peak_rss_mb,
                           attempted, failed, declared)
        reported = {name: named[name][:2] for name, _, _, _ in END_TO_END}

    provenance = {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(traced),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
    }
    print(f"# {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, {len(passes)} passes of {len(workload.ops)} operations, "
          f"{sum(traced)} traced; commit {provenance['commit'][:12]}, "
          f"python {provenance['python']}, numpy {provenance['numpy']}, nproc {provenance['nproc']}")
    for name, (value, unit, samples, stat) in named.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {stat}, n={samples}")
    print(f"# attempted {attempted}, failed {failed}, declared low-T underflow {declared}")
    for where, problem in list(problems.items())[:10]:
        print(f"FAILED pass/op {where}: {problem}")
    report = {
        "provenance": provenance,
        "metrics": {name: {"value": v, "unit": u, "samples": n, "statistic": s}
                    for name, (v, u, n, s) in named.items()},
        "attempted": attempted, "failed": failed, "declared_failures": declared,
        "problems": dict(list(problems.items())[:20]),
    }
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(report, handle, indent=1)
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for name in NAMES:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("report ")))
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name, trace] = json.loads(lines[-1])
    metrics = {f"{name}.{metric}": value for (name, _), result in results.items()
               for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spin_epsilon", "__init__.py")):
        print(f"error: no src/spin_epsilon under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
