#!/usr/bin/env python3
"""Benchmark for treecolor.

    python3 perfbench/run.py --workload deep-wide --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's operations until --seconds have
passed, checks every output against references made apart from the
program, and prints one JSON object as its last line of output.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
times rescaled by the calibration kernel (calibrate.py); with --trace 1
it runs a warm-up round, then alternates traced and untraced rounds, and
reports the per-layer metrics per traced round.  A per-run report and the
trace spans are written to .perfbench_out/ in the checkout.  See
perfbench/README.md.
"""
from __future__ import annotations

import os

# one process, one thread: pin BLAS/OpenMP pools before numpy is imported
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_FIRST = 3  # timed starts before the first round; one more follows each round
KERNEL_REPEATS = 3  # calibration passes before each round


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_once() -> float:
    """Seconds from a fresh interpreter to treecolor.cli imported and its parser built."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", "import treecolor.cli as c; c.build_parser()"]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "threads_pinned": {v: os.environ[v] for v in _THREAD_VARS}}


def layer_value(stats: dict, metric: str, rounds: int) -> float:
    """A per-layer metric `module.function.stat` from the span summary; 0 if never called.

    Seconds and calls are per traced round; ratios are over all traced rounds.
    """
    span, stat = metric.rsplit(".", 1)
    st = stats.get(span)
    if not st or not st["calls"]:
        return 0.0
    if stat in ("s", "self_s", "calls"):
        return float(st[stat]) / rounds
    if stat == "us_per_call":
        return 1e6 * st["s"] / st["calls"]
    if stat.endswith("_per_call"):
        return st["work"] / st["calls"]
    if stat.endswith("_per_s"):
        return st["work"] / st["s"] if st["s"] > 0 else 0.0
    raise ValueError(f"no rule for per-layer metric {metric}")


def op_table(outcomes, ops) -> dict:
    table = {}
    for op in ops:
        mine = [o for o in outcomes if o.op == op]
        done = [o for o in mine if not o.failed]
        seconds = sum(o.seconds for o in done)
        work = sum(o.work for o in done)
        table[op] = {"attempted": len(mine), "failed": len(mine) - len(done),
                     "seconds": seconds, "failed_seconds": sum(o.seconds for o in mine) - seconds,
                     "work": work,
                     "work_per_s": work / seconds if seconds > 0 else None,
                     "errors": sorted({o.error for o in mine if o.failed})}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="operation sizes; tiny is for the self-test")
    parser.add_argument("--references", default=None,
                        help="reference file (default perfbench/references.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        die("--seed must be a nonnegative integer")

    if not os.path.isfile(os.path.join(SRC, "treecolor", "cli.py")):
        die(f"no treecolor sources under {SRC}; run from a checkout of the repository")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)

    import reference
    import workloads
    from calibrate import KERNEL_REFERENCE_S, kernel
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    refs = reference.load_references(args.references or reference.REFERENCE_FILE)

    setup_once()  # warm-up: compiles bytecode caches, fills the file cache
    setup_times = [setup_once() for _ in range(SETUP_FIRST)]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], workdir, refs)
        # A traced run starts with a warm-up round, then alternates traced and
        # untraced rounds, so the tracing overhead compares like with like.
        tracer = Tracer() if args.trace else None
        outcomes = workload.round(0) if args.trace else []
        index = 1 if args.trace else 0
        walls: dict[bool, list[float]] = {False: [], True: []}
        kernel_times: list[float] = []
        start = time.perf_counter()
        while (not walls[bool(args.trace)] or (args.trace and not walls[False])
               or time.perf_counter() - start < args.seconds):
            traced = bool(args.trace) and len(walls[True]) <= len(walls[False])
            kernel_times += [kernel() for _ in range(KERNEL_REPEATS)]
            if traced:
                tracer.install()
            try:
                done = workload.round(index)
            finally:
                if traced:
                    tracer.uninstall()
            setup_times.append(setup_once())
            index += 1
            outcomes += done
            walls[traced].append(sum(o.seconds for o in done))
        round_walls = walls[bool(args.trace)]
        results = workload.check(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from checks import Check
    unexpected = sorted({o.op for o in outcomes if o.failed} - {workloads.KNOWN_FAILURE})
    results.append(Check("failures.only_known", not unexpected,
                         f"unexpected failures in {unexpected}" if unexpected
                         else f"only {workloads.KNOWN_FAILURE} may fail"))
    correct = all(c.ok for c in results)
    ops = op_table(outcomes, workload.ops)
    # timings rescaled to a machine running the calibration kernel at its reference speed
    speed = KERNEL_REFERENCE_S / statistics.median(kernel_times)

    if args.trace:
        stats = tracer.summary()
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "tracing.overhead_s":
                value = statistics.median(walls[True]) - statistics.median(walls[False])
            else:
                value = layer_value(stats, m["name"], len(walls[True]))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        stats = None
        measured = {
            "setup_s": statistics.median(setup_times) * speed,
            "wall_s": statistics.median(round_walls) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "machine": machine(), "rounds": index, "round_walls_s": round_walls,
        "untraced_round_walls_s": walls[False] if args.trace else None, "setup_runs_s": setup_times,
        "kernel_s": kernel_times, "speed_factor": speed,
        "raw_setup_s": statistics.median(setup_times),
        "raw_wall_s": statistics.median(round_walls),

        "operations": ops, "checks": [c.as_dict() for c in results],
        "metrics": metrics, "spans": stats,
    }
    report_path = os.path.join(
        OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
        fh.write("\n")

    for op, row in ops.items():
        rate = "" if row["work_per_s"] is None else f", {row['work_per_s']:.6g} units/s"
        print(f"op {op}: {row['attempted'] - row['failed']}/{row['attempted']} ok{rate}"
              + (f"; {row['errors'][0]}" if row["errors"] else ""))
    by_name: dict[str, list] = {}
    for c in results:
        by_name.setdefault(c.name, []).append(c)
    for name, group in by_name.items():
        shown = next((c for c in group if not c.ok), group[-1])
        times = f" (x{len(group)})" if len(group) > 1 else ""
        print(f"check {'PASS' if shown.ok else 'FAIL'} {name}{times}: {shown.detail}")
    print(f"report {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in ops.values()),
        "failed": sum(r["failed"] for r in ops.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
