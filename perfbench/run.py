#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the run's metadata (seed, host reference loop, fused
chunk, BLAS threads, nproc, program digest).  The full record, spans
included, is written to ``.perfbench_out/``.  ``--self-check`` runs
every workload at minimal size and checks the harness itself.
Workloads and metrics are described in ``perfbench/METRICS.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# numpy reads these once, at import: every process of a run (this one,
# the serving process, the forked shards) gets the same BLAS threading,
# and both commits of a comparison run with the same setting.  One
# thread keeps the multi-process workloads from oversubscribing the
# cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {"setup_s": "s", "p90_ms": "ms", "rss_mb": "MB"}
PER_LAYER = {
    "serving.fleet_ms": "ms", "serving.overhead_ms": "ms",
    "serving.queue_ms": "ms", "serving.flush_requests": "count",
    "serving.frame_bytes": "bytes", "serving.rtt_p99_ms": "ms",
    "streaming.self_ms": "ms", "streaming.windows_per_call": "count",
    "fused.score_ms": "ms", "fused.us_per_window_model": "us",
    "fused.chunk_rows": "rows", "fused.pack_ms": "ms",
    "coordinator.admission_ms": "ms",
    "coordinator.builds_per_request": "ratio",
    "refresh.build_ms": "ms", "training.fit_ms": "ms",
    "training.windows_per_s": "1/s", "runtime.shard_busy_ms": "ms",
    "runtime.ipc_ms": "ms", "runtime.shard_skew": "ratio",
    "host.ref_ms": "ms", "trace.overhead_pct": "%",
}
# The per-layer metrics each workload measures; the others read 0 on
# it (the workload does not load that layer).
COMMON = ["fused.chunk_rows", "host.ref_ms", "trace.overhead_pct"]
LOADS = {
    "serve": ["serving.fleet_ms", "serving.overhead_ms", "serving.queue_ms",
              "serving.flush_requests", "serving.frame_bytes",
              "serving.rtt_p99_ms", "streaming.self_ms",
              "streaming.windows_per_call", "fused.score_ms",
              "fused.us_per_window_model"] + COMMON,
    "ingest": ["streaming.self_ms", "streaming.windows_per_call",
               "fused.score_ms", "fused.us_per_window_model"] + COMMON,
    "refresh": ["fused.pack_ms", "coordinator.admission_ms",
                "coordinator.builds_per_request", "refresh.build_ms",
                "training.fit_ms", "training.windows_per_s"] + COMMON,
    "sharded": ["runtime.shard_busy_ms", "runtime.ipc_ms",
                "runtime.shard_skew"] + COMMON,
}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(LOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at minimal size and "
                             "check the harness")
    # Self-check only: minimal sizes, and a perturbed output that the
    # checks must count as a failed operation.
    parser.add_argument("--small", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", action="store_true",
                        help=argparse.SUPPRESS)
    # The serve workload's server process.
    parser.add_argument("--serve-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.self_check or args.serve_process) and \
            args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run_workload(args) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness
    import workloads
    import_s = time.perf_counter() - _START
    if args.serve_process:
        return workloads.serve_process(args.seed, bool(args.trace))

    ref_start = harness.host_ref_ms()
    config = workloads.Config(seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace), perturb=args.perturb,
                              small=args.small)
    outcome = workloads.WORKLOADS[args.workload](config)
    ref_end = harness.host_ref_ms()

    if args.trace:
        measured = dict(outcome.per_layer,
                        **{"host.ref_ms": (ref_start + ref_end) / 2.0})
        missing = [name for name in LOADS[args.workload]
                   if name not in measured]
        if missing:
            raise RuntimeError(f"traced {args.workload} did not measure "
                               f"{missing}")
        values = {name: float(measured.get(name, 0.0))
                  for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {name: float(outcome.end_to_end[name])
                  for name in END_TO_END}
        units = END_TO_END
    meta = dict(outcome.meta, **{
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "import_s": import_s,
        "host.ref_ms": {"start": ref_start, "end": ref_end},
        "blas_threads": harness.blas_threads(),
        "nproc": os.cpu_count(),
        "commit": harness.source_digest(ROOT),
    })
    result = {
        "correct": outcome.failed == 0 and outcome.attempted >= 1,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump({"result": result, "meta": meta,
                   "latencies_s": outcome.latencies, "spans": outcome.spans},
                  handle)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------
def self_check() -> int:
    """Every workload runs, every declared metric is emitted with its
    unit, and a perturbed output is counted as a failed operation."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = []
    for kind, table in (("end_to_end", END_TO_END),
                        ("per_layer", PER_LAYER)):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        if units != table:
            problems.append(f"BENCHMARK.json {kind} differs from run.py: "
                            f"{units} != {table}")
    for workload in sorted(LOADS):
        for trace, perturb in ((0, False), (1, False), (0, True)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--small"]
            if perturb:
                command.append("--perturb")
            label = f"{workload} trace={trace}" + \
                (" perturbed" if perturb else "")
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=300, cwd=ROOT)
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            table = PER_LAYER if trace else END_TO_END
            emitted = {name: entry["unit"]
                       for name, entry in result["metrics"].items()}
            if emitted != table:
                problems.append(f"{label}: emitted {emitted}")
            if perturb:
                if result["failed"] < 1 or result["correct"]:
                    problems.append(f"{label}: perturbed output was not "
                                    f"counted as failed: {result}")
            elif not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} failed")
            if trace and not perturb:
                zero = [name for name in LOADS[workload]
                        if result["metrics"][name]["value"] == 0.0
                        and name != "trace.overhead_pct"]
                if zero:
                    problems.append(f"{label}: measured 0 for {zero}")
            print(f"self-check: {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are not in "
              "this checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
