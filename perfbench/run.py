"""Benchmark for mlcgcn: training throughput at two shapes and eval latency.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cv-small --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see perfbench/README.md). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it
hold the environment record and a readable summary. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cv-small", "train-paper", "eval-paper"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (SRC / "mlcgcn" / "__init__.py").is_file():
        print(f"error: no mlcgcn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # BLAS reads its thread count when NumPy is first imported, just below.
    # One thread: a second OpenBLAS thread spins for the CPU, so any other
    # load on the machine doubles the step time (see perfbench/README.md).
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    import envinfo
    from workloads import WORKLOADS

    env = envinfo.EnvRecord(ROOT, nproc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    metrics, extra, error = {}, {}, None
    try:
        metrics, extra = workload.run(args.seconds, bool(args.trace))
    except Exception:  # a failed operation: report it, exit non-zero
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = workload.checks
    failed = checks.failed + (error is not None)
    attempted = max(checks.attempted + (error is not None), 1)
    if not args.trace and error is None:
        metrics["peak_rss_mb"] = (envinfo.peak_rss_mb(), "MB")
    extra["fail_frac"] = (failed / attempted, "fraction")
    record["env"] = env.finish()
    record["failures"] = checks.messages + ([error] if error else [])
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["report_only"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    if workload.tracer is not None:
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        workload.tracer.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    suffix = "trace" if args.trace else "plain"
    (OUT / f"result-{args.workload}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"env": record["env"]}))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:12s} {name:36s} {value:14.6g} {unit}")
    for message in record["failures"]:
        print(f"FAILED: {message.strip()}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
