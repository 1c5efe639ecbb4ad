"""The benchmark contract: a short perfbench run finds every name it patches
and calls in `mlcgcn`, and passes all of its correctness checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tmp_path, workload, trace=1):
    # perfbench writes its outputs next to its own checkout, so run a copy of
    # the checkout under tmp_path.
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    detail = proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.returncode == 0, detail
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, detail
    assert result["attempted"] > 0
    return result


def test_traced_cv_small_benchmark_passes_its_checks(tmp_path):
    run_bench(tmp_path, "cv-small")


def test_untraced_cv_small_benchmark_passes_its_checks(tmp_path):
    # The end-to-end metrics come from untraced runs, whose step clock wraps
    # `training.adamw_step` without the tracer's patches.
    metrics = run_bench(tmp_path, "cv-small", trace=0)["metrics"]
    assert {"setup_s", "scans_per_s", "step_ms_p50", "pass_s", "peak_rss_mb"} <= metrics.keys()


# eval-paper checks the one-scan predict contract (exact unit diagonal,
# symmetric graphs); train-paper runs the batched paper-shape step through
# the tracer's 2-D matmul counter.
@pytest.mark.parametrize("workload", ["eval-paper", "train-paper"])
def test_traced_paper_benchmark_passes_its_checks(tmp_path, workload):
    run_bench(tmp_path, workload)
