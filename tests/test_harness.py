"""The benchmark harness's traced stream run, end to end in a subprocess.

The harness wraps the package's public functions by name and counts each
call's arguments, so a value it cannot read (a kernel's second point set that
is not array-like, say) fails every traced op. This run shows that here,
before a benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_stream_run_records_every_span():
    """`perfbench/run.py --workload system1_stream --seconds 1 --trace 1` exits 0
    with every op correct, no required span missing, one Kernel.matrix and one
    StreamState.matrices call per sample, and 63 kernel evaluations per sample:
    one sample against the 63 default centers."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           "system1_stream", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    *_, detail, result = done.stdout.strip().splitlines()
    detail, result = json.loads(detail)["detail"], json.loads(result)
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert detail["missing_spans"] == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["kernels.Kernel.assemble_block_multi.kernel_evals"] == 63
    assert metrics["kernels.Kernel.matrix.calls_per_sample"] == 1
    assert metrics["streaming.StreamState.matrices.calls_per_sample"] == 1
