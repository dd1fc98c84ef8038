"""Smoke test of the end-to-end pipeline script at a small size."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_pipeline_writes_its_artifacts(tmp_path):
    out = tmp_path / "pipeline"
    proc = subprocess.run(
        [sys.executable, "scripts/run_pipeline.py", "--out", str(out), "--seed", "0",
         "--n-source", "400", "--n-target", "400", "--epochs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    for name in ("metrics.csv", "report.csv", "samples.tsv"):
        assert (out / name).stat().st_size > 0, name
    assert (out / "metrics.csv").read_text().splitlines()[0].endswith(",val_acc")
