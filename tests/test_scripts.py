"""Smoke test of the end-to-end pipeline script at a small size."""

import subprocess
import sys
from pathlib import Path

from styletx.corpus import read_lines
from styletx.evaluation import split_corpus
from styletx.training import desk_config

ROOT = Path(__file__).resolve().parent.parent


def test_run_pipeline_writes_its_artifacts(tmp_path):
    out = tmp_path / "pipeline"
    proc = subprocess.run(
        [sys.executable, "scripts/run_pipeline.py", "--out", str(out), "--seed", "0",
         "--n-source", "400", "--n-target", "400", "--epochs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    for name in ("metrics.csv", "model.ckpt.report.csv", "model.ckpt.samples.tsv"):
        assert (out / name).stat().st_size > 0, name
    assert (out / "metrics.csv").read_text().splitlines()[0].endswith(",val_acc")
    # `train` scores the model it wrote: one run row, seeded by the run config
    rows = [line for line in read_lines(out / "model.ckpt.report.csv")
            if not line.startswith("#")][1:]
    assert [row.split(",")[:2] for row in rows] == [["0", "0"], ["mean", ""], ["std", ""]]
    # one transfer per sentence of the held-out source test part
    data = out / "data"
    _, src_parts, _ = split_corpus(read_lines(data / "source.txt"), read_lines(data / "labels.txt"),
                                   read_lines(data / "target.txt"), desk_config(seed=0, epochs=1))
    assert len(read_lines(out / "model.ckpt.samples.tsv")) == len(src_parts[0].test)
