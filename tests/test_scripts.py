"""Smoke tests of the scripts: the end-to-end pipeline at a small size, and
the ablation matrix with its experiments stubbed out."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from styletx.corpus import read_lines, three_way_split
from styletx.evaluation import EvalReport
from styletx.model import ClassifierFit, TransferScore
from styletx.training import SEED_SPLIT_SOURCE, rng_for

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
    src_parts = three_way_split(read_lines(data / "source.txt"), rng_for(0, SEED_SPLIT_SOURCE),
                                labels=read_lines(data / "labels.txt"))
    assert len(read_lines(out / "model.ckpt.samples.tsv")) == len(src_parts[0].test)


def test_run_ablations_writes_one_report_per_variant(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_ablations",
                                                  ROOT / "scripts" / "run_ablations.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    fit = ClassifierFit(heldout_accuracy=1.0, train_bce=0.01, heldout_margin=0.45)
    monkeypatch.setattr(script, "gen_synthetic", lambda **kw: SimpleNamespace(
        source=[], source_styles=[], target=[]))
    monkeypatch.setattr(script, "prepare_experiment", lambda *a: SimpleNamespace(
        judge_fit=fit, eval_fit=fit))
    variants = []

    def run_experiment(setup, cfg, n_runs):
        variants.append((cfg.lambda_cyc, cfg.lambda_dis))
        runs = [(cfg.seed + i, TransferScore(0.5, {"a": 0.25}, [])) for i in range(n_runs)]
        return EvalReport(runs, cfg.fingerprint(), setup.eval_fit.heldout_accuracy)

    monkeypatch.setattr(script, "run_experiment", run_experiment)
    rows = script.matrix(tmp_path, seed=0, runs=2, epochs=1)
    names = ["full", "no-cyc", "no-dis", "full-target500", "no-dis-target500"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in names)
    assert rows == [(name, 0.5, 0.0, {"a": 0.25}) for name in names]
    assert variants == [(1.0, 5.0), (0.0, 5.0), (1.0, 0.0), (1.0, 5.0), (1.0, 0.0)]
