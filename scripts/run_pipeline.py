#!/usr/bin/env python3
"""End-to-end synthetic pipeline through the CLI: generate corpora, pretrain
the style judge, train the evaluation classifier, train the transfer model,
transfer the test split and score it.

Example:
    python3 scripts/run_pipeline.py --out runs/demo --seed 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from styletx.cli import main as cli
from styletx.training import desk_config


def sh(args):
    print("+ styletx", " ".join(args))
    code = cli(args)
    if code not in (0, 4):
        sys.exit(code)


def run(out: Path, seed: int, n_source: int, n_target: int, mix: str, epochs: int):
    out.mkdir(parents=True, exist_ok=True)
    data = out / "data"
    cfg = out / "desk.cfg"
    desk_config(epochs=epochs).to_file(cfg)
    sh(["gen-synth", "--out", str(data), "--seed", str(seed),
        "--n-source", str(n_source), "--n-target", str(n_target), "--mix", mix])
    corpus = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    sh(["pretrain-ds", *corpus, "--config", str(cfg), "--split-seed", str(seed),
        "--out", str(out / "ds.ckpt")])
    sh(["train-eval-clf", *corpus, "--config", str(cfg), "--split-seed", str(seed),
        "--out", str(out / "eval.ckpt")])
    sh(["train", *corpus, "--ds", str(out / "ds.ckpt"), "--eval-clf", str(out / "eval.ckpt"),
        "--config", str(cfg), "--seed", str(seed), "--split-seed", str(seed),
        "--out", str(out / "model.ckpt"), "--log", str(out / "metrics.csv"), "--verbose"])
    sh(["evaluate", "--retrain", *corpus, "--config", str(cfg), "--seed", str(seed),
        "--runs", "3", "--report", str(out / "report.csv"),
        "--samples", str(out / "samples.tsv"), "--verbose"])
    print(f"\nartifacts in {out}: metrics.csv, report.csv, samples.tsv")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/pipeline"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-source", type=int, default=2000)
    ap.add_argument("--n-target", type=int, default=2000)
    ap.add_argument("--mix", default="0.3,0.7,0.0")
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()
    run(args.out, args.seed, args.n_source, args.n_target, args.mix, args.epochs)
