#!/usr/bin/env python3
"""End-to-end synthetic pipeline through the CLI: generate corpora, then train
the transfer model (with its style judge and evaluation classifier, each on
its own data part), which also scores the model on the held-out source test
part.

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
    desk_config(seed=seed, epochs=epochs).to_file(cfg)
    sh(["gen-synth", "--out", str(data), "--seed", str(seed),
        "--n-source", str(n_source), "--n-target", str(n_target), "--mix", mix])
    corpus = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    sh(["train", *corpus, "--config", str(cfg), "--out", str(out / "model.ckpt"),
        "--log", str(out / "metrics.csv"), "--verbose"])
    print(f"\nartifacts in {out}: model.ckpt, metrics.csv, and the model's "
          f"model.ckpt.report.csv and model.ckpt.samples.tsv")


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
