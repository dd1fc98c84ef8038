#!/usr/bin/env python3
"""Ablation and robustness matrix on the synthetic task: the full objective
against the no-cycle and no-discrepancy variants, plus a shrunken target
corpus, each aggregated over seeded repeats.

Example:
    python3 scripts/run_ablations.py --runs 3 --out runs/ablations
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from styletx.corpus import gen_synthetic
from styletx.evaluation import prepare_experiment, run_experiment
from styletx.training import desk_config


def matrix(out: Path, seed: int, runs: int, epochs: int):
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    cfg = desk_config(seed=seed, epochs=epochs)
    data = gen_synthetic(seed=seed, n_source=2000, n_target=2000, mix=(0.3, 0.7, 0.0))
    setup = prepare_experiment(data.source, data.source_styles, data.target, cfg)
    for name, fit in (("judge", setup.judge_fit), ("evaluator", setup.eval_fit)):
        print(f"{name} heldout accuracy {fit.heldout_accuracy:.3f}, "
              f"mean |p - 0.5| {fit.heldout_margin:.3f}, training BCE {fit.train_bce:.3g}")

    small = gen_synthetic(seed=seed, n_source=2000, n_target=500, mix=(0.3, 0.7, 0.0))
    small_setup = prepare_experiment(small.source, small.source_styles, small.target, cfg)

    rows = []
    for name, this_setup, variant in [
        ("full", setup, cfg),
        ("no-cyc", setup, replace(cfg, lambda_cyc=0.0)),
        ("no-dis", setup, replace(cfg, lambda_dis=0.0)),
        ("full-target500", small_setup, cfg),
        ("no-dis-target500", small_setup, replace(cfg, lambda_dis=0.0)),
    ]:
        report = run_experiment(this_setup, variant, n_runs=runs)
        report.to_csv(out / f"{name}.csv")
        rows.append((name, report.mean, report.std, report.by_style))
        print(f"{name:18s} mean {report.mean:.3f} std {report.std:.3f} "
              f"by_style {report.by_style}  [{time.time() - t0:.0f}s]")
    print(f"\nwall time {time.time() - t0:.0f}s; reports in {out}")
    return rows


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/ablations"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()
    matrix(args.out, args.seed, args.runs, args.epochs)
