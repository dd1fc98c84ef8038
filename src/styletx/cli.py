"""Command-line pipeline: synthetic corpora, transfer-model training,
transfer, and model-based evaluation.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
divergence, 4 advisory (evaluation classifier below its trust gate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointFormatError, atomic_write, load_params
from .corpus import EmptyInputError, SpecError, Vocab, gen_synthetic, read_lines, write_lines
from .evaluation import (
    ContaminationError,
    diverged,
    prepare_experiment,
    report_runs,
    run_experiment,
    score_model,
    write_sample_dump,
)
from .model import TransferModel, transfer_sentences
from .training import ConfigError, TrainConfig, train

USAGE_ERROR, DATA_ERROR, DIVERGENCE_ERROR, ADVISORY_EXIT = 1, 2, 3, 4


class UsageError(Exception):
    pass


class DivergenceError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_path, command: str, flags: dict, inputs: dict,
                   cfg: TrainConfig = None, extra: dict = None) -> None:
    """Flags, the run config with its fingerprint, and input hashes beside
    every output; identical manifests imply identical outputs."""
    manifest = {
        "command": command,
        "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items()) if p is not None},
        "version": __version__,
    }
    if cfg is not None:
        manifest.update(config=asdict(cfg), config_fingerprint=cfg.fingerprint())
    if extra:
        manifest.update(extra)
    with atomic_write(out_path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _parse_mix(text: str):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"--mix wants three comma-separated weights, got {text!r}")
    return tuple(parts)


def _load_corpus(source, target, labels_path):
    """(source, target, source style labels or None): the labels file needs
    one line per source sentence."""
    source_sents = read_lines(source)
    labels = read_lines(labels_path) if labels_path else None
    if labels is not None and len(labels) != len(source_sents):
        raise SpecError(f"{labels_path} holds {len(labels)} labels for "
                        f"{len(source_sents)} sentences")
    return source_sents, read_lines(target), labels


def _config(args) -> TrainConfig:
    """The run's settings and seed: the --config file over the reference
    defaults."""
    return TrainConfig.from_file(args.config) if args.config else TrainConfig()


def _load_with_vocab(path) -> tuple:
    """The transfer model a checkpoint holds, plus its vocabulary sidecar,
    which must have one token per embedding row."""
    arrays = load_params(path)
    try:
        loaded = TransferModel.from_params(arrays)
    except CheckpointFormatError as err:
        raise CheckpointFormatError(f"{path}: {err}") from None
    vocab_path = Path(str(path) + ".vocab")
    if not vocab_path.exists():
        raise FileNotFoundError(f"missing vocabulary sidecar {vocab_path}")
    vocab = Vocab.from_file(vocab_path)
    if len(vocab) != loaded.vocab_size:
        raise CheckpointFormatError(f"{vocab_path} holds {len(vocab)} tokens, but the embedding "
                                    f"of {path} has {loaded.vocab_size} rows")
    return loaded, vocab


def _write_score(setup, result, report_path, samples_path) -> int:
    """Write the report and, given samples_path, run 0's transfers of the
    held-out source test part; ADVISORY_EXIT below the trust gate, else 0."""
    report = result.report
    report.to_csv(report_path)
    if samples_path:
        write_sample_dump(samples_path, list(zip(setup.corpora.source.test.sentences,
                                                 result.runs[0].transferred)))
    print(f"mean_accuracy={report.mean} std={report.std} n_runs={report.n_runs}")
    if report.warning is not None:
        print("warning: evaluation classifier is below the trust gate", file=sys.stderr)
        return ADVISORY_EXIT
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = gen_synthetic(args.seed, args.n_source, args.n_target, _parse_mix(args.mix))
    write_lines(out / "source.txt", data.source)
    write_lines(out / "target.txt", data.target)
    write_lines(out / "labels.txt", data.source_styles)
    write_manifest(out / "manifest.json", "gen-synth",
                   {"seed": args.seed, "n_source": args.n_source,
                    "n_target": args.n_target, "mix": args.mix},
                   {"source.txt": out / "source.txt", "target.txt": out / "target.txt",
                    "labels.txt": out / "labels.txt"})
    print(f"wrote {args.n_source} source / {args.n_target} target sentences to {out}")
    return 0


def cmd_train(args) -> int:
    t_start = time.perf_counter()
    cfg = _config(args)
    source_sents, target_sents, source_labels = _load_corpus(args.source, args.target, args.labels)
    setup = prepare_experiment(source_sents, source_labels, target_sents, cfg)
    result = train(cfg, setup.corpora, setup.judge, eval_clf=setup.eval_clf,
                   ckpt_path=args.out, log_path=args.log, progress=args.verbose)
    if diverged(result):
        raise DivergenceError(f"{result.skipped_steps} skipped steps, best_val={result.best_val}")
    scored = report_runs(cfg, setup.eval_acc, [(cfg.seed, score_model(setup, result.model, cfg))])
    code = _write_score(setup, scored, args.out + ".report.csv", args.out + ".samples.tsv")
    write_manifest(args.out + ".manifest.json", "train", {},
                   {"source": args.source, "target": args.target, "labels": args.labels,
                    "config": args.config},
                   cfg, extra={"best_epoch": result.best_epoch,
                               "best_val_total": result.best_val,
                               "skipped_steps": result.skipped_steps,
                               "judge_fit": asdict(setup.judge_fit),
                               "eval_fit": asdict(setup.eval_fit)})
    print(f"best_val_total={result.best_val} best_epoch={result.best_epoch} "
          f"wall_seconds={time.perf_counter() - t_start:.1f}")
    return code


def cmd_transfer(args) -> int:
    cfg = _config(args)
    model, vocab = _load_with_vocab(args.model)
    lines = read_lines(args.input)
    keep = [(i, line) for i, line in enumerate(lines) if line.strip()]
    outputs = [""] * len(lines)
    if keep:
        transferred = transfer_sentences(model, vocab, [line for _, line in keep], cfg.pad_len)
        for (i, _), text in zip(keep, transferred):
            outputs[i] = text
    write_lines(args.output, outputs)
    write_manifest(args.output + ".manifest.json", "transfer", {},
                   {"model": args.model, "input": args.input, "config": args.config}, cfg)
    print(f"transferred {len(lines)} lines")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    source_sents, target_sents, source_labels = _load_corpus(args.source, args.target, args.labels)
    setup = prepare_experiment(source_sents, source_labels, target_sents, cfg)
    result = run_experiment(setup, cfg, n_runs=args.runs, progress=args.verbose)
    report = result.report
    if not report.accuracies:
        raise DivergenceError("all runs tripped the divergence guard")
    code = _write_score(setup, result, args.report, args.samples)
    write_manifest(args.report + ".manifest.json", "evaluate", {"runs": args.runs},
                   {"source": args.source, "target": args.target, "labels": args.labels,
                    "config": args.config},
                   cfg, extra={"mean": report.mean, "std": report.std})
    return code


# ---------------------------------------------------------------------------
# wiring

CONFIG_HELP = ("key=value file of the run's settings and seed (default: the reference "
               "settings, seed 0); give every command of one run the same file")


def build_parser() -> Parser:
    parser = Parser(prog="styletx",
                    description="Train and evaluate sentence style transfer on "
                                "non-parallel corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic style corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-source", type=int, default=2000)
    p.add_argument("--n-target", type=int, default=2000)
    p.add_argument("--mix", default="0.3,0.7,0.0",
                   help="source style mixture target,anti,neutral (sums to 1)")
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("train", help="train the style judge, the evaluation classifier and the "
                                     "transfer model on their data parts; score the model")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--labels")
    p.add_argument("--config", help=CONFIG_HELP + "; the ablations set lambda_cyc=0 or "
                                                  "lambda_dis=0")
    p.add_argument("--out", required=True, help="checkpoint path; the score goes to "
                                                "OUT.report.csv and OUT.samples.tsv")
    p.add_argument("--log", required=True, help="metrics CSV path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("transfer", help="greedy-transfer sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", help=CONFIG_HELP + "; transfer reads its pad_len")
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("evaluate", help="train --runs seeded transfer models and score each on "
                                        "the held-out source test part")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--labels")
    p.add_argument("--config", help=CONFIG_HELP)
    p.add_argument("--runs", type=int, default=3,
                   help="independent train+evaluate runs, seeded seed, seed+1, ...")
    p.add_argument("--report", required=True)
    p.add_argument("--samples", help="optional source<TAB>transferred dump of the test part")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return DIVERGENCE_ERROR
    except (FileNotFoundError, CheckpointFormatError, ConfigError, SpecError,
            EmptyInputError, ContaminationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
