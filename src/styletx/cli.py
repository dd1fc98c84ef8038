"""Command-line pipeline: synthetic corpora, classifier pretraining,
transfer-model training, transfer, and model-based evaluation.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
divergence, 4 advisory (evaluation classifier below its trust gate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointFormatError, atomic_write, load_params, save_params
from .corpus import (
    STYLE_TARGET,
    EmptyInputError,
    SpecError,
    Vocab,
    gen_synthetic,
    read_lines,
    write_lines,
)
from .evaluation import (
    ContaminationError,
    EvalReport,
    prepare_experiment,
    run_experiment,
    split_corpus,
    train_part_classifier,
    transfer_accuracy,
    write_sample_dump,
)
from .model import TextCnnClassifier, TransferModel, classify_texts, transfer_sentences
from .training import ConfigError, TrainConfig, TransferCorpora, train

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


def write_manifest(out_path, command: str, flags: dict, inputs: dict, extra: dict = None) -> None:
    """Flags, seeds and input hashes beside every output; identical manifests
    imply identical outputs."""
    manifest = {
        "command": command,
        "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items()) if p is not None},
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    with atomic_write(out_path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _parse_mix(text: str):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"--mix wants three comma-separated weights, got {text!r}")
    return tuple(parts)


def _read_labels(path, sentences) -> list | None:
    """The style labels in path, one line per sentence; None without a path."""
    if not path:
        return None
    labels = read_lines(path)
    if len(labels) != len(sentences):
        raise SpecError(f"{path} holds {len(labels)} labels for {len(sentences)} sentences")
    return labels


def _load_corpus(source, target, labels):
    source_sents = read_lines(source)
    return source_sents, read_lines(target), _read_labels(labels, source_sents)


def _resolve_config(args) -> TrainConfig:
    """built-in defaults < config file < explicit flags."""
    cfg = TrainConfig.from_file(args.config) if getattr(args, "config", None) else TrainConfig()
    overrides = {}
    for key in ("seed", "epochs", "lr", "batch_size", "pad_len", "dropout"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "no_cyc", False):
        overrides["lambda_cyc"] = 0.0
    if getattr(args, "no_dis", False):
        overrides["lambda_dis"] = 0.0
    return replace(cfg, **overrides)


def _load_with_vocab(path, from_params) -> tuple:
    """A checkpoint rebuilt by from_params, plus its vocabulary sidecar,
    which must have one token per embedding row."""
    arrays = load_params(path)
    try:
        loaded = from_params(arrays)
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


def _classifier_command(args, part_index: int, command: str) -> int:
    cfg = _resolve_config(args)
    source_sents, target_sents, source_labels = _load_corpus(args.source, args.target, args.labels)
    vocab, src_parts, tgt_parts = split_corpus(source_sents, source_labels, target_sents,
                                               args.split_seed, cfg.min_count)
    clf, fit = train_part_classifier(src_parts, tgt_parts, part_index, vocab, cfg,
                                     args.split_seed)
    save_params(args.out, clf.params())
    vocab.to_file(args.out + ".vocab")
    write_manifest(args.out + ".manifest.json", command,
                   {"split_seed": args.split_seed, "style_labels": source_labels is not None,
                    **{k: getattr(cfg, k) for k in ("d_emb", "pad_len", "min_count")}},
                   {"source": args.source, "target": args.target, "labels": args.labels,
                    "config": args.config},
                   extra=asdict(fit))
    print(f"accuracy={fit.heldout_accuracy}")
    return 0


def cmd_pretrain_ds(args) -> int:
    return _classifier_command(args, part_index=1, command="pretrain-ds")


def cmd_train_eval_clf(args) -> int:
    return _classifier_command(args, part_index=2, command="train-eval-clf")


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    source_sents, target_sents, source_labels = _load_corpus(args.source, args.target, args.labels)
    judge, judge_vocab = _load_with_vocab(args.ds, TextCnnClassifier.from_params)
    eval_clf = eval_vocab = None
    if args.eval_clf:
        eval_clf, eval_vocab = _load_with_vocab(args.eval_clf, TextCnnClassifier.from_params)
    vocab, src_parts, tgt_parts = split_corpus(source_sents, source_labels, target_sents,
                                               args.split_seed, cfg.min_count)
    if judge_vocab.id_to_token != vocab.id_to_token:
        raise SpecError(f"the --ds judge's vocabulary ({len(judge_vocab)} tokens) differs from "
                        f"this run's ({len(vocab)} tokens); pretrain it on the same --source, "
                        f"--target and --config (min_count {cfg.min_count})")
    corpora = TransferCorpora(vocab=vocab, source=src_parts[0], target=tgt_parts[0])
    result = train(cfg, corpora, judge, eval_clf=eval_clf, eval_vocab=eval_vocab,
                   ckpt_path=args.out, log_path=args.log, progress=args.verbose)
    if not np.isfinite(result.best_val):
        raise DivergenceError("no epoch produced a finite validation total")
    write_manifest(args.out + ".manifest.json", "train",
                   {"split_seed": args.split_seed, "no_cyc": args.no_cyc or None,
                    "no_dis": args.no_dis or None,
                    **{k: getattr(cfg, k) for k in ("seed", "epochs", "lr", "batch_size",
                                                    "pad_len", "dropout", "lambda_cyc",
                                                    "lambda_dis")}},
                   {"source": args.source, "target": args.target, "labels": args.labels,
                    "ds": args.ds, "config": args.config},
                   extra={"config_fingerprint": cfg.fingerprint(),
                          "best_epoch": result.best_epoch,
                          "best_val_total": result.best_val,
                          "skipped_steps": result.skipped_steps})
    print(f"best_val_total={result.best_val} best_epoch={result.best_epoch} "
          f"wall_seconds={result.wall_seconds:.1f}")
    return 0


def cmd_transfer(args) -> int:
    model, vocab = _load_with_vocab(args.model, TransferModel.from_params)
    lines = read_lines(args.input) if Path(args.input).stat().st_size else []
    keep = [(i, line) for i, line in enumerate(lines) if line.strip()]
    outputs = [""] * len(lines)
    if keep:
        transferred = transfer_sentences(model, vocab, [line for _, line in keep], args.pad_len)
        for (i, _), text in zip(keep, transferred):
            outputs[i] = text
    write_lines(args.output, outputs)
    write_manifest(args.output + ".manifest.json", "transfer",
                   {"pad_len": args.pad_len},
                   {"model": args.model, "input": args.input})
    print(f"transferred {len(lines)} lines")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    if args.retrain:
        if not (args.source and args.target and args.config):
            raise UsageError("--retrain needs --source, --target and --config")
        source_sents, target_sents, source_labels = _load_corpus(args.source, args.target,
                                                                 args.labels)
        setup = prepare_experiment(source_sents, source_labels, target_sents, cfg)
        result = run_experiment(setup, cfg, n_runs=args.runs, progress=args.verbose)
        report = result.report
        if args.samples and result.runs:
            pairs = list(zip(setup.corpora.source.test.sentences, result.runs[0].transferred))
            write_sample_dump(args.samples, pairs)
        if not report.accuracies:
            raise DivergenceError("all runs tripped the divergence guard")
    else:
        if not (args.model and args.eval_clf and args.input):
            raise UsageError("evaluate needs --model, --eval-clf and --input "
                             "(or --retrain with --source/--target/--config)")
        model, vocab = _load_with_vocab(args.model, TransferModel.from_params)
        clf, clf_vocab = _load_with_vocab(args.eval_clf, TextCnnClassifier.from_params)
        sentences = read_lines(args.input)
        labels = _read_labels(args.labels, sentences)
        clf_acc = None
        if labels is not None:
            truth = np.array([1.0 if l == STYLE_TARGET else 0.0 for l in labels])
            preds = classify_texts(clf, clf_vocab, sentences, cfg.pad_len)
            clf_acc = float((preds == truth).mean())
        score = transfer_accuracy(model, vocab, clf, clf_vocab, sentences, cfg.pad_len,
                                  true_styles=labels, clf_heldout_acc=clf_acc)
        # greedy decoding of a fixed checkpoint is deterministic: one measurement
        report = EvalReport(accuracies=[score.accuracy], seeds=[args.seed or 0],
                            warning=score.warning, by_style=score.by_style)
        if args.samples:
            write_sample_dump(args.samples, list(zip(sentences, score.transferred)))
    report.to_csv(args.report)
    write_manifest(args.report + ".manifest.json", "evaluate",
                   {"runs": args.runs if args.retrain else None,
                    "retrain": args.retrain or None, "pad_len": cfg.pad_len},
                   {"model": args.model, "eval_clf": args.eval_clf, "input": args.input,
                    "source": args.source, "target": args.target, "config": args.config},
                   extra={"mean": report.mean, "std": report.std})
    print(f"mean_accuracy={report.mean} std={report.std} n_runs={report.n_runs}")
    if report.warning is not None:  # transfer_accuracy's verdict on the trust gate
        print("warning: evaluation classifier is below the trust gate", file=sys.stderr)
        return ADVISORY_EXIT
    return 0


# ---------------------------------------------------------------------------
# wiring


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

    for name, fn, blurb in [("pretrain-ds", cmd_pretrain_ds,
                             "pretrain the frozen style judge on its data part"),
                            ("train-eval-clf", cmd_train_eval_clf,
                             "train the evaluation classifier on its data part")]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--labels", help="per-line source style labels; enables "
                                        "style-label training")
        p.add_argument("--split-seed", type=int, default=0)
        p.add_argument("--config", help="key=value config file: d_emb, pad_len and min_count")
        p.add_argument("--out", required=True, help="checkpoint path")
        p.set_defaults(fn=fn)

    p = sub.add_parser("train", help="train the transfer model")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--labels")
    p.add_argument("--ds", required=True, help="pretrained style judge checkpoint")
    p.add_argument("--eval-clf", help="optional evaluation classifier for per-epoch accuracy")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", required=True, help="metrics CSV path")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--pad-len", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--no-cyc", action="store_true", help="drop the cycle term (lambda_cyc=0)")
    p.add_argument("--no-dis", action="store_true",
                   help="drop the style discrepancy term (lambda_dis=0)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("transfer", help="greedy-transfer sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--pad-len", type=int, default=20)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("evaluate", help="score transfers with the evaluation classifier")
    p.add_argument("--model")
    p.add_argument("--eval-clf")
    p.add_argument("--input")
    p.add_argument("--labels")
    p.add_argument("--runs", type=int, default=3,
                   help="independent runs with --retrain; a checkpoint is scored once")
    p.add_argument("--report", required=True)
    p.add_argument("--samples", help="optional source<TAB>transferred dump")
    p.add_argument("--retrain", action="store_true",
                   help="train everything from scratch per run instead of scoring checkpoints")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--pad-len", type=int, help="default: the --config file's, else 20")
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
