"""Command-line pipeline: synthetic corpora, transfer-model training,
transfer, and model-based evaluation.

Exit codes: 0 success, 1 usage error, 2 data/format error or unreadable
path, 3 numerical divergence, 4 advisory (evaluation classifier below its
trust gate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointFormatError, load_checkpoint, save_params
from .corpus import RESERVED, SpecError, Vocab, gen_synthetic, read_lines, write_lines
from .evaluation import EvalReport, diverged, prepare_experiment, run_experiment, score_model
from .model import TransferModel, transfer_sentences
from .training import ConfigError, TrainConfig, metrics_to_csv, train

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
    write_lines(out_path, [json.dumps(manifest, indent=2, sort_keys=True)])


def _parse_mix(text: str):
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise UsageError(f"--mix wants three comma-separated weights, got {text!r}")
    return parts


def _setup(args) -> tuple:
    """(run config, set-up) of `train` and `evaluate`: the --config file over
    the reference defaults, and the split and classifiers it builds from the
    corpus. The labels file needs one line per source sentence."""
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    source_sents = read_lines(args.source)
    labels = read_lines(args.labels) if args.labels else None
    if labels is not None and len(labels) != len(source_sents):
        raise SpecError(f"{args.labels} holds {len(labels)} labels for "
                        f"{len(source_sents)} sentences")
    return cfg, prepare_experiment(source_sents, labels, read_lines(args.target), cfg)


def _load_model(path) -> tuple:
    """(model, vocabulary, run config) of a checkpoint whose record holds exactly
    the run config and the non-reserved tokens, one per embedding row after RESERVED."""
    record, arrays = load_checkpoint(path)
    try:
        if sorted(record) != ["config", "vocab"]:
            raise CheckpointFormatError(f"record keys {sorted(record)}, expected config and vocab")
        config, names = record["config"], {f.name for f in fields(TrainConfig)}
        keys = set(config) if isinstance(config, dict) else set()
        if keys != names:
            raise ConfigError(f"config fields missing {sorted(names - keys)}, "
                              f"unknown {sorted(keys - names)}")
        cfg, tokens = TrainConfig(**config), record["vocab"]
        if not (isinstance(tokens, list) and all(isinstance(t, str) and t for t in tokens)
                and len(set(tokens)) == len(tokens) and not set(tokens) & set(RESERVED)):
            raise CheckpointFormatError("vocab is not a list of unique non-empty strings "
                                        "free of reserved tokens")
        model, vocab = TransferModel.from_params(arrays), Vocab.from_tokens(tokens)
        if len(vocab) != model.vocab_size:
            raise CheckpointFormatError(f"vocab holds {len(vocab)} tokens with the reserved "
                                        f"ones, but the embedding has {model.vocab_size} rows")
    except (CheckpointFormatError, ConfigError) as err:
        raise type(err)(f"{path}: {err}") from None
    return model, vocab, cfg


def _write_score(setup, report, report_path, samples_path) -> int:
    """Write the report and, given samples_path, the first scored run's transfers
    of the held-out source test part; ADVISORY_EXIT below the trust gate, else 0."""
    report.to_csv(report_path)
    if samples_path:
        write_lines(samples_path, [f"{src}\t{out}" for src, out in
                                   zip(setup.corpora.source.test.sentences,
                                       report.scores[0].transferred)])
    print(f"mean_accuracy={report.mean} std={report.std} n_runs={report.n_runs}")
    if report.warning is not None:
        print("warning: evaluation classifier is below the trust gate", file=sys.stderr)
        return ADVISORY_EXIT
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    data = gen_synthetic(args.seed, args.n_source, args.n_target, _parse_mix(args.mix))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    cfg, setup = _setup(args)
    result = train(cfg, setup.corpora, setup.judge, eval_clf=setup.eval_clf,
                   progress=args.verbose)
    metrics_to_csv(result.metrics, args.log)  # a diverged run's log still explains it
    if diverged(result):
        raise DivergenceError(f"{result.skipped_steps} skipped steps, best_val={result.best_val}")
    save_params(args.out, result.params,
                {"config": asdict(cfg), "vocab": setup.vocab.id_to_token[len(RESERVED):]})
    report = EvalReport([(cfg.seed, score_model(setup, result.model, cfg))], cfg.fingerprint(),
                        setup.eval_acc)
    code = _write_score(setup, report, args.out + ".report.csv", args.out + ".samples.tsv")
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
    model, vocab, cfg = _load_model(args.model)
    lines = read_lines(args.input)
    keep = [(i, line) for i, line in enumerate(lines) if line.strip()]
    outputs = [""] * len(lines)
    if keep:
        transferred = transfer_sentences(model, vocab, [line for _, line in keep], cfg.pad_len)
        for (i, _), text in zip(keep, transferred):
            outputs[i] = text
    write_lines(args.output, outputs)
    write_manifest(args.output + ".manifest.json", "transfer", {},
                   {"model": args.model, "input": args.input}, cfg)
    print(f"transferred {len(lines)} lines")
    return 0


def cmd_evaluate(args) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, got {args.runs}")
    cfg, setup = _setup(args)
    report = run_experiment(setup, cfg, n_runs=args.runs, progress=args.verbose)
    if not report.scores:
        raise DivergenceError("all runs tripped the divergence guard")
    code = _write_score(setup, report, args.report, args.samples)
    write_manifest(args.report + ".manifest.json", "evaluate", {"runs": args.runs},
                   {"source": args.source, "target": args.target, "labels": args.labels,
                    "config": args.config},
                   cfg, extra={"mean": report.mean, "std": report.std})
    return code


# ---------------------------------------------------------------------------
# wiring

CONFIG_HELP = ("key=value file of the run's settings and seed (default: the reference "
               "settings, seed 0)")


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
    p.add_argument("--config", help=CONFIG_HELP + "; the checkpoint records it for transfer; "
                                                  "the ablations set lambda_cyc=0 or lambda_dis=0")
    p.add_argument("--out", required=True, help="checkpoint path; the score goes to "
                                                "OUT.report.csv and OUT.samples.tsv")
    p.add_argument("--log", required=True, help="metrics CSV path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("transfer", help="greedy-transfer sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
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
    p.add_argument("--samples", help="optional source<TAB>transferred dump of the test part, "
                                     "from the first scored run")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return DIVERGENCE_ERROR
    except (OSError, ValueError) as err:  # an unreadable path, or bad data or format
        print(f"error: {err}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
