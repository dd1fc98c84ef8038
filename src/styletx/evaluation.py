"""Model-based evaluation: an independently trained classifier scores
greedy transfers, repeated over seeded runs and aggregated as mean and
population standard deviation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .checkpoint import atomic_write
from .corpus import STYLE_TARGET, Dataset, SpecError, Vocab, build_vocab, encode, three_way_split
from .model import (
    ClassifierFit,
    TextCnnClassifier,
    TransferModel,
    classify_texts,
    pretrain_style_judge,
    transfer_sentences,
)
from .training import TrainConfig, TransferCorpora, train

QUALITY_GATE = 0.8
MAX_SKIPPED_STEPS = 10

SEED_SPLIT_SOURCE, SEED_SPLIT_TARGET, SEED_JUDGE, SEED_EVAL_CLF = 6, 7, 8, 9


def split_corpus(source: Sequence[str], labels: Optional[Sequence[str]],
                 target: Sequence[str], seed: int, min_count: int) -> tuple:
    """(vocab, source parts, target parts): the shared vocabulary and each
    side's (transfer model, style judge, evaluation classifier) split."""
    vocab = build_vocab(list(source) + list(target), min_count)
    src_parts = three_way_split(source, [seed, SEED_SPLIT_SOURCE], labels=labels)
    tgt_parts = three_way_split(target, [seed, SEED_SPLIT_TARGET])
    return vocab, src_parts, tgt_parts


class ContaminationError(ValueError):
    """A classifier split shares sentences with another data part."""


def check_disjoint(eval_sentences: Sequence[str], others: Sequence[Sequence[str]]) -> None:
    eval_set = set(eval_sentences)
    for other in others:
        overlap = eval_set & set(other)
        if overlap:
            sample = sorted(overlap)[:3]
            raise ContaminationError(
                f"{len(overlap)} sentences shared with another split, e.g. {sample}")


def binary_style_data(source: Dataset, target: Dataset):
    """Sentences plus 0/1 labels for classifier training: 1 means the
    sentence carries the target style.

    With ground-truth style labels, source sentences that already have the
    target style count as positives (the mixtures put some there); without
    labels this degrades to domain labels.
    """
    sentences = list(source.sentences) + list(target.sentences)
    if source.labels is not None:
        src_labels = [1.0 if l == STYLE_TARGET else 0.0 for l in source.labels]
    else:
        src_labels = [0.0] * len(source.sentences)
    return sentences, src_labels + [1.0] * len(target.sentences)


def train_part_classifier(src_parts: tuple, tgt_parts: tuple, k: int, vocab: Vocab,
                          cfg: TrainConfig, seed: int) -> tuple:
    """(frozen classifier, ClassifierFit) of split_corpus part k: the
    style judge for k = 1, seeded [seed, SEED_JUDGE], or the evaluation
    classifier for k = 2, seeded [seed, SEED_EVAL_CLF]. It embeds in
    cfg.d_emb dimensions and pads to cfg.pad_len. Refuses to train if part k
    shares a sentence with either other part."""
    part_s, part_t = src_parts[k], tgt_parts[k]
    if not len(part_s.train) or not len(part_t.train):
        raise SpecError("classifier part is empty; the corpus is too small")
    parts = [s.all_sentences() + t.all_sentences() for s, t in zip(src_parts, tgt_parts)]
    check_disjoint(parts[k], [parts[i] for i in range(3) if i != k])
    train_sents, train_labels = binary_style_data(part_s.train, part_t.train)
    held_sents, held_labels = binary_style_data(part_s.test, part_t.test)
    enc = lambda sents: [encode(s, vocab, cfg.pad_len) for s in sents]
    return pretrain_style_judge(enc(train_sents), train_labels, enc(held_sents), held_labels,
                                len(vocab), cfg.d_emb, [seed, {1: SEED_JUDGE, 2: SEED_EVAL_CLF}[k]])


@dataclass
class TransferScore:
    accuracy: float
    by_style: dict
    transferred: list
    warning: Optional[str] = None


def transfer_accuracy(model: TransferModel, model_vocab: Vocab, clf: TextCnnClassifier,
                      clf_vocab: Vocab, sentences: Sequence[str], pad_len: int,
                      true_styles: Optional[Sequence[str]] = None,
                      clf_heldout_acc: Optional[float] = None) -> TransferScore:
    """Greedy-transfer every sentence and report the fraction the classifier
    labels target-styled, with a per-true-style breakdown when available."""
    if not sentences:
        raise SpecError("transfer accuracy needs a non-empty test set")
    transferred = transfer_sentences(model, model_vocab, sentences, pad_len)
    hits = classify_texts(clf, clf_vocab, transferred, pad_len)
    by_style: dict = {}
    if true_styles is not None:
        for style in sorted(set(true_styles)):
            idx = [i for i, s in enumerate(true_styles) if s == style]
            by_style[style] = float(hits[idx].mean())
    warning = None
    if clf_heldout_acc is not None and clf_heldout_acc < QUALITY_GATE:
        warning = (f"evaluation classifier held-out accuracy {clf_heldout_acc:.3f} "
                   f"is below the {QUALITY_GATE} trust gate")
    return TransferScore(accuracy=float(hits.mean()), by_style=by_style,
                         transferred=transferred, warning=warning)


# ---------------------------------------------------------------------------
# report


@dataclass
class EvalReport:
    accuracies: list
    seeds: list
    config_fingerprint: str = ""
    failed_runs: list = field(default_factory=list)
    warning: Optional[str] = None
    by_style: dict = field(default_factory=dict)

    @property
    def n_runs(self) -> int:
        return len(self.accuracies)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else float("nan")

    @property
    def std(self) -> float:
        # population standard deviation over the run accuracies
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")

    def to_csv(self, path) -> None:
        lines = []
        if self.warning:
            lines.append(f"# warning: {self.warning}")
        if self.config_fingerprint:
            lines.append(f"# config: {self.config_fingerprint}")
        for style, acc in sorted(self.by_style.items()):
            lines.append(f"# style {style}: {acc!r}")
        lines.append("run,seed,accuracy")
        for i, (seed, acc) in enumerate(zip(self.seeds, self.accuracies)):
            lines.append(f"{i},{seed},{acc!r}")
        for run, seed in self.failed_runs:
            lines.append(f"{run},{seed},failed")
        lines.append(f"mean,,{self.mean!r}")
        lines.append(f"std,,{self.std!r}")
        with atomic_write(path) as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def write_sample_dump(path, pairs: Sequence[tuple]) -> None:
    with atomic_write(path) as fh:
        fh.write("".join(f"{src}\t{out}\n" for src, out in pairs).encode("utf-8"))


# ---------------------------------------------------------------------------
# the full protocol


@dataclass
class ExperimentSetup:
    """Everything that is fixed across the repeated runs: the vocabulary,
    the three-way split, and the two frozen classifiers with their fits."""

    vocab: Vocab
    corpora: TransferCorpora
    judge: TextCnnClassifier
    judge_fit: ClassifierFit
    eval_clf: TextCnnClassifier
    eval_fit: ClassifierFit
    source_parts: tuple
    target_parts: tuple

    @property
    def judge_acc(self) -> float:
        return self.judge_fit.heldout_accuracy

    @property
    def eval_acc(self) -> float:
        return self.eval_fit.heldout_accuracy


@dataclass
class ExperimentResult:
    report: EvalReport
    runs: list            # per-run TransferScore


def prepare_experiment(source_sentences: Sequence[str], source_labels: Optional[Sequence[str]],
                       target_sentences: Sequence[str], cfg: TrainConfig) -> ExperimentSetup:
    vocab, src_parts, tgt_parts = split_corpus(source_sentences, source_labels,
                                               target_sentences, cfg.seed, cfg.min_count)
    judge, judge_fit = train_part_classifier(src_parts, tgt_parts, 1, vocab, cfg, cfg.seed)
    eval_clf, eval_fit = train_part_classifier(src_parts, tgt_parts, 2, vocab, cfg, cfg.seed)
    corpora = TransferCorpora(vocab=vocab, source=src_parts[0], target=tgt_parts[0])
    return ExperimentSetup(vocab=vocab, corpora=corpora, judge=judge, judge_fit=judge_fit,
                           eval_clf=eval_clf, eval_fit=eval_fit,
                           source_parts=src_parts, target_parts=tgt_parts)


def run_experiment(setup: ExperimentSetup, cfg: TrainConfig, n_runs: int = 3,
                   progress: bool = False) -> ExperimentResult:
    """n_runs independent train+evaluate cycles with seeds seed, seed+1, ...

    Runs tripping the divergence guard are excluded from the aggregate and
    recorded in the report.
    """
    if n_runs < 1:
        raise SpecError(f"n_runs must be at least 1, got {n_runs}")
    accuracies, seeds, failed, scores = [], [], [], []
    test_sents = setup.corpora.source.test.sentences
    test_styles = setup.corpora.source.test.labels
    for i in range(n_runs):
        run_cfg = replace(cfg, seed=cfg.seed + i)
        result = train(run_cfg, setup.corpora, setup.judge, progress=progress)
        diverged = result.skipped_steps > MAX_SKIPPED_STEPS or not np.isfinite(result.best_val)
        if diverged:
            failed.append((i, run_cfg.seed))
            continue
        score = transfer_accuracy(result.model, setup.vocab, setup.eval_clf, setup.vocab,
                                  test_sents, cfg.pad_len, true_styles=test_styles,
                                  clf_heldout_acc=setup.eval_acc)
        scores.append(score)
        seeds.append(run_cfg.seed)
        accuracies.append(score.accuracy)
        if progress:
            print(f"run {i} (seed {run_cfg.seed}): accuracy {score.accuracy:.3f}")
    by_style: dict = {}
    if scores and scores[0].by_style:
        for style in scores[0].by_style:
            by_style[style] = float(np.mean([s.by_style[style] for s in scores]))
    report = EvalReport(accuracies=accuracies, seeds=seeds,
                        config_fingerprint=cfg.fingerprint(), failed_runs=failed,
                        warning=scores[0].warning if scores else None, by_style=by_style)
    return ExperimentResult(report=report, runs=scores)
