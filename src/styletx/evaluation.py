"""Model-based evaluation: an independently trained classifier scores
greedy transfers, repeated over seeded runs and aggregated as mean and
population standard deviation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .corpus import (
    STYLE_TARGET,
    Dataset,
    EmptyInputError,
    SpecError,
    Vocab,
    build_vocab,
    encode,
    three_way_split,
    tokenize,
    write_lines,
)
from .model import (
    Batch,
    ClassifierFit,
    TextCnnClassifier,
    TransferModel,
    TransferScore,
    pretrain_style_judge,
    score_transfers,
)
from .training import (
    SEED_EVAL_CLF,
    SEED_JUDGE,
    SEED_SPLIT_SOURCE,
    SEED_SPLIT_TARGET,
    TrainConfig,
    TrainResult,
    TransferCorpora,
    rng_for,
    train,
)

QUALITY_GATE = 0.8
MAX_SKIPPED_STEPS = 10


class ContaminationError(ValueError):
    """A classifier split shares sentences with another data part."""


def check_disjoint(parts: Sequence[Sequence[str]]) -> None:
    """Refuses sentence lists of which any two share a sentence."""
    for a, b in combinations([set(part) for part in parts], 2):
        overlap = a & b
        if overlap:
            raise ContaminationError(
                f"{len(overlap)} sentences shared with another split, e.g. {sorted(overlap)[:3]}")


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


# ---------------------------------------------------------------------------
# report


@dataclass
class EvalReport:
    """The report of seeded runs: one (seed, TransferScore) per run in run
    order, with None in place of the score of a run that tripped the
    divergence guard; such runs are recorded, not aggregated. It warns when
    eval_acc, the evaluation classifier's held-out accuracy, is below the
    trust gate."""

    runs: list
    config_fingerprint: str
    eval_acc: float

    @property
    def scores(self) -> list:
        return [score for _, score in self.runs if score is not None]

    @property
    def accuracies(self) -> list:
        return [score.accuracy for score in self.scores]

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

    @property
    def by_style(self) -> dict:
        scores = self.scores
        return {style: float(np.mean([s.by_style[style] for s in scores]))
                for style in (scores[0].by_style if scores else ())}

    @property
    def warning(self) -> Optional[str]:
        if self.eval_acc >= QUALITY_GATE:
            return None
        return (f"evaluation classifier held-out accuracy {self.eval_acc:.3f} is below the "
                f"{QUALITY_GATE} trust gate")

    def to_csv(self, path) -> None:
        lines = []
        if self.warning:
            lines.append(f"# warning: {self.warning}")
        lines.append(f"# config: {self.config_fingerprint}")
        for style, acc in sorted(self.by_style.items()):
            lines.append(f"# style {style}: {acc!r}")
        lines.append("run,seed,accuracy")
        for i, (seed, score) in enumerate(self.runs):
            lines.append(f"{i},{seed},{'failed' if score is None else repr(score.accuracy)}")
        lines.append(f"mean,,{self.mean!r}")
        lines.append(f"std,,{self.std!r}")
        write_lines(path, lines)


# ---------------------------------------------------------------------------
# the full protocol


@dataclass
class ExperimentSetup:
    """Everything that is fixed across the repeated runs: the vocabulary,
    the three-way split, and the two frozen classifiers with their fits."""

    corpora: TransferCorpora
    judge: TextCnnClassifier
    judge_fit: ClassifierFit
    eval_clf: TextCnnClassifier
    eval_fit: ClassifierFit
    source_parts: tuple
    target_parts: tuple

    @property
    def vocab(self) -> Vocab:
        return self.corpora.vocab

    @property
    def judge_acc(self) -> float:
        return self.judge_fit.heldout_accuracy

    @property
    def eval_acc(self) -> float:
        return self.eval_fit.heldout_accuracy


def prepare_experiment(source_sentences: Sequence[str], source_labels: Optional[Sequence[str]],
                       target_sentences: Sequence[str], cfg: TrainConfig) -> ExperimentSetup:
    """The set-up, in one pass: the refusal of a sentence with no tokens, the
    vocabulary (cfg.min_count), each side's (transfer, judge, evaluation) split,
    the refusal of a sentence shared by two parts, then the judge and the
    evaluation classifier, each on its own part."""
    for side, sentences in (("source", source_sentences), ("target", target_sentences)):
        for lineno, sentence in enumerate(sentences, 1):
            if not tokenize(sentence):
                raise EmptyInputError(f"{side} line {lineno} has no tokens")
    vocab = build_vocab(list(source_sentences) + list(target_sentences), cfg.min_count)
    src_parts = three_way_split(source_sentences, rng_for(cfg.seed, SEED_SPLIT_SOURCE),
                                labels=source_labels)
    tgt_parts = three_way_split(target_sentences, rng_for(cfg.seed, SEED_SPLIT_TARGET))
    check_disjoint([s.all_sentences() + t.all_sentences() for s, t in zip(src_parts, tgt_parts)])
    fitted = []
    for part_s, part_t, offset in zip(src_parts[1:], tgt_parts[1:], (SEED_JUDGE, SEED_EVAL_CLF)):
        if not len(part_s.train) or not len(part_t.train):
            raise SpecError("classifier part is empty; the corpus is too small")
        train_sents, train_labels = binary_style_data(part_s.train, part_t.train)
        held_sents, held_labels = binary_style_data(part_s.test, part_t.test)
        train_batch, held_batch = (Batch(*encode(sents, vocab, cfg.pad_len))
                                   for sents in (train_sents, held_sents))
        fitted.append(pretrain_style_judge(train_batch, train_labels, held_batch, held_labels,
                                           len(vocab), cfg.d_emb, rng_for(cfg.seed, offset)))
    (judge, judge_fit), (eval_clf, eval_fit) = fitted
    corpora = TransferCorpora(vocab=vocab, source=src_parts[0], target=tgt_parts[0])
    return ExperimentSetup(corpora=corpora, judge=judge, judge_fit=judge_fit,
                           eval_clf=eval_clf, eval_fit=eval_fit,
                           source_parts=src_parts, target_parts=tgt_parts)


def score_model(setup: ExperimentSetup, model: TransferModel, cfg: TrainConfig) -> TransferScore:
    """The protocol's measurement of one transfer model: its greedy transfers
    of the held-out source test part, scored by the evaluation classifier."""
    return score_transfers(model, setup.vocab, setup.eval_clf, setup.corpora.source.test,
                           cfg.pad_len)


def diverged(result: TrainResult) -> bool:
    """The divergence guard: a run that skipped more than MAX_SKIPPED_STEPS
    steps, or whose validation total was never finite, is not scored."""
    return result.skipped_steps > MAX_SKIPPED_STEPS or not np.isfinite(result.best_val)


def run_experiment(setup: ExperimentSetup, cfg: TrainConfig, n_runs: int = 3,
                   progress: bool = False) -> EvalReport:
    """n_runs independent train+evaluate cycles with seeds seed, seed+1, ..."""
    if n_runs < 1:
        raise SpecError(f"n_runs must be at least 1, got {n_runs}")
    runs = []
    for i in range(n_runs):
        run_cfg = replace(cfg, seed=cfg.seed + i)
        result = train(run_cfg, setup.corpora, setup.judge, progress=progress)
        score = None if diverged(result) else score_model(setup, result.model, cfg)
        runs.append((run_cfg.seed, score))
        if progress and score is not None:
            print(f"run {i} (seed {run_cfg.seed}): accuracy {score.accuracy:.3f}")
    return EvalReport(runs, cfg.fingerprint(), setup.eval_acc)
