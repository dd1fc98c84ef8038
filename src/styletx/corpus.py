"""Vocabulary, encoding, dataset splitting and synthetic style corpora.

All functions are pure given their inputs; randomness always flows through
an explicit seed or Generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import math

import numpy as np

from .checkpoint import atomic_write

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class EmptyInputError(ValueError):
    pass


class SpecError(ValueError):
    """Invalid mixture weights, lengths or similar configuration."""


@dataclass
class Vocab:
    token_to_id: dict
    id_to_token: list

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocab":
        """RESERVED, then the tokens; only the tokens are looked up, so a word
        spelt like a reserved token encodes as UNK."""
        return cls({t: i for i, t in enumerate(tokens, len(RESERVED))}, list(RESERVED) + list(tokens))


def tokenize(sentence: str) -> list:
    return sentence.lower().split()


def build_vocab(sentences: Iterable[str], min_count: int = 1) -> Vocab:
    counts = Counter()
    seen_any = False
    for s in sentences:
        seen_any = True
        counts.update(tokenize(s))
    if not seen_any:
        raise EmptyInputError("cannot build a vocabulary from an empty corpus")
    kept = [t for t, c in counts.items() if c >= min_count and t not in RESERVED]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab.from_tokens(kept)


def encode(sentences: Sequence[str], vocab: Vocab, max_len: int) -> tuple:
    """(ids [N, max_len] int64, lengths [N] int64) of the sentences: the one
    token-to-id rule. Each sentence's tokens, cut to max_len - 1, are looked
    up in one pass over all of them and stored with one masked store; EOS
    follows each row's tokens, PAD fills the rest, and a length counts the
    EOS. A text with no tokens encodes as EOS alone, of length 1."""
    if max_len < 2:
        raise SpecError(f"max_len must be at least 2, got {max_len}")
    rows = [tokenize(s)[: max_len - 1] for s in sentences]
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    ids = np.full((len(rows), max_len), PAD, dtype=np.int64)
    ids[np.arange(max_len) < lengths[:, None]] = [vocab.lookup(t) for row in rows for t in row]
    ids[np.arange(len(rows)), lengths] = EOS
    return ids, lengths + 1


def decode_to_text(ids: Sequence[int], vocab: Vocab) -> str:
    words = []
    for i in ids:
        if i == EOS:
            break
        if i == PAD or i == BOS:
            continue
        words.append(vocab.id_to_token[int(i)])
    return " ".join(words)


# ---------------------------------------------------------------------------
# three-way splitting


# fractions for the (transfer model, style judge, evaluation classifier)
# parts, and the train/test/validation sub-fractions inside each part
PART_FRACTIONS = (0.6, 0.2, 0.2)
SUB_FRACTIONS = (0.8, 0.1, 0.1)


def _apportion(n: int, fractions: Sequence[float]) -> list:
    """Integer sizes for each fraction, largest-remainder rounding."""
    quotas = [f * n for f in fractions]
    counts = [int(math.floor(q + 1e-9)) for q in quotas]
    extra = int(round(sum(quotas))) - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: -(quotas[i] - counts[i]))
    for i in order[:extra]:
        counts[i] += 1
    return counts


@dataclass
class Dataset:
    sentences: list
    labels: Optional[list] = None

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass
class CorpusPart:
    train: Dataset
    test: Dataset
    val: Dataset

    def all_sentences(self) -> list:
        return self.train.sentences + self.test.sentences + self.val.sentences


def _slice(sentences, labels, idx) -> Dataset:
    return Dataset([sentences[i] for i in idx],
                   [labels[i] for i in idx] if labels is not None else None)


def three_way_split(sentences: Sequence[str], rng: np.random.Generator,
                    labels: Optional[Sequence[str]] = None) -> tuple:
    """Disjoint (transfer, judge, eval) parts, each sub-split train/test/val.

    The shuffle is one permutation drawn from `rng`, so a Generator in the
    same state always yields the same partition.
    """
    n = len(sentences)
    if labels is not None and len(labels) != n:
        raise SpecError(f"{len(labels)} labels for {n} sentences")
    perm = rng.permutation(n)
    sizes = _apportion(n, PART_FRACTIONS)
    parts = []
    start = 0
    for size in sizes:
        part_idx = perm[start:start + size]
        start += size
        sub_sizes = _apportion(size, SUB_FRACTIONS)
        train_idx = part_idx[: sub_sizes[0]]
        test_idx = part_idx[sub_sizes[0]: sub_sizes[0] + sub_sizes[1]]
        val_idx = part_idx[sub_sizes[0] + sub_sizes[1]: sum(sub_sizes)]
        parts.append(CorpusPart(train=_slice(sentences, labels, train_idx),
                                test=_slice(sentences, labels, test_idx),
                                val=_slice(sentences, labels, val_idx)))
    return tuple(parts)


# ---------------------------------------------------------------------------
# synthetic style corpora
#
# Style lives in collocations, never in single tokens: every intensifier and
# adjective occurs in every style with the same marginal frequency, and only
# the pairing (which intensifier goes with which adjective half) tells the
# styles apart. A unigram detector is blind here; a bigram one is not. This
# keeps the ablations meaningful: fixing style requires rewriting token
# combinations, not swapping one giveaway word.

STYLE_TARGET, STYLE_ANTI, STYLE_NEUTRAL = "a", "b", "n"

# noun pools overlap only partially across the two domains, the way two
# separately collected corpora would; style stays orthogonal to all of it
NOUNS_SHARED = ["food", "service", "coffee", "staff", "room", "table"]
NOUNS_SOURCE = ["menu", "price", "bread", "soup", "place", "music", "hall", "corner"]
NOUNS_TARGET = ["garden", "patio", "dessert", "wine", "brunch", "terrace", "cellar", "porch"]
VERBS = ["was", "is", "were", "felt", "looked", "seemed", "appeared", "turned"]
FILLERS = ["honestly", "overall", "somehow", "apparently"]

ADJ_FIRST = ["warm", "soft", "bright", "quick", "fresh", "smooth", "light", "crisp"]
ADJ_SECOND = ["cold", "loud", "dark", "slow", "heavy", "rough", "dense", "faint"]

# (intensifier, adjective) collocations per style; target and anti styles use
# crossed pairings of the same words, the neutral style has its own marker
STYLE_PAIRS = {
    STYLE_TARGET: [("so", a) for a in ADJ_FIRST] + [("too", a) for a in ADJ_SECOND],
    STYLE_ANTI: [("so", a) for a in ADJ_SECOND] + [("too", a) for a in ADJ_FIRST],
    STYLE_NEUTRAL: [("quite", a) for a in ADJ_FIRST + ADJ_SECOND],
}

# PAIR expands to the two tokens of a style collocation
TEMPLATES = [
    ["NOUN", "VERB", "PAIR"],
    ["the", "NOUN", "VERB", "PAIR"],
    ["my", "NOUN", "VERB", "PAIR", "today"],
    ["PAIR", "NOUN", "and", "PAIR", "NOUN"],
    ["i", "felt", "the", "NOUN", "VERB", "PAIR"],
    ["this", "NOUN", "VERB", "PAIR", "FILLER"],
    ["the", "NOUN", "and", "the", "NOUN", "VERB", "PAIR"],
    ["FILLER", "the", "NOUN", "VERB", "PAIR", "again"],
    ["we", "found", "the", "NOUN", "PAIR", "here"],
    ["it", "VERB", "a", "PAIR", "NOUN"],
    ["the", "NOUN", "VERB", "PAIR", "and", "the", "NOUN", "VERB", "PAIR"],
    ["FILLER", "the", "NOUN", "and", "the", "NOUN", "VERB", "PAIR", "today"],
    ["i", "felt", "the", "NOUN", "VERB", "PAIR", "and", "NOUN", "VERB", "PAIR"],
    ["FILLER", "my", "NOUN", "VERB", "PAIR", "FILLER"],
    ["the", "NOUN", "VERB", "PAIR", "here", "today"],
    ["we", "found", "this", "NOUN", "PAIR", "again", "today"],
    ["it", "VERB", "a", "PAIR", "NOUN", "and", "a", "PAIR", "NOUN"],
    ["my", "NOUN", "and", "my", "NOUN", "VERB", "PAIR", "FILLER"],
]


@dataclass
class SyntheticCorpus:
    source: list
    target: list
    source_styles: list


def _emit(rng: np.random.Generator, style: str, domain: str) -> str:
    nouns = NOUNS_SHARED + (NOUNS_TARGET if domain == "target" else NOUNS_SOURCE)
    template = TEMPLATES[rng.integers(len(TEMPLATES))]
    words = []
    for slot in template:
        if slot == "NOUN":
            words.append(nouns[rng.integers(len(nouns))])
        elif slot == "VERB":
            words.append(VERBS[rng.integers(len(VERBS))])
        elif slot == "PAIR":
            intensifier, adjective = STYLE_PAIRS[style][rng.integers(len(STYLE_PAIRS[style]))]
            words.extend([intensifier, adjective])
        elif slot == "FILLER":
            words.append(FILLERS[rng.integers(len(FILLERS))])
        else:
            words.append(slot)
    return " ".join(words)


def sentence_pairs(sentence: str) -> list:
    """The (intensifier, adjective) collocations present in a sentence."""
    tokens = sentence.split()
    return [(tokens[i], tokens[i + 1]) for i in range(len(tokens) - 1)
            if tokens[i] in ("so", "too", "quite")]


def gen_synthetic(seed: int, n_source: int, n_target: int, mix: Sequence[float]) -> SyntheticCorpus:
    """Template-grammar corpora: the target side is pure target style, the
    source side mixes styles with the given (target, anti, neutral) weights.

    Sentences are unique across both corpora so that downstream three-way
    splits stay disjoint at the sentence level, not just by index.
    """
    if n_source < 0 or n_target < 0:
        raise SpecError(f"sentence counts must be non-negative, got {n_source} source "
                        f"and {n_target} target")
    mix = tuple(float(w) for w in mix)
    if len(mix) != 3 or not all(math.isfinite(w) and w >= 0 for w in mix):
        raise SpecError(f"mix must be three finite non-negative weights, got {mix}")
    if abs(sum(mix) - 1.0) > 1e-9:
        raise SpecError(f"mix weights must sum to 1, got {sum(mix)}")
    rng = np.random.default_rng(seed)
    seen: set = set()

    def fresh(style: str, domain: str) -> str:
        for _ in range(10000):
            sentence = _emit(rng, style, domain)
            if sentence not in seen:
                seen.add(sentence)
                return sentence
        raise SpecError(f"grammar exhausted generating unique {style!r} sentences")

    styles = [STYLE_TARGET, STYLE_ANTI, STYLE_NEUTRAL]
    source, source_styles = [], []
    for _ in range(n_source):
        style = styles[rng.choice(3, p=mix)]
        source.append(fresh(style, "source"))
        source_styles.append(style)
    target = [fresh(STYLE_TARGET, "target") for _ in range(n_target)]
    return SyntheticCorpus(source=source, target=target, source_styles=source_styles)


# ---------------------------------------------------------------------------
# file formats: one sentence per line; labels aligned by line number


def write_lines(path, lines: Sequence[str]) -> None:
    with atomic_write(path) as fh:
        fh.write("".join(ln + "\n" for ln in lines).encode("utf-8"))


def read_lines(path) -> list:
    """The file's lines, split at line feeds only, each without a carriage
    return before its line feed: other line breaks (U+2028, form feed, ...)
    stay inside their line."""
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]
