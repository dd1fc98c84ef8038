"""Alternating minmax training: discriminator steps that sharpen the
adversarial score, generator/encoder steps that minimise the full weighted
objective, Adam everywhere, deterministic under a single seed."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import CorpusPart, SpecError, Vocab, encode, read_lines, write_lines
from .losses import TEMPERATURE, LossBreakdown, LossWeights, adversarial_term, compute_breakdown
from .model import (
    STYLE_WIDTHS,
    Batch,
    TextCnnClassifier,
    TransferModel,
    score_transfers,
    snapshot,
)
from .optim import AdamState, adam_step, clip_global_norm

# fixed offsets deriving every RNG stream from the run seed
SEED_MODEL, SEED_SHUFFLE, SEED_DROPOUT, SEED_DRAW, SEED_VAL = 1, 2, 3, 4, 5
SEED_SPLIT_SOURCE, SEED_SPLIT_TARGET, SEED_JUDGE, SEED_EVAL_CLF = 6, 7, 8, 9
CLIP_NORM = 5.0  # global gradient-norm cap of each generator step


def rng_for(seed: int, offset: int, extra: Optional[int] = None) -> np.random.Generator:
    key = [seed, offset] if extra is None else [seed, offset, extra]
    return np.random.default_rng(key)


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Every knob of a run. Defaults are the reference settings: embedding
    200, content 1000, style 500, dropout 0.5, Adam at 1e-4, weights 1
    (cycle) and 5 (discrepancy) beside the adversarial term's fixed 1,
    padding 20."""

    d_emb: int = 200
    d_z: int = 1000
    d_y: int = 500
    d_maps: int = 100          # feature maps per width in the adversarial CNN
    dropout: float = 0.5
    lr: float = 1e-4
    batch_size: int = 64
    epochs: int = 30
    pad_len: int = 20
    seed: int = 0
    lambda_cyc: float = 1.0
    lambda_dis: float = 5.0
    min_count: int = 1

    def __post_init__(self):
        """Refuses a value no run can use, naming its key."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Integral if f.type == "int" else Real):
                raise ConfigError(f"{f.name}={value!r} is not of type {f.type}")
        positive = ("d_emb", "d_z", "d_y", "d_maps", "batch_size", "epochs", "min_count")
        for key, ok, want in [
            *((key, getattr(self, key) >= 1, "at least 1") for key in positive),
            ("d_y", self.d_y % len(STYLE_WIDTHS) == 0,
             f"a multiple of {len(STYLE_WIDTHS)}, the number of style filter widths"),
            ("pad_len", self.pad_len >= max(STYLE_WIDTHS),
             f"at least {max(STYLE_WIDTHS)}, the widest filter"),
            ("seed", self.seed >= 0, "at least 0"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            *((key, 0.0 <= getattr(self, key) < np.inf, "non-negative and finite")
              for key in ("lr", "lambda_cyc", "lambda_dis")),
        ]:
            if not ok:
                raise ConfigError(f"{key}={getattr(self, key)!r} is out of range: it must be {want}")

    def weights(self) -> LossWeights:
        return LossWeights(lambda_cyc=self.lambda_cyc, lambda_dis=self.lambda_dis)

    def to_file(self, path) -> None:
        write_lines(path, [f"{f.name}={getattr(self, f.name)!r}".replace("'", "")
                           for f in fields(self)])

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """The defaults, overridden by the file's key=value lines, one per key."""
        types = {f.name: f.type for f in fields(cls)}
        casts = {"int": int, "float": float}
        overrides, seen_on = {}, {}
        for lineno, raw in enumerate(read_lines(path), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in seen_on:
                raise ConfigError(f"{path}: config key {key!r} given twice, on lines "
                                  f"{seen_on[key]} and {lineno}")
            seen_on[key] = lineno
            try:
                overrides[key] = casts[types[key]](value)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from None
        try:
            return cls(**overrides)
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None

    def fingerprint(self) -> str:
        text = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def desk_config(**overrides) -> TrainConfig:
    """Small-dimension settings sized for a single CPU core."""
    base = dict(d_emb=32, d_z=64, d_y=20, d_maps=4, dropout=0.1, lr=2e-3)
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class TransferCorpora:
    """The transfer-model part of the data: one shared vocabulary plus the
    source and target train/test/val splits (raw sentences)."""

    vocab: Vocab
    source: CorpusPart
    target: CorpusPart


@dataclass
class TrainResult:
    model: TransferModel
    params: dict
    metrics: list
    best_val: float
    best_epoch: int
    skipped_steps: int


def metrics_to_csv(rows: Sequence[dict], path) -> None:
    """One CSV line per epoch row, under the first row's keys (a run has at
    least one epoch)."""
    columns = list(rows[0])
    write_lines(path, [",".join(columns)] + [
        ",".join(str(row[c]) if c == "epoch" else repr(float(row[c])) for c in columns)
        for row in rows])


# ---------------------------------------------------------------------------
# single steps


def train_step_discriminator(model: TransferModel, d_clf: TextCnnClassifier,
                             batch_s: Batch, batch_t: Batch, d_params: dict,
                             d_state: AdamState, cfg: TrainConfig,
                             dropout_rng=None) -> float:
    """One Adam step on the discriminator alone; generator outputs are
    produced under no_grad, so nothing else can move."""
    with ad.no_grad():
        joint = Batch.join(batch_s, batch_t)
        z = model.encode_content(joint, cfg.dropout, dropout_rng)
        soft = model.generate_soft(z, model.target_style, joint.max_len,
                                   TEMPERATURE, cfg.dropout, dropout_rng)
    tape = ad.Tape()
    with ad.recording(tape):
        loss = adversarial_term(d_clf, soft, len(batch_s), len(batch_t))
        grads = ad.backward(loss, tape, d_params)
    adam_step(d_params, grads, d_state, cfg.lr)
    tape.clear()
    return loss.item()


def train_step_generator(model: TransferModel, d_clf: TextCnnClassifier,
                         judge: TextCnnClassifier, batch_s: Batch,
                         batch_t: Batch, g_params: dict, g_state: AdamState,
                         cfg: TrainConfig, weights: LossWeights, dropout_rng=None,
                         draw_rng=None) -> Optional[LossBreakdown]:
    """One Adam step on encoders, style vector and generator; the
    discriminator's parameters still require grad, but their gradients are
    neither returned nor applied. Returns None when the divergence guard skips."""
    tape = ad.Tape()
    with ad.recording(tape):
        total, breakdown = compute_breakdown(
            model, d_clf, judge, batch_s, batch_t, weights, dropout_p=cfg.dropout,
            dropout_rng=dropout_rng, draw_rng=draw_rng)
        if not breakdown.finite:
            tape.clear()
            return None
        grads = ad.backward(total, tape, g_params)
    clip_global_norm(grads, CLIP_NORM)
    adam_step(g_params, grads, g_state, cfg.lr)
    tape.clear()
    return breakdown


# ---------------------------------------------------------------------------
# full run


def _epoch_order(rng, n: int, needed: int) -> np.ndarray:
    reps = [rng.permutation(n) for _ in range((needed + n - 1) // n)]
    return np.concatenate(reps)[:needed]


def _validation_pass(model, d_clf, judge, cfg, weights, val_s, val_t,
                     epoch: int) -> LossBreakdown:
    rng = rng_for(cfg.seed, SEED_VAL, epoch)
    chunks = []
    bs = cfg.batch_size
    n = min(len(val_s), len(val_t))
    for lo in range(0, n, bs):
        sl = slice(lo, min(lo + bs, n))
        batch_s = Batch.from_seqs(val_s, sl)
        batch_t = Batch.from_seqs(val_t, sl)
        with ad.no_grad():
            chunks.append(compute_breakdown(model, d_clf, judge, batch_s, batch_t, weights,
                                            dropout_p=0.0, draw_rng=rng)[1])
    return LossBreakdown.mean(chunks)


def train(cfg: TrainConfig, corpora: TransferCorpora, judge: TextCnnClassifier,
          eval_clf: Optional[TextCnnClassifier] = None, progress: bool = False) -> TrainResult:
    """Full run: per batch, one discriminator update then one generator
    update; per epoch, a validation pass, plus `val_acc`, the score_transfers
    accuracy of eval_clf (which shares the run's vocabulary) on the validation
    sources, when eval_clf is given; the checkpoint with the best
    validation total wins, and its parameters are returned."""
    vocab = corpora.vocab
    src_train, tgt_train = corpora.source.train.sentences, corpora.target.train.sentences
    if len(src_train) < cfg.batch_size or len(tgt_train) < cfg.batch_size:
        raise SpecError(f"training corpus ({len(src_train)} source / {len(tgt_train)} target) "
                        f"smaller than batch size {cfg.batch_size}")
    n_val_s, n_val_t = len(corpora.source.val), len(corpora.target.val)
    if not n_val_s or not n_val_t:
        raise SpecError(f"validation split ({n_val_s} source / {n_val_t} target) has an "
                        f"empty side; the corpus is too small")

    rng_model = rng_for(cfg.seed, SEED_MODEL)
    rng_shuffle = rng_for(cfg.seed, SEED_SHUFFLE)
    rng_dropout = rng_for(cfg.seed, SEED_DROPOUT)
    rng_draw = rng_for(cfg.seed, SEED_DRAW)

    model = TransferModel.create(rng_model, len(vocab), cfg.d_emb, cfg.d_z, cfg.d_y)
    d_clf = TextCnnClassifier.create(rng_model, len(vocab), cfg.d_emb, STYLE_WIDTHS, cfg.d_maps)
    g_params = model.params()
    d_params = d_clf.params("d")
    g_state, d_state = AdamState(), AdamState()
    weights = cfg.weights()

    train_s, train_t, val_s, val_t = (
        Batch(*encode(sentences, vocab, cfg.pad_len))
        for sentences in (src_train, tgt_train, corpora.source.val.sentences,
                          corpora.target.val.sentences))

    steps_per_epoch = len(train_s) // cfg.batch_size
    metrics: list = []
    skipped = 0
    best_val, best_epoch, best_params = float("inf"), -1, snapshot(g_params)

    for epoch in range(cfg.epochs):
        order_s = _epoch_order(rng_shuffle, len(train_s), steps_per_epoch * cfg.batch_size)
        order_t = _epoch_order(rng_shuffle, len(train_t), steps_per_epoch * cfg.batch_size)
        done = []
        for step in range(steps_per_epoch):
            idx_s = order_s[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            idx_t = order_t[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            batch_s = Batch.from_seqs(train_s, idx_s)
            batch_t = Batch.from_seqs(train_t, idx_t)
            train_step_discriminator(model, d_clf, batch_s, batch_t,
                                     d_params, d_state, cfg, rng_dropout)
            br = train_step_generator(model, d_clf, judge, batch_s, batch_t,
                                      g_params, g_state, cfg, weights, rng_dropout,
                                      rng_draw)
            if br is None:
                skipped += 1
            else:
                done.append(br)
        epoch_mean = LossBreakdown.mean(done)
        val = _validation_pass(model, d_clf, judge, cfg, weights, val_s, val_t, epoch)
        row = {"epoch": epoch, **asdict(epoch_mean), "val_total": val.total}
        if eval_clf is not None:
            row["val_acc"] = score_transfers(model, vocab, eval_clf, corpora.source.val,
                                             cfg.pad_len).accuracy
        metrics.append(row)
        if progress:
            print(f"epoch {epoch}: total {epoch_mean.total:.3f} val {val.total:.3f}")
        if np.isfinite(val.total) and val.total < best_val:
            best_val, best_epoch, best_params = val.total, epoch, snapshot(g_params)

    for name, p in g_params.items():
        p.data = best_params[name]
    return TrainResult(model=model, params=best_params, metrics=metrics,
                       best_val=best_val, best_epoch=best_epoch, skipped_steps=skipped)
