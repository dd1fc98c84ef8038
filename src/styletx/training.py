"""Alternating minmax training: discriminator steps that sharpen the
adversarial score, generator/encoder steps that minimise the full weighted
objective, Adam everywhere, deterministic under a single seed."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import atomic_write, save_params
from .corpus import CorpusPart, SpecError, Vocab, encode
from .losses import TEMPERATURE, LossBreakdown, LossWeights, _cat_batches, adversarial_term, compute_breakdown
from .model import (
    STYLE_WIDTHS,
    Batch,
    TextCnnClassifier,
    TransferModel,
    classify_texts,
    snapshot,
    transfer_sentences,
)
from .optim import AdamState, adam_step, clip_global_norm, zero_grads

# fixed offsets deriving every RNG stream from the run seed
SEED_MODEL, SEED_SHUFFLE, SEED_DROPOUT, SEED_DRAW, SEED_VAL = 1, 2, 3, 4, 5
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

    def weights(self) -> LossWeights:
        return LossWeights(lambda_cyc=self.lambda_cyc, lambda_dis=self.lambda_dis)

    def to_file(self, path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)!r}".replace("'", "") for f in fields(self)]
        with atomic_write(path) as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """The defaults, overridden by the file's key=value lines."""
        types = {f.name: f.type for f in fields(cls)}
        casts = {"int": int, "float": float}
        overrides = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                overrides[key] = casts[types[key]](value)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from None
        return cls(**overrides)

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
    wall_seconds: float


METRIC_COLUMNS = ["epoch", "rec", "adv", "dis", "cyc", "total", "val_total"]


def metrics_to_csv(rows: Sequence[dict], path) -> None:
    columns = list(METRIC_COLUMNS) + (["val_acc"] if rows and "val_acc" in rows[0] else [])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(row[c])) if c != "epoch" else str(row[c])
                              for c in columns))
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# single steps


def train_step_discriminator(model: TransferModel, d_clf: TextCnnClassifier,
                             batch_s: Batch, batch_t: Batch, d_params: dict,
                             d_state: AdamState, cfg: TrainConfig,
                             dropout_rng=None) -> float:
    """One Adam step on the discriminator alone; generator outputs are
    produced under no_grad, so nothing else can move."""
    zero_grads(d_params)
    with ad.no_grad():
        joint = _cat_batches(batch_s, batch_t)
        z = model.encode_content(joint, cfg.dropout, dropout_rng)
        soft = model.generate_soft(z, model.target_style, joint.max_len,
                                   TEMPERATURE, cfg.dropout, dropout_rng)
    soft = [s.detach() for s in soft]
    tape = ad.Tape()
    with ad.recording(tape):
        loss = adversarial_term(d_clf, soft, len(batch_s), len(batch_t))
        ad.backward(loss, tape)
    adam_step(d_params, d_state, cfg.lr)
    zero_grads(d_params)
    tape.clear()
    return loss.item()


def train_step_generator(model: TransferModel, d_clf: TextCnnClassifier,
                         judge: Optional[TextCnnClassifier], batch_s: Batch,
                         batch_t: Batch, g_params: dict, g_state: AdamState,
                         cfg: TrainConfig, weights: LossWeights, dropout_rng=None,
                         draw_rng=None) -> Optional[LossBreakdown]:
    """One Adam step on encoders, style vector and generator with the
    discriminator frozen. Returns None when the divergence guard skips."""
    all_params = {**g_params, **d_clf.params("d")}
    zero_grads(all_params)
    tape = ad.Tape()
    with ad.recording(tape):
        total, breakdown = compute_breakdown(
            model, d_clf, judge, batch_s, batch_t, weights, dropout_p=cfg.dropout,
            dropout_rng=dropout_rng, draw_rng=draw_rng)
        if not breakdown.finite:
            tape.clear()
            return None
        ad.backward(total, tape)
    clip_global_norm(g_params, CLIP_NORM)
    adam_step(g_params, g_state, cfg.lr)
    zero_grads(all_params)
    tape.clear()
    return breakdown


# ---------------------------------------------------------------------------
# full run


def _encode_all(sentences: Sequence[str], vocab: Vocab, pad_len: int) -> list:
    return [encode(s, vocab, pad_len) for s in sentences]


def _epoch_order(rng, n: int, needed: int) -> np.ndarray:
    reps = [rng.permutation(n) for _ in range((needed + n - 1) // n)]
    return np.concatenate(reps)[:needed]


def _validation_pass(model, d_clf, judge, cfg, weights, val_s, val_t,
                     epoch: int) -> LossBreakdown:
    rng = rng_for(cfg.seed, SEED_VAL, epoch)
    sums = np.zeros(5)
    chunks = 0
    bs = cfg.batch_size
    n = min(len(val_s), len(val_t))
    for lo in range(0, n, bs):
        sl = slice(lo, min(lo + bs, n))
        batch_s = Batch.from_seqs(val_s[sl])
        batch_t = Batch.from_seqs(val_t[sl])
        with ad.no_grad():
            _, br = compute_breakdown(model, d_clf, judge, batch_s, batch_t, weights,
                                      dropout_p=0.0, draw_rng=rng)
        sums += [br.rec, br.adv, br.dis, br.cyc, br.total]
        chunks += 1
    sums /= max(chunks, 1)
    return LossBreakdown(rec=sums[0], adv=sums[1], dis=sums[2], cyc=sums[3], total=sums[4])


def train(cfg: TrainConfig, corpora: TransferCorpora, judge: Optional[TextCnnClassifier],
          eval_clf: Optional[TextCnnClassifier] = None, eval_vocab: Optional[Vocab] = None,
          ckpt_path=None, log_path=None, progress: bool = False) -> TrainResult:
    """Full run: per batch, one discriminator update then one generator
    update; per epoch, a validation pass; the checkpoint with the best
    validation total wins."""
    t_start = time.time()
    vocab = corpora.vocab
    src_train, tgt_train = corpora.source.train.sentences, corpora.target.train.sentences
    if len(src_train) < cfg.batch_size or len(tgt_train) < cfg.batch_size:
        raise SpecError(f"training corpus ({len(src_train)} source / {len(tgt_train)} target) "
                        f"smaller than batch size {cfg.batch_size}")
    if cfg.lambda_dis > 0 and judge is None:
        raise SpecError("lambda_dis > 0 requires a pre-trained style judge")

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

    seqs_s = _encode_all(src_train, vocab, cfg.pad_len)
    seqs_t = _encode_all(tgt_train, vocab, cfg.pad_len)
    val_s = _encode_all(corpora.source.val.sentences, vocab, cfg.pad_len)
    val_t = _encode_all(corpora.target.val.sentences, vocab, cfg.pad_len)

    steps_per_epoch = len(seqs_s) // cfg.batch_size
    metrics: list = []
    skipped = 0
    best_val, best_epoch, best_params = float("inf"), -1, snapshot(g_params)

    for epoch in range(cfg.epochs):
        order_s = _epoch_order(rng_shuffle, len(seqs_s), steps_per_epoch * cfg.batch_size)
        order_t = _epoch_order(rng_shuffle, len(seqs_t), steps_per_epoch * cfg.batch_size)
        sums, counted = np.zeros(5), 0
        for step in range(steps_per_epoch):
            idx_s = order_s[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            idx_t = order_t[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            batch_s = Batch.from_seqs([seqs_s[i] for i in idx_s])
            batch_t = Batch.from_seqs([seqs_t[i] for i in idx_t])
            train_step_discriminator(model, d_clf, batch_s, batch_t,
                                     d_params, d_state, cfg, rng_dropout)
            br = train_step_generator(model, d_clf, judge, batch_s, batch_t,
                                      g_params, g_state, cfg, weights, rng_dropout,
                                      rng_draw)
            if br is None:
                skipped += 1
                continue
            sums += [br.rec, br.adv, br.dis, br.cyc, br.total]
            counted += 1
        sums /= max(counted, 1)
        val = _validation_pass(model, d_clf, judge, cfg, weights, val_s, val_t, epoch)
        row = {"epoch": epoch, "rec": float(sums[0]), "adv": float(sums[1]),
               "dis": float(sums[2]), "cyc": float(sums[3]), "total": float(sums[4]),
               "val_total": float(val.total)}
        if eval_clf is not None:
            texts = transfer_sentences(model, vocab, corpora.source.val.sentences, cfg.pad_len)
            row["val_acc"] = float(classify_texts(eval_clf, eval_vocab or vocab,
                                                  texts, cfg.pad_len).mean())
        metrics.append(row)
        if progress:
            print(f"epoch {epoch}: total {sums[4]:.3f} val {val.total:.3f}")
        if np.isfinite(val.total) and val.total < best_val:
            best_val, best_epoch, best_params = val.total, epoch, snapshot(g_params)

    for name, p in g_params.items():
        p.data = best_params[name].copy()
    if ckpt_path is not None:
        save_params(ckpt_path, g_params)
        vocab.to_file(str(ckpt_path) + ".vocab")
    if log_path is not None:
        metrics_to_csv(metrics, log_path)
    return TrainResult(model=model, params=snapshot(g_params), metrics=metrics,
                       best_val=best_val, best_epoch=best_epoch, skipped_steps=skipped,
                       wall_seconds=time.time() - t_start)
