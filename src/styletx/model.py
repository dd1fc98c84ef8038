"""Neural pieces of the transfer system.

A sentence is encoded twice: a GRU over its embeddings yields the content
code z, and a text CNN yields the style code y. Target-domain sentences
bypass the CNN and share one learnt style vector. The generator GRU starts
from concat(z, y) and emits a token distribution per step; two text-CNN
classifiers (the adversarial one and the frozen pre-trained style judge)
score sequences, hard or soft.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .checkpoint import CheckpointFormatError, load_into, shape_of
from .corpus import BOS, EOS, PAD, TokenSeq, Vocab, encode
from .optim import AdamState, adam_step, zero_grads

INIT_SCALE = 0.08
LOGIT_CLAMP = 30.0  # keeps sigmoid outputs strictly inside (0, 1) at float64
STYLE_WIDTHS = (1, 2, 3, 4, 5)  # filter widths of the style encoder and the discriminator
# the judge and the evaluation classifier
CLASSIFIER_WIDTHS, CLASSIFIER_MAPS, CLASSIFIER_BATCH = (2, 3, 4, 5), 8, 32
CLASSIFIER_EPOCHS = 12
CLASSIFIER_LR = 2e-2  # Adam moves each weight ~lr per step from ±0.08; 2e-3 stalls at ln 2
TRANSFER_BATCH, CLASSIFY_BATCH = 256, 512  # sentences per forward-only batch

SOURCE, TARGET = "source", "target"  # only the benchmark still passes these to from_sentences


def _init(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


@dataclass
class Batch:
    """Padded id matrix plus true lengths; the unit every model op consumes."""

    ids: np.ndarray       # [B, T] int64
    lengths: np.ndarray   # [B] int64

    @classmethod
    def from_seqs(cls, seqs: Sequence[TokenSeq]) -> "Batch":
        ids = np.stack([s.ids for s in seqs])
        lengths = np.array([s.true_len for s in seqs], dtype=np.int64)
        return cls(ids=ids, lengths=lengths)

    @classmethod
    def from_sentences(cls, sentences: Sequence[str], vocab: Vocab, max_len: int,
                       _unused=None) -> "Batch":
        # _unused is ignored; its only reason is that perfbench/workloads.py:192-193,
        # 214-215 still pass model.SOURCE / model.TARGET positionally
        return cls.from_seqs([encode(s, vocab, max_len) for s in sentences])

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def max_len(self) -> int:
        return int(self.ids.shape[1])


SoftSeq = list  # list of [B, V] distribution tensors, one per step


def _dropout(x: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout. A [B, T, d] sequence draws its mask time-major: T
    draws of [B, d] in step order, as a step-by-step decode does."""
    if rng is None or p <= 0:
        return x
    if x.ndim == 3:
        draw = rng.random((x.shape[1], x.shape[0], x.shape[2])).swapaxes(0, 1)
    else:
        draw = rng.random(x.shape)
    return ad.mul(x, Tensor((draw >= p) / (1.0 - p)))


def style_rows(y: Tensor, batch_size: int) -> Tensor:
    """A [B, d_y] view of a style code: 1-d vectors broadcast to every row."""
    if y.ndim == 1:
        return ad.broadcast_to(y, (batch_size, y.shape[0]))
    return y


@dataclass
class GruCell:
    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, d_in: int, d_h: int) -> "GruCell":
        return cls(
            w_update=_init(rng, d_in, d_h), u_update=_init(rng, d_h, d_h), b_update=_zeros(d_h),
            w_reset=_init(rng, d_in, d_h), u_reset=_init(rng, d_h, d_h), b_reset=_zeros(d_h),
            w_cand=_init(rng, d_in, d_h), u_cand=_init(rng, d_h, d_h), b_cand=_zeros(d_h),
        )

    @property
    def hidden_dim(self) -> int:
        return self.u_update.shape[0]

    def unroll(self, x: Tensor, h0: Tensor, lengths: Optional[np.ndarray] = None) -> Tensor:
        """States [B, T, h] after each step of a [B, T, d_in] sequence; a row
        keeps its state once t reaches its length."""
        return ad.gru_sequence(x, h0, [getattr(self, f.name) for f in fields(self)], lengths)

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        """One step on [B, d_in] inputs: an unroll of length 1."""
        b = x.shape[0]
        return ad.reshape(self.unroll(ad.reshape(x, (b, 1, x.shape[1])), h), (b, self.hidden_dim))

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}


def _soft_embed(embedding: Tensor, soft: SoftSeq) -> Tensor:
    """Expected embeddings [B, T, d] of a soft sequence, in one matmul."""
    b, t, v = soft[0].shape[0], len(soft), soft[0].shape[1]
    flat = ad.reshape(ad.concat(soft, axis=1), (b * t, v))
    return ad.reshape(flat @ embedding, (b, t, embedding.shape[1]))


class StyleEncoder:
    """Text CNN over its own embeddings; concatenated max-over-time maps."""

    def __init__(self, embedding: Tensor, filters: dict, biases: dict):
        self.embedding = embedding
        self.filters = filters   # width -> Tensor[width, d_emb, maps]
        self.biases = biases     # width -> Tensor[maps]

    @classmethod
    def create(cls, rng, vocab_size: int, d_emb: int, widths: Sequence[int], maps: int) -> "StyleEncoder":
        emb = _init(rng, vocab_size, d_emb)
        filters = {w: _init(rng, w, d_emb, maps) for w in widths}
        biases = {w: _zeros(maps) for w in widths}
        return cls(emb, filters, biases)

    @property
    def out_dim(self) -> int:
        return sum(f.shape[2] for f in self.filters.values())

    def features(self, emb_seq: Tensor) -> Tensor:
        """ReLU max-over-time maps of a [B, T, d_emb] sequence, widths in order."""
        pooled = [ad.conv1d_maxpool(emb_seq, self.filters[w], self.biases[w])
                  for w in sorted(self.filters)]
        return ad.relu(ad.concat(pooled, axis=1))

    def encode(self, batch: Batch) -> Tensor:
        return self.features(ad.take_rows(self.embedding, batch.ids))

    def params(self, prefix: str) -> dict:
        out = {f"{prefix}.embedding": self.embedding}
        for w in sorted(self.filters):
            out[f"{prefix}.conv{w}.weight"] = self.filters[w]
            out[f"{prefix}.conv{w}.bias"] = self.biases[w]
        return out


def _conv_shapes(arrays: dict) -> list:
    """[width, d_emb, maps] of each convolution filter in a checkpoint: the
    filters are its only 3-d tensors."""
    shapes = sorted(a.shape for a in arrays.values() if a.ndim == 3)
    if not shapes:
        raise CheckpointFormatError("no convolution filters (3-d tensors) in checkpoint")
    return shapes


class TextCnnClassifier:
    """Style CNN with a sigmoid head; consumes hard ids or soft sequences."""

    def __init__(self, cnn: StyleEncoder, head_w: Tensor, head_b: Tensor):
        self.cnn = cnn
        self.head_w = head_w
        self.head_b = head_b

    @classmethod
    def create(cls, rng, vocab_size: int, d_emb: int, widths: Sequence[int], maps: int) -> "TextCnnClassifier":
        cnn = StyleEncoder.create(rng, vocab_size, d_emb, widths, maps)
        return cls(cnn, head_w=_init(rng, cnn.out_dim, 1), head_b=_zeros(1))

    def logit(self, x: Union[Batch, SoftSeq]) -> Tensor:
        if isinstance(x, Batch):
            emb_seq = ad.take_rows(self.cnn.embedding, x.ids)
        else:
            emb_seq = _soft_embed(self.cnn.embedding, x)
        feats = self.cnn.features(emb_seq)
        raw = ad.reshape(feats @ self.head_w + self.head_b, (feats.shape[0],))
        return ad.clip(raw, -LOGIT_CLAMP, LOGIT_CLAMP)

    def prob(self, x: Union[Batch, SoftSeq]) -> Tensor:
        return ad.sigmoid(self.logit(x))

    @property
    def vocab_size(self) -> int:
        return self.cnn.embedding.shape[0]

    def params(self, prefix: str = "clf") -> dict:
        out = self.cnn.params(f"{prefix}.cnn")
        out[f"{prefix}.head.weight"] = self.head_w
        out[f"{prefix}.head.bias"] = self.head_b
        return out

    def freeze(self) -> None:
        for p in self.params().values():
            p.requires_grad = False

    @classmethod
    def from_params(cls, arrays: dict) -> "TextCnnClassifier":
        """The frozen classifier a checkpoint holds."""
        vocab_size, d_emb = shape_of(arrays, "clf.cnn.embedding", 2)
        shapes = _conv_shapes(arrays)
        clf = cls.create(np.random.default_rng(0), vocab_size, d_emb,
                         [s[0] for s in shapes], shapes[0][2])
        load_into(clf.params(), arrays)
        clf.freeze()
        return clf


@dataclass
class TransferModel:
    embedding: Tensor          # shared by content encoder and generator
    enc_cell: GruCell
    style_enc: StyleEncoder
    target_style: Tensor       # the learnt style vector shared by the target domain
    gen_cell: GruCell
    out_w: Tensor
    out_b: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, vocab_size: int, d_emb: int, d_z: int,
               d_y: int, style_widths: Sequence[int] = STYLE_WIDTHS) -> "TransferModel":
        if d_y % len(style_widths):
            raise ValueError(f"d_y={d_y} not divisible by {len(style_widths)} filter widths")
        maps = d_y // len(style_widths)
        return cls(
            embedding=_init(rng, vocab_size, d_emb),
            enc_cell=GruCell.create(rng, d_emb, d_z),
            style_enc=StyleEncoder.create(rng, vocab_size, d_emb, style_widths, maps),
            target_style=_init(rng, d_y),
            gen_cell=GruCell.create(rng, d_emb, d_z + d_y),
            out_w=_init(rng, d_z + d_y, vocab_size),
            out_b=_zeros(vocab_size),
        )

    # --- dims -------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_z(self) -> int:
        return self.enc_cell.hidden_dim

    # --- encoders ---------------------------------------------------------
    def encode_content(self, x: Union[Batch, SoftSeq], dropout_p: float = 0.0,
                       dropout_rng=None) -> Tensor:
        """GRU over token embeddings; the last real hidden state is the content code."""
        if isinstance(x, Batch):
            emb = ad.take_rows(self.embedding, x.ids[:, : int(x.lengths.max())])
            lengths = x.lengths
        else:
            emb = _soft_embed(self.embedding, x)
            lengths = None
        b, t = emb.shape[0], emb.shape[1]
        states = self.enc_cell.unroll(_dropout(emb, dropout_p, dropout_rng),
                                      Tensor(np.zeros((b, self.d_z))), lengths)
        # row i's last state is row i*t + t-1 of the flattened [B*T, d_z]
        return ad.take_rows(ad.reshape(states, (b * t, self.d_z)), np.arange(b) * t + t - 1)

    def encode_style(self, batch: Batch) -> Tensor:
        """The CNN style code of each source sentence; target sentences all
        share target_style instead."""
        return self.style_enc.encode(batch)

    # --- decoding ---------------------------------------------------------
    def decode_teacher_forced(self, z: Tensor, y: Tensor, batch: Batch,
                              dropout_p: float = 0.0, dropout_rng=None) -> Tensor:
        """Per-sentence negative log-likelihood of the gold tokens, summed
        over positions up to true_len, conditioning on gold prefixes."""
        b = len(batch)
        t_eff = int(batch.lengths.max())
        h = ad.concat([z, style_rows(y, b)], axis=1)
        prev = np.concatenate([np.full((b, 1), BOS, dtype=np.int64), batch.ids[:, : t_eff - 1]], axis=1)
        emb = _dropout(ad.take_rows(self.embedding, prev), dropout_p, dropout_rng)
        states = self.gen_cell.unroll(emb, h, batch.lengths)
        flat = ad.reshape(states, (b * t_eff, self.gen_cell.hidden_dim))
        probs = ad.softmax(flat @ self.out_w + self.out_b, temperature=1.0)
        gold = ad.take_along_last(ad.reshape(probs, (b, t_eff, self.vocab_size)),
                                  batch.ids[:, :t_eff])
        mask = (np.arange(t_eff)[None, :] < batch.lengths[:, None]).astype(np.float64)
        logp = ad.mul(ad.log(ad.clip(gold, 1e-12, 1.0)), Tensor(mask))
        return ad.neg(ad.sum_(logp, axis=1))

    def generate_soft(self, z: Tensor, y: Tensor, max_len: int, temperature: float,
                      dropout_p: float = 0.0, dropout_rng=None) -> SoftSeq:
        """Free-running decode emitting a distribution per step; each step
        feeds the distribution's expected embedding back in."""
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        b = z.shape[0]
        h = ad.concat([z, style_rows(y, b)], axis=1)
        x = ad.take_rows(self.embedding, np.full(b, BOS, dtype=np.int64))
        steps: SoftSeq = []
        for _ in range(max_len):
            h = self.gen_cell.step(_dropout(x, dropout_p, dropout_rng), h)
            dist = ad.softmax(h @ self.out_w + self.out_b, temperature=temperature)
            steps.append(dist)
            x = dist @ self.embedding
        return steps

    def generate_greedy(self, z: Tensor, y: Tensor, max_len: int) -> Batch:
        """Argmax decode, cut at the first end-of-sentence token. Ties break
        toward the lowest token id. Decoding stops once every row has ended,
        so a batch costs as many steps as its longest output."""
        with no_grad():
            b = z.shape[0]
            h = ad.concat([z.detach(), style_rows(y.detach(), b)], axis=1)
            x = ad.take_rows(self.embedding, np.full(b, BOS, dtype=np.int64))
            ids = np.full((b, max_len), PAD, dtype=np.int64)
            done = np.zeros(b, dtype=bool)
            lengths = np.full(b, max_len, dtype=np.int64)
            for t in range(max_len):
                h = self.gen_cell.step(x, h)
                logits = (h @ self.out_w + self.out_b).data
                tok = logits.argmax(axis=1)
                tok[done] = PAD
                ids[:, t] = tok
                hit = (~done) & (tok == EOS)
                lengths[hit] = t + 1
                done |= hit
                if done.all():  # an ended row only gets <pad>, which ids already holds
                    break
                x = ad.take_rows(self.embedding, tok)
            ids[~done, max_len - 1] = EOS  # no end token emitted: close at the cap
        return Batch(ids=ids, lengths=lengths)

    # --- parameter bookkeeping ---------------------------------------------
    def param_groups(self) -> dict:
        return {
            "content_enc": {"embedding": self.embedding, **self.enc_cell.params("enc")},
            "style_enc": {**self.style_enc.params("style"), "target_style": self.target_style},
            "generator": {**self.gen_cell.params("gen"), "out.weight": self.out_w, "out.bias": self.out_b},
        }

    def params(self) -> dict:
        flat: dict = {}
        for group in self.param_groups().values():
            flat.update(group)
        return flat

    @classmethod
    def from_params(cls, arrays: dict) -> "TransferModel":
        """The transfer model a checkpoint holds."""
        vocab_size, d_emb = shape_of(arrays, "embedding", 2)
        d_z = shape_of(arrays, "enc.u_update", 2)[0]
        (d_y,) = shape_of(arrays, "target_style", 1)
        model = cls.create(np.random.default_rng(0), vocab_size, d_emb, d_z, d_y,
                           [s[0] for s in _conv_shapes(arrays)])
        load_into(model.params(), arrays)
        return model


def snapshot(params: dict) -> dict:
    return {k: p.data.copy() for k, p in params.items()}


def transfer_sentences(model: TransferModel, vocab: Vocab, sentences: Sequence[str],
                       pad_len: int) -> list:
    """Greedy-transfer each sentence into the target style, order preserved."""
    from .corpus import decode_to_text

    out: list = []
    for lo in range(0, len(sentences), TRANSFER_BATCH):
        chunk = sentences[lo: lo + TRANSFER_BATCH]
        batch = Batch.from_sentences(chunk, vocab, pad_len)
        with no_grad():
            z = model.encode_content(batch)
        gen = model.generate_greedy(z, model.target_style, pad_len)
        out.extend(decode_to_text(gen.ids[i], vocab) for i in range(len(chunk)))
    return out


def _seq_for_classifier(text: str, vocab: Vocab, pad_len: int) -> TokenSeq:
    if text.strip():
        return encode(text, vocab, pad_len)
    # an empty generation still needs a classifiable shape: end token only
    ids = np.full(pad_len, PAD, dtype=np.int64)
    ids[0] = EOS
    return TokenSeq(ids=ids, true_len=1)


def classify_texts(clf: TextCnnClassifier, vocab: Vocab, texts: Sequence[str],
                   pad_len: int) -> np.ndarray:
    """0/1 prediction per text: does the classifier call it target-styled."""
    preds = []
    for lo in range(0, len(texts), CLASSIFY_BATCH):
        seqs = [_seq_for_classifier(t, vocab, pad_len) for t in texts[lo: lo + CLASSIFY_BATCH]]
        with no_grad():
            p = clf.prob(Batch.from_seqs(seqs)).data
        preds.append(p > 0.5)
    return np.concatenate(preds).astype(np.float64)


# ---------------------------------------------------------------------------
# classifier pretraining


@dataclass(frozen=True)
class ClassifierFit:
    """How well a pretrained classifier fits. The discrepancy loss uses the
    judge's probabilities, so an accurate judge whose probabilities sit near
    0.5 (a small margin, a training BCE near ln 2) still gives it little
    signal."""

    heldout_accuracy: float
    train_bce: float       # last epoch's mean per-sentence training BCE
    heldout_margin: float  # held-out mean |p - 0.5|


def heldout_scores(clf: TextCnnClassifier, seqs: Sequence[TokenSeq],
                   labels: Sequence[float]) -> tuple:
    """(accuracy, mean |p - 0.5|) of clf on labelled sequences, from one
    forward pass."""
    with no_grad():
        p = clf.prob(Batch.from_seqs(list(seqs))).data
    predicted = (p > 0.5).astype(np.float64)
    accuracy = float((predicted == np.asarray(labels, dtype=np.float64)).mean())
    return accuracy, float(np.abs(p - 0.5).mean())


def pretrain_style_judge(train_seqs: Sequence[TokenSeq], train_labels: Sequence[float],
                         heldout_seqs: Sequence[TokenSeq], heldout_labels: Sequence[float],
                         vocab_size: int, d_emb: int, seed: int = 0) -> tuple:
    """The pre-trained, then frozen, probability-of-target-style classifier.

    Binary cross-entropy training of a text CNN on its own data part, before
    the transfer model; never updated afterwards. Label 1 means the sentence
    has the target style. Returns the classifier and its ClassifierFit.
    """
    if not train_seqs or not heldout_seqs:
        raise ValueError("classifier training needs non-empty train and held-out sets")
    rng = np.random.default_rng(seed)
    clf = TextCnnClassifier.create(rng, vocab_size, d_emb, CLASSIFIER_WIDTHS, CLASSIFIER_MAPS)
    params = clf.params()
    state = AdamState()
    labels = np.asarray(train_labels, dtype=np.float64)
    n = len(train_seqs)
    for _ in range(CLASSIFIER_EPOCHS):
        order = rng.permutation(n)
        bce_sum = 0.0
        for lo in range(0, n, CLASSIFIER_BATCH):
            idx = order[lo: lo + CLASSIFIER_BATCH]
            batch = Batch.from_seqs([train_seqs[i] for i in idx])
            ybat = Tensor(labels[idx])
            tape = ad.Tape()
            with ad.recording(tape):
                p = ad.clip(clf.prob(batch), 1e-7, 1 - 1e-7)
                loss = ad.neg(ad.mean_(ybat * ad.log(p) + (1.0 - ybat) * ad.log(1.0 - p)))
                ad.backward(loss, tape)
            bce_sum += loss.item() * len(idx)
            adam_step(params, state, CLASSIFIER_LR)
            zero_grads(params)
            tape.clear()
        train_bce = bce_sum / n
    acc, margin = heldout_scores(clf, heldout_seqs, heldout_labels)
    clf.freeze()
    return clf, ClassifierFit(heldout_accuracy=acc, train_bce=train_bce, heldout_margin=margin)
