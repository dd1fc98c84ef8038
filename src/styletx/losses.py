"""The four training losses and their weighted total.

Reconstruction and cycle terms are teacher-forced negative log-likelihoods;
the adversarial term scores soft generations with the in-training
discriminator; the style discrepancy term ties the squared distance between
a source style code and the shared target style vector to the frozen
judge's belief that the sentence already has the target style. Everything
is a batch mean, so the weight defaults transfer across batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, no_grad
from .corpus import SpecError
from .model import Batch, TextCnnClassifier, TransferModel, style_rows

PROB_EPS = 1e-7
TEMPERATURE = 0.5  # softmax temperature of every soft generation


@dataclass
class LossWeights:
    lambda_adv: float = 1.0
    lambda_cyc: float = 1.0
    lambda_dis: float = 5.0

    def __post_init__(self):
        if min(self.lambda_adv, self.lambda_cyc, self.lambda_dis) < 0:
            raise SpecError("loss weights must be non-negative")


@dataclass
class LossBreakdown:
    rec: float
    adv: float
    dis: float
    cyc: float
    total: float

    @property
    def finite(self) -> bool:
        return all(np.isfinite(v) for v in (self.rec, self.adv, self.dis, self.cyc, self.total))


def _cat_batches(a: Batch, b: Batch) -> Batch:
    if a.max_len != b.max_len:
        raise ShapeError(f"cannot join batches padded to {a.max_len} and {b.max_len}")
    return Batch(ids=np.concatenate([a.ids, b.ids]),
                 lengths=np.concatenate([a.lengths, b.lengths]))


def _segment_mean(x: Tensor, start: int, size: int) -> Tensor:
    weights = np.zeros(x.shape[0])
    weights[start:start + size] = 1.0 / size
    return ad.sum_(ad.mul(x, Tensor(weights)))


def _domain_means(x: Tensor, n_s: int, n_t: int) -> Tensor:
    """Mean over the first n_s (source) rows plus mean over the next n_t
    (target) rows."""
    return _segment_mean(x, 0, n_s) + _segment_mean(x, n_s, n_t)


def _rows(t: Tensor, start: int, stop: int) -> Tensor:
    return ad.take_rows(t, np.arange(start, stop))


# ---------------------------------------------------------------------------
# individual terms


def adversarial_term(d_clf: TextCnnClassifier, soft, n_s: int, n_t: int) -> Tensor:
    """Discriminator cross-entropy on a soft batch: its first n_s rows are
    fakes (source contents decoded with the target style), the next n_t
    rows reals (target reconstructions); any further rows are ignored."""
    p = ad.clip(d_clf.prob(soft), PROB_EPS, 1.0 - PROB_EPS)
    return (_segment_mean(ad.neg(ad.log(1.0 - p)), 0, n_s)
            + _segment_mean(ad.neg(ad.log(p)), n_s, n_t))


def reconstruction_loss(model: TransferModel, batch_s: Batch, batch_t: Batch,
                        dropout_p: float = 0.0, dropout_rng=None) -> Tensor:
    """Mean NLL of source sentences given (their own style, content) plus
    mean NLL of target sentences given (the shared target style, content)."""
    return _terms(model, None, None, batch_s, batch_t, {"rec"},
                  dropout_p=dropout_p, dropout_rng=dropout_rng)["rec"]


def _squared_rows(y_s: Tensor, y_star: Tensor) -> Tensor:
    diff = y_s - ad.reshape(y_star, (1, y_star.shape[0]))
    return ad.sum_(ad.mul(diff, diff), axis=1)


def style_discrepancy_loss(model: TransferModel, judge: TextCnnClassifier,
                           batch_s: Batch, y_s: Tensor) -> Tensor:
    """Batch mean of p_judge(x has target style) times the squared distance
    between x's style code (a row of y_s) and the target style.

    The judge is evaluated on the real source tokens with no gradient; the
    gradient reaches only the style encoder and the target style vector.
    """
    with no_grad():
        p = judge.prob(batch_s).data.copy()
    return ad.mean_(ad.mul(_squared_rows(y_s, model.target_style), Tensor(p)))


def total_loss(rec, adv, cyc, dis, w: LossWeights) -> Tensor:
    """rec - lambda_adv*adv + lambda_cyc*cyc + lambda_dis*dis."""
    return (ad.as_tensor(rec) + ad.mul(ad.as_tensor(adv), -w.lambda_adv)
            + ad.mul(ad.as_tensor(cyc), w.lambda_cyc) + ad.mul(ad.as_tensor(dis), w.lambda_dis))


# ---------------------------------------------------------------------------
# the one place every term is computed


def _terms(model: TransferModel, d_clf: Optional[TextCnnClassifier],
           judge: Optional[TextCnnClassifier], batch_s: Batch, batch_t: Batch,
           need, temperature: float = TEMPERATURE, dropout_p: float = 0.0, dropout_rng=None,
           draw_rng=None, draw_idx: Optional[np.ndarray] = None) -> dict:
    """The requested subset of {rec, adv, cyc, dis}, keyed by name, from one
    content encoding, one set of source style codes and one soft generation.
    Its rows: source contents with the target style; then, for adv, target
    contents with the target style; then, for cyc, target contents with
    styles drawn per sample from the source batch. The cycle term decodes
    every sentence back from its transfer with its own style."""
    n_s, n_t = len(batch_s), len(batch_t)
    if not n_s or not n_t:
        raise SpecError("need non-empty source and target batches")
    need_adv, need_cyc = "adv" in need, "cyc" in need
    if need_cyc and draw_idx is None:
        if draw_rng is None:
            raise SpecError("cycle term needs draw_idx or draw_rng")
        draw_idx = draw_rng.integers(0, n_s, size=n_t)
    if "dis" in need and judge is None:
        raise SpecError("style discrepancy term needs the pre-trained judge")
    joint = _cat_batches(batch_s, batch_t)
    z = model.encode_content(joint, dropout_p, dropout_rng)
    y_s = model.encode_style(batch_s) if need & {"rec", "cyc", "dis"} else None
    out = {}

    if "rec" in need:
        y_home = ad.concat([y_s, style_rows(model.target_style, n_t)], axis=0)
        nll = model.decode_teacher_forced(z, y_home, joint, dropout_p, dropout_rng)
        out["rec"] = _domain_means(nll, n_s, n_t)

    if need_adv or need_cyc:
        z_gen, y_gen = z, style_rows(model.target_style, n_s + n_t if need_adv else n_s)
        if need_cyc:
            if need_adv:
                z_gen = ad.concat([z, _rows(z, n_s, n_s + n_t)], axis=0)
            y_gen = ad.concat([y_gen, ad.take_rows(y_s, draw_idx)], axis=0)
        soft = model.generate_soft(z_gen, y_gen, joint.max_len, temperature,
                                   dropout_p, dropout_rng)
        if need_adv:
            out["adv"] = adversarial_term(d_clf, soft, n_s, n_t)
        if need_cyc:
            z_back = model.encode_content(soft, dropout_p, dropout_rng)
            if need_adv:
                z_back = ad.concat([_rows(z_back, 0, n_s),
                                    _rows(z_back, n_s + n_t, n_s + 2 * n_t)], axis=0)
            y_home = ad.concat([y_s, style_rows(model.target_style, n_t)], axis=0)
            nll_cyc = model.decode_teacher_forced(z_back, y_home, joint, dropout_p, dropout_rng)
            out["cyc"] = _domain_means(nll_cyc, n_s, n_t)

    if "dis" in need:
        out["dis"] = style_discrepancy_loss(model, judge, batch_s, y_s)
    return out


def compute_breakdown(model: TransferModel, d_clf: TextCnnClassifier,
                      judge: Optional[TextCnnClassifier], batch_s: Batch, batch_t: Batch,
                      w: LossWeights, temperature: float = TEMPERATURE,
                      dropout_p: float = 0.0, dropout_rng=None,
                      draw_rng=None, draw_idx: Optional[np.ndarray] = None):
    """Full weighted objective in one pass; returns (total tensor, floats).

    Terms whose weight is zero are skipped and reported as 0.
    """
    need = {"rec"} | {name for name, weight in (("adv", w.lambda_adv), ("cyc", w.lambda_cyc),
                                                ("dis", w.lambda_dis)) if weight > 0}
    terms = _terms(model, d_clf, judge, batch_s, batch_t, need, temperature, dropout_p,
                   dropout_rng, draw_rng, draw_idx)
    zero = Tensor(0.0)
    rec, adv, cyc, dis = (terms.get(name, zero) for name in ("rec", "adv", "cyc", "dis"))
    total = total_loss(rec, adv, cyc, dis, w)
    breakdown = LossBreakdown(rec=rec.item(), adv=adv.item(), dis=dis.item(),
                              cyc=cyc.item(), total=total.item())
    return total, breakdown
