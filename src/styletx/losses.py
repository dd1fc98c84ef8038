"""The four training losses and their weighted total.

Reconstruction and cycle terms are teacher-forced negative log-likelihoods;
the adversarial term scores soft generations with the in-training
discriminator; the style discrepancy term ties the squared distance between
a source style code and the shared target style vector to the frozen
judge's belief that the sentence already has the target style. Everything
is a batch mean, so the weight defaults transfer across batch sizes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .corpus import SpecError
from .model import Batch, TextCnnClassifier, TransferModel, style_rows

TEMPERATURE = 0.5  # softmax temperature of every soft generation


@dataclass
class LossWeights:
    """Term weights. A zero cycle or discrepancy weight skips that term;
    rec and adv are always computed."""

    lambda_adv: float = 1.0
    lambda_cyc: float = 1.0
    lambda_dis: float = 5.0


@dataclass
class LossBreakdown:
    """The objective's term values and their weighted total, as floats."""

    rec: float
    adv: float
    dis: float
    cyc: float
    total: float

    @property
    def finite(self) -> bool:
        return all(np.isfinite(v) for v in astuple(self))

    @classmethod
    def mean(cls, rows: Sequence["LossBreakdown"]) -> "LossBreakdown":
        """The field-wise mean of rows, each row weighted equally: summed in
        row order from 0.0, then divided once; all zeros for no rows."""
        sums = [0.0] * len(fields(cls))
        for row in rows:
            sums = [s + v for s, v in zip(sums, astuple(row))]
        return cls(*(s / max(len(rows), 1) for s in sums))


def _domain_means(x: Tensor, n_s: int, n_t: int) -> Tensor:
    """Mean over the first n_s (source) rows plus mean over the next n_t
    (target) rows; any further rows weigh 0."""
    weights = np.zeros((2, x.shape[0]))
    weights[0, :n_s], weights[1, n_s:n_s + n_t] = 1.0 / n_s, 1.0 / n_t
    return ad.sum_(ad.mul(x, weights[0])) + ad.sum_(ad.mul(x, weights[1]))


# ---------------------------------------------------------------------------
# individual terms


def adversarial_term(d_clf: TextCnnClassifier, soft, n_s: int, n_t: int) -> Tensor:
    """Discriminator cross-entropy on a soft batch: its first n_s rows are
    fakes (source contents decoded with the target style), the next n_t
    rows reals (target reconstructions); any further rows are ignored."""
    labels = (np.arange(soft.shape[0]) >= n_s).astype(np.float64)
    return _domain_means(d_clf.nll(soft, labels), n_s, n_t)


def _decode_home(model: TransferModel, z: Tensor, y_s: Tensor, joint: Batch,
                 dropout_p: float, dropout_rng) -> Tensor:
    """Teacher-forced NLL of the joint batch decoded from the codes z, each
    source row with its own style code (a row of y_s), each target row with
    the shared target style: the source mean plus the target mean."""
    n_s = y_s.shape[0]
    n_t = len(joint) - n_s
    y_home = ad.concat([y_s, style_rows(model.target_style, n_t)], axis=0)
    nll = model.decode_teacher_forced(z, y_home, joint, dropout_p, dropout_rng)
    return _domain_means(nll, n_s, n_t)


def reconstruction_loss(model: TransferModel, batch_s: Batch, batch_t: Batch) -> Tensor:
    """Mean NLL of source sentences given (their own style, content) plus
    mean NLL of target sentences given (the shared target style, content),
    without dropout."""
    joint = Batch.join(batch_s, batch_t)
    return _decode_home(model, model.encode_content(joint), model.encode_style(batch_s), joint,
                        0.0, None)


def style_discrepancy_loss(model: TransferModel, judge: TextCnnClassifier,
                           batch_s: Batch, y_s: Tensor) -> Tensor:
    """Batch mean of p_judge(x has target style) times the squared distance
    between x's style code (a row of y_s) and the target style.

    The judge is evaluated on the real source tokens with no gradient; the
    gradient reaches only the style encoder and the target style vector.
    """
    with no_grad():
        p = judge.prob(batch_s).data
    diff = y_s - model.target_style
    return ad.mean_(ad.mul(ad.sum_(ad.mul(diff, diff), axis=1), p))


def total_loss(rec, adv, cyc, dis, w: LossWeights):
    """rec - lambda_adv*adv + lambda_cyc*cyc + lambda_dis*dis, of Tensors or
    of floats."""
    return rec - w.lambda_adv * adv + w.lambda_cyc * cyc + w.lambda_dis * dis


# ---------------------------------------------------------------------------
# the one place every term is computed


def _terms(model: TransferModel, d_clf: TextCnnClassifier, judge: TextCnnClassifier,
           batch_s: Batch, batch_t: Batch, w: LossWeights, temperature: float = TEMPERATURE,
           dropout_p: float = 0.0, dropout_rng=None, draw_rng=None,
           draw_idx: Optional[np.ndarray] = None) -> dict:
    """rec and adv, plus cyc when w.lambda_cyc > 0 and dis when
    w.lambda_dis > 0, keyed by name, from one content encoding, one set of
    source style codes and one soft generation. Its rows: n_s source
    contents with the target style (the fakes); n_t target contents with the
    target style (the reals); then, with cyc, n_t target contents with styles
    drawn per sample from the source batch. The cycle term decodes every
    sentence back from its transfer with its own style."""
    n_s, n_t = len(batch_s), len(batch_t)
    if not n_s or not n_t:
        raise SpecError("need non-empty source and target batches")
    with_cyc = w.lambda_cyc > 0
    if with_cyc and draw_idx is None:
        if draw_rng is None:
            raise SpecError("cycle term needs draw_idx or draw_rng")
        draw_idx = draw_rng.integers(0, n_s, size=n_t)
    joint = Batch.join(batch_s, batch_t)
    z = model.encode_content(joint, dropout_p, dropout_rng)
    y_s = model.encode_style(batch_s)
    out = {"rec": _decode_home(model, z, y_s, joint, dropout_p, dropout_rng)}

    z_gen, y_gen = z, style_rows(model.target_style, n_s + n_t)
    if with_cyc:
        z_gen = ad.concat([z, ad.take_rows(z, np.arange(n_s, n_s + n_t))], axis=0)
        y_gen = ad.concat([y_gen, ad.take_rows(y_s, draw_idx)], axis=0)
    soft = model.generate_soft(z_gen, y_gen, joint.max_len, temperature, dropout_p, dropout_rng)
    out["adv"] = adversarial_term(d_clf, soft, n_s, n_t)
    if with_cyc:
        # the adversarial reals are not decoded back: skip their rows
        back = np.r_[0:n_s, n_s + n_t:n_s + 2 * n_t]
        z_back = model.encode_content(soft, dropout_p, dropout_rng, back)
        out["cyc"] = _decode_home(model, z_back, y_s, joint, dropout_p, dropout_rng)

    if w.lambda_dis > 0:
        out["dis"] = style_discrepancy_loss(model, judge, batch_s, y_s)
    return out


def compute_breakdown(model: TransferModel, d_clf: TextCnnClassifier,
                      judge: TextCnnClassifier, batch_s: Batch, batch_t: Batch,
                      w: LossWeights, temperature: float = TEMPERATURE,
                      dropout_p: float = 0.0, dropout_rng=None,
                      draw_rng=None, draw_idx: Optional[np.ndarray] = None):
    """Full weighted objective in one pass; returns (total tensor, floats),
    a skipped term being the float 0.0. The floats' total is total_loss of
    the logged terms."""
    terms = _terms(model, d_clf, judge, batch_s, batch_t, w, temperature, dropout_p,
                   dropout_rng, draw_rng, draw_idx)
    names = ("rec", "adv", "cyc", "dis")
    total = total_loss(*(terms.get(name, 0.0) for name in names), w)
    rec, adv, cyc, dis = (terms[name].item() if name in terms else 0.0 for name in names)
    breakdown = LossBreakdown(rec=rec, adv=adv, dis=dis, cyc=cyc,
                              total=total_loss(rec, adv, cyc, dis, w))
    return total, breakdown
