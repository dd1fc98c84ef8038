import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styletx import autodiff as ad
from styletx.autodiff import Tape, Tensor, backward, no_grad, recording
from styletx.corpus import SpecError, build_vocab
from styletx.losses import (
    LossWeights,
    _terms,
    compute_breakdown,
    reconstruction_loss,
    style_discrepancy_loss,
    total_loss,
)
from styletx.model import LOGIT_CLAMP, Batch, TextCnnClassifier, TransferModel
from styletx.optim import AdamState, adam_step
from test_acceptance import in_float64


def tiny_vocab():
    return build_vocab(["the food was great", "the soup was bland",
                        "we came here again today", "sadly the staff was rude"])


def setup(seed=0, d_emb=8, d_z=12, d_y=10):
    vocab = tiny_vocab()
    rng = np.random.default_rng(seed)
    model = TransferModel.create(rng, len(vocab), d_emb, d_z, d_y)
    d_clf = TextCnnClassifier.create(rng, len(vocab), d_emb, (1, 2, 3), 4)
    judge = TextCnnClassifier.create(rng, len(vocab), d_emb, (2, 3), 4)
    judge.freeze()
    batch_s = Batch.from_sentences(["the food was bland", "sadly the staff was rude"],
                                   vocab, 8, "source")
    batch_t = Batch.from_sentences(["the food was great", "we came here today"],
                                   vocab, 8, "target")
    return model, d_clf, judge, batch_s, batch_t, vocab


def every_param(model, d_clf, judge) -> dict:
    return {**model.params(), **d_clf.params("d"), **judge.params("judge")}


def judge_untouched(judge, grads: dict) -> bool:
    """The judge's parameters do not require grad, and their gradients in
    grads (an every_param map) are exactly zero."""
    names = judge.params("judge")
    return not any(p.requires_grad for p in names.values()) and not any(
        grads[k].any() for k in names)


def adversarial(model, d_clf, judge, batch_s, batch_t):
    w = LossWeights(lambda_cyc=0.0, lambda_dis=0.0)
    return _terms(model, d_clf, judge, batch_s, batch_t, w)["adv"]


def cycle(model, d_clf, judge, batch_s, batch_t, **draw):
    w = LossWeights(lambda_dis=0.0)
    return _terms(model, d_clf, judge, batch_s, batch_t, w, **draw)["cyc"]


def discrepancy(model, judge, batch_s):
    return style_discrepancy_loss(model, judge, batch_s, model.encode_style(batch_s))


def zero_weight_clf(vocab_size, widths=(1, 2), d_emb=8):
    clf = TextCnnClassifier.create(np.random.default_rng(0), vocab_size, d_emb, widths, 3)
    for p in clf.params().values():
        p.data[...] = 0.0
    clf.freeze()
    return clf


# ---------------------------------------------------------------------------
# style discrepancy loss


def test_style_discrepancy_loss_exact_anchor():
    # judge with zero weights outputs exactly 0.5; a zeroed style encoder
    # with target style (2, 0, ...) gives squared distance 4: loss 0.5*4 = 2
    model, _, _, batch_s, _, vocab = setup()
    judge = zero_weight_clf(len(vocab))
    for p in model.style_enc.params("style").values():
        p.data[...] = 0.0
    model.target_style.data[...] = 0.0
    model.target_style.data[0] = 2.0
    one = Batch(ids=batch_s.ids[:1], lengths=batch_s.lengths[:1])
    with no_grad():
        loss = discrepancy(model, judge, one)
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_style_discrepancy_loss_zero_probability_annihilates():
    # the logit floor -LOGIT_CLAMP gives p = σ(-16) ≈ 1.1e-7, the smallest
    # probability the judge can give: the loss is that times the mean
    # squared distance, about 1e-7 of the loss at p = 1
    model, _, _, batch_s, _, vocab = setup(seed=1)
    model = in_float64(model)
    judge = in_float64(zero_weight_clf(len(vocab)))
    judge.head_b.data[...] = -1e9
    with no_grad():
        loss = discrepancy(model, judge, batch_s)
        y_s = model.encode_style(batch_s).data
    squared = ((y_s - model.target_style.data) ** 2).sum(axis=1)
    assert loss.item() == pytest.approx(squared.mean() / (1.0 + math.exp(LOGIT_CLAMP)), rel=1e-12)


def test_style_discrepancy_loss_monotone_in_distance():
    model, _, _, batch_s, _, vocab = setup(seed=2)
    judge = zero_weight_clf(len(vocab))  # fixed positive probability 0.5
    with no_grad():
        y_s = model.encode_style(batch_s)
        base = style_discrepancy_loss(model, judge, batch_s, y_s)
        # scaling the offset from the target style up can never shrink the loss
        y_far = ad.add(model.target_style, ad.mul(ad.sub(y_s, model.target_style), 2.0))
        far = style_discrepancy_loss(model, judge, batch_s, y_far)
    assert far.item() >= base.item()


def test_style_discrepancy_loss_optimisation_pulls_styles_together():
    # with p identically 1 the loss is the squared distance: 500 Adam steps
    # on the style encoder should drive it near zero
    model, _, _, batch_s, _, vocab = setup(seed=3)
    judge = zero_weight_clf(len(vocab))
    judge.head_b.data[...] = 1e9  # clamps to +LOGIT_CLAMP: p ~ 1
    params = {**model.style_enc.params("style"), "target_style": model.target_style}
    state = AdamState()
    history = []
    for _ in range(500):
        tape = Tape()
        with recording(tape):
            loss = discrepancy(model, judge, batch_s)
            grads = backward(loss, tape, params)
        history.append(loss.item())
        adam_step(params, grads, state, 5e-3)
    assert history[-1] < 0.01 * history[0]


def test_style_discrepancy_loss_gradient_stays_out_of_judge_and_generator():
    model, d_clf, judge, batch_s, _, _ = setup(seed=4)
    tape = Tape()
    with recording(tape):
        loss = discrepancy(model, judge, batch_s)
        grads = backward(loss, tape, every_param(model, d_clf, judge))
    groups = model.param_groups()
    assert any(np.abs(grads[k]).sum() > 0 for k in groups["style_enc"])
    for name in ("content_enc", "generator"):
        assert all(not grads[k].any() for k in groups[name])
    assert judge_untouched(judge, grads)


# ---------------------------------------------------------------------------
# adversarial loss


def test_adversarial_loss_at_half_is_two_log_two():
    model, _, judge, batch_s, batch_t, vocab = setup(seed=5)
    model, judge = map(in_float64, (model, judge))
    d_half = in_float64(zero_weight_clf(len(vocab)))
    with no_grad():
        loss = adversarial(model, d_half, judge, batch_s, batch_t)
    assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-9)


def test_adversarial_loss_matches_scalar_recomputation():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=6)
    model, d_clf, judge = map(in_float64, (model, d_clf, judge))
    with no_grad():
        joint = Batch(ids=np.concatenate([batch_s.ids, batch_t.ids]),
                      lengths=np.concatenate([batch_s.lengths, batch_t.lengths]))
        z = model.encode_content(joint)
        soft = model.generate_soft(z, model.target_style, joint.max_len, 0.5)
        p = d_clf.prob(soft).data
        loss = adversarial(model, d_clf, judge, batch_s, batch_t)
    n = len(batch_s)
    expected = np.mean(-np.log(1 - p[:n])) + np.mean(-np.log(p[n:]))
    assert loss.item() == pytest.approx(expected, abs=1e-9)


def test_adversarial_loss_extreme_discriminator_is_clamped_not_fatal():
    model, _, judge, batch_s, batch_t, vocab = setup(seed=7)
    sure = zero_weight_clf(len(vocab))
    sure.head_b.data[...] = 1e9  # p pinned at sigmoid(LOGIT_CLAMP) on everything
    with no_grad():
        loss = adversarial(model, sure, judge, batch_s, batch_t)
    assert np.isfinite(loss.item())
    # the fake term hits the clamp: -log(eps-ish) stays huge but finite
    assert loss.item() > 10


def test_adversarial_loss_gradients_reach_both_arms():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=8)
    tape = Tape()
    with recording(tape):
        loss = adversarial(model, d_clf, judge, batch_s, batch_t)
        grads = backward(loss, tape, every_param(model, d_clf, judge))
    assert any(np.abs(grads[k]).sum() > 0 for k in d_clf.params("d"))
    groups = model.param_groups()
    for name in ("content_enc", "generator"):
        assert any(np.abs(grads[k]).sum() > 0 for k in groups[name])
    # the shared target style feeds the generation, so it moves too
    assert np.abs(grads["target_style"]).sum() > 0
    # but the style CNN itself is not part of the adversarial path
    cnn_only = model.style_enc.params("style")
    assert all(not grads[k].any() for k in cnn_only)


# ---------------------------------------------------------------------------
# reconstruction loss


def test_reconstruction_uniform_baseline():
    model, _, _, batch_s, batch_t, _ = setup(seed=9)
    model = in_float64(model)
    for p in model.params().values():
        p.data[...] = 0.0
    with no_grad():
        loss = reconstruction_loss(model, batch_s, batch_t)
    v = model.vocab_size
    expected = batch_s.lengths.mean() * math.log(v) + batch_t.lengths.mean() * math.log(v)
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_reconstruction_is_sum_of_two_terms():
    model, _, _, batch_s, batch_t, _ = setup(seed=10)
    with no_grad():
        both = reconstruction_loss(model, batch_s, batch_t)
        z_s = model.encode_content(batch_s)
        term_s = ad.mean_(model.decode_teacher_forced(
            z_s, model.encode_style(batch_s), batch_s))
        z_t = model.encode_content(batch_t)
        term_t = ad.mean_(model.decode_teacher_forced(
            z_t, model.target_style, batch_t))
    assert both.item() == pytest.approx(term_s.item() + term_t.item(), rel=1e-9)


def test_reconstruction_non_negative():
    for seed in range(4):
        model, _, _, batch_s, batch_t, _ = setup(seed=seed)
        with no_grad():
            assert reconstruction_loss(model, batch_s, batch_t).item() >= 0.0


# ---------------------------------------------------------------------------
# cycle consistency loss


def test_cycle_loss_copy_generator_equals_reconstruction_of_copies():
    model, d_clf, judge, batch_s, batch_t, vocab = setup(seed=11)

    def copying_soft(z, y, max_len, temperature, dropout_p=0.0, dropout_rng=None):
        # replaces generation with an exact one-hot copy of the batch the
        # cycle is reconstructing: the fakes, the reals, the cycle rows
        ids = np.concatenate([batch_s.ids, batch_t.ids, batch_t.ids])
        return Tensor(np.eye(len(vocab))[ids[:, :max_len]])

    original = model.generate_soft
    model.generate_soft = copying_soft
    try:
        with no_grad():
            cyc = cycle(model, d_clf, judge, batch_s, batch_t, draw_idx=np.array([0, 1]))
            soft = copying_soft(None, None, batch_s.max_len, 0.5)
            z_back = model.encode_content(soft)
            y_s = model.encode_style(batch_s)
            idx_s = np.arange(len(batch_s))
            nll_s = model.decode_teacher_forced(
                ad.take_rows(z_back, idx_s), y_s, batch_s)
            idx_t = np.arange(len(batch_s) + len(batch_t), len(batch_s) + 2 * len(batch_t))
            nll_t = model.decode_teacher_forced(
                ad.take_rows(z_back, idx_t), model.target_style, batch_t)
            expected = nll_s.data.mean() + nll_t.data.mean()
    finally:
        model.generate_soft = original
    assert cyc.item() == pytest.approx(expected, rel=1e-12)


def test_cycle_loss_non_negative_and_deterministic():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=12)
    with no_grad():
        a = cycle(model, d_clf, judge, batch_s, batch_t, draw_idx=np.array([1, 0]))
        b = cycle(model, d_clf, judge, batch_s, batch_t, draw_idx=np.array([1, 0]))
    assert a.item() >= 0.0
    assert a.item() == b.item()


def test_cycle_loss_requires_source_styles():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=13)
    empty = Batch(ids=batch_s.ids[:0], lengths=batch_s.lengths[:0])
    with pytest.raises(SpecError):
        cycle(model, d_clf, judge, empty, batch_t, draw_idx=np.array([0, 0]))


def test_cycle_loss_falls_under_overfitting():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=14)
    params = model.params()
    state = AdamState()
    rng = np.random.default_rng(0)
    first = None
    for _ in range(150):
        tape = Tape()
        with recording(tape):
            rec = reconstruction_loss(model, batch_s, batch_t)
            cyc = cycle(model, d_clf, judge, batch_s, batch_t, draw_rng=rng)
            loss = rec + cyc
            grads = backward(loss, tape, params)
        if first is None:
            first = cyc.item()
        adam_step(params, grads, state, 5e-3)
    with no_grad():
        final = cycle(model, d_clf, judge, batch_s, batch_t, draw_idx=np.array([0, 1])).item()
    assert final < 0.1 * first


def test_cycle_loss_gradients_stay_out_of_discriminators():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=15)
    tape = Tape()
    with recording(tape):
        loss = cycle(model, d_clf, judge, batch_s, batch_t, draw_idx=np.array([0, 1]))
        grads = backward(loss, tape, every_param(model, d_clf, judge))
    groups = model.param_groups()
    for name in ("content_enc", "style_enc", "generator"):
        assert any(np.abs(grads[k]).sum() > 0 for k in groups[name])
    # the adversarial term shares the tape, so D gets gradients, all zero
    assert all(not grads[k].any() for k in d_clf.params("d"))
    assert judge_untouched(judge, grads)


def test_cycle_encoder_skips_the_adversarial_reals_exactly():
    # the cycle encoder runs only over the fakes and the cycle rows; the
    # reference encodes every soft row and keeps those two blocks after
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=16)
    original = model.encode_content
    kept = []

    def all_rows(x, dropout_p=0.0, dropout_rng=None, rows=None):
        if rows is not None:
            kept.append(rows)
        z = original(x, dropout_p, dropout_rng)
        return z if rows is None else ad.take_rows(z, rows)

    def cyc_and_grads(reference):
        model.encode_content = all_rows if reference else original
        params = model.params()
        rng = np.random.default_rng(3)
        tape = Tape()
        try:
            with recording(tape):
                cyc = cycle(model, d_clf, judge, batch_s, batch_t, dropout_p=0.3,
                            dropout_rng=rng, draw_idx=np.array([1, 0]))
                grads = backward(cyc, tape, params)
        finally:
            model.encode_content = original
        return cyc.item(), grads, rng.random()

    cyc, grads, next_draw = cyc_and_grads(reference=False)
    ref_cyc, ref_grads, ref_next_draw = cyc_and_grads(reference=True)
    assert [list(r) for r in kept] == [[0, 1, 4, 5]]    # fakes, then the cycle rows
    assert cyc == pytest.approx(ref_cyc, rel=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)
    assert next_draw == ref_next_draw


# ---------------------------------------------------------------------------
# weighted total


def test_total_loss_reference_weights():
    w = LossWeights()
    assert (w.lambda_adv, w.lambda_cyc, w.lambda_dis) == (1.0, 1.0, 5.0)
    total = total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), Tensor(1.0), w)
    assert total.item() == pytest.approx(1.0 - 1.0 + 1.0 + 5.0)


def test_total_loss_ablation_weights():
    parts = dict(rec=2.0, adv=0.7, cyc=1.3, dis=0.2)
    no_cyc = total_loss(*(Tensor(parts[k]) for k in ("rec", "adv", "cyc", "dis")),
                        LossWeights(lambda_cyc=0.0))
    assert no_cyc.item() == pytest.approx(2.0 - 0.7 + 5 * 0.2)
    no_dis = total_loss(*(Tensor(parts[k]) for k in ("rec", "adv", "cyc", "dis")),
                        LossWeights(lambda_dis=0.0))
    assert no_dis.item() == pytest.approx(2.0 - 0.7 + 1.3)


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100), st.floats(0, 100),
       st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
def test_breakdown_identity(rec, adv, cyc, dis, l1, l2, l3):
    total = total_loss(Tensor(rec), Tensor(adv), Tensor(cyc), Tensor(dis),
                       LossWeights(l1, l2, l3)).item()
    assert abs(total - (rec - l1 * adv + l2 * cyc + l3 * dis)) < 1e-9


@pytest.mark.parametrize("w", [LossWeights(), LossWeights(lambda_cyc=0.0),
                               LossWeights(lambda_dis=0.0)], ids=["reference", "no-cyc", "no-dis"])
def test_compute_breakdown_matches_standalone_terms(w):
    # without the cycle term the soft generation holds the fakes and reals only
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=16)
    draw = np.array([1, 0])
    with no_grad():
        total, br = compute_breakdown(model, d_clf, judge, batch_s, batch_t, w,
                                      draw_idx=draw)
        rec = reconstruction_loss(model, batch_s, batch_t).item()
        adv = adversarial(model, d_clf, judge, batch_s, batch_t).item()
        cyc = cycle(model, d_clf, judge, batch_s, batch_t, draw_idx=draw).item()
        dis = discrepancy(model, judge, batch_s).item()
    assert br.rec == pytest.approx(rec, rel=1e-9)
    assert br.adv == pytest.approx(adv, rel=1e-9)
    assert br.cyc == (pytest.approx(cyc, rel=1e-9) if w.lambda_cyc else 0.0)
    assert br.dis == (pytest.approx(dis, rel=1e-9) if w.lambda_dis else 0.0)
    assert br.total == pytest.approx(br.rec - w.lambda_adv * br.adv + w.lambda_cyc * br.cyc
                                     + w.lambda_dis * br.dis, abs=1e-9)
    assert total.item() == pytest.approx(br.total)


def test_compute_breakdown_skips_zero_weight_terms():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=17)
    w = LossWeights(0.0, 0.0, 0.0)
    with no_grad():
        total, br = compute_breakdown(model, d_clf, judge, batch_s, batch_t, w)
    assert br.cyc == br.dis == 0.0
    assert br.total == total.item() == pytest.approx(br.rec)


def test_no_gradient_ever_reaches_the_frozen_judge():
    model, d_clf, judge, batch_s, batch_t, _ = setup(seed=18)
    tape = Tape()
    with recording(tape):
        total, _ = compute_breakdown(model, d_clf, judge, batch_s, batch_t,
                                     LossWeights(), draw_idx=np.array([0, 1]))
        grads = backward(total, tape, every_param(model, d_clf, judge))
    assert judge_untouched(judge, grads)
