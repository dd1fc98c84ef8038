import numpy as np
import pytest

from styletx import autodiff as ad
from styletx import model as model_module
from styletx.autodiff import SequenceTooShortError, Tape, Tensor, backward, no_grad, recording
from styletx.checkpoint import load_params, save_params
from styletx.corpus import BOS, EOS, PAD, build_vocab, gen_synthetic, encode
from styletx.model import (
    CLASSIFIER_WIDTHS,
    Batch,
    TextCnnClassifier,
    TransferModel,
    classify_texts,
    heldout_scores,
    pretrain_style_judge,
    snapshot,
    style_rows,
    transfer_sentences,
)
from styletx.optim import AdamState, adam_step, zero_grads


def tiny_vocab():
    return build_vocab(["the food was great", "the soup was bland", "we came here again today"])


def make_model(seed=0, vocab=None, d_emb=8, d_z=12, d_y=10):
    vocab = vocab or tiny_vocab()
    return TransferModel.create(np.random.default_rng(seed), len(vocab), d_emb, d_z, d_y), vocab


def batch_of(sentences, vocab, max_len=10):
    return Batch.from_sentences(sentences, vocab, max_len)


def one_hot_steps(batch, vocab_size):
    steps = []
    for t in range(batch.max_len):
        row = np.zeros((len(batch), vocab_size))
        row[np.arange(len(batch)), batch.ids[:, t]] = 1.0
        steps.append(Tensor(row))
    return steps


# ---------------------------------------------------------------------------
# dimensions and zero cases


def test_reference_dimensions():
    # word/content/style dims 200/1000/500, five filter widths, 100 maps each
    vocab = tiny_vocab()
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 200, 1000, 500)
    batch = batch_of(["the food was great"], vocab)
    with no_grad():
        z = model.encode_content(batch)
        y = model.encode_style(batch)
    assert z.shape == (1, 1000)
    assert y.shape == (1, 500)
    assert model.target_style.shape == (500,)
    assert all(f.shape[2] == 100 for f in model.style_enc.filters.values())


def test_encode_content_zero_weights_gives_zero_state():
    model, vocab = make_model()
    for p in model.params().values():
        p.data[...] = 0.0
    with no_grad():
        z = model.encode_content(batch_of(["the food was great"], vocab))
    assert np.all(z.data == 0.0)


def test_encode_content_soft_one_hot_matches_hard():
    model, vocab = make_model(seed=3)
    batch = batch_of(["the food was great", "we came here"], vocab, max_len=6)
    with no_grad():
        hard = model.encode_content(batch)
        # mask lengths differ between paths: pin them equal by full-length batch
        full = Batch(ids=batch.ids, lengths=np.full(2, 6, dtype=np.int64))
        hard_full = model.encode_content(full)
        soft = model.encode_content(one_hot_steps(batch, len(vocab)))
    assert np.allclose(soft.data, hard_full.data, atol=1e-12)
    assert not np.allclose(hard.data, soft.data)  # masking really differs


def test_encode_content_ignores_padding():
    model, vocab = make_model(seed=4)
    batch = batch_of(["the food was great"], vocab, max_len=10)
    with no_grad():
        z1 = model.encode_content(batch)
    mutated = Batch(ids=batch.ids.copy(), lengths=batch.lengths)
    mutated.ids[0, batch.lengths[0]:] = 5  # stomp the padding region
    with no_grad():
        z2 = model.encode_content(mutated)
    assert np.array_equal(z1.data, z2.data)


# ---------------------------------------------------------------------------
# style dispatch


def test_encode_style_source_uses_cnn():
    model, vocab = make_model()
    batch = batch_of(["the food was great", "the soup was bland"], vocab)
    with no_grad():
        y = model.encode_style(batch)
    assert y.shape == (2, model.target_style.shape[0])
    assert not np.array_equal(y.data[0], y.data[1])


# ---------------------------------------------------------------------------
# teacher-forced decoding


def test_uniform_model_nll_is_length_times_log_vocab():
    model, vocab = make_model()
    for p in model.params().values():
        p.data[...] = 0.0  # zero weights: every step is the uniform distribution
    batch = batch_of(["the food was great", "we came here"], vocab, max_len=8)
    with no_grad():
        z = model.encode_content(batch)
        nll = model.decode_teacher_forced(z, model.encode_style(batch), batch)
    expected = batch.lengths * np.log(len(vocab))
    assert np.allclose(nll.data, expected, rtol=1e-12)


def test_nll_is_non_negative():
    for seed in range(5):
        model, vocab = make_model(seed=seed)
        batch = batch_of(["the food was great"], vocab)
        with no_grad():
            z = model.encode_content(batch)
            nll = model.decode_teacher_forced(z, model.target_style, batch)
        assert float(nll.data[0]) >= 0.0


def test_decoder_overfits_single_sentence():
    model, vocab = make_model(seed=1)
    batch = batch_of(["the food was great"], vocab, max_len=6)
    params = model.params()
    state = AdamState()
    first = None
    for _ in range(200):
        tape = Tape()
        with recording(tape):
            z = model.encode_content(batch)
            nll = model.decode_teacher_forced(z, model.encode_style(batch), batch)
            loss = ad.sum_(nll)
            backward(loss, tape)
        if first is None:
            first = loss.item()
        adam_step(params, state, 0.01)
        zero_grads(params)
    assert loss.item() < 0.05 * first


# ---------------------------------------------------------------------------
# generation


def test_generate_soft_deterministic_and_normalised():
    model, vocab = make_model(seed=5)
    batch = batch_of(["the food was great"], vocab)
    with no_grad():
        z = model.encode_content(batch)
        a = model.generate_soft(z, model.target_style, 6, 0.5)
        b = model.generate_soft(z, model.target_style, 6, 0.5)
    assert len(a) == 6
    for da, db in zip(a, b):
        assert np.array_equal(da.data, db.data)
        assert abs(da.data.sum() - 1.0) < 1e-9


def test_generate_soft_low_temperature_approaches_greedy():
    model, vocab = make_model(seed=6)
    model.out_w.data *= 50  # fresh-init logits are near ties; give them real gaps
    batch = batch_of(["the soup was bland"], vocab)
    with no_grad():
        z = model.encode_content(batch)
        soft = model.generate_soft(z, model.target_style, 8, temperature=1e-4)
        greedy = model.generate_greedy(z, model.target_style, 8)
    for dist in soft:
        assert dist.data.max() > 0.999  # distributions collapse toward one-hots
    # and the first step, where no feedback differences exist yet, matches greedy
    assert soft[0].data.argmax() == greedy.ids[0, 0]


def test_generate_soft_gradients_reach_everything():
    model, vocab = make_model(seed=7)
    batch = batch_of(["the food was great"], vocab)
    tape = Tape()
    with recording(tape):
        z = model.encode_content(batch)
        soft = model.generate_soft(z, model.target_style, 5, 0.5)
        loss = ad.sum_(ad.mul(soft[-1], soft[-1]))
        backward(loss, tape)
    assert np.abs(model.target_style.grad).sum() > 0
    assert np.abs(model.gen_cell.w_update.grad).sum() > 0
    assert np.abs(model.embedding.grad).sum() > 0
    assert np.abs(model.enc_cell.w_update.grad).sum() > 0


def test_generate_greedy_contract():
    model, vocab = make_model(seed=8)
    batch = batch_of(["the food was great", "we came here"], vocab)
    with no_grad():
        z = model.encode_content(batch)
    a = model.generate_greedy(z, model.target_style, 7)
    b = model.generate_greedy(z, model.target_style, 7)
    assert np.array_equal(a.ids, b.ids)
    assert a.ids.shape[1] == 7
    assert np.all(a.lengths <= 7)
    for row, n in zip(a.ids, a.lengths):
        if n < 7:
            assert row[n - 1] == EOS
            assert np.all(row[n:] == PAD)


def test_generate_greedy_ties_break_to_lowest_id():
    model, vocab = make_model(seed=9)
    for p in model.params().values():
        p.data[...] = 0.0  # all logits equal at every step
    with no_grad():
        z = model.encode_content(batch_of(["the food"], vocab))
    out = model.generate_greedy(z, model.target_style, 4)
    # token id 0 wins every tie; the cap position is closed with EOS
    assert np.all(out.ids[0, :3] == 0)
    assert out.ids[0, 3] == EOS


def full_length_greedy(model, z, y, max_len):
    """Reference greedy decode that runs all max_len steps whatever the rows
    emit: (ids, lengths)."""
    with no_grad():
        b = z.shape[0]
        h = ad.concat([z, style_rows(y, b)], axis=1)
        x = ad.take_rows(model.embedding, np.full(b, BOS, dtype=np.int64))
        ids = np.full((b, max_len), PAD, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        lengths = np.full(b, max_len, dtype=np.int64)
        for t in range(max_len):
            h = model.gen_cell.step(x, h)
            tok = (h @ model.out_w + model.out_b).data.argmax(axis=1)
            tok[done] = PAD
            ids[:, t] = tok
            hit = (~done) & (tok == EOS)
            lengths[hit] = t + 1
            done |= hit
            x = ad.take_rows(model.embedding, tok)
        ids[~done, max_len - 1] = EOS
    return ids, lengths


def staggered_model(ends):
    """A model and content codes whose row i emits <eos> first at step
    ends[i] (0-based). With zero GRU weights every step halves the state;
    token 4's logit 1.5 * 2**(k - t - 1) falls below <eos>'s fixed logit 1
    exactly when t reaches k."""
    model, _ = make_model(seed=10)
    for p in model.gen_cell.params("gen").values():
        p.data[...] = 0.0
    model.target_style.data[...] = 0.0
    model.out_w.data[...] = 0.0
    model.out_w.data[0, 4] = 1.0
    model.out_b.data[...] = 0.0
    model.out_b.data[EOS] = 1.0
    z = np.zeros((len(ends), model.d_z))
    z[:, 0] = 1.5 * 2.0 ** np.asarray(ends, dtype=np.float64)
    return model, Tensor(z)


def random_model_with_eos_bias(bias):
    model, vocab = make_model(seed=8)
    model.out_b.data[EOS] = bias
    with no_grad():
        z = model.encode_content(batch_of(["the food was great", "we came here",
                                           "the soup"], vocab))
    return model, z


GREEDY_CASES = {
    "every-row-ends-at-step-1": (lambda: random_model_with_eos_bias(1e3), [1, 1, 1]),
    "rows-end-at-different-steps": (lambda: staggered_model([0, 3, 1]), [1, 4, 2]),
    "no-row-ends": (lambda: random_model_with_eos_bias(-1e3), [6, 6, 6]),
}


@pytest.mark.parametrize("case", list(GREEDY_CASES))
def test_generate_greedy_stops_once_every_row_has_ended(monkeypatch, case):
    build, expected_lengths = GREEDY_CASES[case]
    model, z = build()
    max_len = 6
    ref_ids, ref_lengths = full_length_greedy(model, z, model.target_style, max_len)
    calls = []
    step = model.gen_cell.step
    monkeypatch.setattr(model.gen_cell, "step", lambda x, h: calls.append(1) or step(x, h))
    out = model.generate_greedy(z, model.target_style, max_len)
    assert len(calls) == max(expected_lengths)
    assert out.lengths.tolist() == expected_lengths
    assert np.array_equal(out.ids, ref_ids)
    assert np.array_equal(out.lengths, ref_lengths)
    if case == "no-row-ends":
        assert np.all(out.ids[:, -1] == EOS)


# ---------------------------------------------------------------------------
# classifier


def test_discriminate_zero_weights_is_half():
    vocab = tiny_vocab()
    clf = TextCnnClassifier.create(np.random.default_rng(0), len(vocab), 8, (1, 2, 3), 4)
    for p in clf.params().values():
        p.data[...] = 0.0
    batch = batch_of(["the food was great"], vocab)
    with no_grad():
        p = clf.prob(batch)
    assert p.data[0] == 0.5


def test_discriminate_soft_one_hot_matches_hard():
    vocab = tiny_vocab()
    clf = TextCnnClassifier.create(np.random.default_rng(1), len(vocab), 8, (1, 2, 3), 4)
    batch = batch_of(["the food was great", "we came here again"], vocab, max_len=7)
    with no_grad():
        hard = clf.prob(batch)
        soft = clf.prob(one_hot_steps(batch, len(vocab)))
    assert np.allclose(hard.data, soft.data, atol=1e-12)


def test_discriminate_strictly_inside_unit_interval():
    vocab = tiny_vocab()
    clf = TextCnnClassifier.create(np.random.default_rng(2), len(vocab), 8, (1, 2), 4)
    clf.head_b.data[...] = 1e9  # absurd logit still stays strictly below 1
    batch = batch_of(["the food was great"], vocab)
    with no_grad():
        p = clf.prob(batch)
    assert 0.0 < p.data[0] < 1.0


def test_discriminate_sequence_too_short():
    vocab = tiny_vocab()
    clf = TextCnnClassifier.create(np.random.default_rng(3), len(vocab), 8, (2, 5), 2)
    batch = batch_of(["the food"], vocab, max_len=3)
    with pytest.raises(SequenceTooShortError):
        with no_grad():
            clf.prob(batch)


# ---------------------------------------------------------------------------
# classifier pretraining


@pytest.fixture(scope="module")
def judge_setup():
    data = gen_synthetic(seed=11, n_source=240, n_target=240, mix=(0.0, 1.0, 0.0))
    vocab = build_vocab(data.source + data.target)
    make = lambda sents: [encode(s, vocab, 16) for s in sents]
    train_seqs = make(data.source[:200]) + make(data.target[:200])
    train_labels = [0.0] * 200 + [1.0] * 200
    held_seqs = make(data.source[200:]) + make(data.target[200:])
    held_labels = [0.0] * 40 + [1.0] * 40
    judge, fit = pretrain_style_judge(train_seqs, train_labels, held_seqs, held_labels,
                                      len(vocab), d_emb=16, seed=0)
    return judge, fit, vocab, (train_seqs, train_labels, held_seqs, held_labels)


def test_pretrained_judge_reaches_95_percent(judge_setup):
    _, fit, _, _ = judge_setup
    assert fit.heldout_accuracy >= 0.95


def test_pretrained_judge_reports_its_margin_and_training_bce(judge_setup):
    judge, fit, _, (_, _, he_s, he_l) = judge_setup
    with no_grad():
        p = judge.prob(Batch.from_seqs(he_s)).data
    assert fit.heldout_margin == float(np.abs(p - 0.5).mean())
    assert 0.0 < fit.train_bce < np.log(2)  # a converged judge is off the ln 2 plateau


def test_judge_training_bce_is_the_per_sentence_mean_of_the_last_epoch(judge_setup,
                                                                        monkeypatch):
    # lr 0 keeps the initial weights, so every batch loss is the initial
    # judge's; 400 sentences in batches of 32 end in a short batch of 16,
    # which a plain mean of batch means would over-weight
    _, _, vocab, (tr_s, tr_l, he_s, he_l) = judge_setup
    monkeypatch.setattr(model_module, "CLASSIFIER_EPOCHS", 2)
    monkeypatch.setattr(model_module, "CLASSIFIER_LR", 0.0)
    judge, fit = pretrain_style_judge(tr_s, tr_l, he_s, he_l, len(vocab), d_emb=16, seed=0)
    with no_grad():
        p = np.clip(judge.prob(Batch.from_seqs(tr_s)).data, 1e-7, 1 - 1e-7)
    y = np.asarray(tr_l)
    expected = float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())
    assert fit.train_bce == pytest.approx(expected, rel=1e-12)


def test_pretrained_judge_inverted_labels_symmetry(judge_setup):
    # a judge trained on flipped labels scores 1 - original against the
    # true labels
    judge, fit, vocab, (tr_s, tr_l, he_s, he_l) = judge_setup
    flipped, _ = pretrain_style_judge(
        tr_s, [1.0 - l for l in tr_l], he_s, [1.0 - l for l in he_l], len(vocab), 16, seed=0)
    acc_vs_true, _ = heldout_scores(flipped, he_s, he_l)
    assert abs(acc_vs_true - (1.0 - fit.heldout_accuracy)) <= 0.05


def test_pretrained_judge_is_frozen(judge_setup):
    judge, _, vocab, _ = judge_setup
    assert not any(p.requires_grad for p in judge.params().values())
    before = snapshot(judge.params())
    batch = batch_of(["sadly the soup was dreadful"], vocab, max_len=16)
    tape = Tape()
    with recording(tape):
        p = judge.prob(batch)
        # nothing upstream requires grad, so nothing may record or move
        assert not p.requires_grad
    assert len(tape) == 0
    after = snapshot(judge.params())
    assert all(np.array_equal(before[k], after[k]) for k in before)


# ---------------------------------------------------------------------------
# persistence and helpers


def test_transfer_model_checkpoint_round_trip(tmp_path):
    model, vocab = make_model(seed=12)
    path = tmp_path / "model.ckpt"
    save_params(path, model.params())
    clone = TransferModel.from_params(load_params(path))
    assert clone.d_z == model.d_z and clone.target_style.shape == model.target_style.shape
    batch = batch_of(["the food was great"], vocab)
    with no_grad():
        z1 = model.encode_content(batch)
        z2 = clone.encode_content(batch)
    assert np.array_equal(z1.data, z2.data)


def test_classifier_checkpoint_round_trip(tmp_path):
    vocab = tiny_vocab()
    clf = TextCnnClassifier.create(np.random.default_rng(5), len(vocab), 8, (2, 3), 4)
    path = tmp_path / "clf.ckpt"
    save_params(path, clf.params())
    clone = TextCnnClassifier.from_params(load_params(path))
    batch = batch_of(["the soup was bland"], vocab)
    with no_grad():
        assert np.array_equal(clf.prob(batch).data, clone.prob(batch).data)
    assert not any(p.requires_grad for p in clone.params().values())


GRU_NAMES = ["w_update", "u_update", "b_update", "w_reset", "u_reset", "b_reset",
             "w_cand", "u_cand", "b_cand"]


def test_checkpoint_names_are_pinned(tmp_path):
    # a rename or reorder here breaks every checkpoint already written
    model, vocab = make_model()
    assert list(model.params()) == (
        ["embedding"] + [f"enc.{n}" for n in GRU_NAMES] + ["style.embedding"]
        + [f"style.conv{w}.{part}" for w in (1, 2, 3, 4, 5) for part in ("weight", "bias")]
        + ["target_style"] + [f"gen.{n}" for n in GRU_NAMES] + ["out.weight", "out.bias"])
    clf = TextCnnClassifier.create(np.random.default_rng(0), len(vocab), 8, CLASSIFIER_WIDTHS, 4)
    path = tmp_path / "clf.ckpt"
    save_params(path, clf.params())
    assert list(load_params(path)) == (
        ["clf.cnn.embedding"]
        + [f"clf.cnn.conv{w}.{part}" for w in (2, 3, 4, 5) for part in ("weight", "bias")]
        + ["clf.head.weight", "clf.head.bias"])


def test_transfer_sentences_preserves_order_and_count():
    model, vocab = make_model(seed=13)
    sentences = ["the food was great", "we came here", "the soup was bland"]
    out = transfer_sentences(model, vocab, sentences, pad_len=8)
    assert len(out) == 3
    again = transfer_sentences(model, vocab, sentences, pad_len=8)
    assert out == again


def test_classify_texts_handles_empty_strings():
    vocab = tiny_vocab()
    clf = TextCnnClassifier.create(np.random.default_rng(6), len(vocab), 8, (1, 2), 2)
    preds = classify_texts(clf, vocab, ["the food was great", ""], pad_len=8)
    assert preds.shape == (2,)
    assert set(np.unique(preds)) <= {0.0, 1.0}
