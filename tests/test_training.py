import re
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from styletx import autodiff as ad
from styletx import losses as losses_mod
from styletx import training as training_mod
from styletx.autodiff import Tensor
from styletx.checkpoint import save_params
from styletx.corpus import CorpusPart, Dataset, SpecError, build_vocab, gen_synthetic
from styletx.evaluation import prepare_experiment
from styletx.losses import TEMPERATURE, LossBreakdown, LossWeights
from styletx.model import Batch, TextCnnClassifier, TransferModel, score_transfers, snapshot
from styletx.optim import AdamState, adam_step, clip_global_norm
from styletx.training import (
    ConfigError,
    TrainConfig,
    TransferCorpora,
    desk_config,
    metrics_to_csv,
    train,
    train_step_discriminator,
    train_step_generator,
)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_fixed_point():
    p = Tensor([1.0, -2.0], requires_grad=True)
    adam_step({"p": p}, {"p": np.zeros(2)}, AdamState(), lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude_is_learning_rate():
    # closed form at t=1: m_hat = g, v_hat = g^2, update = lr * g/(|g|+eps)
    p = Tensor(0.0, requires_grad=True)
    adam_step({"p": p}, {"p": np.asarray(1.0)}, AdamState(), lr=1e-3)
    assert float(p.data) == pytest.approx(-1e-3, rel=1e-6)


def test_adam_state_evolves_across_identical_calls():
    p = Tensor(0.0, requires_grad=True)
    state = AdamState()
    adam_step({"p": p}, {"p": np.asarray(1.0)}, state, lr=1e-3)
    m1, v1, t1 = state.m["p"].copy(), state.v["p"].copy(), state.step_count
    adam_step({"p": p}, {"p": np.asarray(1.0)}, state, lr=1e-3)
    assert state.step_count == t1 + 1 == 2
    assert state.m["p"] != m1 and state.v["p"] != v1


def test_clip_global_norm():
    grads = {"p": np.array([3.0, 0.0]), "q": np.array([4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(grads["p"], [0.6, 0.0]) and np.allclose(grads["q"], [0.8])
    # already small norms stay untouched
    norm2 = clip_global_norm(grads, 10.0)
    assert norm2 == pytest.approx(1.0)
    assert np.allclose(grads["q"], [0.8])


# ---------------------------------------------------------------------------
# TrainConfig


def test_config_reference_defaults():
    cfg = TrainConfig()
    assert cfg.dropout == 0.5
    assert cfg.lr == 1e-4
    assert cfg.weights() == LossWeights(1.0, 1.0, 5.0)
    assert cfg.pad_len == 20
    assert (cfg.d_emb, cfg.d_z, cfg.d_y) == (200, 1000, 500)
    assert len(fields(TrainConfig)) == 13


def test_config_file_round_trip(tmp_path):
    cfg = desk_config(seed=7, epochs=3, lambda_dis=2.5)
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    assert TrainConfig.from_file(path) == cfg


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lr=0.001\nwarp_speed=9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        TrainConfig.from_file(path)


def test_config_file_refuses_a_repeated_key(tmp_path):
    # a later line must not silently win over an earlier one
    path = tmp_path / "twice.cfg"
    path.write_text("lr=1e-3\nepochs=2\nlr=5e-2\n")
    with pytest.raises(ConfigError, match="'lr' given twice, on lines 1 and 3"):
        TrainConfig.from_file(path)


def test_config_file_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs=three\n")
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig.from_file(path)


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "part.cfg"
    path.write_text("# only one key\nlr=0.5\n")
    assert TrainConfig.from_file(path) == replace(TrainConfig(), lr=0.5)
    # a module constant is not a config key: naming one is refused, not ignored
    path.write_text("lr=0.5\ntemperature=0.5\n")
    with pytest.raises(ConfigError, match="temperature"):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("key,value", [("d_z", 0), ("pad_len", 4), ("seed", -1), ("min_count", 0),
                                       ("dropout", -0.1), ("lr", float("nan")),
                                       ("lambda_cyc", float("inf")), ("lambda_dis", -0.5),
                                       ("d_y", 22)])
def test_config_refuses_out_of_range_values(tmp_path, key, value):
    with pytest.raises(ConfigError, match=f"^{key}="):
        TrainConfig(**{key: value})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ConfigError, match=f"bad.cfg: {key}="):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("key,value", [("pad_len", 14.5), ("d_emb", True), ("epochs", "3"),
                                       ("lr", None), ("dropout", "0.1")])
def test_config_refuses_values_of_another_type(key, value):
    with pytest.raises(ConfigError, match=f"^{key}=.* is not of type"):
        TrainConfig(**{key: value})


def test_config_takes_any_integral_or_real_number():
    cfg = TrainConfig(lr=1, pad_len=np.int64(14), dropout=np.float64(0.25))
    assert (cfg.lr, cfg.pad_len, cfg.dropout) == (1, 14, 0.25)


def test_config_accepts_the_range_edges():
    TrainConfig(pad_len=5, seed=0, min_count=1, dropout=0.0, lr=0.0,
                lambda_cyc=0.0, lambda_dis=0.0)


def test_config_fingerprint_tracks_content():
    assert desk_config().fingerprint() != desk_config(seed=1).fingerprint()
    assert desk_config().fingerprint() == desk_config().fingerprint()


# ---------------------------------------------------------------------------
# single steps: arm isolation


@pytest.fixture()
def step_setup():
    data = gen_synthetic(seed=21, n_source=64, n_target=64, mix=(0.3, 0.7, 0.0))
    vocab = build_vocab(data.source + data.target)
    cfg = desk_config(seed=0, batch_size=16, pad_len=14, dropout=0.0)
    rng = np.random.default_rng(0)
    model = TransferModel.create(rng, len(vocab), cfg.d_emb, cfg.d_z, cfg.d_y)
    d_clf = TextCnnClassifier.create(rng, len(vocab), cfg.d_emb, (1, 2, 3, 4, 5), cfg.d_maps)
    judge = TextCnnClassifier.create(rng, len(vocab), cfg.d_emb, (2, 3, 4, 5), 4)
    judge.freeze()
    batch_s = Batch.from_sentences(data.source[:16], vocab, cfg.pad_len, "source")
    batch_t = Batch.from_sentences(data.target[:16], vocab, cfg.pad_len, "target")
    return cfg, model, d_clf, judge, batch_s, batch_t


def test_discriminator_step_moves_only_discriminator(step_setup):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    g_before = snapshot(model.params())
    j_before = snapshot(judge.params())
    d_before = snapshot(d_clf.params("d"))
    adv = train_step_discriminator(model, d_clf, batch_s, batch_t,
                                   d_clf.params("d"), AdamState(), cfg)
    assert np.isfinite(adv)
    assert all(np.array_equal(g_before[k], v.data) for k, v in model.params().items())
    assert all(np.array_equal(j_before[k], v.data) for k, v in judge.params().items())
    assert any(not np.array_equal(d_before[k], v.data) for k, v in d_clf.params("d").items())


def test_discriminator_step_returns_the_adversarial_loss(step_setup):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    # the step's own recipe: fakes and reals generated without dropout
    with ad.no_grad():
        joint = Batch.join(batch_s, batch_t)
        soft = model.generate_soft(model.encode_content(joint), model.target_style,
                                   joint.max_len, TEMPERATURE)
        expected = losses_mod.adversarial_term(d_clf, soft, len(batch_s),
                                               len(batch_t)).item()
    got = train_step_discriminator(model, d_clf, batch_s, batch_t,
                                   d_clf.params("d"), AdamState(), cfg)
    assert got == expected


def test_generator_step_moves_only_generator_arm(step_setup):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    d_before = snapshot(d_clf.params("d"))
    j_before = snapshot(judge.params())
    g_before = snapshot(model.params())
    br = train_step_generator(model, d_clf, judge, batch_s, batch_t,
                              model.params(), AdamState(), cfg, cfg.weights(),
                              draw_rng=np.random.default_rng(0))
    assert br is not None and br.finite
    assert all(np.array_equal(d_before[k], v.data) for k, v in d_clf.params("d").items())
    assert all(np.array_equal(j_before[k], v.data) for k, v in judge.params().items())
    moved = [k for k, v in model.params().items() if not np.array_equal(g_before[k], v.data)]
    groups = model.param_groups()
    for group in groups.values():
        assert any(k in moved for p_name in [None] for k in group)


def test_zero_learning_rate_changes_nothing(step_setup):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    cfg = type(cfg)(**{**cfg.__dict__, "lr": 0.0})
    before = snapshot({**model.params(), **d_clf.params("d")})
    train_step_discriminator(model, d_clf, batch_s, batch_t, d_clf.params("d"), AdamState(), cfg)
    train_step_generator(model, d_clf, judge, batch_s, batch_t, model.params(),
                         AdamState(), cfg, cfg.weights(), draw_rng=np.random.default_rng(0))
    after = snapshot({**model.params(), **d_clf.params("d")})
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_repeated_discriminator_steps_drive_adversarial_loss_down(step_setup):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    state = AdamState()
    values = [train_step_discriminator(model, d_clf, batch_s, batch_t,
                                       d_clf.params("d"), state, cfg)
              for _ in range(30)]
    assert np.mean(values[-10:]) < np.mean(values[:10])


def test_divergence_guard_skips_step(step_setup, monkeypatch):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup

    def poisoned(*args, **kwargs):
        bad = LossBreakdown(rec=float("nan"), adv=0.0, dis=0.0, cyc=0.0, total=float("nan"))
        return Tensor(float("nan")), bad

    monkeypatch.setattr(training_mod, "compute_breakdown", poisoned)
    before = snapshot(model.params())
    br = train_step_generator(model, d_clf, judge, batch_s, batch_t, model.params(),
                              AdamState(), cfg, cfg.weights(),
                              draw_rng=np.random.default_rng(0))
    assert br is None
    assert all(np.array_equal(before[k], v.data) for k, v in model.params().items())


def test_pure_autoencoder_objective_learns(step_setup):
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    weights = LossWeights(0.0, 0.0, 0.0)
    state = AdamState()
    first = last = None
    for _ in range(120):
        br = train_step_generator(model, d_clf, judge, batch_s, batch_t,
                                  model.params(), state, cfg, weights)
        first = first if first is not None else br.rec
        last = br.rec
    assert last < 0.3 * first


def test_steps_of_a_default_built_model_record_no_float64_activation(step_setup, monkeypatch):
    # models are built in float32 and every activation follows, the loss
    # algebra's constants included: a float64 constant anywhere fails here
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    cfg = replace(cfg, dropout=0.1)
    recorded = []
    sweep = ad.backward

    def checking_backward(loss, tape, params):   # the sweep releases the ops it visits
        recorded.append([op.out for op in tape.ops])
        return sweep(loss, tape, params)

    monkeypatch.setattr(ad, "backward", checking_backward)
    params = {**model.params(), **d_clf.params("d"), **judge.params()}
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
    rng = np.random.default_rng(1)
    train_step_discriminator(model, d_clf, batch_s, batch_t, d_clf.params("d"),
                             AdamState(), cfg, rng)
    train_step_generator(model, d_clf, judge, batch_s, batch_t, model.params(), AdamState(),
                         cfg, cfg.weights(), rng, np.random.default_rng(2))
    assert len(recorded) == 2 and all(recorded)
    promoted = [out.shape for ops in recorded for out in ops if out.data.dtype == np.float64]
    assert promoted == []
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}


def test_a_float32_g_step_carries_no_float64_array(step_setup):
    # no tape output, no gradient of the backward sweep and no parameter
    # gradient of a float32 G step is float64
    cfg, model, d_clf, judge, batch_s, batch_t = step_setup
    params = {**model.params(), **d_clf.params("d")}
    tape = ad.Tape()
    with ad.recording(tape):
        total, _ = losses_mod.compute_breakdown(
            model, d_clf, judge, batch_s, batch_t, cfg.weights(), dropout_p=0.1,
            dropout_rng=np.random.default_rng(1), draw_rng=np.random.default_rng(2))
    swept = []

    def keeping_grads(bwd):
        def wrapped(g):
            grads = bwd(g)
            swept.extend(a for a in (g, *grads) if a is not None)
            return grads
        return wrapped

    for op in tape.ops:
        op.backward = keeping_grads(op.backward)
    # the sweep releases the ops it visits, so their outputs are read before it
    assert [op.out.shape for op in tape.ops if op.out.data.dtype != np.float32] == []
    grads = ad.backward(total, tape, params)
    assert len(tape) > 100 and len(swept) > 100
    assert [a.shape for a in swept if a.dtype != np.float32] == []
    assert [name for name, g in grads.items() if g.dtype != np.float32] == []


def test_step_tape_op_counts_do_not_grow(monkeypatch):
    # each step clears its tape once; the counts are deterministic, so a
    # change that records more ops per step fails here, and so does a sweep
    # that shortens the tape it releases. The ops are also counted per
    # primitive before the sweep releases them, so swapping one op for
    # another at the same total fails too, and names the primitive that moved.
    from test_acceptance import tiny_world

    recorded, by_primitive = [], []
    clear, backward = ad.Tape.clear, ad.backward

    def counting_clear(tape):
        recorded.append(len(tape))
        clear(tape)

    def counting_backward(loss, tape, params):
        by_primitive.append(Counter(op.backward.__qualname__.split(".")[0] for op in tape.ops))
        return backward(loss, tape, params)

    monkeypatch.setattr(ad.Tape, "clear", counting_clear)
    monkeypatch.setattr(ad, "backward", counting_backward)
    model, d_clf, judge, batch_s, batch_t = tiny_world()
    cfg = desk_config(seed=0, batch_size=2, pad_len=8, dropout=0.1,
                      d_emb=6, d_z=8, d_y=5, d_maps=2)
    rng = np.random.default_rng(1)
    train_step_discriminator(model, d_clf, batch_s, batch_t, d_clf.params("d"),
                             AdamState(), cfg, rng)
    train_step_generator(model, d_clf, judge, batch_s, batch_t, model.params(), AdamState(),
                         cfg, cfg.weights(), rng, np.random.default_rng(2))
    d_ops, g_ops = recorded
    assert d_ops == 18 and g_ops == 145
    d_counts, g_counts = by_primitive
    assert dict(d_counts) == {
        "add": 3, "clip": 2, "log": 1, "matmul": 2, "mul": 3, "neg": 1, "reshape": 2,
        "sigmoid": 1, "sum_": 2, "text_cnn": 1}
    assert dict(g_counts) == {
        "add": 17, "broadcast_to": 3, "clip": 4, "concat": 8, "gru_sequence": 12, "log": 3,
        "matmul": 20, "mul": 27, "neg": 3, "reshape": 12, "sigmoid": 1, "softmax": 10,
        "sub": 2, "sum_": 10, "take_along_last": 2, "take_rows": 9, "text_cnn": 2}


# ---------------------------------------------------------------------------
# full runs


def one_part(sentences, seed):
    """Every sentence in one shuffled part, split 70/15/15."""
    shuffled = [sentences[i] for i in np.random.default_rng(seed).permutation(len(sentences))]
    n_train = 7 * len(shuffled) // 10
    n_test = (len(shuffled) - n_train) // 2
    return CorpusPart(train=Dataset(shuffled[:n_train]),
                      test=Dataset(shuffled[n_train:n_train + n_test]),
                      val=Dataset(shuffled[n_train + n_test:]))


def small_corpora(n=120, seed=31):
    data = gen_synthetic(seed=seed, n_source=n, n_target=n, mix=(0.3, 0.7, 0.0))
    vocab = build_vocab(data.source + data.target)
    return TransferCorpora(vocab=vocab, source=one_part(data.source, 0),
                           target=one_part(data.target, 1))


def judge_for(corpora, cfg):
    rng = np.random.default_rng(9)
    judge = TextCnnClassifier.create(rng, len(corpora.vocab), cfg.d_emb, (2, 3), 4)
    judge.freeze()
    return judge


def test_train_rejects_tiny_corpus():
    corpora = small_corpora(n=40)
    cfg = desk_config(batch_size=64, epochs=1)
    with pytest.raises(SpecError, match="batch size"):
        train(cfg, corpora, judge_for(corpora, cfg))


@pytest.mark.parametrize("side", ["source", "target"])
def test_train_refuses_an_empty_validation_split(side):
    # no validation chunk would leave val_total 0.0 in every epoch, and
    # selection would keep epoch 0 without a word
    corpora = small_corpora()
    corpora = replace(corpora, **{side: replace(getattr(corpora, side), val=Dataset([]))})
    sizes = f"({len(corpora.source.val)} source / {len(corpora.target.val)} target)"
    cfg = desk_config(batch_size=32, epochs=1, pad_len=14)
    with pytest.raises(SpecError, match=re.escape(f"validation split {sizes}")):
        train(cfg, corpora, judge_for(corpora, cfg))


def test_train_run_is_deterministic(tmp_path):
    corpora = small_corpora()
    cfg = desk_config(seed=3, epochs=2, batch_size=32, pad_len=14)
    judge = judge_for(corpora, cfg)
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"run_{tag}.ckpt"
        log = tmp_path / f"run_{tag}.csv"
        result = train(cfg, corpora, judge)
        save_params(ckpt, result.params)
        metrics_to_csv(result.metrics, log)
        outputs.append((ckpt.read_bytes(), log.read_bytes(), result.best_val))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]


def test_train_metrics_identity_and_checkpoint(tmp_path):
    # train writes nothing: it returns the best epoch's parameters, already
    # loaded into its model, for the caller to save
    corpora = small_corpora()
    cfg = desk_config(seed=5, epochs=3, batch_size=32, pad_len=14)
    judge = judge_for(corpora, cfg)
    log = tmp_path / "run.csv"
    result = train(cfg, corpora, judge)
    metrics_to_csv(result.metrics, log)
    for row in result.metrics:
        recomputed = row["rec"] - cfg.weights().lambda_adv * row["adv"] \
            + cfg.lambda_cyc * row["cyc"] + cfg.lambda_dis * row["dis"]
        assert row["total"] == pytest.approx(recomputed, abs=1e-6)
    assert result.best_val == min(r["val_total"] for r in result.metrics)
    held = result.model.params()
    assert list(held) == list(result.params)
    assert all(np.array_equal(held[k].data, result.params[k]) for k in held)
    header = log.read_text().splitlines()[0]
    assert header == "epoch,rec,adv,dis,cyc,total,val_total"
    assert list(tmp_path.iterdir()) == [log]


def test_train_csv_includes_val_acc_with_eval_classifier(tmp_path):
    corpora = small_corpora()
    cfg = desk_config(seed=6, epochs=1, batch_size=32, pad_len=14)
    judge = judge_for(corpora, cfg)
    eval_clf = judge_for(corpora, cfg)
    log = tmp_path / "log.csv"
    result = train(cfg, corpora, judge, eval_clf=eval_clf)
    metrics_to_csv(result.metrics, log)
    assert "val_acc" in result.metrics[0]
    assert log.read_text().splitlines()[0].endswith(",val_acc")


def test_val_acc_is_the_transfer_score_of_the_validation_sources():
    # one epoch, so the returned model holds that epoch's parameters
    corpora = small_corpora()
    cfg = desk_config(seed=0, epochs=1, batch_size=32, pad_len=14)
    eval_clf = TextCnnClassifier.create(np.random.default_rng(0), len(corpora.vocab), cfg.d_emb,
                                        (1, 2), 4)
    eval_clf.freeze()
    result = train(cfg, corpora, judge_for(corpora, cfg), eval_clf=eval_clf)
    assert result.best_epoch == 0
    score = score_transfers(result.model, corpora.vocab, eval_clf, corpora.source.val, cfg.pad_len)
    assert 0.0 < score.accuracy < 1.0  # a rate that can tell two scorers apart
    assert result.metrics[0]["val_acc"] == score.accuracy


def test_metrics_csv_round_trip(tmp_path):
    rows = [{"epoch": 0, "rec": 1.5, "adv": 0.5, "dis": 0.25, "cyc": 2.0,
             "total": 4.25, "val_total": 4.5}]
    path = tmp_path / "m.csv"
    metrics_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,rec,adv,dis,cyc,total,val_total"
    values = lines[1].split(",")
    assert values[0] == "0" and float(values[1]) == 1.5 and float(values[6]) == 4.5
    # a run with an evaluation classifier adds its val_acc column, last
    rows = [{**row, "epoch": e, "val_acc": 0.1 * e} for e, row in enumerate(rows * 2)]
    metrics_to_csv(rows, path)
    assert path.read_text() == ("epoch,rec,adv,dis,cyc,total,val_total,val_acc\n"
                                "0,1.5,0.5,0.25,2.0,4.25,4.5,0.0\n"
                                "1,1.5,0.5,0.25,2.0,4.25,4.5,0.1\n")


def test_loss_breakdown_mean_sums_in_row_order():
    # 1e16 + 1.0 rounds back to 1e16, so only row-order summation gives 0.0
    rows = [LossBreakdown(rec=r, adv=1.0, dis=2.0, cyc=3.0, total=4.0)
            for r in (1e16, 1.0, -1e16)]
    assert LossBreakdown.mean(rows) == LossBreakdown(rec=0.0, adv=1.0, dis=2.0, cyc=3.0,
                                                     total=4.0)
    assert LossBreakdown.mean([]) == LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)


# the per-epoch metrics of one fixed-seed run and the fits of its two
# classifiers, pinned: a change that moves
# any fixed-seed output fails here and has to update these values on purpose
GOLDEN_METRICS = [
    {"epoch": 0, "rec": 73.2465222676595, "adv": 1.3862947821617126,
     "dis": 0.011559717201938232, "cyc": 73.2463976542155, "total": 145.16442372572297,
     "val_total": 145.98350437078625, "val_acc": 0.0},
    {"epoch": 1, "rec": 73.03478240966797, "adv": 1.3862944841384888,
     "dis": 0.005644549615681171, "cyc": 73.03485107421875, "total": 144.71156174782664,
     "val_total": 145.471402451396, "val_acc": 0.0},
]

GOLDEN_JUDGE_FIT = {"heldout_accuracy": 0.875, "train_bce": 0.24055436998605728,
                    "heldout_margin": 0.2718599736690521}
GOLDEN_EVAL_FIT = {"heldout_accuracy": 0.75, "train_bce": 0.20569217205047607,
                   "heldout_margin": 0.29375964403152466}


def test_fixed_seed_run_reproduces_its_pinned_metrics():
    # the benchmark's tiny desk dimensions, run for two epochs
    cfg = desk_config(d_emb=8, d_z=12, d_y=5, d_maps=2, batch_size=16, epochs=2)
    syn = gen_synthetic(0, 200, 200, (0.3, 0.7, 0))
    setup = prepare_experiment(syn.source, syn.source_styles, syn.target, cfg)
    result = train(cfg, setup.corpora, setup.judge, setup.eval_clf)
    assert result.metrics == [pytest.approx(row, rel=1e-9) for row in GOLDEN_METRICS]
    assert (result.best_epoch, result.skipped_steps) == (1, 0)
    assert asdict(setup.judge_fit) == pytest.approx(GOLDEN_JUDGE_FIT, rel=1e-9)
    assert asdict(setup.eval_fit) == pytest.approx(GOLDEN_EVAL_FIT, rel=1e-9)
