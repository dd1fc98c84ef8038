import numpy as np
import pytest

from styletx.corpus import Dataset, SpecError, build_vocab, encode, gen_synthetic, three_way_split
from styletx.evaluation import (
    ContaminationError,
    EvalReport,
    binary_style_data,
    check_disjoint,
    prepare_experiment,
    split_corpus,
    train_part_classifier,
    transfer_accuracy,
    write_sample_dump,
)
from styletx import model as model_module
from styletx.model import TextCnnClassifier, TransferModel, pretrain_style_judge
from styletx.training import desk_config


# ---------------------------------------------------------------------------
# report arithmetic and serialization


def test_report_mean_std_recompute():
    report = EvalReport(accuracies=[0.8, 0.9, 1.0], seeds=[0, 1, 2])
    assert report.mean == pytest.approx(0.9)
    assert report.std == pytest.approx(np.std([0.8, 0.9, 1.0]))
    assert report.n_runs == 3


def test_report_single_run_std_zero():
    assert EvalReport(accuracies=[0.77], seeds=[5]).std == 0.0


def test_report_identical_seeds_std_zero():
    # determinism consequence: identical seeds means identical accuracies
    report = EvalReport(accuracies=[0.9, 0.9, 0.9], seeds=[3, 3, 3])
    assert report.std == 0.0


def test_report_csv_round_trip(tmp_path):
    report = EvalReport(accuracies=[0.75, 0.85], seeds=[10, 11],
                        config_fingerprint="abc123", failed_runs=[(2, 12)],
                        warning="evaluator weak", by_style={"a": 1.0, "b": 0.7})
    path = tmp_path / "report.csv"
    report.to_csv(path)
    assert path.read_text().splitlines() == [
        "# warning: evaluator weak",
        "# config: abc123",
        "# style a: 1.0",
        "# style b: 0.7",
        "run,seed,accuracy",
        "0,10,0.75",
        "1,11,0.85",
        "2,12,failed",
        "mean,,0.8",
        "std,,0.04999999999999999",
    ]


def test_sample_dump_format(tmp_path):
    path = tmp_path / "samples.tsv"
    write_sample_dump(path, [("a b", "c d"), ("e", "f")])
    assert path.read_text() == "a b\tc d\ne\tf\n"


# ---------------------------------------------------------------------------
# split hygiene


def test_check_disjoint_passes_on_disjoint_sets():
    check_disjoint(["a", "b"], [["c"], ["d", "e"]])


def test_check_disjoint_raises_on_overlap():
    with pytest.raises(ContaminationError, match="shared"):
        check_disjoint(["a", "b"], [["b", "c"]])


@pytest.mark.parametrize("k,other", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_part_classifier_rejects_a_sentence_shared_with_another_part(k, other):
    data = gen_synthetic(seed=40, n_source=60, n_target=60, mix=(0.0, 1.0, 0.0))
    vocab, src_parts, tgt_parts = split_corpus(data.source, None, data.target, 0, 1)
    tgt_parts[k].val.sentences.append(tgt_parts[other].train.sentences[0])
    with pytest.raises(ContaminationError, match="1 sentences shared"):
        train_part_classifier(src_parts, tgt_parts, k, vocab, desk_config(pad_len=14), 0)


def test_prepare_experiment_rejects_judge_part_sharing_a_sentence():
    # the repeated line lands in the transfer part and in the judge's part,
    # so the judge would be trained on a sentence the transfer model sees
    data = gen_synthetic(0, 400, 400, (0.3, 0.7, 0))
    source = data.source + data.source[:1]
    labels = data.source_styles + data.source_styles[:1]
    with pytest.raises(ContaminationError, match="1 sentences shared"):
        prepare_experiment(source, labels, data.target, desk_config(seed=0))


def test_binary_style_data_uses_ground_truth_when_present():
    source = Dataset(["x", "y", "z"], labels=["a", "b", "a"])
    target = Dataset(["t1", "t2"])
    sentences, labels = binary_style_data(source, target)
    assert sentences == ["x", "y", "z", "t1", "t2"]
    assert labels == [1.0, 0.0, 1.0, 1.0, 1.0]
    _, domain_labels = binary_style_data(Dataset(source.sentences), target)
    assert domain_labels == [0.0, 0.0, 0.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# classifiers on real splits


@pytest.fixture(scope="module")
def eval_world():
    data = gen_synthetic(seed=41, n_source=900, n_target=900, mix=(0.3, 0.7, 0.0))
    vocab = build_vocab(data.source + data.target)
    src_parts = three_way_split(data.source, 1, labels=data.source_styles)
    tgt_parts = three_way_split(data.target, 2)
    clf, fit = train_part_classifier(src_parts, tgt_parts, 2, vocab,
                                     desk_config(d_emb=24, pad_len=16), 3)
    return data, vocab, src_parts, tgt_parts, clf, fit.heldout_accuracy


def test_eval_classifier_quality(eval_world):
    _, _, _, _, _, acc = eval_world
    assert acc >= 0.95


def test_identity_transfer_upper_reference(eval_world):
    # scoring true target-domain sentences is the ceiling for any transfer
    data, vocab, _, tgt_parts, clf, _ = eval_world
    from styletx.model import classify_texts
    hits = classify_texts(clf, vocab, tgt_parts[0].test.sentences, 16)
    assert hits.mean() >= 0.95


def test_shuffled_labels_give_chance_accuracy(monkeypatch):
    # balanced corpus (pure anti-style source) so chance really is one half
    data = gen_synthetic(seed=42, n_source=500, n_target=500, mix=(0.0, 1.0, 0.0))
    vocab = build_vocab(data.source + data.target)
    rng = np.random.default_rng(0)
    enc = lambda ss: [encode(s, vocab, 16) for s in ss]
    sents = data.source[:400] + data.target[:400]
    labels = [0.0] * 400 + [1.0] * 400
    rng.shuffle(labels)
    held_sents = data.source[400:] + data.target[400:]
    held_labels = [0.0] * 100 + [1.0] * 100
    monkeypatch.setattr(model_module, "CLASSIFIER_EPOCHS", 8)
    _, fit = pretrain_style_judge(enc(sents), labels, enc(held_sents), held_labels,
                                  len(vocab), d_emb=24, seed=1)
    assert abs(fit.heldout_accuracy - 0.5) <= 0.1


def test_transfer_accuracy_contract(eval_world):
    data, vocab, src_parts, _, clf, acc = eval_world
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 16, 24, 10)
    sentences = src_parts[0].test.sentences[:40]
    styles = src_parts[0].test.labels[:40]
    score = transfer_accuracy(model, vocab, clf, vocab, sentences, 16,
                              true_styles=styles, clf_heldout_acc=acc)
    assert 0.0 <= score.accuracy <= 1.0
    assert set(score.by_style) == set(styles)
    assert len(score.transferred) == 40
    assert score.warning is None
    # order invariance
    perm = np.random.default_rng(1).permutation(40)
    score2 = transfer_accuracy(model, vocab, clf, vocab, [sentences[i] for i in perm],
                               16, clf_heldout_acc=acc)
    assert score2.accuracy == pytest.approx(score.accuracy)


def test_transfer_accuracy_empty_test_set(eval_world):
    data, vocab, _, _, clf, _ = eval_world
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 16, 24, 10)
    with pytest.raises(SpecError):
        transfer_accuracy(model, vocab, clf, vocab, [], 16)


def test_degenerate_always_target_evaluator_flags_warning(eval_world):
    data, vocab, src_parts, _, _, _ = eval_world
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 16, 24, 10)
    stuck = TextCnnClassifier.create(np.random.default_rng(2), len(vocab), 16, (1, 2), 2)
    stuck.head_b.data[...] = 1e9  # answers "target" for everything
    stuck.freeze()
    score = transfer_accuracy(model, vocab, stuck, vocab,
                              src_parts[0].test.sentences[:20], 16,
                              clf_heldout_acc=0.5)
    assert score.accuracy == 1.0
    assert score.warning is not None and "below" in score.warning
