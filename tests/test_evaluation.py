import numpy as np
import pytest

from styletx.corpus import Dataset, SpecError, build_vocab, encode, gen_synthetic, three_way_split
from styletx.evaluation import (
    ContaminationError,
    EvalReport,
    TransferScore,
    binary_style_data,
    check_disjoint,
    diverged,
    prepare_experiment,
)
from styletx import evaluation as evaluation_module
from styletx import model as model_module
from styletx.model import Batch, TextCnnClassifier, TransferModel, pretrain_style_judge, score_transfers
from styletx.training import (
    SEED_EVAL_CLF,
    SEED_SPLIT_SOURCE,
    SEED_SPLIT_TARGET,
    TrainResult,
    desk_config,
    rng_for,
)


# ---------------------------------------------------------------------------
# report arithmetic and serialization


def scored(seeds, accuracies, by_style=None) -> list:
    """(seed, TransferScore) runs with the given accuracies."""
    return [(seed, TransferScore(acc, dict(by_style or {}), []))
            for seed, acc in zip(seeds, accuracies)]


def test_report_mean_std_recompute():
    report = EvalReport(scored([0, 1, 2], [0.8, 0.9, 1.0]), "", 1.0)
    assert report.mean == pytest.approx(0.9)
    assert report.std == pytest.approx(np.std([0.8, 0.9, 1.0]))
    assert report.n_runs == 3


def test_report_single_run_std_zero():
    assert EvalReport(scored([5], [0.77]), "", 1.0).std == 0.0


def test_report_identical_seeds_std_zero():
    # determinism consequence: identical seeds means identical accuracies
    report = EvalReport(scored([3, 3, 3], [0.9, 0.9, 0.9]), "", 1.0)
    assert report.std == 0.0


def test_report_csv_round_trip(tmp_path):
    runs = scored([10, 11], [0.75, 0.85], by_style={"a": 1.0, "b": 0.7}) + [(12, None)]
    report = EvalReport(runs, "abc123", 0.5)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    assert path.read_text().splitlines() == [
        "# warning: evaluation classifier held-out accuracy 0.500 is below the 0.8 trust gate",
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


def report_rows(report, tmp_path) -> list:
    """The run,seed,accuracy rows of the report's CSV."""
    report.to_csv(tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    return lines[lines.index("run,seed,accuracy") + 1:-2]


def test_report_aggregates_the_scored_runs(tmp_path):
    # `train`'s model and every run of `evaluate` are reported through this
    # one report: a diverged run (None) is recorded, not averaged, and the
    # trust gate is decided once, from the evaluation classifier's accuracy;
    # each row keeps its own run index, so the failed middle run shifts none
    runs = [(4, TransferScore(0.5, {"a": 0.25, "b": 1.0}, [])),
            (5, None),
            (6, TransferScore(1.0, {"a": 0.75, "b": 1.0}, []))]
    report = EvalReport(runs, "abc123", 0.5)
    assert (report.accuracies, report.n_runs) == ([0.5, 1.0], 2)
    assert report_rows(report, tmp_path) == ["0,4,0.5", "1,5,failed", "2,6,1.0"]
    assert report.by_style == {"a": 0.5, "b": 1.0}
    assert report.warning == ("evaluation classifier held-out accuracy 0.500 is below the "
                              "0.8 trust gate")
    assert report.scores == [runs[0][1], runs[2][1]]
    assert EvalReport(runs, "abc123", 0.8).warning is None
    empty = EvalReport([(4, None)], "abc123", 1.0)
    assert (empty.accuracies, empty.by_style) == ([], {})
    assert report_rows(empty, tmp_path) == ["0,4,failed"]


@pytest.mark.parametrize("skipped,best_val,expected", [
    (11, 1.0, True), (10, float("inf"), True), (10, float("nan"), True), (10, 1.0, False)])
def test_diverged_is_the_one_divergence_verdict(skipped, best_val, expected):
    # `train` refuses, and `evaluate` records as failed, exactly these runs
    result = TrainResult(model=None, params={}, metrics=[], best_val=best_val, best_epoch=0,
                         skipped_steps=skipped)
    assert diverged(result) is expected


# ---------------------------------------------------------------------------
# split hygiene


def test_check_disjoint_passes_on_disjoint_sets():
    check_disjoint([["a", "b"], ["c"], ["d", "e"]])


def test_check_disjoint_raises_on_overlap():
    with pytest.raises(ContaminationError, match="shared"):
        check_disjoint([["a", "b"], ["c"], ["b", "d"]])


def share_one_sentence(sentences: list, offset: int, part: int, other: int) -> list:
    """The sentences with one of the given part's validation sentences
    replaced by a sentence of the other part: the split, seeded
    rng_for(0, offset), depends only on the sentence count, so the copy
    lands in both parts."""
    where = three_way_split([str(i) for i in range(len(sentences))], rng_for(0, offset))
    out = list(sentences)
    out[int(where[part].val.sentences[0])] = out[int(where[other].train.sentences[0])]
    return out


@pytest.fixture
def classifier_calls(monkeypatch) -> list:
    """One entry per classifier that prepare_experiment trains."""
    calls = []

    def counted(*args):
        calls.append(args)
        return pretrain_style_judge(*args)

    monkeypatch.setattr(evaluation_module, "pretrain_style_judge", counted)
    return calls


@pytest.mark.parametrize("k,other", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_part_classifier_rejects_a_sentence_shared_with_another_part(k, other, classifier_calls):
    data = gen_synthetic(seed=40, n_source=60, n_target=60, mix=(0.0, 1.0, 0.0))
    target = share_one_sentence(data.target, SEED_SPLIT_TARGET, k, other)
    with pytest.raises(ContaminationError, match="1 sentences shared"):
        prepare_experiment(data.source, None, target, desk_config(seed=0, pad_len=14))
    assert len(classifier_calls) == 0


def test_prepare_experiment_refuses_a_shared_sentence_before_any_classifier_trains(
        classifier_calls):
    # a sentence in the transfer part and the evaluation classifier's part is
    # refused before the judge trains, not after
    data = gen_synthetic(0, 400, 400, (0.3, 0.7, 0))
    source = share_one_sentence(data.source, SEED_SPLIT_SOURCE, 2, 0)
    with pytest.raises(ContaminationError, match="1 sentences shared"):
        prepare_experiment(source, data.source_styles, data.target, desk_config(seed=0))
    assert len(classifier_calls) == 0
    setup = prepare_experiment(data.source, data.source_styles, data.target,
                               desk_config(d_emb=8, d_maps=2))
    assert len(classifier_calls) == 2 and setup.judge is not setup.eval_clf


def test_prepare_experiment_rejects_judge_part_sharing_a_sentence():
    # the repeated line lands in the transfer part and in the judge's part,
    # so the judge would be trained on a sentence the transfer model sees
    data = gen_synthetic(0, 400, 400, (0.3, 0.7, 0))
    source = data.source + data.source[:1]
    labels = data.source_styles + data.source_styles[:1]
    with pytest.raises(ContaminationError, match="1 sentences shared"):
        prepare_experiment(source, labels, data.target, desk_config(seed=0))


def test_prepare_experiment_keeps_one_vocabulary():
    data = gen_synthetic(0, 200, 200, (0.3, 0.7, 0.0))
    setup = prepare_experiment(data.source, data.source_styles, data.target,
                               desk_config(d_emb=8, d_maps=2, batch_size=16))
    assert setup.vocab is setup.corpora.vocab


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
    src_parts = three_way_split(data.source, np.random.default_rng(1), labels=data.source_styles)
    tgt_parts = three_way_split(data.target, np.random.default_rng(2))
    # the evaluation classifier as prepare_experiment trains it, on part 2
    enc = lambda sents: Batch(*encode(sents, vocab, 16))
    train_sents, train_labels = binary_style_data(src_parts[2].train, tgt_parts[2].train)
    held_sents, held_labels = binary_style_data(src_parts[2].test, tgt_parts[2].test)
    clf, fit = pretrain_style_judge(enc(train_sents), train_labels, enc(held_sents), held_labels,
                                    len(vocab), 24, rng_for(3, SEED_EVAL_CLF))
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
    enc = lambda sents: Batch(*encode(sents, vocab, 16))
    sents = data.source[:400] + data.target[:400]
    labels = [0.0] * 400 + [1.0] * 400
    rng.shuffle(labels)
    held_sents = data.source[400:] + data.target[400:]
    held_labels = [0.0] * 100 + [1.0] * 100
    monkeypatch.setattr(model_module, "CLASSIFIER_EPOCHS", 8)
    _, fit = pretrain_style_judge(enc(sents), labels, enc(held_sents), held_labels,
                                  len(vocab), 24, np.random.default_rng(1))
    assert abs(fit.heldout_accuracy - 0.5) <= 0.1


def test_score_transfers_contract(eval_world):
    data, vocab, src_parts, _, clf, acc = eval_world
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 16, 24, 10)
    sentences = src_parts[0].test.sentences[:40]
    styles = src_parts[0].test.labels[:40]
    score = score_transfers(model, vocab, clf, Dataset(sentences, styles), 16)
    assert 0.0 <= score.accuracy <= 1.0
    assert set(score.by_style) == set(styles)
    assert len(score.transferred) == 40
    assert EvalReport([(0, score)], desk_config().fingerprint(), acc).warning is None
    # order invariance
    perm = np.random.default_rng(1).permutation(40)
    score2 = score_transfers(model, vocab, clf, Dataset([sentences[i] for i in perm]), 16)
    assert score2.accuracy == pytest.approx(score.accuracy)


def test_score_transfers_refuses_an_empty_part(eval_world):
    data, vocab, _, _, clf, _ = eval_world
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 16, 24, 10)
    with pytest.raises(SpecError):
        score_transfers(model, vocab, clf, Dataset([]), 16)


def test_degenerate_always_target_evaluator_flags_warning(eval_world):
    data, vocab, src_parts, _, _, _ = eval_world
    model = TransferModel.create(np.random.default_rng(0), len(vocab), 16, 24, 10)
    stuck = TextCnnClassifier.create(np.random.default_rng(2), len(vocab), 16, (1, 2), 2)
    stuck.head_b.data[...] = 1e9  # answers "target" for everything
    stuck.freeze()
    score = score_transfers(model, vocab, stuck, Dataset(src_parts[0].test.sentences[:20]), 16)
    assert score.accuracy == 1.0
    warning = EvalReport([(0, score)], desk_config().fingerprint(), 0.5).warning
    assert warning is not None and "below" in warning
