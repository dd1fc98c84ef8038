import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from styletx import model as model_module
from styletx.checkpoint import load_params, save_params
from styletx.cli import main
from styletx.corpus import read_lines, write_lines
from styletx.evaluation import prepare_experiment
from styletx.training import TrainConfig

DESK_CFG = """\
d_emb=24
d_z=32
d_y=10
d_maps=2
dropout=0.0
lr=0.002
epochs=1
batch_size=32
pad_len=14
"""


def report_rows(path) -> dict:
    """run -> accuracy column of a written evaluation report."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return {run: value for run, _, value in (line.split(",") for line in lines[1:])}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small corpus plus trained judge/eval/model artifacts for the
    whole CLI suite."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-synth", "--out", str(data), "--seed", "3",
                 "--n-source", "400", "--n-target", "400", "--mix", "0.3,0.7,0"]) == 0
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CFG)
    common = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    assert main(["pretrain-ds", *common, "--split-seed", "0", "--config", str(cfg),
                 "--out", str(root / "ds.ckpt")]) == 0
    assert main(["train-eval-clf", *common, "--split-seed", "0", "--config", str(cfg),
                 "--out", str(root / "eval.ckpt")]) == 0
    assert main(["train", *common, "--ds", str(root / "ds.ckpt"),
                 "--config", str(cfg), "--out", str(root / "model.ckpt"),
                 "--log", str(root / "metrics.csv")]) == 0
    return root, data, cfg


def test_gen_synth_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["gen-synth", "--out", str(tmp_path / sub), "--seed", "9",
                     "--n-source", "50", "--n-target", "50", "--mix", "0,1,0"]) == 0
    for name in ("source.txt", "target.txt", "labels.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    labels = read_lines(tmp_path / "a" / "labels.txt")
    assert set(labels) == {"b"}
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "gen-synth"
    assert manifest["flags"]["seed"] == 9


def test_gen_synth_bad_mix(tmp_path):
    assert main(["gen-synth", "--out", str(tmp_path / "x"), "--mix", "0.5,0.6,0"]) == 2


def test_unknown_flag_is_usage_error(tmp_path):
    out = tmp_path / "never"
    assert main(["gen-synth", "--out", str(out), "--warp", "9"]) == 1
    assert not out.exists()  # aborted before writing anything


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_pretrain_ds_prints_parsable_accuracy(workdir, capsys, monkeypatch):
    root, data, cfg = workdir
    monkeypatch.setattr(model_module, "CLASSIFIER_EPOCHS", 2)
    capsys.readouterr()
    assert main(["pretrain-ds", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--labels", str(data / "labels.txt"),
                 "--split-seed", "1", "--config", str(cfg),
                 "--out", str(root / "ds2.ckpt")]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy=")]
    assert len(line) == 1
    assert 0.0 <= float(line[0].split("=", 1)[1]) <= 1.0
    manifest = json.loads(Path(str(root / "ds2.ckpt") + ".manifest.json").read_text())
    assert float(line[0].split("=", 1)[1]) == manifest["heldout_accuracy"]
    assert 0.0 < manifest["train_bce"] and 0.0 <= manifest["heldout_margin"] <= 0.5
    assert set(manifest["inputs"]) == {"source", "target", "labels", "config"}
    assert (manifest["flags"]["d_emb"], manifest["flags"]["pad_len"]) == (24, 14)


def _assert_writes_protocol_classifier(out, clf, fit) -> None:
    """The checkpoint at out holds clf parameter for parameter, and its
    manifest records fit."""
    saved = load_params(out)
    expected = {k: p.data for k, p in clf.params().items()}
    assert list(saved) == list(expected)
    assert all(np.array_equal(saved[k], expected[k]) for k in expected)
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert {k: manifest[k] for k in asdict(fit)} == asdict(fit)


def test_pretrain_ds_judge_is_the_retrain_judge(workdir, tmp_path, monkeypatch):
    # without --config, `pretrain-ds --split-seed s` trains the judge that
    # the reference settings' protocol trains with seed s
    _, data, _ = workdir
    monkeypatch.setattr(model_module, "CLASSIFIER_EPOCHS", 2)  # keeps the d_emb 200 run short
    out = tmp_path / "ds.ckpt"
    assert main(["pretrain-ds", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--labels", str(data / "labels.txt"),
                 "--split-seed", "2", "--out", str(out)]) == 0
    setup = prepare_experiment(read_lines(data / "source.txt"), read_lines(data / "labels.txt"),
                               read_lines(data / "target.txt"), TrainConfig(seed=2))
    _assert_writes_protocol_classifier(out, setup.judge, setup.judge_fit)
    assert setup.judge_acc == setup.judge_fit.heldout_accuracy
    assert load_params(out)["clf.cnn.embedding"].shape[1] == TrainConfig().d_emb


def test_classifier_commands_write_the_protocol_classifiers(workdir, tmp_path):
    # `pretrain-ds` and `train-eval-clf` with `--config F --split-seed s`
    # write exactly the judge and evaluation classifier that
    # `evaluate --retrain --config F --seed s` trains
    _, data, cfg = workdir
    corpus = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    for command, name in (("pretrain-ds", "ds.ckpt"), ("train-eval-clf", "eval.ckpt")):
        assert main([command, *corpus, "--config", str(cfg), "--split-seed", "2",
                     "--out", str(tmp_path / name)]) == 0
    setup = prepare_experiment(read_lines(data / "source.txt"), read_lines(data / "labels.txt"),
                               read_lines(data / "target.txt"),
                               replace(TrainConfig.from_file(cfg), seed=2))
    assert (setup.judge.cnn.embedding.shape[1], TrainConfig.from_file(cfg).pad_len) == (24, 14)
    _assert_writes_protocol_classifier(tmp_path / "ds.ckpt", setup.judge, setup.judge_fit)
    _assert_writes_protocol_classifier(tmp_path / "eval.ckpt", setup.eval_clf, setup.eval_fit)
    assert (setup.judge_acc, setup.eval_acc) == (setup.judge_fit.heldout_accuracy,
                                                  setup.eval_fit.heldout_accuracy)


def test_pretrain_ds_missing_file(tmp_path):
    assert main(["pretrain-ds", "--source", str(tmp_path / "no.txt"),
                 "--target", str(tmp_path / "no2.txt"),
                 "--out", str(tmp_path / "out.ckpt")]) == 2


def test_contaminated_custom_part_exits_with_data_error(workdir, tmp_path, capsys):
    root, data, cfg = workdir
    # every line written twice: the split puts the two copies of many
    # sentences in different parts, so the classifier part overlaps the others
    doubled, doubled_labels = tmp_path / "doubled.txt", tmp_path / "doubled_labels.txt"
    write_lines(doubled, read_lines(data / "source.txt") * 2)
    write_lines(doubled_labels, read_lines(data / "labels.txt") * 2)
    code = main(["train-eval-clf", "--source", str(doubled),
                 "--target", str(data / "target.txt"), "--labels", str(doubled_labels),
                 "--split-seed", "0", "--config", str(cfg),
                 "--out", str(root / "contaminated.ckpt")])
    assert code == 2
    assert "shared" in capsys.readouterr().err


def test_train_manifest_echoes_reference_defaults(workdir):
    root, _, _ = workdir
    manifest = json.loads(Path(str(root / "model.ckpt") + ".manifest.json").read_text())
    flags = manifest["flags"]
    # config file sets dims only: the balance weights and learning rate fall
    # through from the built-in defaults
    assert (flags["lambda_cyc"], flags["lambda_dis"]) == (1.0, 5.0)
    assert flags["lr"] == 0.002  # from the config file
    assert manifest["inputs"]["ds"]


def test_train_default_lr_and_weights_without_config(workdir, tmp_path):
    root, data, _ = workdir
    cfg = tmp_path / "dims-only.cfg"
    cfg.write_text("d_emb=24\nd_z=32\nd_y=10\nd_maps=2\nepochs=1\nbatch_size=32\npad_len=14\n")
    out = tmp_path / "m2.ckpt"
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--labels", str(data / "labels.txt"),
                 "--ds", str(root / "ds.ckpt"), "--config", str(cfg),
                 "--out", str(out), "--log", str(tmp_path / "m2.csv")]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["flags"]["lr"] == 1e-4
    assert manifest["flags"]["lambda_dis"] == 5.0


def test_train_ablation_flags(workdir, tmp_path):
    root, data, cfg = workdir
    out = tmp_path / "nocyc.ckpt"
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--labels", str(data / "labels.txt"),
                 "--ds", str(root / "ds.ckpt"), "--config", str(cfg),
                 "--no-cyc", "--no-dis",
                 "--out", str(out), "--log", str(tmp_path / "nocyc.csv")]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["flags"]["lambda_cyc"] == 0.0
    assert manifest["flags"]["lambda_dis"] == 0.0
    header, first, *_ = Path(tmp_path / "nocyc.csv").read_text().splitlines()
    columns = dict(zip(header.split(","), first.split(",")))
    assert float(columns["cyc"]) == 0.0 and float(columns["dis"]) == 0.0


def test_train_corrupt_checkpoint_magic(workdir, tmp_path):
    root, data, cfg = workdir
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WRONG" + b"\x00" * 16)
    (tmp_path / "bad.ckpt.vocab").write_text("the\nfood\n")
    code = main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--ds", str(bad), "--config", str(cfg),
                 "--out", str(tmp_path / "x.ckpt"), "--log", str(tmp_path / "x.csv")])
    assert code == 2


def test_train_unknown_config_key(workdir, tmp_path):
    root, data, _ = workdir
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("vorpal=1\n")
    code = main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--ds", str(root / "ds.ckpt"), "--config", str(cfg),
                 "--out", str(tmp_path / "x.ckpt"), "--log", str(tmp_path / "x.csv")])
    assert code == 2


def test_train_refuses_judge_with_another_vocabulary(workdir, tmp_path, capsys, monkeypatch):
    # a judge pretrained on the first 100 lines counts its tokens differently,
    # so its ids would not mean the run's tokens
    _, data, cfg = workdir
    monkeypatch.setattr(model_module, "CLASSIFIER_EPOCHS", 1)
    for name in ("source.txt", "target.txt", "labels.txt"):
        write_lines(tmp_path / name, read_lines(data / name)[:100])
    ds = tmp_path / "ds_small.ckpt"
    assert main(["pretrain-ds", "--source", str(tmp_path / "source.txt"),
                 "--target", str(tmp_path / "target.txt"),
                 "--labels", str(tmp_path / "labels.txt"),
                 "--config", str(cfg), "--out", str(ds)]) == 0
    capsys.readouterr()
    common = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    out = tmp_path / "x.ckpt"
    code = main(["train", *common, "--ds", str(ds), "--config", str(cfg),
                 "--out", str(out), "--log", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_contract(workdir, tmp_path):
    root, data, _ = workdir
    source_lines = read_lines(data / "source.txt")[:7]
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(source_lines) + "\n")
    out_a, out_b = tmp_path / "out_a.txt", tmp_path / "out_b.txt"
    for out in (out_a, out_b):
        assert main(["transfer", "--model", str(root / "model.ckpt"),
                     "--input", str(inp), "--output", str(out),
                     "--pad-len", "14"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(read_lines(out_a)) == 7


def _transfer_exit(model, tmp_path, capsys) -> tuple:
    """(exit code, stderr) of `transfer --model model` on one sentence."""
    inp = tmp_path / "in.txt"
    inp.write_text("the food was great\n")
    capsys.readouterr()
    code = main(["transfer", "--model", str(model), "--input", str(inp),
                 "--output", str(tmp_path / "out.txt"), "--pad-len", "14"])
    return code, capsys.readouterr().err


def _copy_model(root, tmp_path, edit_params=None, edit_vocab=None) -> Path:
    """model.ckpt and its sidecar under tmp_path, each optionally edited."""
    params = load_params(root / "model.ckpt")
    tokens = read_lines(str(root / "model.ckpt") + ".vocab")
    out = tmp_path / "edited.ckpt"
    save_params(out, edit_params(params) if edit_params else params)
    write_lines(str(out) + ".vocab", edit_vocab(tokens) if edit_vocab else tokens)
    return out


def test_transfer_refuses_a_classifier_checkpoint(workdir, tmp_path, capsys):
    root, _, _ = workdir
    code, err = _transfer_exit(root / "ds.ckpt", tmp_path, capsys)
    assert code == 2
    assert "ds.ckpt" in err and "'embedding'" in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_a_mis_shaped_tensor(workdir, tmp_path, capsys):
    root, _, _ = workdir
    model = _copy_model(root, tmp_path,
                        edit_params=lambda p: {**p, "gen.u_update": p["gen.u_update"][:-1]})
    code, err = _transfer_exit(model, tmp_path, capsys)
    assert code == 2
    assert "'gen.u_update' has shape" in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_a_vocab_sidecar_of_another_size(workdir, tmp_path, capsys):
    root, _, _ = workdir
    model = _copy_model(root, tmp_path, edit_vocab=lambda tokens: tokens + ["zorble"])
    code, err = _transfer_exit(model, tmp_path, capsys)
    assert code == 2
    assert "edited.ckpt.vocab" in err and "tokens" in err and "rows" in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_handles_out_of_vocabulary_tokens(workdir, tmp_path):
    root, _, _ = workdir
    inp = tmp_path / "oov.txt"
    inp.write_text("zorble the unknowable quux\n")
    out = tmp_path / "oov_out.txt"
    assert main(["transfer", "--model", str(root / "model.ckpt"),
                 "--input", str(inp), "--output", str(out), "--pad-len", "14"]) == 0
    assert len(read_lines(out)) == 1


def test_transfer_empty_input(workdir, tmp_path):
    root, _, _ = workdir
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    out = tmp_path / "empty_out.txt"
    assert main(["transfer", "--model", str(root / "model.ckpt"),
                 "--input", str(inp), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_evaluate_report_recomputes(workdir, tmp_path):
    root, data, _ = workdir
    inp = tmp_path / "eval_in.txt"
    labels = tmp_path / "eval_labels.txt"
    inp.write_text("\n".join(read_lines(data / "source.txt")[:20]) + "\n")
    labels.write_text("\n".join(read_lines(data / "labels.txt")[:20]) + "\n")
    report_path = tmp_path / "report.csv"
    code = main(["evaluate", "--model", str(root / "model.ckpt"),
                 "--eval-clf", str(root / "eval.ckpt"), "--input", str(inp),
                 "--labels", str(labels), "--runs", "2",
                 "--report", str(report_path), "--pad-len", "14",
                 "--samples", str(tmp_path / "samples.tsv")])
    assert code in (0, 4)  # advisory exit allowed when the tiny evaluator is weak
    rows = report_rows(report_path)
    assert set(rows) == {"0", "mean", "std"}  # a fixed checkpoint is one deterministic measurement
    assert float(rows["mean"]) == float(rows["0"])
    assert float(rows["std"]) == 0.0
    assert (tmp_path / "samples.tsv").read_text().count("\n") == 20


def test_evaluate_single_run_zero_std(workdir, tmp_path):
    root, data, _ = workdir
    inp = tmp_path / "one.txt"
    inp.write_text("\n".join(read_lines(data / "source.txt")[:5]) + "\n")
    report_path = tmp_path / "one.csv"
    code = main(["evaluate", "--model", str(root / "model.ckpt"),
                 "--eval-clf", str(root / "eval.ckpt"), "--input", str(inp),
                 "--runs", "1", "--report", str(report_path), "--pad-len", "14"])
    assert code in (0, 4)
    assert float(report_rows(report_path)["std"]) == 0.0


@pytest.mark.parametrize("n_labels", [1, 3])
def test_evaluate_refuses_a_label_file_of_another_length(workdir, tmp_path, capsys, n_labels):
    root, data, _ = workdir
    inp, labels = tmp_path / "in.txt", tmp_path / "labels.txt"
    write_lines(inp, read_lines(data / "source.txt")[:4])
    write_lines(labels, read_lines(data / "labels.txt")[:n_labels])
    report_path = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["evaluate", "--model", str(root / "model.ckpt"),
                 "--eval-clf", str(root / "eval.ckpt"), "--input", str(inp),
                 "--labels", str(labels), "--report", str(report_path),
                 "--pad-len", "14"]) == 2
    assert f"{labels} holds {n_labels} labels for 4 sentences" in capsys.readouterr().err
    assert not report_path.exists()


def test_evaluate_retrain_takes_pad_len_from_the_config(workdir, tmp_path):
    # DESK_CFG sets pad_len=14; only explicit flags override the file
    _, data, cfg = workdir
    report_path = tmp_path / "retrain.csv"
    code = main(["evaluate", "--retrain", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--labels", str(data / "labels.txt"),
                 "--config", str(cfg), "--seed", "1", "--runs", "1",
                 "--report", str(report_path)])
    assert code in (0, 4)
    expected = replace(TrainConfig.from_file(cfg), seed=1)
    assert expected.pad_len == 14
    assert f"# config: {expected.fingerprint()}" in report_path.read_text().splitlines()
    manifest = json.loads(Path(str(report_path) + ".manifest.json").read_text())
    assert manifest["flags"]["pad_len"] == 14


def test_evaluate_requires_inputs():
    assert main(["evaluate", "--report", "/tmp/r.csv"]) == 1
