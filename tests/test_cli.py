import argparse
import json
import re
import struct
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from styletx.checkpoint import MAGIC, load_checkpoint, load_params, save_params
from styletx import cli, evaluation
from styletx.cli import build_parser, main
from styletx.corpus import RESERVED, Vocab, read_lines, three_way_split, write_lines
from styletx.evaluation import EvalReport, prepare_experiment
from styletx.model import TextCnnClassifier, TransferModel, TransferScore, transfer_sentences
from styletx.training import SEED_SPLIT_SOURCE, SEED_SPLIT_TARGET, TrainConfig, rng_for, train

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


def config_file(path, text: str) -> Path:
    """path holding the config text, as a --config argument names it."""
    path.write_text(text)
    return path


def report_rows(path) -> dict:
    """run -> accuracy column of a written evaluation report."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return {run: value for run, _, value in (line.split(",") for line in lines[1:])}


def _evaluate_args(data, cfg, report_path) -> list:
    """`evaluate` of the workdir corpus under cfg, writing report_path."""
    return ["evaluate", "--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
            "--labels", str(data / "labels.txt"), "--config", str(cfg),
            "--report", str(report_path)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small corpus plus a trained model for the whole CLI suite."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-synth", "--out", str(data), "--seed", "3",
                 "--n-source", "400", "--n-target", "400", "--mix", "0.3,0.7,0"]) == 0
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CFG)
    common = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    assert main(["train", *common, "--config", str(cfg), "--out", str(root / "model.ckpt"),
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


@pytest.mark.parametrize("mix", ["a,b,c", "0.5,0.5"])
def test_gen_synth_unreadable_mix_is_a_usage_error_naming_the_flag(tmp_path, capsys, mix):
    out = tmp_path / "x"
    assert main(["gen-synth", "--out", str(out), "--mix", mix]) == 1
    assert "--mix" in capsys.readouterr().err
    assert not out.exists()


def test_gen_synth_refuses_a_negative_count(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen-synth", "--out", str(out), "--n-source", "-5", "--n-target", "3"]) == 2
    assert "-5 source" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_is_usage_error(tmp_path):
    out = tmp_path / "never"
    assert main(["gen-synth", "--out", str(out), "--warp", "9"]) == 1
    assert not out.exists()  # aborted before writing anything


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


@pytest.fixture(scope="module")
def seed2_run(workdir, tmp_path_factory):
    """`train` under a --config with seed 2, beside the protocol set-up
    that `evaluate --config F` builds."""
    _, data, _ = workdir
    root = tmp_path_factory.mktemp("seed2")
    cfg = config_file(root / "seed2.cfg", DESK_CFG + "seed=2\n")
    corpus = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt")]
    assert main(["train", *corpus, "--config", str(cfg), "--out", str(root / "model.ckpt"),
                 "--log", str(root / "metrics.csv")]) == 0
    setup = prepare_experiment(read_lines(data / "source.txt"), read_lines(data / "labels.txt"),
                               read_lines(data / "target.txt"), TrainConfig.from_file(cfg))
    return root, cfg, setup, corpus


def test_classifier_commands_write_the_protocol_classifiers(seed2_run):
    # `train --config F` records exactly the judge and evaluation fits that
    # `evaluate --config F` trains, split and seeded by F's seed
    root, cfg, setup, _ = seed2_run
    assert (setup.judge.cnn.embedding.shape[1], TrainConfig.from_file(cfg).pad_len,
            TrainConfig.from_file(cfg).seed) == (24, 14, 2)
    manifest = json.loads(Path(str(root / "model.ckpt") + ".manifest.json").read_text())
    assert manifest["judge_fit"] == asdict(setup.judge_fit)
    assert manifest["eval_fit"] == asdict(setup.eval_fit)
    assert (setup.judge_acc, setup.eval_acc) == (setup.judge_fit.heldout_accuracy,
                                                  setup.eval_fit.heldout_accuracy)


def test_train_is_the_protocol_run(seed2_run):
    # `train --config F` trains its own judge and evaluation classifier on the
    # parts that F's seed splits off, so its model and metrics are those of
    # training.train on the protocol set-up: a judge from another seed's split
    # cannot reach it
    root, cfg, setup, _ = seed2_run
    result = train(TrainConfig.from_file(cfg), setup.corpora, setup.judge,
                   eval_clf=setup.eval_clf)
    saved = load_params(root / "model.ckpt")
    assert list(saved) == list(result.params)
    assert all(np.array_equal(saved[k], result.params[k]) for k in saved)
    header, *rows = read_lines(root / "metrics.csv")
    assert header.split(",")[-1] == "val_acc"
    assert [float(row.split(",")[-1]) for row in rows] == [m["val_acc"] for m in result.metrics]
    # one file per model: the record holds the run config and the vocabulary
    record, _ = load_checkpoint(root / "model.ckpt")
    assert record == {"config": asdict(TrainConfig.from_file(cfg)),
                      "vocab": setup.vocab.id_to_token[len(RESERVED):]}
    assert not list(root.glob("*.vocab"))


def test_train_report_is_run_0_of_evaluate(seed2_run, tmp_path):
    # the model `train --config F` writes is the model of run 0 of
    # `evaluate --config F`, and `train` scores it the way `evaluate` scores
    # that run: its report and samples are those of `evaluate --runs 1`
    root, cfg, setup, corpus = seed2_run
    report = Path(str(root / "model.ckpt") + ".report.csv")
    samples = Path(str(root / "model.ckpt") + ".samples.tsv")
    assert main(["evaluate", *corpus, "--config", str(cfg), "--runs", "1",
                 "--report", str(tmp_path / "run.csv"),
                 "--samples", str(tmp_path / "run.tsv")]) in (0, 4)
    assert samples.read_bytes() == (tmp_path / "run.tsv").read_bytes()
    assert report.read_bytes() == (tmp_path / "run.csv").read_bytes()
    assert len(read_lines(samples)) == len(setup.corpora.source.test)
    assert set(report_rows(report)) == {"0", "mean", "std"}
    fingerprint = f"# config: {TrainConfig.from_file(cfg).fingerprint()}"
    assert fingerprint in read_lines(report)
    assert any(line.startswith("0,2,") for line in read_lines(report))


def test_train_below_the_trust_gate_is_advisory(workdir, tmp_path, monkeypatch, capsys):
    # an evaluation classifier below the gate cannot be trusted: `train`
    # warns and exits 4, but keeps the model it trained
    _, data, cfg = workdir
    monkeypatch.setattr(evaluation, "QUALITY_GATE", 1.5)
    out = tmp_path / "gated.ckpt"
    capsys.readouterr()
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--labels", str(data / "labels.txt"),
                 "--config", str(cfg), "--out", str(out), "--log", str(tmp_path / "m.csv")]) == 4
    assert "below the trust gate" in capsys.readouterr().err
    assert read_lines(str(out) + ".report.csv")[0].startswith("# warning:")
    assert out.exists() and Path(str(out) + ".manifest.json").exists()
    assert Path(str(out) + ".samples.tsv").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_missing_corpus_file_is_a_data_error(tmp_path, command):
    if command == "train":
        outputs = ["--out", str(tmp_path / "out.ckpt"), "--log", str(tmp_path / "out.csv")]
    else:
        outputs = ["--report", str(tmp_path / "out.csv")]
    assert main([command, "--source", str(tmp_path / "no.txt"),
                 "--target", str(tmp_path / "no2.txt"), *outputs]) == 2
    assert list(tmp_path.iterdir()) == []


def test_contaminated_custom_part_exits_with_data_error(workdir, tmp_path, capsys):
    _, data, cfg = workdir
    # every line written twice: the split puts the two copies of many
    # sentences in different parts, so the classifier part overlaps the others
    doubled, doubled_labels = tmp_path / "doubled.txt", tmp_path / "doubled_labels.txt"
    write_lines(doubled, read_lines(data / "source.txt") * 2)
    write_lines(doubled_labels, read_lines(data / "labels.txt") * 2)
    corpus = ["--source", str(doubled), "--target", str(data / "target.txt"),
              "--labels", str(doubled_labels), "--config", str(cfg)]
    capsys.readouterr()
    out = tmp_path / "contaminated_model.ckpt"
    assert main(["train", *corpus, "--out", str(out), "--log", str(tmp_path / "x.csv")]) == 2
    assert "shared" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.csv").exists()
    report_path = tmp_path / "report.csv"
    assert main(["evaluate", *corpus, "--runs", "1", "--report", str(report_path)]) == 2
    assert "shared" in capsys.readouterr().err
    assert not report_path.exists()


def test_train_manifest_echoes_reference_defaults(workdir):
    root, _, cfg = workdir
    manifest = json.loads(Path(str(root / "model.ckpt") + ".manifest.json").read_text())
    config = manifest["config"]
    # config file sets dims only: the balance weights and learning rate fall
    # through from the built-in defaults
    assert (config["lambda_cyc"], config["lambda_dis"]) == (1.0, 5.0)
    assert config["lr"] == 0.002  # from the config file
    assert config == asdict(TrainConfig.from_file(cfg))
    assert manifest["config_fingerprint"] == TrainConfig.from_file(cfg).fingerprint()
    assert manifest["flags"] == {}
    assert set(manifest["inputs"]) == {"source", "target", "labels", "config"}
    for fit in ("judge_fit", "eval_fit"):
        assert set(manifest[fit]) == {"heldout_accuracy", "train_bce", "heldout_margin"}
    assert read_lines(root / "metrics.csv")[0].endswith(",val_acc")


def test_train_default_lr_and_weights_without_config(workdir, tmp_path):
    _, data, _ = workdir
    cfg = tmp_path / "dims-only.cfg"
    cfg.write_text("d_emb=24\nd_z=32\nd_y=10\nd_maps=2\nepochs=1\nbatch_size=32\npad_len=14\n")
    out = tmp_path / "m2.ckpt"
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--labels", str(data / "labels.txt"),
                 "--config", str(cfg),
                 "--out", str(out), "--log", str(tmp_path / "m2.csv")]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["config"]["lr"] == 1e-4
    assert manifest["config"]["lambda_dis"] == 5.0


def test_train_ablations_from_the_config(workdir, tmp_path):
    _, data, _ = workdir
    cfg = config_file(tmp_path / "ablate.cfg", DESK_CFG + "lambda_cyc=0\nlambda_dis=0\n")
    out = tmp_path / "nocyc.ckpt"
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--labels", str(data / "labels.txt"),
                 "--config", str(cfg),
                 "--out", str(out), "--log", str(tmp_path / "nocyc.csv")]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["config"]["lambda_cyc"] == 0.0
    assert manifest["config"]["lambda_dis"] == 0.0
    header, first, *_ = Path(tmp_path / "nocyc.csv").read_text().splitlines()
    columns = dict(zip(header.split(","), first.split(",")))
    assert float(columns["cyc"]) == 0.0 and float(columns["dis"]) == 0.0


@pytest.mark.parametrize("line", ["batch_size=0", "dropout=1.0", "epochs=0", "lr=-1", "d_y=22"])
def test_train_refuses_an_out_of_range_config(workdir, tmp_path, capsys, monkeypatch, line):
    _, data, _ = workdir
    key = line.split("=")[0]
    # the bad line replaces the key's own line: a repeated key is refused for that instead
    kept = [kept for kept in DESK_CFG.splitlines() if not kept.startswith(key + "=")]
    cfg = config_file(tmp_path / "bad.cfg", "\n".join([*kept, line]) + "\n")
    trained = []
    monkeypatch.setattr(evaluation, "pretrain_style_judge", lambda *args: trained.append(args))
    out = tmp_path / "x.ckpt"
    capsys.readouterr()
    code = main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--labels", str(data / "labels.txt"),
                 "--config", str(cfg),
                 "--out", str(out), "--log", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(f"bad.cfg: {key}=.* is out of range", err) and "Traceback" not in err
    assert trained == []
    assert not out.exists() and not (tmp_path / "x.csv").exists()


def commands() -> dict:
    """command name -> its subparser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def options(sub) -> set:
    """Every option of a command, bar -h, by its first spelling."""
    return {option for action in sub._actions
            for option in action.option_strings[:1] if option != "-h"}


def test_no_command_overrides_a_config_field():
    # a command that reads --config takes every run setting from it, so none
    # of its other options may set a TrainConfig field
    config_keys = {f.name for f in fields(TrainConfig)}
    checked = 0
    for name, sub in commands().items():
        dests = {action.dest for action in sub._actions}
        if "config" in dests:
            checked += 1
            assert not dests & config_keys, f"{name} overrides {sorted(dests & config_keys)}"
    assert checked == 2  # train, evaluate


def test_cli_flag_count():
    # every option of every command, bar -h: a new knob fails here until this
    # count is raised on purpose
    assert sum(len(options(sub)) for sub in commands().values()) == 23


def test_readme_cli_block_names_every_option():
    # each `styletx <command>` usage line of the README's CLI block, with its
    # indented continuation lines, names exactly the command's options
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    usage, command = {}, None
    for line in block.strip().split("\n"):
        if line.startswith("styletx "):
            command = line.split()[1]
        usage.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert usage == {name: options(sub) for name, sub in commands().items()}


def test_train_unknown_config_key(workdir, tmp_path):
    _, data, _ = workdir
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("vorpal=1\n")
    code = main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"),
                 "--config", str(cfg),
                 "--out", str(tmp_path / "x.ckpt"), "--log", str(tmp_path / "x.csv")])
    assert code == 2


def test_train_refuses_a_repeated_config_key(workdir, tmp_path, capsys):
    _, data, _ = workdir
    cfg = config_file(tmp_path / "twice.cfg", DESK_CFG + "lr=0.05\n")
    code = main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--config", str(cfg),
                 "--out", str(tmp_path / "x.ckpt"), "--log", str(tmp_path / "x.csv")])
    assert code == 2
    assert "'lr' given twice, on lines 6 and 10" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["twice.cfg"]


def test_a_directory_given_as_a_file_is_a_data_error(workdir, tmp_path, capsys):
    # an unreadable path exits 2 with its name, not with a traceback
    _, data, cfg = workdir
    code, err = _transfer_exit(data, tmp_path, capsys)
    assert code == 2 and str(data) in err
    code = main(["train", "--source", str(data), "--target", str(data / "target.txt"),
                 "--config", str(cfg), "--out", str(tmp_path / "x.ckpt"),
                 "--log", str(tmp_path / "x.csv")])
    assert code == 2 and str(data) in capsys.readouterr().err


def test_transfer_contract(workdir, tmp_path):
    # no config file at hand: the checkpoint holds the vocabulary and pads
    # with the pad_len=14 of the config it was trained under
    root, data, cfg = workdir
    source_lines = read_lines(data / "source.txt")[:7]
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(source_lines) + "\n")
    out_a, out_b = tmp_path / "out_a.txt", tmp_path / "out_b.txt"
    for out in (out_a, out_b):
        assert main(["transfer", "--model", str(root / "model.ckpt"),
                     "--input", str(inp), "--output", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(read_lines(out_a)) == 7
    record, arrays = load_checkpoint(root / "model.ckpt")
    model, vocab = TransferModel.from_params(arrays), Vocab.from_tokens(record["vocab"])
    assert read_lines(out_a) == transfer_sentences(model, vocab, source_lines, 14)
    manifest = json.loads(Path(str(out_a) + ".manifest.json").read_text())
    assert manifest["config"] == asdict(TrainConfig.from_file(cfg))
    assert manifest["config_fingerprint"] == TrainConfig.from_file(cfg).fingerprint()
    assert set(manifest["inputs"]) == {"model", "input"}


def test_transfer_keeps_one_output_line_per_input_line(workdir, tmp_path):
    # lines end at "\n" only: a U+2028 inside a line neither splits it nor
    # shifts the outputs of the lines after it
    root, data, _ = workdir
    first, last = read_lines(data / "source.txt")[:2]
    lines = [first, "the food\u2028was great", last]
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    write_lines(inp, lines)
    assert main(["transfer", "--model", str(root / "model.ckpt"),
                 "--input", str(inp), "--output", str(out)]) == 0
    record, arrays = load_checkpoint(root / "model.ckpt")
    model, vocab = TransferModel.from_params(arrays), Vocab.from_tokens(record["vocab"])
    assert read_lines(out) == [transfer_sentences(model, vocab, [line], 14)[0]
                               for line in lines]


def test_train_refuses_an_empty_validation_split(tmp_path, capsys):
    # 10 target sentences leave the transfer part's target validation split
    # empty: selection would compare validation totals of 0.0
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--n-source", "400", "--n-target", "10"]) == 0
    cfg = config_file(tmp_path / "small.cfg", "d_emb=8\nd_z=8\nd_y=5\nd_maps=2\nbatch_size=2\n"
                                               "epochs=3\npad_len=14\nlr=0.05\n")
    out, log = tmp_path / "m.ckpt", tmp_path / "m.csv"
    capsys.readouterr()
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--labels", str(data / "labels.txt"),
                 "--config", str(cfg), "--out", str(out), "--log", str(log)]) == 2
    assert "validation split (24 source / 0 target)" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("side,offset,part,split", [
    ("source", SEED_SPLIT_SOURCE, 0, "test"),    # scored only after training
    ("source", SEED_SPLIT_SOURCE, 2, "val"),     # never read
    ("target", SEED_SPLIT_TARGET, 1, "train"),
], ids=["transfer-test-part", "classifier-validation-part", "target-side"])
def test_a_line_without_tokens_is_refused_before_any_classifier_trains(
        tmp_path, capsys, monkeypatch, command, side, offset, part, split):
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--n-source", "200", "--n-target", "200"]) == 0
    lines = read_lines(data / f"{side}.txt")
    where = three_way_split([str(i) for i in range(len(lines))], rng_for(0, offset))
    line = int(getattr(where[part], split).sentences[0])
    lines[line] = " \t "
    write_lines(data / f"{side}.txt", lines)
    trained = []
    monkeypatch.setattr(evaluation, "pretrain_style_judge",
                        lambda *args: trained.append(args))
    out = tmp_path / "out"
    out.mkdir()
    common = ["--source", str(data / "source.txt"), "--target", str(data / "target.txt"),
              "--labels", str(data / "labels.txt"),
              "--config", str(config_file(tmp_path / "desk.cfg", DESK_CFG))]
    if command == "train":
        args = ["train", *common, "--out", str(out / "m.ckpt"), "--log", str(out / "metrics.csv")]
    else:
        args = ["evaluate", *common, "--report", str(out / "r.csv"),
                "--samples", str(out / "s.tsv")]
    capsys.readouterr()
    assert main(args) == 2
    assert f"{side} line {line + 1} has no tokens" in capsys.readouterr().err
    assert trained == [] and list(out.iterdir()) == []


def test_transfer_takes_no_config(workdir, tmp_path):
    root, _, cfg = workdir
    inp = tmp_path / "in.txt"
    inp.write_text("the food was great\n")
    assert main(["transfer", "--model", str(root / "model.ckpt"), "--input", str(inp),
                 "--output", str(tmp_path / "out.txt"), "--config", str(cfg)]) == 1
    assert not (tmp_path / "out.txt").exists()


def test_train_that_diverges_leaves_its_log_and_no_checkpoint(workdir, tmp_path, monkeypatch):
    _, data, cfg = workdir
    monkeypatch.setattr(cli, "diverged", lambda result: True)
    out, log = tmp_path / "diverged.ckpt", tmp_path / "diverged.csv"
    assert main(["train", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--labels", str(data / "labels.txt"),
                 "--config", str(cfg), "--out", str(out), "--log", str(log)]) == 3
    assert read_lines(log)[0].startswith("epoch,")
    assert [p.name for p in tmp_path.iterdir()] == ["diverged.csv"]


def _transfer_exit(model, tmp_path, capsys) -> tuple:
    """(exit code, stderr) of `transfer --model model` on one sentence."""
    inp = tmp_path / "in.txt"
    inp.write_text("the food was great\n")
    capsys.readouterr()
    code = main(["transfer", "--model", str(model), "--input", str(inp),
                 "--output", str(tmp_path / "out.txt")])
    return code, capsys.readouterr().err


def _copy_model(root, tmp_path, edit_params=None, edit_record=None) -> Path:
    """model.ckpt under tmp_path, its tensors and record each optionally edited."""
    record, params = load_checkpoint(root / "model.ckpt")
    out = tmp_path / "edited.ckpt"
    save_params(out, edit_params(params) if edit_params else params,
                edit_record(record) if edit_record else record)
    return out


def test_transfer_refuses_a_classifier_checkpoint(workdir, tmp_path, capsys):
    root, _, _ = workdir
    record, _ = load_checkpoint(root / "model.ckpt")
    clf = TextCnnClassifier.create(np.random.default_rng(0), len(RESERVED) + len(record["vocab"]),
                                   24, (1, 2, 3), 8)
    save_params(tmp_path / "eval.ckpt", clf.params(), record)
    code, err = _transfer_exit(tmp_path / "eval.ckpt", tmp_path, capsys)
    assert code == 2
    assert "eval.ckpt" in err and "'embedding'" in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_a_mis_shaped_tensor(workdir, tmp_path, capsys):
    root, _, _ = workdir
    model = _copy_model(root, tmp_path,
                        edit_params=lambda p: {**p, "gen.u_update": p["gen.u_update"][:-1]})
    code, err = _transfer_exit(model, tmp_path, capsys)
    assert code == 2
    assert "'gen.u_update' has shape" in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_a_record_of_another_token_count(workdir, tmp_path, capsys):
    root, _, _ = workdir
    model = _copy_model(root, tmp_path,
                        edit_record=lambda r: {**r, "vocab": r["vocab"] + ["zorble"]})
    code, err = _transfer_exit(model, tmp_path, capsys)
    assert code == 2
    assert "edited.ckpt" in err and "tokens" in err and "rows" in err
    assert not (tmp_path / "out.txt").exists()


def _with_config(**changes):
    return lambda r: {**r, "config": {**r["config"], **changes}}


def _without_config_field(name):
    return lambda r: {**r, "config": {k: v for k, v in r["config"].items() if k != name}}


@pytest.mark.parametrize("edit, problem", [
    (lambda r: {**r, "extra": 1}, "record keys"),
    (lambda r: {"vocab": r["vocab"]}, "record keys"),
    (lambda r: {**r, "config": [14]}, "config fields missing"),
    (_without_config_field("pad_len"), r"missing \['pad_len'\]"),
    (_with_config(vorpal=1), r"unknown \['vorpal'\]"),
    (_with_config(pad_len=2), "pad_len=2 is out of range"),
    (_with_config(pad_len="14"), "pad_len='14' is not of type int"),
    (_with_config(pad_len=14.5), "pad_len=14.5 is not of type int"),
    (lambda r: {**r, "vocab": " ".join(r["vocab"])}, "vocab is not a list"),
    (lambda r: {**r, "vocab": r["vocab"][:-1] + [""]}, "vocab is not a list"),
    (lambda r: {**r, "vocab": r["vocab"][:-1] + [r["vocab"][0]]}, "vocab is not a list"),
    (lambda r: {**r, "vocab": r["vocab"][:-1] + ["<unk>"]}, "vocab is not a list"),
    (lambda r: {**r, "vocab": r["vocab"][:-1] + [7]}, "vocab is not a list"),
], ids=["extra-key", "missing-key", "config-not-an-object", "config-missing-field",
        "config-unknown-field", "config-out-of-range", "config-str", "config-float-for-int",
        "vocab-not-a-list", "vocab-empty-token", "vocab-repeated-token", "vocab-reserved-token",
        "vocab-not-a-string"])
def test_transfer_refuses_a_malformed_record(workdir, tmp_path, capsys, edit, problem):
    root, _, _ = workdir
    code, err = _transfer_exit(_copy_model(root, tmp_path, edit_record=edit), tmp_path, capsys)
    assert code == 2
    assert "edited.ckpt: " in err and re.search(problem, err) and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("record", [b"\xff", b"{", b"[]"], ids=["not-utf8", "not-json",
                                                              "not-an-object"])
def test_transfer_refuses_a_record_that_is_not_a_json_object(workdir, tmp_path, capsys, record):
    root, _, _ = workdir
    blob = (root / "model.ckpt").read_bytes()
    (length,) = struct.unpack_from("<I", blob, 5)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + struct.pack("<I", len(record)) + record + blob[9 + length:])
    code, err = _transfer_exit(bad, tmp_path, capsys)
    assert code == 2
    assert "bad.ckpt: the record" in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_an_lstx1_checkpoint(workdir, tmp_path, capsys):
    root, _, _ = workdir
    blob = (root / "model.ckpt").read_bytes()
    (length,) = struct.unpack_from("<I", blob, 5)
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"LSTX1" + blob[9 + length:])
    code, err = _transfer_exit(old, tmp_path, capsys)
    assert code == 2
    assert "old.ckpt: bad magic b'LSTX1'" in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_a_corrupt_checkpoint_magic(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WRONG" + b"\x00" * 16)
    code, err = _transfer_exit(bad, tmp_path, capsys)
    assert code == 2
    assert "bad.ckpt: bad magic" in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_transfer_refuses_overflowing_tensor_dims(tmp_path, capsys):
    # dims whose product wraps around in int64 still read as a tensor past
    # the end of the file
    record = b"{}"
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(MAGIC + struct.pack("<I", len(record)) + record + struct.pack("<I", 1)
                    + struct.pack("<I", 1) + b"w" + struct.pack("<I", 3)
                    + struct.pack("<3I", 2**32 - 1, 2**32 - 1, 2**31 + 5))
    code, err = _transfer_exit(bad, tmp_path, capsys)
    assert code == 2
    assert "huge.ckpt: truncated tensor data for w" in err and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


def test_samples_come_from_the_first_scored_run(tmp_path):
    # run 0 diverged, so the samples are run 1's transfers
    setup = SimpleNamespace(corpora=SimpleNamespace(
        source=SimpleNamespace(test=SimpleNamespace(sentences=["a b", "c"]))))
    report = EvalReport([(0, None), (1, TransferScore(0.5, {}, ["x y", "z"])),
                         (2, TransferScore(1.0, {}, ["p", "q"]))], "abc123", 1.0)
    samples = tmp_path / "samples.tsv"
    assert cli._write_score(setup, report, tmp_path / "report.csv", samples) == 0
    assert samples.read_text() == "a b\tx y\nc\tz\n"


def test_transfer_handles_out_of_vocabulary_tokens(workdir, tmp_path):
    root, _, _ = workdir
    inp = tmp_path / "oov.txt"
    inp.write_text("zorble the unknowable quux\n")
    out = tmp_path / "oov_out.txt"
    assert main(["transfer", "--model", str(root / "model.ckpt"),
                 "--input", str(inp), "--output", str(out)]) == 0
    assert len(read_lines(out)) == 1


def test_transfer_empty_input(workdir, tmp_path):
    root, _, _ = workdir
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    out = tmp_path / "empty_out.txt"
    assert main(["transfer", "--model", str(root / "model.ckpt"),
                 "--input", str(inp), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_train_report_recomputes(workdir):
    # `train` scores the one model it wrote: one deterministic measurement
    root, data, cfg = workdir
    rows = report_rows(str(root / "model.ckpt") + ".report.csv")
    assert set(rows) == {"0", "mean", "std"}
    assert float(rows["mean"]) == float(rows["0"])
    assert float(rows["std"]) == 0.0
    src_parts = three_way_split(read_lines(data / "source.txt"),
                                rng_for(TrainConfig.from_file(cfg).seed, SEED_SPLIT_SOURCE),
                                labels=read_lines(data / "labels.txt"))
    samples = Path(str(root / "model.ckpt") + ".samples.tsv")
    assert samples.read_text().count("\n") == len(src_parts[0].test)
    manifest = json.loads(Path(str(root / "model.ckpt") + ".manifest.json").read_text())
    assert manifest["flags"] == {}
    assert set(manifest["inputs"]) == {"source", "target", "labels", "config"}


def test_evaluate_single_run_zero_std(workdir, tmp_path):
    _, data, cfg = workdir
    report_path = tmp_path / "one.csv"
    code = main([*_evaluate_args(data, cfg, report_path), "--runs", "1"])
    assert code in (0, 4)
    assert set(report_rows(report_path)) == {"0", "mean", "std"}
    assert float(report_rows(report_path)["std"]) == 0.0


@pytest.mark.parametrize("n_labels", [1, 3])
def test_evaluate_refuses_a_label_file_of_another_length(workdir, tmp_path, capsys, n_labels):
    _, data, cfg = workdir
    labels = tmp_path / "labels.txt"
    write_lines(labels, read_lines(data / "labels.txt")[:n_labels])
    n_source = len(read_lines(data / "source.txt"))
    report_path = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["evaluate", "--source", str(data / "source.txt"),
                 "--target", str(data / "target.txt"), "--labels", str(labels),
                 "--config", str(cfg), "--runs", "1", "--report", str(report_path)]) == 2
    assert f"{labels} holds {n_labels} labels for {n_source} sentences" in capsys.readouterr().err
    assert not report_path.exists()


def test_evaluate_retrain_takes_pad_len_from_the_config(workdir, tmp_path):
    # DESK_CFG sets pad_len=14; the seed comes from the same file
    _, data, _ = workdir
    cfg = config_file(tmp_path / "seed1.cfg", DESK_CFG + "seed=1\n")
    report_path = tmp_path / "retrain.csv"
    code = main([*_evaluate_args(data, cfg, report_path), "--runs", "1"])
    assert code in (0, 4)
    expected = TrainConfig.from_file(cfg)
    assert (expected.pad_len, expected.seed) == (14, 1)
    assert f"# config: {expected.fingerprint()}" in report_path.read_text().splitlines()
    assert any(line.startswith("0,1,") for line in read_lines(report_path))  # run 0, seed 1
    manifest = json.loads(Path(str(report_path) + ".manifest.json").read_text())
    assert manifest["config"] == asdict(expected)
    assert manifest["config_fingerprint"] == expected.fingerprint()
    assert manifest["flags"] == {"runs": 1}


def test_evaluate_refuses_zero_runs_before_any_classifier_trains(workdir, tmp_path, capsys,
                                                                 monkeypatch):
    _, data, cfg = workdir
    trained = []
    monkeypatch.setattr(evaluation, "pretrain_style_judge", lambda *args: trained.append(args))
    report_path = tmp_path / "report.csv"
    capsys.readouterr()
    assert main([*_evaluate_args(data, cfg, report_path), "--runs", "0"]) == 1
    assert "--runs must be at least 1, got 0" in capsys.readouterr().err
    assert trained == [] and not report_path.exists()


def test_evaluate_requires_inputs():
    assert main(["evaluate", "--report", "/tmp/r.csv"]) == 1


def test_evaluate_takes_no_checkpoint(workdir, tmp_path):
    # `train` scores the model it writes; `evaluate` only trains its own runs
    root, data, cfg = workdir
    report_path = tmp_path / "report.csv"
    assert main([*_evaluate_args(data, cfg, report_path), "--model",
                 str(root / "model.ckpt")]) == 1
    assert not report_path.exists()
