import builtins
import errno
import io
import json
import struct

import numpy as np
import pytest

from styletx.autodiff import Tensor
from styletx.checkpoint import (MAGIC, CheckpointFormatError, load_checkpoint, load_into, load_params,
                                save_params)
from styletx.model import TransferModel
from styletx.training import metrics_to_csv


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "embedding": rng.normal(size=(7, 3)),
        "enc.w_update": rng.normal(size=(3, 5)),
        "bias": rng.normal(size=5),
        "scalar": np.asarray(2.5),
        "cube": rng.normal(size=(2, 3, 4)),
    }
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    loaded = load_params(path)
    assert list(loaded) == list(params)  # record order preserved
    for name in params:
        assert loaded[name].shape == params[name].shape
        assert np.array_equal(loaded[name], params[name])


def test_float32_model_saves_float64_and_reloads_as_float32(tmp_path):
    model = TransferModel.create(np.random.default_rng(0), 11, 6, 8, 5)
    params = model.params()
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
    save_params(tmp_path / "f32.ckpt", params)
    # the tensor table stays <f8: the bytes equal those of the values cast up
    save_params(tmp_path / "f64.ckpt", {k: p.data.astype(np.float64) for k, p in params.items()})
    assert (tmp_path / "f32.ckpt").read_bytes() == (tmp_path / "f64.ckpt").read_bytes()
    clone = TransferModel.from_params(load_params(tmp_path / "f32.ckpt"))
    for name, p in clone.params().items():
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, params[name].data)


def test_accepts_tensors(tmp_path):
    path = tmp_path / "t.ckpt"
    save_params(path, {"w": Tensor([[1.0, 2.0]], requires_grad=True)})
    assert np.array_equal(load_params(path)["w"], [[1.0, 2.0]])


def test_magic_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_params(path, {"w": np.zeros(2)})
    assert path.read_bytes()[:5] == MAGIC == b"LSTX2"


def test_record_round_trip(tmp_path):
    path = tmp_path / "r.ckpt"
    record = {"vocab": ["caf\u00e9", "soup"], "config": {"pad_len": 14, "lr": 0.002}}
    save_params(path, {"w": np.arange(3.0), "b": np.ones((2, 2))}, record)
    loaded_record, tensors = load_checkpoint(path)
    assert loaded_record == record
    assert list(tensors) == ["w", "b"] and np.array_equal(tensors["w"], np.arange(3.0))
    # the record is sorted-key JSON, so equal records give equal bytes
    header = json.dumps(record, sort_keys=True).encode("utf-8")
    assert path.read_bytes()[5:9 + len(header)] == struct.pack("<I", len(header)) + header


def test_record_defaults_to_an_empty_object(tmp_path):
    path = tmp_path / "r.ckpt"
    save_params(path, {"w": np.zeros(2)})
    assert path.read_bytes()[5:11] == struct.pack("<I", 2) + b"{}"
    assert load_checkpoint(path)[0] == {}
    assert list(load_params(path)) == ["w"]


def _raw(path, record: bytes, tensors) -> None:
    """A checkpoint written byte by byte: the record's bytes, then each
    (name bytes, array) in order."""
    blob = MAGIC + struct.pack("<I", len(record)) + record + struct.pack("<I", len(tensors))
    for name, arr in tensors:
        blob += struct.pack("<I", len(name)) + name + struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes()
    path.write_bytes(blob)


def test_lstx1_file_rejected(tmp_path):
    # the record-less layout that LSTX2 replaced: no second reader
    path = tmp_path / "old.ckpt"
    save_params(path, {"w": np.ones(3)})
    blob = path.read_bytes()
    path.write_bytes(b"LSTX1" + blob[11:])
    with pytest.raises(CheckpointFormatError, match=r"old\.ckpt: bad magic b'LSTX1'"):
        load_params(path)


@pytest.mark.parametrize("record, problem", [
    (b"\xff{}", "the record is not UTF-8"),
    (b'{"vocab": [', "the record is not JSON"),
    (b'["config", "vocab"]', "the record is not a JSON object"),
    (b"", "the record is not JSON"),
], ids=["not-utf8", "not-json", "not-an-object", "empty"])
def test_malformed_record_rejected(tmp_path, record, problem):
    path = tmp_path / "rec.ckpt"
    _raw(path, record, [(b"w", np.ones(2))])
    with pytest.raises(CheckpointFormatError, match=f"rec.ckpt: {problem}"):
        load_checkpoint(path)


def test_name_cut_inside_a_character_is_truncation(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_params(path, {"w\u00f1": np.ones(1)})
    blob = path.read_bytes()
    cut = blob.index("\u00f1".encode("utf-8")) + 1  # between the two bytes of "\u00f1"
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointFormatError, match="cut.ckpt: truncated"):
        load_params(path)


def test_name_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    _raw(path, b"{}", [(b"w\xc3", np.ones(1))])
    with pytest.raises(CheckpointFormatError, match="name.ckpt: a tensor name is not UTF-8"):
        load_params(path)


def test_duplicate_tensor_names_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    _raw(path, b"{}", [(b"a", np.ones(2)), (b"a", np.ones(3))])
    with pytest.raises(CheckpointFormatError, match="dup.ckpt: tensor 'a' appears twice"):
        load_params(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTCK" + b"\x00" * 20)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_params(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_params(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(path, {"w": np.ones(3)})
    path.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_params(path)


def test_utf8_names(tmp_path):
    path = tmp_path / "n.ckpt"
    save_params(path, {"weights.per-layer/0": np.ones(1)})
    assert "weights.per-layer/0" in load_params(path)


class _DiskFull:
    """A parameter whose bytes cannot be written: the disk fills up."""

    @property
    def data(self):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(path, {"w": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    # the first record is written before the second one fails
    with pytest.raises(OSError, match="No space"):
        save_params(path, {"w": np.zeros((2, 3)), "b": _DiskFull()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    assert np.array_equal(load_params(path)["w"], np.arange(6.0).reshape(2, 3))


class _FillsUp:
    """A file opened for writing whose disk fills up half way through the
    first write."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _metrics(path, n):
    columns = ["rec", "adv", "dis", "cyc", "total", "val_total"]
    metrics_to_csv([{"epoch": e, **dict.fromkeys(columns, 1.5)} for e in range(n)], path)


@pytest.mark.parametrize("write", [_metrics], ids=["metrics_to_csv"])
def test_failed_text_write_keeps_the_old_file(write, tmp_path, monkeypatch):
    path = tmp_path / "artefact"
    write(path, 2)
    before = path.read_bytes()
    real_open = io.open

    def open_filling_up(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FillsUp(fh) if "w" in mode else fh

    with monkeypatch.context() as m:
        m.setattr(io, "open", open_filling_up)
        m.setattr(builtins, "open", open_filling_up)
        with pytest.raises(OSError, match="No space"):
            write(path, 50)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artefact"]


def test_load_into_refuses_other_names_or_shapes():
    params = {"w": Tensor(np.zeros((2, 3))), "b": Tensor(np.zeros(3))}
    good = {"w": np.ones((2, 3)), "b": np.ones(3)}
    for arrays, problem in [({"w": good["w"]}, "missing"),
                            ({**good, "extra": np.ones(1)}, "extra"),
                            ({**good, "w": np.ones((3, 2))}, r"'w' has shape \(3, 2\)")]:
        with pytest.raises(CheckpointFormatError, match=problem):
            load_into(params, arrays)
        assert all(not p.data.any() for p in params.values())  # nothing was set
    load_into(params, good)
    assert all(p.data.all() for p in params.values())
