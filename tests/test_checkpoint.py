import builtins
import errno
import io

import numpy as np
import pytest

from styletx.autodiff import Tensor
from styletx.checkpoint import MAGIC, CheckpointFormatError, load_into, load_params, save_params
from styletx.corpus import Vocab
from styletx.training import METRIC_COLUMNS, metrics_to_csv


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


def test_accepts_tensors(tmp_path):
    path = tmp_path / "t.ckpt"
    save_params(path, {"w": Tensor([[1.0, 2.0]], requires_grad=True)})
    assert np.array_equal(load_params(path)["w"], [[1.0, 2.0]])


def test_magic_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_params(path, {"w": np.zeros(2)})
    assert path.read_bytes()[:5] == MAGIC == b"LSTX1"


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
    metrics_to_csv([{"epoch": e, **dict.fromkeys(METRIC_COLUMNS[1:], 1.5)} for e in range(n)],
                   path)


def _vocab(path, n):
    Vocab.from_tokens([f"word{i}" for i in range(n)]).to_file(path)


@pytest.mark.parametrize("write", [_metrics, _vocab], ids=["metrics_to_csv", "vocab"])
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
