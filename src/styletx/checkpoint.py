"""Binary checkpoints: a JSON record and a flat map of named float64 tensors.

Layout: magic b"LSTX2", a uint32 length and the record (one UTF-8 JSON
object, keys sorted), a uint32 tensor count, then per tensor a uint32 name
length, the UTF-8 name, a uint32 rank, rank uint32 dims, and the row-major
float64 payload. All integers and floats little-endian; LSTX1 files fail
the magic check. A model's `params()` is the one place its tensor names are
spelt, and `load_into` refuses a checkpoint whose names or shapes differ.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"LSTX2"


class CheckpointFormatError(ValueError):
    pass


@contextmanager
def atomic_write(path):
    """A binary file handle whose contents replace `path` in one step when
    the block ends. Everything goes to a temporary file in the same
    directory, which is flushed to disk and then renamed over `path`: a
    write that fails part way leaves the file already at `path` as it was,
    and removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(path, params: dict, record: dict = None) -> None:
    """Write the record (default `{}`), then name -> array (or Tensor) in order, atomically."""
    header = json.dumps({} if record is None else record, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header)
        fh.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            # asarray keeps 0-d arrays 0-d where ascontiguousarray would not
            arr = np.asarray(getattr(value, "data", value), dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple:
    """(record, name -> array); a malformed file raises CheckpointFormatError."""
    blob = Path(path).read_bytes()
    if blob[:5] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {blob[:5]!r}, expected {MAGIC!r}")
    offset = 5

    def take(fmt, what="checkpoint"):
        nonlocal offset
        try:
            size = struct.calcsize(fmt)
        except struct.error:  # too large for struct to size, so past any file's end
            size = math.inf
        if offset + size > len(blob):
            raise CheckpointFormatError(f"{path}: truncated {what}")
        values = struct.unpack_from(fmt, blob, offset)
        offset += size
        return values

    def take_text(what):
        (length,) = take("<I")
        (raw,) = take(f"<{length}s")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"{path}: {what} is not UTF-8: {err}") from None

    try:
        record = json.loads(take_text("the record"))
    except json.JSONDecodeError as err:
        raise CheckpointFormatError(f"{path}: the record is not JSON: {err}") from None
    if not isinstance(record, dict):
        raise CheckpointFormatError(f"{path}: the record is not a JSON object")
    (count,) = take("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = take_text("a tensor name")
        if name in params:
            raise CheckpointFormatError(f"{path}: tensor {name!r} appears twice")
        (rank,) = take("<I")
        shape = take(f"<{rank}I") if rank else ()
        (payload,) = take(f"<{8 * math.prod(shape)}s", f"tensor data for {name}")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise CheckpointFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return record, params


def load_params(path) -> dict:
    """The name -> array map of a checkpoint, without its record."""
    return load_checkpoint(path)[1]


def shape_of(arrays: dict, name: str, rank: int) -> tuple:
    """The shape of checkpoint tensor `name`, which must exist with `rank` axes."""
    arr = arrays.get(name)
    if arr is None:
        raise CheckpointFormatError(f"no tensor {name!r}; is it the right kind of checkpoint?")
    if arr.ndim != rank:
        raise CheckpointFormatError(f"tensor {name!r} has shape {arr.shape}, expected {rank} axes")
    return arr.shape


def load_into(params: dict, arrays: dict) -> None:
    """Set each parameter tensor of a name -> Tensor map to the same-named
    checkpoint array, cast to that parameter's dtype. Refuses, before
    changing any parameter, a checkpoint with a missing, unexpected or
    mis-shaped tensor."""
    missing = [name for name in params if name not in arrays]
    unexpected = [name for name in arrays if name not in params]
    if missing or unexpected:
        raise CheckpointFormatError(f"checkpoint tensors differ from the model's: missing "
                                    f"{missing or 'none'}, unexpected {unexpected or 'none'}")
    for name, p in params.items():
        if arrays[name].shape != p.shape:
            raise CheckpointFormatError(f"tensor {name!r} has shape {arrays[name].shape}, "
                                        f"the model expects {p.shape}")
    for name, p in params.items():
        p.data = np.asarray(arrays[name], dtype=p.data.dtype)
