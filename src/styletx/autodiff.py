"""Dense float32/float64 tensors with tape-based reverse-mode differentiation.

Small enough to audit, big enough for GRUs, 1-D convolutions over token
sequences, softmax/cross-entropy and the loss algebra built on top. The
dtype is a property of the data: a float32 array stays float32, anything
else becomes float64, and each primitive computes in numpy's result type of
its operands. A constant (anything that is not a Tensor: a Python number, a
mask, a weight array) takes the dtype of the Tensor it meets, so the loss
algebra stays in its operands' dtype. Runs feed float32 parameters;
gradient checking probes in float64, the precision central differences
need. Tensors are treated as immutable while recorded on a tape; parameter
updates happen between tapes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Input values lie outside the mathematical domain of the operation."""


class SequenceTooShortError(ShapeError):
    """Sequence shorter than the convolution filter width."""


class NonDeterministicError(RuntimeError):
    """Two forward passes of a supposedly deterministic function disagreed."""


class Tensor:
    """n-d float32 or float64 value. A float32 array is kept as it is;
    anything else (Python numbers, lists, integer, bool or float64 arrays)
    becomes float64."""

    __slots__ = ("data", "requires_grad", "__weakref__")
    # numpy defers to the reflected operator: array * tensor is Tensor.__rmul__
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; all dispatch to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


TensorLike = Union[Tensor, float, int, Array]

# A recorded primitive: output, inputs, and a closure mapping the output
# gradient to per-input gradients (None for inputs that need none).
@dataclass
class TapeOp:
    out: Tensor
    inputs: tuple
    backward: Callable[[Array], Sequence[Optional[Array]]]


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Ops are appended in execution order, so a single reverse sweep visits
    each exactly once and respects data dependencies. The sweep releases
    each op as it visits it, so a tape is swept once; its length stays as
    recorded until `clear`.
    """

    def __init__(self):
        self.ops: list[Optional[TapeOp]] = []
        self.swept = False

    def __len__(self) -> int:
        return len(self.ops)

    def clear(self) -> None:
        """Drop all recorded ops, releasing the intermediates a sweep has
        not already released; the tape can then record a new pass."""
        self.ops.clear()
        self.swept = False


_tape_stack: list[Optional[Tape]] = []


@contextmanager
def recording(tape: Tape):
    """Route primitive recording onto `tape` for the duration of the block."""
    _tape_stack.append(tape)
    try:
        yield tape
    finally:
        _tape_stack.pop()


@contextmanager
def no_grad():
    """Disable recording; outputs created inside are detached."""
    _tape_stack.append(None)
    try:
        yield
    finally:
        _tape_stack.pop()


def _active_tape() -> Optional[Tape]:
    return _tape_stack[-1] if _tape_stack else None


def as_tensor(x: TensorLike, like: Optional[TensorLike] = None) -> Tensor:
    """x as a Tensor. A constant meeting the Tensor `like` takes its dtype;
    on its own it follows the Tensor constructor's rule."""
    if isinstance(x, Tensor):
        return x
    if isinstance(like, Tensor):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _record(out_data: Array, inputs: tuple, backward_fn) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape.ops.append(TapeOp(out, inputs, backward_fn))
    return out


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss: Tensor, tape: Tape, params: dict) -> dict:
    """The gradient of `loss` with respect to each Tensor of the name ->
    Tensor map `params`, as a name -> array map in `params`' order.

    A parameter the loss does not reach gets exactly-zero gradients, whether
    it is on the tape, frozen or never recorded; nothing is stored on the
    tensors. A tape is swept once: the sweep sets each op's slot to None as
    it visits it, so the op's closure, saved arrays and output are freed as
    soon as nothing upstream needs them, and a second sweep of the same
    tape raises. Intermediate gradients live only inside the sweep and are
    freed as soon as their producer is visited.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape.swept:
        raise RuntimeError("backward: this tape was already swept and its ops released; "
                           "record a new forward pass")
    tape.swept = True

    ops = tape.ops
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for i in reversed(range(len(ops))):
        op, ops[i] = ops[i], None
        g_out = grads.pop(id(op.out), None)
        if g_out is None:
            continue
        for inp, g_in in zip(op.inputs, op.backward(g_out)):
            if g_in is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + g_in
            else:
                grads[key] = g_in

    return {name: grads[id(p)] if id(p) in grads else np.zeros_like(p.data)
            for name, p in params.items()}


# ---------------------------------------------------------------------------
# primitives


def add(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a, like=b), as_tensor(b, like=a)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bwd)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a, like=b), as_tensor(b, like=a)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), bwd)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a, like=b), as_tensor(b, like=a)
    out = a.data * b.data

    def bwd(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def neg(a: TensorLike) -> Tensor:
    a = as_tensor(a)
    return _record(-a.data, (a,), lambda g: (-g,))


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def sigmoid(x: TensorLike) -> Tensor:
    x = as_tensor(x)
    # exp may overflow to inf for very negative inputs; 1/(1+inf) is the
    # correct 0.0, so silence the warning rather than branch
    with np.errstate(over="ignore"):
        out = _sigmoid_inplace(x.data.copy())

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _record(out, (x,), bwd)


def tanh(x: TensorLike) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _record(out, (x,), bwd)


def log(x: TensorLike) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0):
        raise DomainError("log requires strictly positive input")
    out = np.log(x.data)

    def bwd(g):
        return (g / x.data,)

    return _record(out, (x,), bwd)


def softmax(x: TensorLike, temperature: float = 1.0) -> Tensor:
    """Temperature softmax along the last axis, stabilised by max subtraction."""
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    x = as_tensor(x)
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner) / temperature,)

    return _record(out, (x,), bwd)


def sum_(x: TensorLike, axis=None) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape),)

    return _record(out, (x,), bwd)


def mean_(x: TensorLike) -> Tensor:
    x = as_tensor(x)
    return mul(sum_(x), 1.0 / x.data.size)


def reshape(x: TensorLike, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), bwd)


def broadcast_to(x: TensorLike, shape) -> Tensor:
    x = as_tensor(x)
    out = np.broadcast_to(x.data, shape).copy()

    def bwd(g):
        return (_unbroadcast(g, x.data.shape),)

    return _record(out, (x,), bwd)


def concat(parts: Sequence[TensorLike], axis: int = 0) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(out, parts, bwd)


def _scatter_add(like: Array, index: Array, values: Array) -> Array:
    """Zeros shaped like `like`, plus each of `values` (flattened) added at
    the flat element `index` names, in order. A 1-d index into the flattened
    array is `np.add.at`'s fast path; adding whole rows into a 2-d target
    is its slow path, for the same sums in the same order."""
    out = np.zeros(like.size, dtype=like.dtype)
    np.add.at(out, index, values.reshape(-1))
    return out.reshape(like.shape)


def take_rows(table: TensorLike, ids: Array) -> Tensor:
    """Row lookup table[ids]; the embedding-table primitive.

    `ids` is a plain integer array (not differentiable); gradients
    scatter-add back into the table rows.
    """
    table = as_tensor(table)
    ids = np.asarray(ids)
    out = table.data[ids]

    def bwd(g):
        d = table.data.shape[-1]
        return (_scatter_add(table.data, (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1), g),)

    return _record(out, (table,), bwd)


def take_along_last(x: TensorLike, idx: Array) -> Tensor:
    """Gather x[..., idx] along the last axis; idx shaped like x minus that axis."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    out = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        return (_scatter_add(x.data, np.arange(idx.size) * x.data.shape[-1] + idx.reshape(-1), g),)

    return _record(out, (x,), bwd)


def max_along(x: TensorLike, axis: int) -> Tensor:
    """Max over one axis; gradient routes to the first argmax position."""
    x = as_tensor(x)
    out = x.data.max(axis=axis)
    idx = x.data.argmax(axis=axis)

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return (gx,)

    return _record(out, (x,), bwd)


def unfold_windows(x: TensorLike, width: int) -> Tensor:
    """All length-`width` windows over the second-to-last axis.

    [..., L, D] -> [..., L-width+1, width*D]; the flattened-window layout
    convolution wants before a matmul against flattened filters.
    """
    x = as_tensor(x)
    length = x.data.shape[-2]
    if length < width:
        raise SequenceTooShortError(f"sequence length {length} shorter than filter width {width}")
    view = np.lib.stride_tricks.sliding_window_view(x.data, width, axis=-2)
    # view: [..., L-w+1, D, w] -> [..., L-w+1, w, D] flattened
    win = np.ascontiguousarray(np.swapaxes(view, -1, -2))
    n_win = length - width + 1
    out = win.reshape(*x.data.shape[:-2], n_win, width * x.data.shape[-1])

    def bwd(g):
        d = x.data.shape[-1]
        gw = g.reshape(*x.data.shape[:-2], n_win, width, d)
        gx = np.zeros_like(x.data)
        for j in range(width):
            gx[..., j:j + n_win, :] += gw[..., :, j, :]
        return (gx,)

    return _record(out, (x,), bwd)


def clip(x: TensorLike, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is zero outside the open interval."""
    x = as_tensor(x)
    out = np.clip(x.data, lo, hi)

    def bwd(g):
        return (g * ((x.data > lo) & (x.data < hi)),)

    return _record(out, (x,), bwd)


def text_cnn(seq_emb: TensorLike, filters: Sequence[TensorLike],
             biases: Sequence[TensorLike]) -> Tensor:
    """Multi-width text CNN, recorded as one tape op: conv + bias +
    max-over-time + ReLU, each filter's convolution a valid 1-d one over time.

    seq_emb is [B, L, D]; filters[i] is [w_i, D, C_i] and biases[i] [C_i].
    Returns the pooled maps [B, ΣC_i] after the ReLU, in the order of
    `filters`. ReLU is monotone, so it is applied once to the pooled block;
    a map that pools to 0 or below, or to NaN, passes no gradient.

    One matmul multiplies the taps of every filter, stacked as
    [Σ w_i·C_i, D], by a time-major copy of the embeddings, [D, L·B], so the
    products are laid out [tap column, time, row]. A filter's response at
    window p is the sum over taps j of tap j's product at time p + j, plus
    the bias: each shifted tap block is one slice of whole (time, row)
    planes, and max-over-time pools along the plane's time axis. Pooling
    keeps the first argmax, so each (row, map) pools exactly one window.
    Only backward needs that window: it finds the first argmax from the
    kept per-width responses, so a pass that records nothing never pays for
    it. Backward assigns each pooled gradient to its window's taps in a
    [B, L, Σ w_i·C_i] array, where no two writes collide, then forms the
    input and the filter gradients with one matmul each.
    """
    seq_emb = as_tensor(seq_emb)
    filters = tuple(as_tensor(f) for f in filters)
    biases = tuple(as_tensor(b) for b in biases)
    if seq_emb.ndim != 3 or len(filters) != len(biases):
        raise ShapeError(f"text_cnn expects a [batch, length, emb] sequence and one bias per filter, "
                         f"got {seq_emb.shape}, {len(filters)} filters and {len(biases)} biases")
    batch, length, d_emb = seq_emb.shape
    for f, b in zip(filters, biases):
        if f.ndim != 3 or f.shape[1] != d_emb or b.shape != f.shape[2:]:
            raise ShapeError(f"filter {f.shape} and bias {b.shape} do not fit "
                             f"[width, {d_emb}, maps] and [maps]")
        if length < f.shape[0]:
            raise SequenceTooShortError(
                f"sequence length {length} shorter than filter width {f.shape[0]}")
    dtype = np.result_type(*(t.data for t in (seq_emb,) + filters + biases))
    # where each filter's taps start in the stacked columns, and its maps in the output
    tap_cols = np.cumsum([0] + [f.shape[0] * f.shape[2] for f in filters])
    map_cols = np.cumsum([0] + [f.shape[2] for f in filters])
    spans = list(zip(filters, tap_cols, map_cols, map_cols[1:]))
    taps = np.concatenate([f.data.transpose(1, 0, 2).reshape(d_emb, -1) for f in filters], axis=1)
    time_major = np.ascontiguousarray(seq_emb.data.transpose(2, 1, 0)).reshape(d_emb, length * batch)
    prod = (taps.T @ time_major).reshape(tap_cols[-1], length, batch)

    out = np.empty((batch, map_cols[-1]), dtype=dtype)
    resps = []                                                   # [C, windows, B] each
    for (f, col, m0, m1), b in zip(spans, biases):
        width, n_maps = f.shape[0], f.shape[2]
        n_win = length - width + 1
        resp = prod[col:col + n_maps, :n_win].astype(dtype)
        for j in range(1, width):
            resp += prod[col + j * n_maps:col + (j + 1) * n_maps, j:j + n_win]
        resp += b.data[:, None, None]
        out[:, m0:m1] = resp.max(axis=1).T
        resps.append(resp)
    np.maximum(out, 0.0, out=out)

    def bwd(g):
        g = g * (out > 0)
        g_prod = np.zeros((batch, length, tap_cols[-1]), dtype=dtype)
        rows = np.arange(batch)[:, None, None]
        for (f, col, m0, m1), resp in zip(spans, resps):
            idx = resp.argmax(axis=1).T                          # [B, C]
            tap = np.arange(f.shape[0])[None, :, None]
            n_maps = f.shape[2]
            g_prod[rows, idx[:, None, :] + tap, col + tap * n_maps + np.arange(n_maps)] = \
                g[:, None, m0:m1]
        g_prod = g_prod.reshape(batch * length, tap_cols[-1])
        gx = (g_prod @ taps.T).reshape(seq_emb.shape) if seq_emb.requires_grad else None
        g_filters = (None,) * len(filters)
        if any(f.requires_grad for f in filters):
            g_taps = seq_emb.data.reshape(batch * length, d_emb).T @ g_prod
            g_filters = tuple(
                np.ascontiguousarray(g_taps[:, col:col + f.shape[0] * f.shape[2]]
                                     .reshape(d_emb, f.shape[0], f.shape[2]).transpose(1, 0, 2))
                for f, col, _, _ in spans)
        g_biases = tuple(g[:, m0:m1].sum(axis=0) for _, _, m0, m1 in spans)
        return (gx,) + g_filters + g_biases

    return _record(out, (seq_emb,) + filters + biases, bwd)


def _sigmoid_inplace(a: Array) -> Array:
    """In-place logistic 1 / (1 + exp(-a)) of a float array; returns a."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def gru_sequence(x: TensorLike, h0: TensorLike, weights: Sequence[TensorLike],
                 lengths: Optional[Array] = None) -> Tensor:
    """GRU recorded as one tape op: one step of a [B, d_in] input, or the
    length-packed unroll of a [B, T, d_in] sequence.

    h0 is [B, h] (a constant h0 takes x's dtype), and weights the nine gate
    tensors (w_z, u_z, b_z, w_r, u_r, b_r, w_c, u_c, b_c). Each step computes

        z = σ((x·W_z + h·U_z) + b_z)    r = σ((x·W_r + h·U_r) + b_r)
        c = tanh((x·W_c + (r∘h)·U_c) + b_c)    h' = (1 − z)∘h + z∘c

    A step takes no `lengths`, returns the new state [B, h], and uses x, h0,
    the state and its gradient as they are. A sequence runs each row for its
    length (`lengths`, [B]; None means T); a row's states past its length
    are zeros, as a packed sequence's padding is, so a row of length 0 is
    all zeros and one of length ≥ T is live at every step. It returns the
    state after every step, [B, T, h].

    A sequence's rows are sorted once by their length clipped to T, longest
    first and stable, so step t's live rows are a prefix of the batch and a
    batch whose rows all run T steps keeps its order. Only the live (row,
    step) pairs are computed: they are packed time-major, the input
    projections of all of them are one matmul per gate, overwritten in
    place by the gate values, and each step runs on its prefix. Each state
    is held once: the states are computed into their own buffer, which is
    a step's output or is scattered into a sequence's, and step 0 reads
    h0's rows. Backward keeps the gates and the packed input; it rebuilds
    each step's input states from h0's rows and the output with one gather
    (at T = 1 it uses h0's rows alone), runs BPTT in one reverse loop over
    the same prefixes, overwriting each step's gates with their
    pre-activation gradients once it is done with them, then forms each
    weight gradient with one matmul over all live pairs. So the closure
    runs once, as a tape's one sweep guarantees.
    """
    x = as_tensor(x)
    h0 = as_tensor(h0, like=x)
    weights = tuple(as_tensor(w) for w in weights)
    if len(weights) != 9:
        raise ShapeError(f"gru_sequence takes nine gate tensors, got {len(weights)}")
    wz, uz, bz, wr, ur, br, wc, uc, bc = (w.data for w in weights)
    if x.ndim not in (2, 3) or x.shape[-1] != wz.shape[0] or h0.shape != (x.shape[0], uz.shape[0]):
        raise ShapeError(f"gru_sequence expects x [B, {wz.shape[0]}] or [B, T, {wz.shape[0]}] and "
                         f"h0 [B, {uz.shape[0]}], got {x.shape} and {h0.shape}")
    inputs = (x, h0) + weights
    dtype = np.result_type(*(t.data for t in inputs))
    batch, d_h = x.shape[0], uz.shape[0]
    one_step = x.ndim == 2
    if one_step:
        if lengths is not None:
            raise ShapeError("gru_sequence takes no lengths for a one-step [B, d_in] input")
        steps, counts, first = 1, [batch], slice(None)

        def pack(a: Array) -> Array:
            return a

        unpack = pack
    else:
        steps = x.shape[1]
        lengths = np.full(batch, steps) if lengths is None else np.asarray(lengths)
        if lengths.shape != (batch,) or (lengths < 0).any():
            raise ShapeError(f"gru_sequence expects {batch} non-negative lengths, got {lengths!r}")
        # sorted row i is row order[i]; live[t, i] says whether it is live at step t
        clipped = np.minimum(lengths, steps)
        order = np.argsort(-clipped, kind="stable")
        row_len = clipped[order]
        live = np.arange(steps)[:, None] < row_len
        counts = live.sum(axis=1).tolist()
        first = order[row_len > 0]
        # flat index into [B·T] of each packed pair
        pair_index = (order * steps + np.arange(steps)[:, None])[live]

        # pack: [B, T, n] -> [N, n], the live pairs time-major, so each
        # step's rows form one contiguous block; unpack: back, zeros at
        # padded pairs
        def pack(a: Array) -> Array:
            return a.reshape(batch * steps, a.shape[2])[pair_index]

        def unpack(a: Array) -> Array:
            out = np.zeros((batch * steps, a.shape[1]), dtype=a.dtype)
            out[pair_index] = a
            return out.reshape(batch, steps, a.shape[1])
    # step t's live rows fill rows offsets[t]:offsets[t + 1] of the packed
    # arrays; the gradient of its input states is rows prev[t]:prev[t] +
    # counts[t] of `g_hs` in backward
    offsets = [0]
    for n in counts:
        offsets.append(offsets[-1] + n)
    prev = [0] + [batch + lo for lo in offsets[:-2]]
    n_live = offsets[-1]
    n_first = counts[0] if steps else 0
    blocks = [(offsets[t], offsets[t + 1], prev[t]) for t in range(steps) if counts[t]]

    def first_states() -> Array:
        """Step 0's input states: h0's rows live at step 0, in sorted order."""
        return np.ascontiguousarray(h0.data[first], dtype=dtype)

    # one buffer for the gates z, r, c of every live pair, which backward
    # keeps, and one for the state after every live pair, which becomes (or
    # is scattered into) the output
    gates = np.empty((3, n_live, d_h), dtype=dtype)
    zs, rs, cs = gates
    hs = np.empty((n_live, d_h), dtype=dtype)
    flat_x = pack(x.data)
    for gate, w in zip(gates, (wz, wr, wc)):
        np.matmul(flat_x, w, out=gate)
    h = first_states()
    rh_buf, tmp_buf = np.empty((2, batch, d_h), dtype=dtype)
    with np.errstate(over="ignore"):   # exp overflow gives the correct sigmoid 0
        for lo, hi, _ in blocks:
            n = hi - lo
            z, r, c = zs[lo:hi], rs[lo:hi], cs[lo:hi]
            h, h_next, rh, tmp = h[:n], hs[lo:hi], rh_buf[:n], tmp_buf[:n]
            z += h @ uz
            z += bz
            _sigmoid_inplace(z)
            r += h @ ur
            r += br
            _sigmoid_inplace(r)
            np.multiply(r, h, out=rh)
            c += rh @ uc
            c += bc
            np.tanh(c, out=c)
            np.subtract(1.0, z, out=h_next)
            h_next *= h
            np.multiply(z, c, out=tmp)
            h_next += tmp
            h = h_next
    out = unpack(hs)

    def bwd(g):
        # each live pair's input state, packed: h0's row at step 0, the
        # pair's state one step earlier from then on
        if steps == 1:
            flat_h = first_states()
        else:
            flat_h = np.empty((n_live, d_h), dtype=dtype)
            flat_h[:n_first] = first_states()
            # a pair at step t ≥ 1 reads the state one flat row before its own
            np.take(out.reshape(batch * steps, d_h), pair_index[n_first:] - 1, axis=0,
                    out=flat_h[n_first:], mode="clip")
        # g_hs holds the gradient of h0, then of each live pair's new state;
        # each step adds its terms to its input states' rows in the order of
        # the per-gate ops' reverse sweep
        g_hs = np.empty((batch + n_live, d_h), dtype=dtype)
        g_hs[:batch] = 0.0
        g_hs[batch:] = pack(g)
        flat_rh = np.empty((n_live, d_h), dtype=dtype)
        for lo, hi, p in reversed(blocks):
            n = hi - lo
            h, z, r, c = flat_h[lo:hi], zs[lo:hi], rs[lo:hi], cs[lo:hi]
            g_new, g_prev = g_hs[batch + lo:batch + hi], g_hs[p:p + n]
            omz = 1.0 - z
            g_z = g_new * c
            g_c = g_new * z
            g_prev += g_new * omz
            g_z -= g_new * h
            # from here each gate is overwritten by its pre-activation gradient
            gz_pre, gr_pre, gc_pre = z, r, c
            np.multiply(c, c, out=gc_pre)
            np.subtract(1.0, gc_pre, out=gc_pre)
            gc_pre *= g_c
            g_rh = gc_pre @ uc.T
            g_prev += g_rh * r
            np.multiply(r, h, out=flat_rh[lo:hi])
            omr = 1.0 - r
            np.multiply(g_rh * h, r, out=gr_pre)
            gr_pre *= omr
            g_prev += gr_pre @ ur.T
            np.multiply(g_z, z, out=gz_pre)
            gz_pre *= omz
            g_prev += gz_pre @ uz.T
        gz_all, gr_all, gc_all = gates
        gx = None
        if x.requires_grad:
            gx = unpack((gc_all @ wc.T + gr_all @ wr.T) + gz_all @ wz.T)
        g_h0 = g_hs[:batch]
        if not one_step:   # back to the caller's row order
            g_h0 = np.empty_like(g_h0)
            g_h0[order] = g_hs[:batch]
        return (gx, g_h0,
                flat_x.T @ gz_all, flat_h.T @ gz_all, gz_all.sum(axis=0),
                flat_x.T @ gr_all, flat_h.T @ gr_all, gr_all.sum(axis=0),
                flat_x.T @ gc_all, flat_rh.T @ gc_all, gc_all.sum(axis=0))

    return _record(out, inputs, bwd)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of scalar f against central differences
    with step 1e-4, both taken at x's values cast to float64: central
    differences at that step do not survive float32 rounding.

    Relative error per entry is |a - n| / max(1, |a|, |n|); a NaN entry
    makes it NaN, which fails the check. Raises NonDeterministicError if
    two forward passes of f disagree (two NaNs agree).
    """
    base = x.data.astype(np.float64)

    def run() -> float:
        with no_grad():
            out = f(Tensor(base.copy()))
        if out.data.size != 1:
            raise ShapeError("grad_check expects a scalar-valued function")
        return float(out.data)

    if not np.array_equal(run(), run(), equal_nan=True):
        raise NonDeterministicError("function is not deterministic across forward passes")

    probe = Tensor(base.copy(), requires_grad=True)
    tape = Tape()
    with recording(tape):
        loss = f(probe)
        analytic = backward(loss, tape, {"x": probe})["x"]

    step = 1e-4
    flat = base.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        with no_grad():
            hi = float(f(Tensor(bumped.reshape(base.shape))).data)
        bumped[i] = flat[i] - step
        with no_grad():
            lo = float(f(Tensor(bumped.reshape(base.shape))).data)
        numeric[i] = (hi - lo) / (2.0 * step)
    numeric = numeric.reshape(base.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    max_rel = float((np.abs(analytic - numeric) / denom).max()) if base.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, tol=tol)
