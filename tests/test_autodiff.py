import ast
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styletx import autodiff as ad
from styletx.autodiff import (
    DomainError,
    NonDeterministicError,
    SequenceTooShortError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    clip,
    concat,
    grad_check,
    matmul,
    max_along,
    no_grad,
    recording,
    reshape,
    softmax,
    sum_,
    take_along_last,
    take_rows,
    text_cnn,
    unfold_windows,
)


def test_tensor_keeps_float32_and_casts_everything_else_to_float64():
    f32 = np.ones((2, 3), dtype=np.float32)
    assert Tensor(f32).data is f32
    for value in (1.0, 2, [1, 2], np.ones(2, dtype=np.int64), np.ones(2, dtype=bool),
                  np.ones(2, dtype=np.float16)):
        assert Tensor(value).data.dtype == np.float64
    # a primitive computes in numpy's result type of its operands, and a
    # constant takes the dtype of the tensor it meets
    x = Tensor(f32)
    assert (x * x).data.dtype == np.float32
    assert ad.softmax(x, temperature=0.5).data.dtype == np.float32
    assert (x * 2.0).data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_constant_takes_the_dtype_of_the_tensor_it_meets(dtype):
    t = Tensor(np.arange(1, 3, dtype=dtype))
    mask = np.array([True, False])
    for out in (np.ones(2, np.float32) * t, mask * t, t * mask, 1.0 - t, t + 2, 0.5 * t,
                ad.add(np.ones(2), t), ad.sub(t, np.ones(2)), ad.mul(np.ones(2, np.int64), t)):
        assert isinstance(out, Tensor) and out.data.dtype == dtype
    assert np.array_equal((mask * t).data, [1.0, 0.0])
    # on its own a constant still follows the constructor's rule
    assert ad.as_tensor(1.0).data.dtype == np.float64
    assert ad.add(1.0, 2.0).data.dtype == np.float64
    # a constant initial state of the GRU takes the input's dtype
    rng = np.random.default_rng(0)
    gates = [Tensor(rng.normal(size=s).astype(dtype)) for s in [(3, 2), (2, 2), (2,)] * 3]
    states = ad.gru_sequence(Tensor(np.ones((1, 2, 3), dtype)), np.zeros((1, 2)), gates)
    assert states.data.dtype == dtype


@pytest.mark.parametrize("module", ["model.py", "losses.py"])
def test_the_dtype_rule_lives_in_autodiff_only(module):
    # the model and the losses neither read a tensor's dtype nor wrap a
    # constant in Tensor(...); only the parameter builders make Tensors
    path = Path(__file__).resolve().parent.parent / "src" / "styletx" / module
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def is_tensor_call(node) -> bool:
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "Tensor" or getattr(node.func, "attr", None) == "Tensor")

    dtype_reads = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "dtype"
                   and isinstance(node.value, ast.Attribute) and node.value.attr == "data"]
    builders = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("_init", "_zeros")]
    allowed = {id(node) for f in builders for node in ast.walk(f) if is_tensor_call(node)}
    wraps = [node.lineno for node in ast.walk(tree) if is_tensor_call(node) and id(node) not in allowed]
    assert dtype_reads == [] and wraps == []


def test_no_program_code_names_a_grad_attribute():
    # gradients are values that backward returns: no code reads or writes
    # `x.grad`, on the paths tests run and on those they do not
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "styletx").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "grad"]
    assert len(paths) > 10 and found == []


def run_taped(fn):
    tape = Tape()
    with recording(tape):
        return fn(tape)


def grads_of(loss, tape, tensors) -> list:
    """backward's gradients of the listed tensors, in their order."""
    return list(backward(loss, tape, {str(i): t for i, t in enumerate(tensors)}).values())


# ---------------------------------------------------------------------------
# forward oracles


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[5.0], [6.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), rtol=1e-12)


def test_matmul_zero_case():
    out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_elementwise_basics():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5
    assert ad.tanh(Tensor(0.0)).item() == 0.0
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    out = ad.add(Tensor(a), Tensor(b))
    expected = np.array([a[i] + b[i] for i in range(2)])
    np.testing.assert_array_equal(out.data, expected)


def test_log_values():
    np.testing.assert_allclose(ad.log(Tensor([1.0, math.e])).data, [0.0, 1.0])


def test_log_domain_error():
    with pytest.raises(DomainError):
        ad.log(Tensor([1.0, 0.0]))


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]), temperature=1.0)
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor([1000.0, 0.0]), temperature=1.0)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 1 - 1e-12 and out.data[1] < 1e-12


def test_softmax_scalar_oracle():
    # independent scalar computation of softmax([1, 2])
    e1, e2 = math.exp(1.0), math.exp(2.0)
    expected = [e1 / (e1 + e2), e2 / (e1 + e2)]
    np.testing.assert_allclose(softmax(Tensor([1.0, 2.0])).data, expected, atol=1e-5)
    np.testing.assert_allclose(softmax(Tensor([1.0, 2.0])).data, [0.26894, 0.73106], atol=1e-5)


def test_softmax_temperature_validation():
    with pytest.raises(ValueError):
        softmax(Tensor([1.0]), temperature=0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=30),
       st.floats(min_value=0.1, max_value=10.0))
def test_softmax_rows_sum_to_one(values, temperature):
    out = softmax(Tensor(values), temperature=temperature)
    assert abs(out.data.sum() - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
def test_softmax_positive_on_moderate_range(values):
    # entries only underflow to 0 once the logit spread exceeds ~745
    out = softmax(Tensor(values), temperature=1.0)
    assert np.all(out.data > 0)


def conv_maxpool_oracle(seq, filt, bias):
    # explicit window loop: one dot product per window per map, max over
    # time, ReLU
    width, d, c = filt.shape
    n_win = seq.shape[0] - width + 1
    resp = np.zeros((n_win, c))
    for p in range(n_win):
        for m in range(c):
            acc = bias[m]
            for j in range(width):
                for k in range(d):
                    acc += seq[p + j, k] * filt[j, k, m]
            resp[p, m] = acc
    return np.maximum(resp.max(axis=0), 0.0)


def cnn(seq, filts, biases):
    return text_cnn(Tensor(seq), [Tensor(f) for f in filts], [Tensor(b) for b in biases])


def test_text_cnn_zero_sequence():
    # zero biases pool every map to exactly 0, where the ReLU's gradient is 0
    rng = np.random.default_rng(1)
    args = [Tensor(np.zeros((1, 6, 3)), requires_grad=True)]
    args += [Tensor(rng.normal(size=(w, 3, 4)), requires_grad=True) for w in (1, 2, 3)]
    args += [Tensor(np.zeros(4), requires_grad=True) for _ in range(3)]
    tape = Tape()
    with recording(tape):
        out = text_cnn(args[0], args[1:4], args[4:])
        grads = grads_of(sum_(out), tape, args)
    np.testing.assert_array_equal(out.data, np.zeros((1, 12)))
    for grad in grads:
        np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_text_cnn_single_window_is_identity_pool():
    rng = np.random.default_rng(2)
    seq, filt, bias = rng.normal(size=(3, 2)), rng.normal(size=(3, 2, 5)), rng.normal(size=5)
    out = cnn(seq[None], [filt], [bias])
    np.testing.assert_allclose(out.data[0], conv_maxpool_oracle(seq, filt, bias), rtol=1e-12)


def test_text_cnn_window_loop_oracle():
    rng = np.random.default_rng(3)
    seq = rng.normal(size=(5, 2))
    filts = [rng.normal(size=(w, 2, c)) for w, c in ((2, 1), (1, 3), (4, 2))]
    biases = [rng.normal(size=f.shape[2]) for f in filts]
    out = cnn(seq[None], filts, biases)
    expect = np.concatenate([conv_maxpool_oracle(seq, f, b) for f, b in zip(filts, biases)])
    np.testing.assert_allclose(out.data[0], expect, rtol=1e-12)


def test_text_cnn_batched_matches_per_sequence():
    rng = np.random.default_rng(4)
    seqs = rng.normal(size=(3, 6, 2))
    filts = [rng.normal(size=(w, 2, 4)) for w in (1, 2, 5)]
    biases = [rng.normal(size=4) for _ in filts]
    batched = cnn(seqs, filts, biases)
    for i in range(3):
        single = cnn(seqs[i:i + 1], filts, biases)
        np.testing.assert_array_equal(batched.data[i], single.data[0])


def test_text_cnn_in_float32_runs_in_float32_and_follows_float64():
    rng = np.random.default_rng(4)
    arrays = ([rng.normal(size=(3, 6, 2))] + [rng.normal(size=(w, 2, 4)) for w in (1, 2, 5)]
              + [rng.normal(size=4) for _ in range(3)])
    runs = []
    for dtype in (np.float32, np.float64):
        ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        tape = Tape()
        with recording(tape):
            out = text_cnn(ts[0], ts[1:4], ts[4:])
            grads = grads_of(sum_(ad.mul(out, out)), tape, ts)
        runs.append((out.data, grads))
    (out32, grads32), (out64, grads64) = runs
    assert out32.dtype == np.float32 and all(g.dtype == np.float32 for g in grads32)
    np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-6)
    for g, ref in zip(grads32, grads64):
        np.testing.assert_allclose(g, ref, rtol=1e-5, atol=1e-5)


def test_text_cnn_too_short():
    with pytest.raises(SequenceTooShortError, match="width 4"):
        cnn(np.zeros((1, 2, 3)), [np.zeros((1, 3, 1)), np.zeros((4, 3, 1))], [np.zeros(1)] * 2)


def test_text_cnn_matches_per_width_composition():
    # unfold every window, one matmul against the flattened filter, bias,
    # max over time, ReLU: the chain text_cnn replaces, width by width
    rng = np.random.default_rng(5)
    batch, length, d = 4, 7, 3
    seq = rng.normal(size=(batch, length, d))
    filts = [rng.normal(size=(w, d, 3)) for w in (1, 2, 3, 7)]
    biases = [rng.normal(size=3) for _ in filts]
    pooled = []
    for f, b in zip(filts, biases):
        w, n_win = f.shape[0], length - f.shape[0] + 1
        win = reshape(unfold_windows(Tensor(seq), w), (batch * n_win, w * d))
        resp = reshape(matmul(win, Tensor(f.reshape(w * d, 3))), (batch, n_win, 3))
        pooled.append(np.maximum(max_along(ad.add(resp, Tensor(b)), axis=1).data, 0.0))
    np.testing.assert_allclose(cnn(seq, filts, biases).data, np.concatenate(pooled, axis=1),
                               rtol=0, atol=1e-12)


CNN_ARGS = ["seq", "filter1", "filter2", "filter3", "filter5", "bias1", "bias2", "bias3", "bias5"]


@pytest.mark.parametrize("arg", range(len(CNN_ARGS)), ids=CNN_ARGS)
def test_text_cnn_gradients_match_finite_differences(arg):
    # the widths mix 1, 2, 3 and the full length 5
    rng = np.random.default_rng(6)
    values = [rng.normal(size=(3, 5, 2))]
    values += [rng.normal(size=(w, 2, c)) for w, c in ((1, 2), (2, 3), (3, 1), (5, 2))]
    values += [rng.normal(size=f.shape[2]) for f in values[1:5]]
    weights = Tensor(np.linspace(-1.0, 1.0, 3 * 8).reshape(3, 8))

    def f(x):
        args = [Tensor(v) for v in values]
        args[arg] = x
        return sum_(ad.mul(text_cnn(args[0], args[1:5], args[5:]), weights))

    assert grad_check(f, Tensor(values[arg])).passed


def test_text_cnn_gradient_goes_to_the_first_argmax():
    # every window of the constant sequence ties; max_along's rule sends
    # map 0's whole gradient to window 0, so only its positions get any.
    # Map 1's windows are all negative, so the ReLU passes it no gradient
    seq = Tensor(np.ones((1, 4, 1)), requires_grad=True)
    filt = Tensor(np.array([[[1.0, -1.0]], [[2.0, -2.0]]]), requires_grad=True)
    bias = Tensor(np.zeros(2), requires_grad=True)
    tape = Tape()
    with recording(tape):
        out = text_cnn(seq, [filt], [bias])
        g_seq, g_filt, g_bias = grads_of(sum_(out), tape, [seq, filt, bias])
    np.testing.assert_array_equal(out.data, [[3.0, 0.0]])
    np.testing.assert_array_equal(g_seq, [[[1.0], [2.0], [0.0], [0.0]]])
    np.testing.assert_array_equal(g_filt, [[[1.0, 0.0]], [[1.0, 0.0]]])
    np.testing.assert_array_equal(g_bias, [1.0, 0.0])


def text_cnn_batch_major(seq, filters, biases, g):
    """Output and (seq, *filters, *biases) gradients of the text CNN for
    output gradient g, with its products laid out [B, L, Σ w·C]: one GEMM
    of the [B·L, D] rows by the stacked taps, shifted [B, windows, C] tap
    blocks, pooling and the first argmax along the windows, then ReLU,
    whose mask zeroes the gradient of every map that pooled to 0 or NaN."""
    batch, length, d = seq.shape
    taps = np.concatenate([f.transpose(1, 0, 2).reshape(d, -1) for f in filters], axis=1)
    flat = seq.reshape(batch * length, d)
    prod = (flat @ taps).reshape(batch, length, -1)
    out, g_maps, g_prod, col, m0 = [], [], np.zeros_like(prod), 0, 0
    for f, b in zip(filters, biases):
        width, _, n_maps = f.shape
        n_win = length - width + 1
        resp = prod[:, :n_win, col:col + n_maps].copy()
        for j in range(1, width):
            resp += prod[:, j:j + n_win, col + j * n_maps:col + (j + 1) * n_maps]
        resp += b
        out.append(np.maximum(resp.max(axis=1), 0.0))
        g_maps.append(g[:, m0:m0 + n_maps] * (out[-1] > 0))
        idx = resp.argmax(axis=1)
        for r in range(batch):
            for m in range(n_maps):
                for j in range(width):
                    g_prod[r, idx[r, m] + j, col + j * n_maps + m] = g_maps[-1][r, m]
        col, m0 = col + width * n_maps, m0 + n_maps
    g_prod = g_prod.reshape(batch * length, -1)
    g_taps = flat.T @ g_prod
    g_filters, col = [], 0
    for f in filters:
        width, _, n_maps = f.shape
        g_filters.append(g_taps[:, col:col + width * n_maps].reshape(d, width, n_maps).transpose(1, 0, 2))
        col += width * n_maps
    g_biases = [gm.sum(axis=0) for gm in g_maps]
    return np.concatenate(out, axis=1), [(g_prod @ taps.T).reshape(seq.shape), *g_filters, *g_biases]


def test_text_cnn_equals_the_batch_major_layout_bit_for_bit():
    # float32 with mixed widths: row 0 repeats a 3-step pattern, so every
    # width has tied windows and the first must win; row 1 holds a NaN, so
    # every map over it pools NaN and, like a map pooled to 0 or below,
    # passes no gradient
    rng = np.random.default_rng(11)
    seq = rng.normal(size=(4, 9, 5)).astype(np.float32)
    seq[0] = np.tile(seq[0, :3], (3, 1))
    seq[1, 4, 2] = np.nan
    filters = [rng.normal(size=(w, 5, c)).astype(np.float32) for w, c in ((1, 3), (2, 4), (3, 2), (5, 3))]
    biases = [rng.normal(size=f.shape[2]).astype(np.float32) for f in filters]
    g = rng.normal(size=(4, 12)).astype(np.float32)
    args = [Tensor(a, requires_grad=True) for a in [seq, *filters, *biases]]
    tape = Tape()
    with recording(tape):
        out = text_cnn(args[0], args[1:5], args[5:])
        grads = grads_of(sum_(ad.mul(out, g)), tape, args)
    ref_out, ref_grads = text_cnn_batch_major(seq, filters, biases, g)
    assert np.isnan(out.data[1]).all() and not np.isnan(out.data[[0, 2, 3]]).any()
    kept = out.data[[0, 2, 3]]
    assert (kept == 0).any() and (kept > 0).any()  # the ReLU cuts some maps, not all
    np.testing.assert_array_equal(out.data, ref_out)
    for grad, ref in zip(grads, ref_grads):
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad, ref)
    # every window pooled in the tied row starts before step 3, so the last
    # two steps, which only later tied windows reach, get no gradient
    assert (grads[0][0, 7:] == 0).all() and (grads[0][0, :7] != 0).any()
    assert (grads[0][1] == 0).all()


def test_scatter_adds_equal_a_sequential_loop_bit_for_bit():
    # repeated ids: float32 sums depend on their order, and the backward
    # passes must add in the order of the rows
    rng = np.random.default_rng(12)
    table = Tensor(rng.normal(size=(5, 7)).astype(np.float32), requires_grad=True)
    ids = rng.integers(0, 5, size=(30, 4))
    g_rows = rng.normal(size=(30, 4, 7)).astype(np.float32)
    x = Tensor(rng.normal(size=(6, 4, 3)).astype(np.float32), requires_grad=True)
    idx = rng.integers(0, 3, size=(6, 4))
    g_last = rng.normal(size=(6, 4)).astype(np.float32)
    tape = Tape()
    with recording(tape):
        loss = ad.add(sum_(ad.mul(take_rows(table, ids), g_rows)),
                      sum_(ad.mul(take_along_last(x, idx), g_last)))
        g_table, g_x = grads_of(loss, tape, [table, x])
    expect_table = np.zeros_like(table.data)
    for i, row in enumerate(ids.reshape(-1)):
        expect_table[row] += g_rows.reshape(-1, 7)[i]
    expect_x = np.zeros_like(x.data)
    for i in range(6):
        for j in range(4):
            expect_x[i, j, idx[i, j]] += g_last[i, j]
    np.testing.assert_array_equal(g_table, expect_table)
    np.testing.assert_array_equal(g_x, expect_x)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_of_squares():
    def body(tape):
        x = Tensor([1.0, 2.0], requires_grad=True)
        return backward(sum_(ad.mul(x, x)), tape, {"x": x})["x"]

    np.testing.assert_array_equal(run_taped(body), [2.0, 4.0])


def test_backward_detached_gets_zeros():
    def body(tape):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        _ = sum_(x)  # x participates in the graph but not in the loss
        return backward(sum_(ad.mul(y, y)), tape, {"x": x})["x"]

    np.testing.assert_array_equal(run_taped(body), [0.0, 0.0])


def test_backward_non_scalar_raises():
    def body(tape):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(ad.mul(x, x), tape, {"x": x})

    run_taped(body)


def test_backward_returns_exactly_the_requested_names_in_order():
    def body(tape):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        return backward(sum_(ad.mul(x, y)), tape, {"y": y, "x": x})

    grads = run_taped(body)
    assert list(grads) == ["y", "x"]
    np.testing.assert_array_equal(grads["y"], [3.0])
    np.testing.assert_array_equal(grads["x"], [3.0, 3.0])


def test_backward_gives_exact_zeros_to_what_the_loss_does_not_reach():
    # on the tape but off the loss's path, frozen, and never recorded
    def body(tape):
        x = Tensor([1.0, 2.0], requires_grad=True)
        off_path = Tensor([5.0, 6.0], requires_grad=True)
        frozen = Tensor([7.0, 8.0])
        unrecorded = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        _ = sum_(off_path)
        loss = sum_(ad.mul(ad.mul(x, x), frozen))
        return backward(loss, tape, {"x": x, "off_path": off_path, "frozen": frozen,
                                     "unrecorded": unrecorded})

    grads = run_taped(body)
    np.testing.assert_array_equal(grads["x"], [14.0, 32.0])
    for name in ("off_path", "frozen", "unrecorded"):
        assert not grads[name].any(), name
    assert grads["unrecorded"].shape == (2, 3) and grads["unrecorded"].dtype == np.float32


def test_two_forward_passes_give_two_independent_gradients():
    # nothing accumulates across tapes: each sweep returns its own pass's
    # gradient, and the first result is not changed by the second sweep
    x = Tensor([1.0, 2.0], requires_grad=True)
    first = run_taped(lambda tape: backward(sum_(ad.mul(x, x)), tape, {"x": x}))["x"]
    second = run_taped(lambda tape: backward(sum_(ad.mul(x, 3.0)), tape, {"x": x}))["x"]
    np.testing.assert_array_equal(first, [2.0, 4.0])
    np.testing.assert_array_equal(second, [3.0, 3.0])


def test_a_tensor_has_no_grad_attribute():
    with pytest.raises(AttributeError):
        Tensor(1.0).grad = np.ones(())


def test_a_second_sweep_of_one_tape_raises():
    def body(tape):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = sum_(ad.mul(x, x))
        grads = backward(loss, tape, {"x": x})
        with pytest.raises(RuntimeError, match="already swept"):
            backward(loss, tape, {"x": x})
        return grads

    np.testing.assert_array_equal(run_taped(body)["x"], [2.0, 4.0])


def test_backward_releases_each_op_and_keeps_the_tape_length():
    tape = Tape()
    with recording(tape):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        y = ad.sigmoid(x)
        loss = sum_(ad.mul(y, y))
    saved = weakref.ref(y.data)          # sigmoid's closure keeps its output
    held = weakref.ref(tape.ops[0].out)
    del y
    assert saved() is not None and held() is not None
    backward(loss, tape, {"x": x})
    assert saved() is None and held() is None
    assert len(tape) == 3 and tape.ops == [None] * 3
    tape.clear()
    assert len(tape) == 0
    with recording(tape):   # a cleared tape records and sweeps a new pass
        grads = backward(sum_(ad.mul(x, x)), tape, {"x": x})
    np.testing.assert_array_equal(grads["x"], 2.0 * x.data)


def test_zero_multiplied_loss_gives_exact_zero_grads():
    def body(tape):
        x = Tensor([1.3, -0.7], requires_grad=True)
        loss = ad.mul(sum_(ad.mul(x, x)), 0.0)
        return backward(loss, tape, {"x": x})["x"]

    g = run_taped(body)
    assert g.shape == (2,)
    assert np.all(g == 0.0)


def test_replay_determinism_bit_identical():
    def one_pass():
        rng = np.random.default_rng(7)
        tape = Tape()
        with recording(tape):
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            loss = sum_(ad.sigmoid(matmul(x, w)))
            return grads_of(loss, tape, [x, w])

    gx1, gw1 = one_pass()
    gx2, gw2 = one_pass()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_tape_clear_releases_intermediates():
    tape = Tape()
    with recording(tape):
        x = Tensor([1.0], requires_grad=True)
        y = ad.mul(x, x)
    ref = weakref.ref(y)
    del y
    assert ref() is not None  # the tape still holds it
    tape.clear()
    assert ref() is None


def test_no_grad_blocks_recording():
    tape = Tape()
    with recording(tape):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
    assert len(tape) == 0


def test_gru_cell_gradients_match_finite_differences():
    # one GRU step composed from raw primitives, checked weight-by-weight
    rng = np.random.default_rng(11)
    d_in, d_h = 3, 4
    x0 = rng.normal(size=(1, d_in))
    h0 = rng.normal(size=(1, d_h))
    packs = {name: rng.normal(size=shape) * 0.5 for name, shape in [
        ("wz", (d_in, d_h)), ("uz", (d_h, d_h)), ("bz", (d_h,)),
        ("wr", (d_in, d_h)), ("ur", (d_h, d_h)), ("br", (d_h,)),
        ("wh", (d_in, d_h)), ("uh", (d_h, d_h)), ("bh", (d_h,)),
    ]}

    def step(weights):
        x, h = Tensor(x0), Tensor(h0)
        z = ad.sigmoid(matmul(x, weights["wz"]) + matmul(h, weights["uz"]) + weights["bz"])
        r = ad.sigmoid(matmul(x, weights["wr"]) + matmul(h, weights["ur"]) + weights["br"])
        cand = ad.tanh(matmul(x, weights["wh"]) + matmul(ad.mul(r, h), weights["uh"]) + weights["bh"])
        h_next = (1.0 - z) * h + z * cand
        return sum_(h_next)

    for name in packs:
        def f(t, name=name):
            weights = {k: Tensor(v) for k, v in packs.items()}
            weights[name] = t
            return step(weights)

        report = grad_check(f, Tensor(packs[name]), tol=1e-4)
        assert report.passed, f"{name}: {report.max_rel_err}"


# ---------------------------------------------------------------------------
# gru_sequence: the packed masked unroll

GRU_NAMES = ("x", "h0", "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_c", "u_c", "b_c")
GRU_LENGTHS = {
    "lengths": np.array([1, 4, 2]),           # 1, T and a middle value
    "unsorted": np.array([2, 4, 0, 4, 1]),    # ties, 0, 1 and T, out of order
    "none": None,
}


def gru_inputs(seed=5, batch=3, steps=4, d_in=2, d_h=3, lengths=None):
    if lengths is not None:
        batch = len(lengths)
    rng = np.random.default_rng(seed)
    shapes = [(batch, steps, d_in), (batch, d_h)] + [(d_in, d_h), (d_h, d_h), (d_h,)] * 3
    return [rng.normal(size=s) * 0.7 for s in shapes]


def reference_unroll(x, h0, weights, lengths):
    """The per-gate unroll from elementwise primitives, one step at a time."""
    wz, uz, bz, wr, ur, br, wc, uc, bc = weights
    batch, steps, d_in = x.shape
    flat_x = reshape(x, (batch * steps, d_in))
    h, states = h0, []
    for t in range(steps):
        x_t = take_rows(flat_x, np.arange(batch) * steps + t)
        z = ad.sigmoid(matmul(x_t, wz) + matmul(h, uz) + bz)
        r = ad.sigmoid(matmul(x_t, wr) + matmul(h, ur) + br)
        c = ad.tanh(matmul(x_t, wc) + matmul(ad.mul(r, h), uc) + bc)
        h_new = (1.0 - z) * h + z * c
        if lengths is not None and t >= lengths.min():
            h_new = h_new * Tensor((lengths > t).astype(np.float64)[:, None])
        h = h_new
        states.append(reshape(h, (batch, 1, h.shape[1])))
    return concat(states, axis=1)


def gru_loss(unroll, values, lengths):
    states = unroll(values[0], values[1], values[2:], lengths)
    probe = np.random.default_rng(9).normal(size=states.shape)
    return sum_(ad.mul(states, Tensor(probe)))


@pytest.mark.parametrize("lengths", GRU_LENGTHS.values(), ids=GRU_LENGTHS.keys())
@pytest.mark.parametrize("k", range(len(GRU_NAMES)), ids=GRU_NAMES)
def test_gru_sequence_gradients_match_finite_differences(k, lengths):
    values = [Tensor(v) for v in gru_inputs(lengths=lengths)]

    def f(t):
        return gru_loss(ad.gru_sequence, values[:k] + [t] + values[k + 1:], lengths)

    report = grad_check(f, Tensor(values[k].data))
    assert report.passed, f"{GRU_NAMES[k]}: {report.max_rel_err}"


@pytest.mark.parametrize("lengths", GRU_LENGTHS.values(), ids=GRU_LENGTHS.keys())
def test_gru_sequence_matches_per_gate_unroll(lengths):
    grads = []
    for unroll in (ad.gru_sequence, reference_unroll):
        values = [Tensor(v, requires_grad=True) for v in gru_inputs(lengths=lengths)]
        tape = Tape()
        with recording(tape):
            loss = gru_loss(unroll, values, lengths)
            grads.append((loss.item(), grads_of(loss, tape, values)))
    (fused_loss, fused), (ref_loss, ref) = grads
    assert fused_loss == pytest.approx(ref_loss, rel=1e-12)
    for name, a, b in zip(GRU_NAMES, fused, ref):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=name)
    with no_grad():
        inputs = [Tensor(v) for v in gru_inputs(lengths=lengths)]
        np.testing.assert_allclose(ad.gru_sequence(inputs[0], inputs[1], inputs[2:], lengths).data,
                                   reference_unroll(inputs[0], inputs[1], inputs[2:], lengths).data,
                                   rtol=1e-12, atol=1e-14)


def test_gru_sequence_states_are_zero_past_each_rows_end():
    lengths = np.array([1, 4, 2])
    values = gru_inputs()
    states = ad.gru_sequence(values[0], values[1], values[2:], lengths).data
    for row, n in enumerate(lengths):
        assert states[row, :n].all()
        assert not states[row, n:].any()
    # a row's state never depends on inputs past its length
    values[0][0, 1:] += 1.0
    moved = ad.gru_sequence(values[0], values[1], values[2:], lengths).data
    assert np.array_equal(moved[0], states[0])


def gru_grads(values, lengths):
    """States and the gradients of all eleven inputs under `gru_loss`."""
    tensors = [Tensor(v, requires_grad=True) for v in values]
    tape = Tape()
    with recording(tape):
        states = ad.gru_sequence(tensors[0], tensors[1], tensors[2:], lengths)
        probe = np.random.default_rng(9).normal(size=states.shape)
        grads = grads_of(sum_(ad.mul(states, Tensor(probe))), tape, tensors)
    return states.data, probe, grads


@pytest.mark.parametrize("lengths", GRU_LENGTHS.values(), ids=GRU_LENGTHS.keys())
def test_gru_sequence_in_float32_runs_in_float32_and_follows_float64(lengths):
    values = gru_inputs(lengths=lengths)
    states, _, grads = gru_grads([v.astype(np.float32) for v in values], lengths)
    ref_states, _, ref_grads = gru_grads(values, lengths)
    assert states.dtype == np.float32 and all(g.dtype == np.float32 for g in grads)
    # inputs rounded to float32 (relative 6e-8), a few steps of float32 arithmetic
    np.testing.assert_allclose(states, ref_states, rtol=1e-5, atol=1e-6)
    for name, g, ref in zip(GRU_NAMES, grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-5, atol=1e-5, err_msg=name)


def test_gru_sequence_permuting_rows_permutes_states_and_input_gradients():
    lengths = GRU_LENGTHS["unsorted"]
    values = gru_inputs(lengths=lengths)
    states, probe, grads = gru_grads(values, lengths)
    perm = np.array([3, 0, 4, 2, 1])
    moved = [values[0][perm], values[1][perm]] + values[2:]
    tensors = [Tensor(v, requires_grad=True) for v in moved]
    tape = Tape()
    with recording(tape):
        out = ad.gru_sequence(tensors[0], tensors[1], tensors[2:], lengths[perm])
        moved_grads = grads_of(sum_(ad.mul(out, Tensor(probe[perm]))), tape, tensors)
    assert np.array_equal(out.data, states[perm])
    assert np.array_equal(moved_grads[0], grads[0][perm])
    assert np.array_equal(moved_grads[1], grads[1][perm])
    for name, moved_g, g in zip(GRU_NAMES[2:], moved_grads[2:], grads[2:]):
        np.testing.assert_allclose(moved_g, g, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("lengths", [np.array([2]), np.array([[1, 2, 3]]), np.array([1, -1, 2])],
                         ids=["one-for-the-batch", "two-dim", "negative"])
def test_gru_sequence_refuses_bad_lengths(lengths):
    values = gru_inputs()
    with pytest.raises(ShapeError):
        ad.gru_sequence(values[0], values[1], values[2:], lengths)


def test_gru_sequence_length_past_the_end_is_live_at_every_step():
    values = gru_inputs()
    capped, _, capped_grads = gru_grads(values, np.array([4, 4, 2]))
    longer, _, longer_grads = gru_grads(values, np.array([9, 4, 2]))
    assert np.array_equal(longer, capped)
    for name, a, b in zip(GRU_NAMES, longer_grads, capped_grads):
        assert np.array_equal(a, b), name


def test_gru_sequence_length_zero_row_is_all_zeros():
    values = gru_inputs()
    states, probe, grads = gru_grads(values, np.array([0, 4, 2]))
    assert not states[0].any()
    assert not grads[0][0].any()                          # its inputs are never read
    assert not grads[1][0].any()                          # nor is its h0


def test_gru_sequence_no_grad_records_nothing_and_agrees():
    values = gru_inputs()
    tape = Tape()
    with recording(tape):
        tracked = ad.gru_sequence(Tensor(values[0], requires_grad=True), values[1], values[2:],
                                  GRU_LENGTHS["lengths"])
        assert len(tape) == 1
        with no_grad():
            plain = ad.gru_sequence(Tensor(values[0], requires_grad=True), values[1], values[2:],
                                    GRU_LENGTHS["lengths"])
    assert len(tape) == 1 and not plain.requires_grad
    assert np.array_equal(tracked.data, plain.data)


def gru_sequence_states_held_twice(x, h0, weights, lengths=None):
    """gru_sequence as it was before each state was held once: its closure
    kept a work buffer of the gates, a copy of h0 and every state, and the
    output was a second copy of the states. Backward wrote the
    pre-activation gradients to a buffer of their own. The current unroll
    must agree with it bit for bit."""
    x = ad.as_tensor(x)
    h0 = ad.as_tensor(h0, like=x)
    weights = tuple(ad.as_tensor(w) for w in weights)
    wz, uz, bz, wr, ur, br, wc, uc, bc = (w.data for w in weights)
    inputs = (x, h0) + weights
    dtype = np.result_type(*(t.data for t in inputs))
    batch, steps, d_in = x.shape
    d_h = uz.shape[0]
    if lengths is not None:
        lengths = np.asarray(lengths)
    packed = lengths is not None and bool((lengths < steps).any())

    if packed:
        # sorted row i is row order[i]; live[t, i] says whether it is live at step t
        order = np.argsort(-lengths, kind="stable")
        row_len = np.minimum(lengths[order], steps)
        live = np.arange(steps)[:, None] < row_len
        counts = live.sum(axis=1).tolist()
    else:
        counts = [batch] * steps
    # step t's live rows fill rows offsets[t]:offsets[t + 1] of the packed
    # arrays; its input states are rows prev[t]:prev[t] + counts[t] of `hs`
    offsets = [0]
    for n in counts:
        offsets.append(offsets[-1] + n)
    prev = [0] + [batch + lo for lo in offsets[:-2]]
    n_live = offsets[-1]
    blocks = [(offsets[t], offsets[t + 1], prev[t]) for t in range(steps) if counts[t]]

    # pack: [B, T, n] -> [N, n], the live pairs time-major, so each step's
    # rows form one contiguous block; unpack: back, zeros at padded pairs.
    # With every row live at every step that is a transpose, with no gather.
    if packed:
        rows = np.arange(batch)
        # flat index into [B·T] of each packed pair, and of each pair's input state in `hs`
        pair_index = (order * steps + np.arange(steps)[:, None])[live]
        prev_index = (np.array(prev)[:, None] + rows)[live]

        def pack(a):
            return a.reshape(batch * steps, a.shape[2])[pair_index]

        def unpack(a):
            out = np.zeros((batch * steps, a.shape[1]), dtype=a.dtype)
            out[pair_index] = a
            return out.reshape(batch, steps, a.shape[1])
    else:
        prev_index = slice(0, n_live)

        def pack(a):
            return np.ascontiguousarray(a.swapaxes(0, 1)).reshape(n_live, a.shape[2])

        def unpack(a):
            return np.ascontiguousarray(a.reshape(steps, batch, a.shape[1]).swapaxes(0, 1))

    # one buffer for the gates z, r, c of every live pair, then h0 and the
    # state after every live pair: one large allocation faults in much
    # faster than several mid-sized ones (numpy asks for huge pages from 4 MB up)
    work = np.empty((4 * n_live + batch, d_h), dtype=dtype)
    zs, rs, cs = work[:3 * n_live].reshape(3, n_live, d_h)
    hs = work[3 * n_live:]
    flat_x = pack(x.data)
    for gate, w in zip((zs, rs, cs), (wz, wr, wc)):
        np.matmul(flat_x, w, out=gate)
    hs[:batch] = h0.data[order] if packed else h0.data
    rh_buf, tmp_buf = np.empty((2, batch, d_h), dtype=dtype)
    with np.errstate(over="ignore"):   # exp overflow gives the correct sigmoid 0
        for lo, hi, p in blocks:
            n = hi - lo
            z, r, c = zs[lo:hi], rs[lo:hi], cs[lo:hi]
            h, h_next, rh, tmp = hs[p:p + n], hs[batch + lo:batch + hi], rh_buf[:n], tmp_buf[:n]
            z += h @ uz
            z += bz
            ad._sigmoid_inplace(z)
            r += h @ ur
            r += br
            ad._sigmoid_inplace(r)
            np.multiply(r, h, out=rh)
            c += rh @ uc
            c += bc
            np.tanh(c, out=c)
            np.subtract(1.0, z, out=h_next)
            h_next *= h
            np.multiply(z, c, out=tmp)
            h_next += tmp
    out = unpack(hs[batch:])

    def bwd(g):
        # g_hs mirrors hs: the gradient of h0, then of each live pair's new
        # state; each step adds its terms to its input states' rows in the
        # order of the per-gate ops' reverse sweep
        g_hs = np.empty((batch + n_live, d_h), dtype=dtype)
        g_hs[:batch] = 0.0
        g_hs[batch:] = pack(g)
        g_pre = np.empty((3, n_live, d_h), dtype=dtype)  # pre-activation z, r, c
        for lo, hi, p in reversed(blocks):
            n = hi - lo
            h, z, r, c = hs[p:p + n], zs[lo:hi], rs[lo:hi], cs[lo:hi]
            g_new, g_prev = g_hs[batch + lo:batch + hi], g_hs[p:p + n]
            omz = 1.0 - z
            g_z = g_new * c
            g_c = g_new * z
            g_prev += g_new * omz
            g_z -= g_new * h
            gz_pre, gr_pre, gc_pre = g_pre[:, lo:hi]
            np.multiply(c, c, out=gc_pre)
            np.subtract(1.0, gc_pre, out=gc_pre)
            gc_pre *= g_c
            g_rh = gc_pre @ uc.T
            g_prev += g_rh * r
            np.multiply(g_rh * h, r, out=gr_pre)
            gr_pre *= 1.0 - r
            g_prev += gr_pre @ ur.T
            np.multiply(g_z, z, out=gz_pre)
            gz_pre *= omz
            g_prev += gz_pre @ uz.T
        gz_all, gr_all, gc_all = g_pre
        flat_h = hs[prev_index]
        flat_rh = rs * flat_h
        gx = None
        if x.requires_grad:
            gx = unpack((gc_all @ wc.T + gr_all @ wr.T) + gz_all @ wz.T)
        g_h0 = g_hs[:batch]
        if packed:
            g_h0 = np.empty_like(g_h0)
            g_h0[order] = g_hs[:batch]
        return (gx, g_h0,
                flat_x.T @ gz_all, flat_h.T @ gz_all, gz_all.sum(axis=0),
                flat_x.T @ gr_all, flat_h.T @ gr_all, gr_all.sum(axis=0),
                flat_x.T @ gc_all, flat_rh.T @ gc_all, gc_all.sum(axis=0))

    return ad._record(out, inputs, bwd)


GRU_HELD_ONCE_CASES = {
    # batch, steps, lengths, and whether x and h0 require gradients
    "packed-ties-and-zero": (6, 5, np.array([2, 5, 0, 5, 1, 2]), True, True),
    "unpacked-one-step": (4, 1, None, True, True),
    "unpacked-steps": (4, 5, np.array([5, 7, 5, 5]), True, True),
    "h0-grad-x-constant": (4, 5, np.array([3, 5, 1, 5]), False, True),
    "h0-constant": (4, 5, np.array([3, 5, 1, 5]), True, False),
}


@pytest.mark.parametrize("case", GRU_HELD_ONCE_CASES.values(), ids=GRU_HELD_ONCE_CASES.keys())
def test_gru_sequence_holding_each_state_once_is_bit_identical(case):
    batch, steps, lengths, grad_x, grad_h0 = case
    values = [v.astype(np.float32)
              for v in gru_inputs(seed=11, batch=batch, steps=steps, d_in=7, d_h=33)]
    flags = [grad_x, grad_h0] + [True] * 9
    probe = np.random.default_rng(3).normal(size=(batch, steps, 33)).astype(np.float32)
    results = []
    for unroll in (ad.gru_sequence, gru_sequence_states_held_twice):
        tensors = [Tensor(v, requires_grad=f) for v, f in zip(values, flags)]
        tape = Tape()
        with recording(tape):
            states = unroll(tensors[0], tensors[1], tensors[2:], lengths)
            results.append((states.data, grads_of(sum_(ad.mul(states, Tensor(probe))), tape, tensors)))
    (states, grads), (ref_states, ref_grads) = results
    assert states.dtype == np.float32 and np.array_equal(states, ref_states)
    for name, flag, g, ref in zip(GRU_NAMES, flags, grads, ref_grads):
        assert g.dtype == np.float32 and np.array_equal(g, ref), name
        if not flag:   # a constant input gets exactly-zero gradients
            assert not g.any(), name


# ---------------------------------------------------------------------------
# gru_sequence: one [B, d_in] step


def gru_step_grads(values, flags, one_step):
    """The state of a one-step unroll, as [B, h], and the gradients of all
    eleven inputs, x's as [B, d_in]: for a [B, d_in] step, or a [B, 1, d_in]
    sequence."""
    x = values[0] if one_step else values[0][:, None, :]
    tensors = [Tensor(v, requires_grad=f) for v, f in zip([x] + values[1:], flags)]
    probe = np.random.default_rng(4).normal(size=values[1].shape).astype(values[1].dtype)
    tape = Tape()
    with recording(tape):
        state = ad.gru_sequence(tensors[0], tensors[1], tensors[2:])
        state = state if one_step else reshape(state, values[1].shape)
        grads = grads_of(sum_(ad.mul(state, Tensor(probe))), tape, tensors)
    grads[0] = grads[0].reshape(values[0].shape)
    return state.data, grads


@pytest.mark.parametrize("grad_x,grad_h0", [(True, True), (False, True), (True, False)],
                         ids=["both", "x-constant", "h0-constant"])
def test_gru_step_equals_a_one_step_sequence_bit_for_bit(grad_x, grad_h0):
    values = [v.astype(np.float32)
              for v in gru_inputs(seed=13, batch=6, steps=1, d_in=7, d_h=33)]
    values[0] = values[0][:, 0]
    flags = [grad_x, grad_h0] + [True] * 9
    state, grads = gru_step_grads(values, flags, one_step=True)
    ref_state, ref_grads = gru_step_grads(values, flags, one_step=False)
    assert state.shape == values[1].shape and state.dtype == np.float32
    assert np.array_equal(state, ref_state)
    for name, flag, g, ref in zip(GRU_NAMES, flags, grads, ref_grads):
        assert g.dtype == np.float32 and np.array_equal(g, ref), name
        if not flag:   # a constant input gets exactly-zero gradients
            assert not g.any(), name


def test_a_gru_step_holds_no_copy_of_its_input():
    # x is far larger than the gates and states the recorded step keeps
    values = gru_inputs(batch=32, steps=1, d_in=4096, d_h=2)
    x = Tensor(values[0][:, 0], requires_grad=True)
    tape = Tape()
    tracemalloc.start()
    try:
        with recording(tape):
            before = tracemalloc.get_traced_memory()[0]
            ad.gru_sequence(x, values[1], values[2:])
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and held < x.data.nbytes // 8


def test_gru_sequence_rows_that_all_run_every_step_keep_their_order():
    # sorting by the length clipped to T leaves such a batch as it is, so it
    # gives what lengths=None gives, bit for bit
    values = gru_inputs(seed=17, batch=5, steps=4, d_in=6, d_h=9)
    states, _, grads = gru_grads(values, np.array([4, 9, 4, 6, 4]))
    ref_states, _, ref_grads = gru_grads(values, None)
    assert np.array_equal(states, ref_states)
    for name, g, ref in zip(GRU_NAMES, grads, ref_grads):
        assert np.array_equal(g, ref), name


GRU_BAD_SHAPES = {
    # x's shape, h0's rows, lengths
    "step-with-lengths": ((3, 2), 3, np.array([1, 1, 1])),
    "rank-1-x": ((2,), 1, None),
    "rank-4-x": ((3, 4, 1, 2), 3, None),
    "step-h0-rows": ((3, 2), 2, None),
    "sequence-h0-rows": ((3, 4, 2), 4, None),
}


@pytest.mark.parametrize("case", GRU_BAD_SHAPES.values(), ids=GRU_BAD_SHAPES.keys())
def test_gru_sequence_refuses_bad_shapes(case):
    x_shape, h0_rows, lengths = case
    values = gru_inputs()
    with pytest.raises(ShapeError):
        ad.gru_sequence(np.ones(x_shape), np.zeros((h0_rows, 3)), values[2:], lengths)


# ---------------------------------------------------------------------------
# per-primitive finite differences, many seeds


PRIMITIVE_CASES = [
    ("add", lambda x: sum_(ad.add(x, 0.3)), (3, 2)),
    ("sub", lambda x: sum_(ad.sub(1.7, x)), (3, 2)),
    ("mul", lambda x: sum_(ad.mul(x, x)), (3, 2)),
    ("neg", lambda x: sum_(ad.neg(x)), (4,)),
    ("matmul", lambda x: sum_(matmul(x, reshape(x, (2, 3)))), (3, 2)),
    ("sigmoid", lambda x: sum_(ad.sigmoid(x)), (5,)),
    ("tanh", lambda x: sum_(ad.tanh(x)), (5,)),
    ("log", lambda x: sum_(ad.log(ad.add(ad.mul(x, x), 1.0))), (4,)),
    ("softmax", lambda x: sum_(ad.mul(softmax(x, temperature=0.7), Tensor([0.2, -1.0, 0.5]))), (3,)),
    ("sum_axis", lambda x: sum_(ad.mul(sum_(x, axis=0), Tensor([1.0, -2.0]))), (3, 2)),
    ("reshape", lambda x: sum_(ad.mul(reshape(x, (6,)), Tensor(np.arange(6.0)))), (3, 2)),
    ("broadcast", lambda x: sum_(ad.mul(ad.broadcast_to(x, (4, 3)), Tensor(np.arange(12.0).reshape(4, 3)))), (3,)),
    ("concat", lambda x: sum_(ad.mul(concat([x, ad.mul(x, 2.0)], axis=0), Tensor(np.arange(8.0).reshape(8, 1)))), (4, 1)),
    ("take_rows", lambda x: sum_(ad.mul(take_rows(x, np.array([0, 2, 2])), Tensor(np.arange(6.0).reshape(3, 2)))), (3, 2)),
    ("take_along_last", lambda x: sum_(take_along_last(x, np.array([2, 0]))), (2, 3)),
    ("max_along", lambda x: sum_(max_along(x, axis=1)), (2, 4)),
    ("unfold", lambda x: sum_(ad.mul(unfold_windows(x, 2), Tensor(np.arange(16.0).reshape(4, 4)))), (5, 2)),
    ("clip", lambda x: sum_(clip(x, -0.5, 0.5)), (6,)),
    ("text_cnn", lambda x: sum_(text_cnn(x, [Tensor(np.linspace(-1, 1, 12).reshape(2, 2, 3)),
                                             Tensor(np.linspace(1, -1, 6).reshape(3, 2, 1))],
                                         [Tensor([0.1, -0.2, 0.3]), Tensor([0.05])])), (1, 5, 2)),
]


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_100_seeds(name, fn, shape):
    worst = 0.0
    for seed in range(100):
        x = np.random.default_rng(seed).normal(size=shape)
        if name == "clip":
            # keep entries away from the clip boundaries where the
            # subgradient is genuinely discontinuous
            x = np.where(np.abs(np.abs(x) - 0.5) < 1e-2, x + 0.05, x)
        report = grad_check(fn, Tensor(x), tol=1e-4)
        worst = max(worst, report.max_rel_err)
        assert report.passed, f"{name} seed {seed}: {report.max_rel_err}"
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_linear_is_exact():
    report = grad_check(lambda x: sum_(x), Tensor(np.random.default_rng(0).normal(size=(4,))))
    assert report.max_rel_err < 1e-10


def test_grad_check_probes_a_float32_input_in_float64():
    seen = []

    def f(x):
        seen.append(x.data.dtype)
        return sum_(ad.sigmoid(ad.mul(ad.tanh(x), 2.0)))

    x = np.random.default_rng(1).normal(size=(5,)).astype(np.float32)
    report = grad_check(f, Tensor(x), tol=1e-4)
    assert report.passed and set(seen) == {np.dtype(np.float64)}


def test_grad_check_sigmoid_composite_passes():
    f = lambda x: sum_(ad.sigmoid(ad.mul(ad.tanh(x), 2.0)))
    report = grad_check(f, Tensor(np.random.default_rng(1).normal(size=(5,))), tol=1e-4)
    assert report.passed


def test_grad_check_detects_wrong_gradient():
    # a constant copy hides half of the true dependency, so the analytic
    # gradient is wrong by construction
    f = lambda x: sum_(ad.mul(x, Tensor(x.data)))
    report = grad_check(f, Tensor([1.0, 2.0, 3.0]))
    assert not report.passed


def test_grad_check_detects_nondeterminism():
    state = {"n": 0}

    def noisy(x):
        state["n"] += 1
        return sum_(ad.mul(x, float(state["n"])))

    with pytest.raises(NonDeterministicError):
        grad_check(noisy, Tensor([1.0, 2.0]))


def test_grad_check_reports_a_nan_valued_function_as_failed():
    # two NaN forward passes agree, so a deterministic NaN function is not
    # refused as non-deterministic; its NaN error fails the check
    report = grad_check(lambda x: sum_(ad.mul(x, float("nan"))), Tensor([1.0, 2.0]))
    assert math.isnan(report.max_rel_err) and not report.passed
