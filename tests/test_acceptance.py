"""Acceptance suite: every gate the artifact must clear, one pass/fail line
per criterion.

The heavy pipeline artifacts (trained runs for the full model and its
ablations) are built once per session by the module fixtures and shared by
the criteria that read them. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np

from styletx import autodiff as ad
from styletx.autodiff import Tape, Tensor, backward, grad_check, no_grad, recording
from styletx.corpus import build_vocab
from styletx.losses import (
    LossWeights,
    _terms,
    compute_breakdown,
    reconstruction_loss,
    style_discrepancy_loss,
    total_loss,
)
from styletx.model import Batch, TextCnnClassifier, TransferModel, snapshot
from styletx.optim import AdamState
from styletx.training import desk_config, train_step_discriminator, train_step_generator


def report(criterion: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {state} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared tiny world for the gradient criteria


def tiny_world(seed=0):
    sentences = ["the food was so warm", "my soup felt too cold today",
                 "the staff looked so dark", "we found the coffee too slow here"]
    vocab = build_vocab(sentences + ["it seemed a quite bright room"])
    rng = np.random.default_rng(seed)
    model = TransferModel.create(rng, len(vocab), 6, 8, 6, style_widths=(1, 2, 3))
    d_clf = TextCnnClassifier.create(rng, len(vocab), 6, (1, 2, 3), 2)
    judge = TextCnnClassifier.create(rng, len(vocab), 6, (2, 3), 2)
    judge.freeze()
    batch_s = Batch.from_sentences(sentences[:2], vocab, 8)
    batch_t = Batch.from_sentences(sentences[2:], vocab, 8)
    return model, d_clf, judge, batch_s, batch_t


def directional_check(loss_fn, params: dict, seed: int, step=1e-4, tol=1e-4) -> float:
    """Central-difference check along one random direction through all
    parameters; returns the relative discrepancy."""
    rng = np.random.default_rng(seed)
    direction = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
    norm = np.sqrt(sum((d * d).sum() for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}

    tape = Tape()
    with recording(tape):
        loss = loss_fn()
        backward(loss, tape)
    analytic = sum(float((p.grad * direction[k]).sum()) for k, p in params.items()
                   if p.grad is not None)
    for p in params.values():
        p.grad = None

    originals = {k: p.data.copy() for k, p in params.items()}

    def value_at(eps):
        for k, p in params.items():
            p.data = originals[k] + eps * direction[k]
        with no_grad():
            out = float(loss_fn().data)
        for k, p in params.items():
            p.data = originals[k]
        return out

    numeric = (value_at(step) - value_at(-step)) / (2 * step)
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


PRIMS = [
    lambda x: ad.sum_(ad.mul(x, x)),
    lambda x: ad.sum_(ad.sigmoid(x)),
    lambda x: ad.sum_(ad.tanh(x)),
    lambda x: ad.sum_(ad.relu(x)),
    lambda x: ad.sum_(ad.log(ad.add(ad.mul(x, x), 1.0))),
    lambda x: ad.sum_(ad.mul(ad.softmax(x, temperature=0.7), Tensor([1.0, -2.0, 0.5, 0.25]))),
    lambda x: ad.sum_(ad.max_along(ad.reshape(x, (2, 2)), axis=1)),
    lambda x: ad.sum_(ad.conv1d_maxpool(ad.reshape(x, (1, 4, 1)),
                                        Tensor([[[1.0, -0.5]], [[0.25, 0.75]]]),
                                        Tensor([0.1, -0.2]))),
]


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst_prim = 0.0
    for seed in range(100):
        x = np.random.default_rng(seed).normal(size=4)
        for fn in PRIMS:
            rep = grad_check(fn, Tensor(x), tol=1e-4)
            worst_prim = max(worst_prim, rep.max_rel_err)

    model, d_clf, judge, batch_s, batch_t = tiny_world()
    params = {**model.params(), **d_clf.params("d")}
    weights = LossWeights()
    losses = {
        "reconstruction": lambda: reconstruction_loss(model, batch_s, batch_t),
        "adversarial": lambda: _terms(model, d_clf, None, batch_s, batch_t, {"adv"},
                                      0.5)["adv"],
        "discrepancy": lambda: style_discrepancy_loss(model, judge, batch_s,
                                                      model.encode_style(batch_s)),
        "cycle": lambda: _terms(model, None, None, batch_s, batch_t, {"cyc"}, 0.5,
                                draw_idx=np.array([0, 1]))["cyc"],
        "total": lambda: compute_breakdown(model, d_clf, judge, batch_s, batch_t,
                                           weights, draw_idx=np.array([0, 1]))[0],
    }
    worst_composite = 0.0
    for seed in range(100):
        for fn in losses.values():
            worst_composite = max(worst_composite, directional_check(fn, params, seed))
    elapsed = time.time() - t0
    ok = worst_prim <= 1e-4 and worst_composite <= 1e-4 and elapsed < 60
    report("1 gradient correctness",
           ok, f"(primitives {worst_prim:.2e}, losses {worst_composite:.2e}, {elapsed:.1f}s)")


def test_criterion_2_loss_formula_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        rec, adv, cyc, dis = rng.uniform(0, 10, size=4)
        l1, l2, l3 = rng.uniform(0, 5, size=3)
        w = LossWeights(l1, l2, l3)
        got = total_loss(Tensor(rec), Tensor(adv), Tensor(cyc), Tensor(dis), w).item()
        worst = max(worst, abs(got - (rec - l1 * adv + l2 * cyc + l3 * dis)))
        ps = rng.uniform(0.01, 0.99, size=4)
        fake = float(np.mean(-np.log(1 - ps[:2])))
        real = float(np.mean(-np.log(ps[2:])))
        mixed = (ad.sum_(ad.mul(ad.neg(ad.log(1.0 - ad.clip(Tensor(ps), 1e-7, 1 - 1e-7))),
                                Tensor([0.5, 0.5, 0, 0])))
                 + ad.sum_(ad.mul(ad.neg(ad.log(ad.clip(Tensor(ps), 1e-7, 1 - 1e-7))),
                                  Tensor([0, 0, 0.5, 0.5]))))
        worst = max(worst, abs(mixed.item() - (fake + real)))

    model, d_clf, judge, batch_s, _ = tiny_world(seed=3)
    for p in judge.params().values():
        p.data[...] = 0.0  # probability pinned at one half
    for p in model.style_enc.params("style").values():
        p.data[...] = 0.0
    model.target_style.data[...] = 0.0
    model.target_style.data[0] = 2.0
    one = Batch(ids=batch_s.ids[:1], lengths=batch_s.lengths[:1])
    with no_grad():
        y_s = model.encode_style(one)
        anchor_loss = abs(style_discrepancy_loss(model, judge, one, y_s).item() - 2.0)
    ok = worst <= 1e-9 and anchor_loss <= 1e-9
    report("2 loss-formula oracles",
           ok, f"(max |err| {worst:.2e}, weighted anchor {anchor_loss:.2e})")


def test_criterion_3_arm_isolation_over_200_steps():
    model, d_clf, judge, batch_s, batch_t = tiny_world(seed=5)
    cfg = desk_config(seed=0, batch_size=2, pad_len=8, dropout=0.1,
                      d_emb=6, d_z=8, d_y=6, d_maps=2)
    g_params, d_params = model.params(), d_clf.params("d")
    judge_before = snapshot(judge.params())
    g_state, d_state = AdamState(), AdamState()
    rng_do, rng_draw = np.random.default_rng(1), np.random.default_rng(2)
    violations = []
    for step in range(100):
        g_before = snapshot(g_params)
        train_step_discriminator(model, d_clf, batch_s, batch_t, d_params, d_state,
                                 cfg, rng_do)
        if any(not np.array_equal(g_before[k], p.data) for k, p in g_params.items()):
            violations.append(f"D step {step} touched the generator arm")
        d_before = snapshot(d_params)
        train_step_generator(model, d_clf, judge, batch_s, batch_t, g_params, g_state,
                             cfg, cfg.weights(), rng_do, rng_draw)
        if any(not np.array_equal(d_before[k], p.data) for k, p in d_params.items()):
            violations.append(f"G step {step} touched the discriminator")
    frozen_ok = all(np.array_equal(judge_before[k], p.data)
                    for k, p in judge.params().items())
    ok = not violations and frozen_ok
    report("3 arm isolation and freezing", ok,
           f"(200 alternating steps, judge bit-identical: {frozen_ok})")


def test_criterion_4_style_dispatch_contract(monkeypatch):
    # every style code _terms decodes or generates from: a target row of rec,
    # adv or cyc carries the one learnt target_style, a source row its
    # sentence's CNN code
    model, d_clf, judge, batch_s, batch_t = tiny_world(seed=7)
    n_s, n_t = len(batch_s), len(batch_t)
    draw_idx = np.array([1, 0])
    seen = {"decode_teacher_forced": [], "generate_soft": []}
    for name, calls in seen.items():
        def capture(z, y, *args, _original=getattr(model, name), _calls=calls, **kwargs):
            _calls.append(y.data.copy())
            return _original(z, y, *args, **kwargs)
        monkeypatch.setattr(model, name, capture)
    with no_grad():
        _terms(model, d_clf, judge, batch_s, batch_t, {"rec", "adv", "cyc", "dis"},
               draw_idx=draw_idx)
        y_src = model.style_enc.encode(batch_s).data
    (rec, cyc), (gen,) = seen["decode_teacher_forced"], seen["generate_soft"]
    target_rows = [rec[n_s:], gen[: n_s + n_t], cyc[n_s:]]
    target_ok = all(np.array_equal(rows, np.broadcast_to(model.target_style.data, rows.shape))
                    for rows in target_rows)
    source_ok = (np.array_equal(rec[:n_s], y_src) and np.array_equal(cyc[:n_s], y_src)
                 and np.array_equal(gen[n_s + n_t:], y_src[draw_idx]))
    ok = target_ok and source_ok and len(gen) == n_s + 2 * n_t
    report("4 style dispatch contract", ok,
           f"(target rows carry target_style: {target_ok}, source rows their CNN code: "
           f"{source_ok})")
