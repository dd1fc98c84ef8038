"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the name -> Tensor map `params` by
    `grads`, the name -> array map `autodiff.backward` returned for it."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != parameter shape {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale the name -> gradient map `grads` in place so its joint L2 norm
    is at most max_norm; returns the norm before clipping."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm > 0:
        scale = max_norm / norm
        for name, g in grads.items():
            grads[name] = g * scale
    return norm
