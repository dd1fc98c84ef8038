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


def adam_step(params: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over a name -> Tensor map.

    Parameters without an accumulated gradient are left untouched.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
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


def zero_grads(params: dict) -> None:
    for p in params.values():
        p.grad = None


def clip_global_norm(params: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total ** 0.5
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
