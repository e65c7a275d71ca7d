"""AdamW with decoupled weight decay and a cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr * 0.5 * (1 + cos(pi * step / total_steps)), for total_steps >= 1."""
    frac = min(max(step / total_steps, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


class AdamW:
    """Decoupled-weight-decay Adam (betas 0.9 and 0.999, eps 1e-8) over a
    list of uniquely named Parameters (``bind_parameter_names`` names them).

    Moment buffers shape-match their parameters; the step counter is
    strictly increasing and drives both bias correction and the cosine
    schedule.
    """

    def __init__(self, params, base_lr: float, weight_decay: float, total_steps: int):
        self.params = list(params)
        self.base_lr = float(base_lr)
        self.weight_decay = float(weight_decay)
        self.total_steps = int(total_steps)
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self) -> float:
        """Apply one update using gradients already populated; returns the lr used."""
        lr = cosine_lr(self.step_count, self.total_steps, self.base_lr)
        t = self.step_count + 1
        b1, b2 = 0.9, 0.999
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for p in self.params:
            g = p.grad
            if g is None:
                raise ValueError(f"parameter '{p.name}' has no gradient")
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (lr * update).astype(p.data.dtype, copy=False)
        self.step_count = t
        return lr

    # -- (de)serialization as a flat named-array dict -------------------

    def state_arrays(self) -> dict:
        """The step counter and moment buffers; hyperparameters belong to the config."""
        out = {"step": np.array([float(self.step_count)], dtype=np.float64)}
        for name, buf in self.m.items():
            out["m." + name] = buf
        for name, buf in self.v.items():
            out["v." + name] = buf
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        step = arrays.get("step")
        if step is None or step.shape != (1,) or not float(step[0]).is_integer() or step[0] < 0:
            raise ValueError(f"optimizer state 'step' is not one non-negative integer: {step}")
        for p in self.params:
            for prefix, store in (("m.", self.m), ("v.", self.v)):
                key = prefix + p.name
                if key not in arrays:
                    raise ValueError(f"optimizer state missing '{key}'")
                if arrays[key].shape != p.data.shape:
                    raise ValueError(f"optimizer state shape mismatch for '{key}'")
                store[p.name] = arrays[key].astype(p.data.dtype)
        self.step_count = int(step[0])
