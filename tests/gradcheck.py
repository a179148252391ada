"""Central-difference gradients, the reference that the tape's gradients are tested against."""

from typing import Callable

import numpy as np

from vistab.errors import ContractError
from vistab.tensor import Tensor


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ContractError("finite difference step must be positive")
    base = x.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _scalar(f(Tensor(base.copy())))
        flat[i] = orig - h
        fm = _scalar(f(Tensor(base.copy())))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def _scalar(v) -> float:
    return v.item() if isinstance(v, Tensor) else float(v)
