"""Dense float64 tensors with reverse-mode automatic differentiation.

Forward ops run as plain numpy array arithmetic. When a :class:`Tape` is
active and an operand participates in gradient tracking, the op also
records a backward closure; :func:`backward` replays the tape in exact
reverse order and accumulates gradients into every tracked leaf.

The active tape is per thread: a ``with Tape()`` block records only the ops
its own thread runs, and other threads' forwards meanwhile stay untaped.
Each tape is single-use: it is consumed by the first `backward` call, which
releases every record as it replays it, so a step's activations are freed
without waiting for the cycle collector. Tensors not attached to a tape are
immutable from this module's point of view and safe to share.

Besides the generic ops, :func:`custom` lets a caller record one op whose
forward and vector-Jacobian product it computes itself in plain numpy.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, TapeError, class_labels

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _ThreadState(threading.local):
    tape: "Tape | None" = None  # the innermost open Tape of this thread


_ACTIVE = _ThreadState()


class Tensor:
    """A dense, row-major float64 array, optionally tracked on a tape.

    ``tracked`` marks the tensor as participating in gradient recording:
    leaves created with ``tracked=True`` receive gradients after
    :func:`backward`; op outputs become tracked automatically when any
    input participates and a tape is active.
    """

    __slots__ = ("data", "tracked", "grad", "_tape", "__weakref__")

    def __init__(self, data, tracked: bool = False):
        # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would not)
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not arr.flags.c_contiguous:
            arr = np.array(arr, dtype=np.float64, order="C")
        self.data = arr
        self.tracked = tracked
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, tracked={self.tracked})"


class Tape:
    """Ordered record of ops with backward closures, replayed in reverse."""

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._recorded = 0  # ops ever recorded; `backward` empties _records
        self._consumed = False
        self._previous: Tape | None = None

    def __enter__(self) -> "Tape":
        self._previous = _ACTIVE.tape
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc):
        _ACTIVE.tape = self._previous
        self._previous = None
        return False

    def __len__(self):
        """Number of ops recorded, also after `backward` has released them."""
        return self._recorded


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out: Tensor, inputs: Sequence[Tensor], bwd: Callable[[np.ndarray], None]) -> Tensor:
    tape = _ACTIVE.tape
    if tape is None or not any(t.tracked for t in inputs):
        return out
    out.tracked = True
    out._tape = tape
    tape._records.append((out, bwd))
    tape._recorded += 1
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over the axes numpy broadcast when producing it from `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"cannot add shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")

    def bwd(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        if a.tracked:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.tracked:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _record(out, (a, b), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    old = x.shape
    out = Tensor(x.data.reshape(tuple(shape)))

    def bwd(g):
        if x.tracked:
            _accumulate(x, g.reshape(old))

    return _record(out, (x,), bwd)


def swap_axes(x: Tensor, i: int, j: int) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.swapaxes(x.data, i, j))

    def bwd(g):
        if x.tracked:
            _accumulate(x, np.swapaxes(g, i, j))

    return _record(out, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.tracked:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accumulate(p, g[tuple(sl)])

    return _record(out, tuple(parts), bwd)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.stack([p.data for p in parts], axis=axis))

    def bwd(g):
        slices = np.moveaxis(g, axis, 0)
        for p, gp in zip(parts, slices):
            if p.tracked:
                _accumulate(p, gp)

    return _record(out, tuple(parts), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    x = _as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    out = Tensor(x.data[tuple(sl)])

    def bwd(g):
        if x.tracked:
            full = np.zeros_like(x.data)
            full[tuple(sl)] = g
            _accumulate(x, full)

    return _record(out, (x,), bwd)


def take(x: Tensor, index: int, axis: int = 0) -> Tensor:
    """Select one slice along `axis`, dropping that axis."""
    x = _as_tensor(x)
    out = Tensor(np.take(x.data, index, axis=axis))

    def bwd(g):
        if x.tracked:
            full = np.zeros_like(x.data)
            sl = [slice(None)] * x.data.ndim
            sl[axis] = index
            full[tuple(sl)] = g
            _accumulate(x, full)

    return _record(out, (x,), bwd)


def expand_leading(x: Tensor, n: int) -> Tensor:
    """Repeat `x` along a new leading axis of extent `n`."""
    x = _as_tensor(x)
    out = Tensor(np.broadcast_to(x.data, (n,) + x.shape).copy())

    def bwd(g):
        if x.tracked:
            _accumulate(x, g.sum(axis=0))

    return _record(out, (x,), bwd)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis))

    def bwd(g):
        if x.tracked:
            if axis is None:
                _accumulate(x, np.full_like(x.data, float(g)))
            else:
                _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _record(out, (x,), bwd)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis), 1.0 / count)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact normal CDF (erf form)."""
    x = _as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)

    def bwd(g):
        if x.tracked:
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
            _accumulate(x, g * (cdf + x.data * pdf))

    return _record(out, (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, stabilized by max-subtraction."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        if x.tracked:
            dot = (g * p).sum(axis=-1, keepdims=True)
            _accumulate(x, (g - dot) * p)

    return _record(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Standardize the last axis (population variance), then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm expects gain/bias of shape ({d},), got {gain.shape} and {bias.shape}"
        )
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        if gain.tracked:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.tracked:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.tracked:
            dxhat = g * gain.data
            # standard layer-norm backward through mean and variance
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, term * inv_std)

    return _record(out, (x, gain, bias), bwd)


def custom(out: np.ndarray, inputs: Sequence[Tensor],
           vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Wrap a hand-computed forward result as one recorded op.

    ``vjp(g)`` receives d(loss)/d(out) and returns one gradient per input,
    in the order of ``inputs``, or ``None`` for an input that is not
    tracked; gradients of untracked inputs are dropped either way. It runs
    at most once, during :func:`backward`, which accumulates (and so
    copies) what it returns.
    """
    inputs = tuple(inputs)
    result = Tensor(out)

    def bwd(g):
        for t, gt in zip(inputs, vjp(g)):
            if t.tracked and gt is not None:
                _accumulate(t, gt)

    return _record(result, inputs, bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over a batch of logit rows."""
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects B x K logits, got {logits.shape}")
    b, k = logits.shape
    y = class_labels(labels, k)
    if y.shape != (b,):
        raise DimensionError(f"expected {b} labels, got shape {y.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    out = Tensor(np.mean(lse - logits.data[np.arange(b), y]))

    def bwd(g):
        if logits.tracked:
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(b), y] -= 1.0
            _accumulate(logits, float(g) * p / b)

    return _record(out, (logits,), bwd)


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) into every tracked leaf's ``grad``.

    The loss must be a scalar produced under an active tape; the tape is
    consumed by this call and a second replay raises :class:`TapeError`.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("loss was not produced by recorded operations")
    if tape._consumed:
        raise TapeError("tape already consumed; re-record the forward pass")
    tape._consumed = True
    loss.grad = np.ones((), dtype=np.float64)
    records = tape._records
    while records:
        # popping drops the record's closure, and with it the last reference
        # to the activations it saved, as soon as it has run
        out, bwd = records.pop()
        if out.grad is not None:
            bwd(out.grad)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


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
