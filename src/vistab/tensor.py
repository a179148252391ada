"""Dense float64 tensors with reverse-mode automatic differentiation.

Forward ops run as plain numpy array arithmetic. Every op, the generic
ones here and a caller's own, records itself the one way :func:`custom`
does: when a :class:`Tape` is active and an input participates in
gradient tracking, the tape keeps ``(output, inputs, vjp)``, where
``vjp(g)`` returns one gradient per input (``None`` for an untracked
one). :func:`backward` replays the tape in exact reverse order and is the
one place that accumulates those gradients into the inputs.

The active tape is per thread: a ``with Tape()`` block records only the ops
its own thread runs, and other threads' forwards meanwhile stay untaped.
Each tape is single-use: it is consumed by the first `backward` call, which
releases every record as it replays it, so a step's activations are freed
without waiting for the cycle collector. Tensors not attached to a tape are
immutable from this module's point of view and safe to share.

The LayerNorm, GELU and softmax rules are each stated once, in the ``_ln*``,
``_gelu_*`` and ``_softmax`` kernels, which the ops here and the encoder's
fused ``_block`` share. They work on plain arrays, record nothing and return
fresh arrays, updated in place where an operation need not make another one.
A step's fresh arrays mostly reuse the memory the last step freed, so they cost
few page faults (see the allocation paragraph below), though not none: a
fine_tune step of a two-block ViT-Tiny slice at batch 16 took 26–32 minor
faults, about 100 KB faulted in again, on one CPU of a 2-CPU x86-64 VM.

Allocation: importing this module sets glibc's malloc thresholds once, for
the whole process, to their documented ceiling (mallopt(3)): arrays below
32 MiB (on 64-bit) come from the heap, and free memory at its top is given
back to the OS only beyond 64 MiB. With glibc's dynamic defaults, which stop
at the largest chunk freed so far, the heap top a step frees at ``backward``
is trimmed and the next step's fresh arrays fault the same pages in again,
thousands of minor faults a step. The setting is the C library's, so it
holds for every allocation of the process that imports ``vistab``, a host
program's and other libraries' included, and up to 64 MiB of freed heap
may stay resident. Where the C library has no ``mallopt`` (macOS, Windows)
nothing is set.
"""

from __future__ import annotations

import ctypes
import math
import operator
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, TapeError, class_labels

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _fix_malloc_thresholds() -> None:
    """Set M_MMAP_THRESHOLD to glibc's DEFAULT_MMAP_THRESHOLD_MAX and M_TRIM_THRESHOLD
    to twice that, where the C library has ``mallopt`` (see the module docstring)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ceiling = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    mallopt(-3, ceiling)  # M_MMAP_THRESHOLD
    mallopt(-1, 2 * ceiling)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()


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
        self.data = np.asarray(data, dtype=np.float64, order="C")
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
    """Ordered ``(output, inputs, vjp)`` records of ops, replayed in reverse."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
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


def _accumulate(t: Tensor, g: np.ndarray, upstream: np.ndarray) -> None:
    """Add `g`, a vjp's gradient for `t` given `upstream`, into ``t.grad``.

    A first gradient that the vjp made fresh (a float64 array that owns its data,
    apart from `upstream`) becomes ``t.grad`` as it is; any other, a view or
    `upstream` itself as ``add`` or ``reshape`` may return, is copied, so that no
    two gradients share memory.
    """
    if t.grad is None:
        fresh = (type(g) is np.ndarray and g.dtype == np.float64 and g.flags.owndata
                 and not np.may_share_memory(g, upstream))
        t.grad = g if fresh else np.array(g, dtype=np.float64, copy=True)
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


def _axis(shape: tuple[int, ...], axis) -> int:
    """`axis` as an axis of a `shape` array; :class:`DimensionError` unless it is one."""
    try:
        axis = operator.index(axis)
    except TypeError:
        raise DimensionError(f"axis {axis!r} is not an integer") from None
    if not -len(shape) <= axis < len(shape):
        raise DimensionError(f"axis {axis} out of range for shape {shape}")
    return axis


def _along(shape: tuple[int, ...], axis: int, at) -> tuple:
    """The index that picks `at` (an integer or a slice of integers) along `axis` of a
    `shape` array; :class:`DimensionError` unless the axis holds it (a slice within
    [0, extent])."""
    axis = _axis(shape, axis)
    what = f"window [{at.start}, {at.stop})" if isinstance(at, slice) else f"index {at}"
    try:
        at = (slice(operator.index(at.start), operator.index(at.stop))
              if isinstance(at, slice) else operator.index(at))
    except TypeError:
        raise DimensionError(f"{what} along axis {axis} is not of integers") from None
    n = shape[axis]
    if not (0 <= at.start <= at.stop <= n if isinstance(at, slice) else -n <= at < n):
        raise DimensionError(f"{what} is outside axis {axis} of extent {n}")
    index = [slice(None)] * len(shape)
    index[axis] = at
    return tuple(index)


def _scatter(shape: tuple[int, ...], index: tuple, g: np.ndarray) -> np.ndarray:
    """Zeros of `shape` with `g` written at `index`: the backward of reading `index`."""
    full = np.zeros(shape)
    full[index] = g
    return full


def custom(out: np.ndarray, inputs: Sequence[Tensor],
           vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Wrap a forward result as one recorded op; every op in this module records this way.

    ``vjp(g)`` receives d(loss)/d(out) and returns one gradient per input,
    in the order of ``inputs``, or ``None`` for an input that is not
    tracked; gradients of untracked inputs are dropped either way. It runs
    at most once, during :func:`backward`, which accumulates what it
    returns: an input's first gradient is kept without a copy when it is an
    array that owns its data, so such an array must be made by this call and
    returned for one input only; views and ``g`` itself are copied.
    """
    result = Tensor(out)
    tape = _ACTIVE.tape
    inputs = tuple(inputs)
    if tape is None or not any(t.tracked for t in inputs):
        return result
    result.tracked = True
    result._tape = tape
    tape._records.append((result, inputs, vjp))
    tape._recorded += 1
    return result


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"cannot add shapes {a.shape} and {b.shape}")
    return custom(out, (a, b), lambda g: (
        _unbroadcast(g, a.shape) if a.tracked else None,
        _unbroadcast(g, b.shape) if b.tracked else None))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return custom(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape) if a.tracked else None,
        _unbroadcast(g * a.data, b.shape) if b.tracked else None))


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    return custom(a.data @ b.data, (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.tracked else None,
        _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.tracked else None))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    try:
        out = x.data.reshape(tuple(shape))
    except (TypeError, ValueError):
        raise DimensionError(f"cannot reshape {x.shape} to {shape!r}") from None
    return custom(out, (x,), lambda g: (g.reshape(x.shape),))


def swap_axes(x: Tensor, i: int, j: int) -> Tensor:
    x = _as_tensor(x)
    i, j = _axis(x.shape, i), _axis(x.shape, j)
    return custom(np.swapaxes(x.data, i, j), (x,), lambda g: (np.swapaxes(g, i, j),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(_as_tensor(p) for p in parts)
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except (TypeError, ValueError):  # numpy's AxisError is a ValueError too
        raise DimensionError(f"cannot concatenate shapes {[p.shape for p in parts]} "
                             f"along axis {axis!r}") from None
    bounds = np.cumsum([p.shape[axis] for p in parts[:-1]])
    return custom(out, parts, lambda g: np.split(g, bounds, axis=axis))


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(_as_tensor(p) for p in parts)
    try:
        out = np.stack([p.data for p in parts], axis=axis)
    except (TypeError, ValueError):
        raise DimensionError(f"cannot stack shapes {[p.shape for p in parts]} "
                             f"along axis {axis!r}") from None
    return custom(out, parts, lambda g: np.moveaxis(g, axis, 0))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    x = _as_tensor(x)
    index = _along(x.shape, axis, slice(start, start + length))
    return custom(x.data[index], (x,), lambda g: (_scatter(x.shape, index, g),))


def take(x: Tensor, index: int, axis: int = 0) -> Tensor:
    """Select one slice along `axis`, dropping that axis."""
    x = _as_tensor(x)
    where = _along(x.shape, axis, index)
    return custom(x.data[where], (x,), lambda g: (_scatter(x.shape, where, g),))


def expand_leading(x: Tensor, n: int) -> Tensor:
    """Repeat `x` along a new leading axis of extent `n`."""
    x = _as_tensor(x)
    try:
        out = np.broadcast_to(x.data, (n,) + x.shape).copy()
    except (TypeError, ValueError):
        raise DimensionError(f"cannot repeat shape {x.shape} {n!r} times") from None
    return custom(out, (x,), lambda g: (g.sum(axis=0),))


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None:
        axis = _axis(x.shape, axis)
    return custom(x.data.sum(axis=axis), (x,), lambda g: (np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), x.shape).copy(),))


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None:
        axis = _axis(x.shape, axis)
    count = x.size if axis is None else x.shape[axis]
    if count == 0:
        raise DimensionError(f"mean over axis {axis} of shape {x.shape} covers no element")
    return mul(tsum(x, axis=axis), 1.0 / count)


def _ln(x: np.ndarray, eps: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """x's standardized rows (population variance) and their inverse standard deviations."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    return xhat, inv_std


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: Tensor,
                 bias: Tensor, dx: np.ndarray | None) -> tuple:
    """(input, gain, bias) gradients of ``xhat * gain + bias`` over 2-D rows. The input's
    is written into `dx`, or is None when `dx` is; the gain's and the bias's are None
    when not tracked."""
    if dx is not None:
        dxhat = g * gain.data
        np.subtract(dxhat, dxhat.mean(axis=-1, keepdims=True), out=dx)
        dxhat *= xhat
        dx -= xhat * dxhat.mean(axis=-1, keepdims=True)
        dx *= inv_std
    return (dx, (g * xhat).sum(axis=0) if gain.tracked else None,
            g.sum(axis=0) if bias.tracked else None)


def _ln_affine(xhat: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    """``xhat * gain + bias``, the LayerNorm output."""
    out = xhat * gain.data
    out += bias.data
    return out


def _gelu_gate(u: np.ndarray) -> np.ndarray:
    """The GELU gate Phi(u), the exact normal CDF."""
    cdf = np.asarray(u * _INV_SQRT2)  # an array also for a 0-d u, so erf can write into it
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU'(u) = Phi(u) + u * phi(u), given ``cdf`` = Phi(u)."""
    slope = np.exp(u * u * -0.5)
    slope *= _INV_SQRT_2PI
    slope *= u
    slope += cdf
    return slope


def _softmax(x: np.ndarray) -> np.ndarray:
    """The max-shifted softmax of x's rows."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact normal CDF (erf form)."""
    x = _as_tensor(x)
    cdf = _gelu_gate(x.data)
    return custom(x.data * cdf, (x,), lambda g: (g * _gelu_slope(x.data, cdf),))


def softmax(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, stabilized by max-subtraction."""
    x = _as_tensor(x)
    if x.data.ndim and x.shape[-1] == 0:
        raise DimensionError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    p = _softmax(x.data)
    return custom(p, (x,), lambda g: ((g - (g * p).sum(axis=-1, keepdims=True)) * p,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Standardize the last axis (population variance), then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.data.ndim == 0:
        raise DimensionError("layer_norm needs at least one axis, got a 0-d tensor")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layer_norm expects gain/bias of shape ({d},), "
                             f"got {gain.shape} and {bias.shape}")
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    xhat, inv_std = _ln(x.data.reshape(-1, d), eps)

    def vjp(g):
        gx = np.empty(x.shape) if x.tracked else None  # x's shape, so backward keeps it
        _, gg, gb = _ln_backward(g.reshape(-1, d), xhat, inv_std, gain, bias,
                                 None if gx is None else gx.reshape(-1, d))
        return (gx, gg, gb)

    return custom(_ln_affine(xhat, gain, bias).reshape(x.shape),
                  (x, gain, bias), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over a batch of logit rows."""
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects B x K logits, got {logits.shape}")
    b, k = logits.shape
    if b == 0:
        raise DimensionError(f"cross_entropy needs at least one logit row, got {logits.shape}")
    y = class_labels(labels, k)
    if y.shape != (b,):
        raise DimensionError(f"expected {b} labels, got shape {y.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)

    def vjp(g):
        p = _softmax(logits.data)
        p[np.arange(b), y] -= 1.0
        return (float(g) * p / b,)

    return custom(np.mean(lse - logits.data[np.arange(b), y]), (logits,), vjp)


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
        # popping drops the record's vjp, and with it the last reference to
        # the activations it saved, as soon as it has run
        out, inputs, vjp = records.pop()
        if out.grad is not None:
            for t, g in zip(inputs, vjp(out.grad)):
                if t.tracked and g is not None:
                    _accumulate(t, g, out.grad)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None
