"""ViT-style transformer encoder with layer-range slicing.

Blocks are pre-norm: ``x + Attn(LN(x))`` then ``x + MLP(LN(x))``, with the
final LayerNorm owned by the encoder and applied only when the requested
layer range reaches the last layer. Weights load from / save to the flat
container in :mod:`vistab.weights`. The ``_slot`` fields of
:class:`EncoderLayer` (stored under ``layers.{i}.``) and :class:`EncoderBundle`
are the one list of canonical names, e.g.

    layers.{i}.attn.q.weight, layers.{i}.mlp.fc2.bias, final_norm.weight,
    pos_embed, cls_token, patch_proj.weight (optional; pre-training only)

each with its shape and init, so third-party checkpoints can be converted
by renaming alone.

Images and tabular rows reach the encoder in one layout, a leading batch
axis and only that: :func:`patch_embed` takes ``(B, H, W, C)`` images and
returns ``(B, n, D)`` patch tokens, the tabular adapter returns view
tokens of that same shape, :func:`assemble_sequence` prepends CLS to make
``(B, n + 1, D)``, and :func:`encoder_forward` runs on ``(B, S, D)``. A
single example is a batch of one; any other rank raises
:class:`~vistab.errors.DimensionError`.

Each block runs in plain numpy on 2-D ``(rows, D)`` arrays, on the LayerNorm,
GELU and softmax kernels of :mod:`vistab.tensor` that the generic ops share, and
records one op on the tape (:func:`vistab.tensor.custom`), with a hand-written
backward that skips the gradients of untracked weights, so a frozen slice costs
only its input gradient. Q, K and V stay three ``(D, D)`` products on purpose: on
``(272, 192)`` rows (batch 16, 17 tokens, ViT-Tiny width) one ``(D, 3D)`` product
took 0.87 ms against 0.97 ms for the three (best of 400, one OpenBLAS thread,
2-CPU x86-64 VM), about 1 % of a block's forward, too little to keep a second
weight layout beside the stored one.

A block takes every large array it computes from a private pool of flat
buffers, reused across steps. Fresh arrays would be freed by ``backward``
at the end of each step, glibc would trim the freed top of the heap, and
the next step would fault the same pages back in: about 5,100 minor faults
and a fifth of a frozen ViT-Tiny step's time. The lifetime rule:

- a buffer the backward reads is leased to that op until its vjp closure
  is released, i.e. when ``backward`` pops the record, at once when the
  forward ran untaped, or when the cycle collector frees a tape whose loss
  never reached ``backward``;
- a forward temporary returns at the end of the forward, a backward
  temporary at the end of the vjp;
- the block's output and the gradients it returns are fresh arrays, so
  pool memory never escapes: tapes may overlap, outputs may be held, and
  untaped forwards may run on several threads, also while another
  thread holds a tape open.

The pool does not keep a one-off working set for good: it frees idle
buffers beyond the most it lent out at once over a window of takes (see
:class:`_BufferPool`).

A block may split its batch into k contiguous parts of whole sequences
and run them on as many threads: the calling thread runs the first,
worker threads made at the first split run the others, and the backward
splits the same way. Attention mixes only the tokens of one sequence, so
each part's rows get the whole batch's arithmetic, bit for bit; only the
weight gradients, the sum of the parts' (the later parts' are backward
temporaries), can differ in the last bit. The split only pays where each
thread has enough work and a CPU to itself, so :func:`_parts` takes k from
what the block can observe, each time it runs: the CPUs in the process's
affinity mask, the threads the environment gives OpenBLAS, and the part's
size. k is at most 2, the only count measured, and 1 (the block runs
inline on the calling thread and starts no thread) on one CPU, as in a
process pinned with ``os.sched_setaffinity``; where OpenBLAS is not told
its thread count (it then runs one thread per CPU); or for a part below
the measured break-even. Only the calling thread records the tape op and
runs public functions. The workers run the block's numpy arithmetic, the
``T._ln*``, ``T._gelu_*`` and ``T._softmax`` kernels and the pool, never a
public :mod:`vistab` function (a tracer that wraps those may keep one span
stack for the process), and never give work to the workers themselves,
so no worker waits on another.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import os
import threading
import typing
import weakref
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from . import weights as wio
from .errors import CapacityError, ConfigError, ContractError, DimensionError
from .tensor import Tensor


def require_sizes(config, *names: str) -> None:
    """Raise :class:`ContractError` naming the first field among `names` of `config`
    that is below 1; a field left at None passes."""
    for name in names:
        value = getattr(config, name)
        if value is not None and value < 1:
            raise ContractError(f"{type(config).__name__}.{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class EncoderConfig:
    depth: int
    dim: int
    heads: int
    mlp_ratio: int = 4
    max_seq: int = 2
    patch: int = 4
    channels: int = 1

    def __post_init__(self):
        require_sizes(self, "depth", "dim", "heads", "mlp_ratio", "patch", "channels")
        if self.dim % self.heads != 0:
            raise ContractError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.max_seq < 2:
            raise ContractError("max_seq must allow CLS plus at least one token")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def mlp_hidden(self) -> int:
        return self.dim * self.mlp_ratio


@dataclass(frozen=True)
class LayerRange:
    start: int
    end: int

    def validate(self, depth: int) -> "LayerRange":
        if not (0 <= self.start < self.end <= depth):
            raise ContractError(
                f"layer range ({self.start}, {self.end}) invalid for depth {depth}")
        return self


def _slot(name: str, shape: str, init: str, **kw):
    """A tensor field's checkpoint name, shape and init.

    ``shape`` spells one letter per axis: ``d`` = dim, ``h`` = mlp_hidden,
    ``s`` = max_seq, ``p`` = patch² · channels, ``1`` = one. ``init`` is
    what :func:`random_bundle` draws: ``normal``, ``zeros`` or ``ones``.
    """
    return field(metadata={"name": name, "shape": shape, "init": init}, **kw)


@dataclass
class EncoderLayer:
    """One block's weights, in the order of :meth:`tensors` (which ``_block``'s
    backward returns gradients in)."""

    ln1_gain: Tensor = _slot("ln1.weight", "d", "ones")
    ln1_bias: Tensor = _slot("ln1.bias", "d", "zeros")
    wq: Tensor = _slot("attn.q.weight", "dd", "normal")
    bq: Tensor = _slot("attn.q.bias", "d", "zeros")
    wk: Tensor = _slot("attn.k.weight", "dd", "normal")
    bk: Tensor = _slot("attn.k.bias", "d", "zeros")
    wv: Tensor = _slot("attn.v.weight", "dd", "normal")
    bv: Tensor = _slot("attn.v.bias", "d", "zeros")
    wo: Tensor = _slot("attn.proj.weight", "dd", "normal")
    bo: Tensor = _slot("attn.proj.bias", "d", "zeros")
    ln2_gain: Tensor = _slot("ln2.weight", "d", "ones")
    ln2_bias: Tensor = _slot("ln2.bias", "d", "zeros")
    w1: Tensor = _slot("mlp.fc1.weight", "dh", "normal")
    b1: Tensor = _slot("mlp.fc1.bias", "h", "zeros")
    w2: Tensor = _slot("mlp.fc2.weight", "hd", "normal")
    b2: Tensor = _slot("mlp.fc2.bias", "d", "zeros")

    def tensors(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in _LAYER_SLOTS]


@dataclass
class EncoderBundle:
    """Encoder configuration plus every transferable weight tensor."""

    config: EncoderConfig
    layers: list[EncoderLayer]
    final_gain: Tensor = _slot("final_norm.weight", "d", "ones")
    final_bias: Tensor = _slot("final_norm.bias", "d", "zeros")
    pos_embed: Tensor = _slot("pos_embed", "sd", "normal")
    cls_token: Tensor = _slot("cls_token", "1d", "normal")
    # optional: present on the pre-training path only
    patch_proj: Tensor | None = _slot("patch_proj.weight", "pd", "normal", default=None)
    patch_bias: Tensor | None = _slot("patch_proj.bias", "d", "zeros", default=None)
    _load_checksum: str | None = field(default=None, repr=False)

    def _named(self) -> list[tuple[str, Tensor]]:
        """(checkpoint name, tensor) for every tensor present, in spec order."""
        owners = [(_LAYER_PREFIX.format(i), layer, _LAYER_SLOTS)
                  for i, layer in enumerate(self.layers)]
        owners.append(("", self, _BUNDLE_SLOTS))
        return [(prefix + f.metadata["name"], t) for prefix, owner, slots in owners
                for f in slots if (t := getattr(owner, f.name)) is not None]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._named()]

    def set_tracked(self, tracked: bool) -> None:
        for p in self.parameters():
            p.tracked = tracked

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self._named()}

    def checksum(self) -> str:
        """SHA-256 over the canonical tensor bytes; bit-change sensitive."""
        h = hashlib.sha256()
        for name, arr in sorted(self.named_tensors().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr))  # hashes the buffer in place, no copy
        return h.hexdigest()

    @property
    def load_checksum(self) -> str | None:
        return self._load_checksum


# The weight spec: every tensor field of a layer and of the bundle, in field order.
_LAYER_PREFIX = "layers.{}."
_LAYER_SLOTS = tuple(f for f in fields(EncoderLayer) if "name" in f.metadata)
_BUNDLE_SLOTS = tuple(f for f in fields(EncoderBundle) if "name" in f.metadata)


def _build(config: EncoderConfig, with_patch: bool, make) -> EncoderBundle:
    """A bundle whose every array is ``make(name, shape, init)``, called in spec order."""
    dims = {"d": config.dim, "h": config.mlp_hidden, "s": config.max_seq,
            "p": config.patch ** 2 * config.channels, "1": 1}

    def tensors(prefix, slots):
        return {f.name: Tensor(make(prefix + f.metadata["name"],
                                    tuple(dims[axis] for axis in f.metadata["shape"]),
                                    f.metadata["init"]))
                for f in slots if with_patch or f.default is MISSING}

    layers = [EncoderLayer(**tensors(_LAYER_PREFIX.format(i), _LAYER_SLOTS))
              for i in range(config.depth)]
    return EncoderBundle(config=config, layers=layers, **tensors("", _BUNDLE_SLOTS))


def random_bundle(config: EncoderConfig, seed: int = 0, scale: float = 0.02,
                  with_patch: bool = False) -> EncoderBundle:
    """Fresh bundle with normal(0, scale) weights, unit LayerNorm gains.

    ``scale=0.0`` zeroes CLS and ``pos_embed`` too, and makes every block a
    residual identity.
    """
    rng = np.random.default_rng(seed)
    draw = {"normal": lambda shape: rng.normal(0.0, scale, shape),
            "zeros": np.zeros, "ones": np.ones}
    return _build(config, with_patch, lambda name, shape, init: draw[init](shape))


def patch_embed(images, bundle: EncoderBundle) -> Tensor:
    """Split a batch of H x W x C images into P x P patches and project each to D.

    Batch only: (B, H, W, C) -> (B, n, D). The images are input data (an
    array or a Tensor; no gradient flows back to them); their patches are
    :func:`flatten_patches` rows.
    """
    if bundle.patch_proj is None:
        raise ContractError("bundle has no patch projection weights")
    cfg = bundle.config
    img = images.data if isinstance(images, Tensor) else np.asarray(images, dtype=np.float64)
    if img.ndim != 4:
        raise DimensionError(f"expected a (B, H, W, C) batch of images, got shape {img.shape}")
    _, h, w, c = img.shape
    p = cfg.patch
    if h % p or w % p:
        raise DimensionError(f"image {h}x{w} not divisible into {p}x{p} patches")
    if c != cfg.channels:
        raise DimensionError(f"expected {cfg.channels} channels, got {c}")
    tokens = T.matmul(Tensor(flatten_patches(img, p)), bundle.patch_proj)
    if bundle.patch_bias is not None:
        tokens = T.add(tokens, bundle.patch_bias)
    return tokens


def flatten_patches(images: np.ndarray, p: int) -> np.ndarray:
    """Batch only: (B, H, W, C) -> (B, n, P*P*C), each image's patch grid walked row-major.

    Each patch flattens in row-major (row, column, channel) order.
    """
    b, h, w, c = images.shape
    gh, gw = h // p, w // p
    r = images.reshape(b, gh, p, gw, p, c)
    return np.ascontiguousarray(r.transpose(0, 1, 3, 2, 4, 5)).reshape(b, gh * gw, p * p * c)


def assemble_sequence(tokens: Tensor, bundle: EncoderBundle, use_pos: bool = True) -> Tensor:
    """[CLS, t_1..t_n] for each of a batch of (patch or tabular view) tokens.

    Batch only: (B, n, D) -> (B, n + 1, D). With ``use_pos`` the first n + 1
    rows of the positional table are added (a truncation of the pre-trained
    table).
    """
    cfg = bundle.config
    if tokens.data.ndim != 3 or tokens.shape[2] != cfg.dim:
        raise DimensionError(f"expected (B, n, {cfg.dim}) tokens, got shape {tokens.shape}")
    b, n = tokens.shape[:2]
    if n + 1 > cfg.max_seq:
        raise CapacityError(f"{n} tokens + CLS exceeds max_seq {cfg.max_seq}")
    if n < 1:
        raise CapacityError("need at least one token besides CLS")
    seq = T.concat([T.expand_leading(bundle.cls_token, b), tokens], axis=1)
    if use_pos:
        pos = bundle.pos_embed
        if pos.shape[0] != n + 1:
            pos = T.narrow(pos, 0, 0, n + 1)
        seq = T.add(seq, pos)
    return seq


class _BufferPool:
    """Flat float64 buffers, lent out as shaped views and matched by capacity.

    :meth:`take` views the smallest idle buffer that holds the shape, or a
    new one when none does, so a short batch reuses a full batch's buffers.
    At the end of each window of :attr:`window` takes the pool frees idle
    buffers, longest idle first, until it holds no more than the most it
    lent out at once in that window. A one-off large forward, or a working
    set no longer used, is thus freed one to two windows later (12 to 25
    steps of a two-block slice whose blocks split in two, each part taking
    its own buffers, and 25 to 50 unsplit), while a window still spans an
    evaluation pass of a few hundred rows between two training steps; a
    longer pass costs one step's page faults once.

    Only :meth:`take` holds the lock. :meth:`give` runs from vjp
    finalizers, which the cycle collector may call anywhere, inside
    ``take`` too, so it only appends to a list that ``take`` sorts in.
    """

    window = 1024

    def __init__(self):
        self._idle: list[tuple[np.ndarray, int]] = []  # (buffer, takes when it came back), by size
        self._given: list[np.ndarray] = []  # given back, not yet in _idle
        self._lock = threading.Lock()
        self._takes = 0
        self._leased = self._held = 0  # floats lent out (or given, not sorted in) / in all buffers
        self._peak = 0  # the most lent out at once in this window
        self.allocated = 0  # buffers made so far

    def take(self, lease: list[np.ndarray], *shape: int) -> np.ndarray:
        """A ``shape`` view of a buffer, which is appended to `lease`."""
        n = math.prod(shape)
        with self._lock:
            while self._given:
                buf = self._given.pop()
                self._leased -= buf.size
                bisect.insort_left(self._idle, (buf, self._takes), key=_entry_size)
            i = bisect.bisect_left(self._idle, n, key=_entry_size)
            if i < len(self._idle):
                buf = self._idle.pop(i)[0]
            else:
                buf = np.empty(n)
                self._held += n
                self.allocated += 1
            self._leased += buf.size
            self._peak = max(self._peak, self._leased)
            self._takes += 1
            if self._takes % self.window == 0:
                self._trim()
        lease.append(buf)
        return buf[:n].reshape(shape)

    def _trim(self) -> None:
        """Free idle buffers, longest idle first, down to the window's peak lease."""
        excess, self._peak = self._held - self._peak, self._leased
        if excess <= 0:
            return
        freed = set()
        for buf, _ in sorted(self._idle, key=lambda e: e[1]):
            if excess <= 0:
                break
            freed.add(id(buf))
            excess -= buf.size
            self._held -= buf.size
        self._idle = [e for e in self._idle if id(e[0]) not in freed]

    def give(self, lease: list[np.ndarray]) -> None:
        """Give every buffer of `lease` back; takes no lock (list.extend is atomic)."""
        self._given.extend(lease)
        lease.clear()


def _entry_size(entry: tuple[np.ndarray, int]) -> int:
    return entry[0].size


_POOL = _BufferPool()


def _linear_grads(a: np.ndarray | None, g: np.ndarray, w: Tensor, bias: Tensor,
                  new) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(weight, bias) gradients of ``a @ w + bias``, each only when tracked; the weight's
    goes into ``new(*w.shape)``.

    ``a`` may be None when ``w`` is not tracked: the inputs that only weight
    gradients need are recomputed in the backward, and only then.
    """
    return (np.matmul(a.T, g, out=new(*w.shape)) if w.tracked else None,
            g.sum(axis=0) if bias.tracked else None)


def _cpus() -> int:
    """The CPUs this process may run on, read afresh on each call, so that a later
    ``os.sched_setaffinity`` counts; 1 where the OS has no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _blas_threads() -> int | None:
    """The threads the environment gives OpenBLAS, read in OpenBLAS's order (the first
    of its three variables that holds a positive count), or None when none does, and
    OpenBLAS runs a thread per CPU. OpenBLAS reads them when numpy loads it, so this is
    its count unless the environment changed later."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


# The most parts a block splits into: the split was measured on two CPUs alone.
_MAX_PARTS = 2
# The fewest rows x dim a part may have. Steps of a two-block slice split in
# two against inline (frozen, fine_tune and untaped, one OpenBLAS thread, 2-CPU
# x86-64 VM, dims 12 to 192): parts of 3,264 to 4,608 ran 0.84-1.03x as fast,
# 6,528 1.05-1.15x, and every shape tried at 8,704 or more 1.10-1.68x. Rows x
# dim sets the break-even, not the matmul size rows x dim^2: dim-32 and dim-192
# parts of about equal rows x dim^2 ran 1.56x and 1.00x.
_MIN_PART_SIZE = 8192


def _parts(b: int, s: int, d: int) -> int:
    """How many parts a ``(b, s, d)`` block's batch splits into: one per group of CPUs
    as large as OpenBLAS's threads, at most :data:`_MAX_PARTS` and at most b, with no
    part below :data:`_MIN_PART_SIZE` rows x dim; 1 when OpenBLAS's count is unknown."""
    blas = _blas_threads()
    if blas is None:
        return 1
    return max(1, min(_MAX_PARTS, _cpus() // blas, b, b * s * d // _MIN_PART_SIZE))


@functools.cache
def _workers() -> ThreadPoolExecutor:
    """The worker threads, made when a block first splits (no thread starts before)."""
    return ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="vistab-block")


# a forked child has none of its parent's threads, so it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.cache_clear)


def _spread(tasks: list) -> list:
    """Each of `tasks` called, the first on this thread and the rest on the worker
    threads; their results in order, once every one has finished."""
    if len(tasks) == 1:
        return [tasks[0]()]
    futures = [_workers().submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        futures_wait(futures)
    return [first] + [f.result() for f in futures]


def _sum_parts(parts: tuple) -> np.ndarray | None:
    """The parts' gradients of one weight summed into the first; None when untracked."""
    total = parts[0]
    if total is not None:
        for part in parts[1:]:
            total += part
    return total


def _block(x: Tensor, layer: EncoderLayer, cfg: EncoderConfig) -> Tensor:
    """One pre-norm block, ``x + Attn(LN1(x))`` then ``+ MLP(LN2(.))``, as one tape op.

    The batch splits into k = :func:`_parts` contiguous parts of whole
    sequences, run by :func:`_block_part` on as many threads (the module
    docstring says why that is exact). The output and the input gradient are
    fresh arrays that each part writes its rows of; the weight gradients are
    the sum of the parts'.
    """
    b, s, d = x.shape
    k = _parts(b, s, d)
    bounds = [b * i // k for i in range(k + 1)]
    parts = list(zip(bounds, bounds[1:]))
    out = np.empty((b, s, d))
    keep: list[np.ndarray] = []  # what every part's backward reads, one lease
    backs = _spread([functools.partial(_block_part, x.data[lo:hi], layer, cfg, out[lo:hi], keep)
                     for lo, hi in parts])

    def vjp(g):
        gx = np.empty((b, s, d))
        summed = []  # the pool buffers of the later parts' weight gradients
        grads = _spread([functools.partial(back, g[lo:hi], gx[lo:hi], summed if i else None)
                         for i, (back, (lo, hi)) in enumerate(zip(backs, parts))])
        grads = tuple(map(_sum_parts, zip(*grads)))
        _POOL.give(summed)
        return (gx, *grads)  # the order of (x, *layer.tensors())

    weakref.finalize(vjp, _POOL.give, keep)
    return T.custom(out, (x, *layer.tensors()), vjp)


def _block_part(x: np.ndarray, layer: EncoderLayer, cfg: EncoderConfig, out: np.ndarray,
                keep: list[np.ndarray]):
    """The block on a ``(b, s, d)`` part of the batch: writes its output into `out` and
    returns its backward, ``back(g, gx, lease)``, which writes the input gradient into
    `gx` and returns the 16 weight gradients in the order of ``layer.tensors()``: fresh
    arrays when `lease` is None, else the large ones are pool buffers appended to it.

    Every product runs on 2-D ``(rows, D)`` arrays; only the per-head score
    and context products are batched. The backward is written out by hand
    (the attention part as in FlashAttention's backward: dP = dO V^T,
    dS = P * (dP - rowsum(dP * P))) and computes a weight's gradient only
    when that weight is tracked, so a frozen block costs its input gradient
    alone. Every large array but `out`, `gx` and the weight gradients is
    a pool buffer, leased as the module docstring describes.
    """
    L = layer
    b, s, d = x.shape
    heads, dh, rows, hidden = cfg.heads, cfg.head_dim, b * s, cfg.mlp_hidden
    scale = 1.0 / math.sqrt(dh)

    def split(t):  # (b*s, d) -> (b, heads, s, dh), a view
        return t.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

    tmp = []  # the forward's temporaries
    xhat1, q, k, v, ctx, xhat2 = (_POOL.take(keep, rows, d) for _ in range(6))
    u, cdf = _POOL.take(keep, rows, hidden), _POOL.take(keep, rows, hidden)
    p = _POOL.take(keep, b, heads, s, s)
    x1, h = _POOL.take(tmp, rows, d), _POOL.take(tmp, rows, d)  # h: one temporary at a time

    x0 = x.reshape(rows, d)
    inv1 = T._ln(x0, xhat1, h)
    T._ln_affine(xhat1, L.ln1_gain, L.ln1_bias, h)  # h1
    for w, bias, t in ((L.wq, L.bq, q), (L.wk, L.bk, k), (L.wv, L.bv, v)):
        np.matmul(h, w.data, out=t)
        t += bias.data
    q, k, v = split(q), split(k), split(v)
    np.matmul(q, k.swapaxes(-1, -2), out=p)
    p *= scale
    T._softmax(p, p)
    np.matmul(p, v, out=split(ctx))
    np.matmul(ctx, L.wo.data, out=h)  # the attention branch
    h += L.bo.data
    np.add(x0, h, out=x1)

    inv2 = T._ln(x1, xhat2, h)
    T._ln_affine(xhat2, L.ln2_gain, L.ln2_bias, h)  # h2
    np.matmul(h, L.w1.data, out=u)
    u += L.b1.data
    T._gelu_gate(u, cdf)
    np.matmul(np.multiply(u, cdf, out=_POOL.take(tmp, rows, hidden)), L.w2.data,
              out=h)  # the MLP branch
    h += L.b2.data
    np.add(x1, h, out=out.reshape(rows, d))
    _POOL.give(tmp)

    def back(g, gx, lease):
        tmp = []  # the backward's temporaries
        new = ((lambda *shape: np.empty(shape)) if lease is None
               else functools.partial(_POOL.take, lease))
        wide, gu = _POOL.take(tmp, rows, hidden), _POOL.take(tmp, rows, hidden)
        h, gh, gx1, gq, gk, gv = (_POOL.take(tmp, rows, d) for _ in range(6))  # h, gh: reused
        gs, gsp = _POOL.take(tmp, b, heads, s, s), _POOL.take(tmp, b, heads, s, s)
        gy = g.reshape(rows, d)
        gw2, gb2 = _linear_grads(np.multiply(u, cdf, out=wide) if L.w2.tracked else None,
                                 gy, L.w2, L.b2, new)
        np.matmul(gy, L.w2.data.T, out=gu)
        gu *= T._gelu_slope(u, cdf, wide)
        h2 = T._ln_affine(xhat2, L.ln2_gain, L.ln2_bias, h) if L.w1.tracked else None
        gw1, gb1 = _linear_grads(h2, gu, L.w1, L.b1, new)
        gx1, gg2, gbb2 = T._ln_backward(np.matmul(gu, L.w1.data.T, out=gh), xhat2, inv2,
                                        L.ln2_gain, L.ln2_bias, gx1, h)
        gx1 += gy

        gwo, gbo = _linear_grads(ctx, gx1, L.wo, L.bo, new)
        gctx = split(np.matmul(gx1, L.wo.data.T, out=gh))
        np.matmul(p.swapaxes(-1, -2), gctx, out=split(gv))
        np.matmul(gctx, v.swapaxes(-1, -2), out=gs)
        gs -= np.multiply(gs, p, out=gsp).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        np.matmul(gs, k, out=split(gq))
        np.matmul(gs.swapaxes(-1, -2), q, out=split(gk))
        h1 = (T._ln_affine(xhat1, L.ln1_gain, L.ln1_bias, h)
              if L.wq.tracked or L.wk.tracked or L.wv.tracked else None)
        gwq, gbq = _linear_grads(h1, gq, L.wq, L.bq, new)
        gwk, gbk = _linear_grads(h1, gk, L.wk, L.bk, new)
        gwv, gbv = _linear_grads(h1, gv, L.wv, L.bv, new)
        gh1 = np.matmul(gq, L.wq.data.T, out=gh)
        gh1 += np.matmul(gk, L.wk.data.T, out=h)
        gh1 += np.matmul(gv, L.wv.data.T, out=h)
        dx, gg1, gbb1 = T._ln_backward(gh1, xhat1, inv1, L.ln1_gain, L.ln1_bias,
                                       gx.reshape(rows, d), h)
        dx += gx1
        _POOL.give(tmp)
        return (gg1, gbb1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gbb2, gw1, gb1, gw2, gb2)

    return back


def encoder_forward(t0: Tensor, bundle: EncoderBundle, layer_range: LayerRange) -> Tensor:
    """Apply layers start..end-1 to a (B, S, D) batch of sequences; the final norm
    fires only when end == depth."""
    cfg = bundle.config
    layer_range.validate(cfg.depth)
    if t0.data.ndim != 3 or t0.shape[2] != cfg.dim:
        raise DimensionError(f"expected (B, S, {cfg.dim}) sequences, got shape {t0.shape}")
    if t0.shape[1] > cfg.max_seq:
        raise CapacityError(f"sequence length {t0.shape[1]} exceeds max_seq {cfg.max_seq}")
    x = t0
    for i in range(layer_range.start, layer_range.end):
        x = _block(x, bundle.layers[i], cfg)
    if layer_range.end == cfg.depth:
        x = T.layer_norm(x, bundle.final_gain, bundle.final_bias)
    return x


def save_weights(bundle: EncoderBundle, path: str | Path) -> None:
    """Write the bundle; loading it back reproduces every tensor bit-exactly."""
    wio.save_tensors(path, bundle.named_tensors(),
                     metadata={"encoder": json.dumps(asdict(bundle.config))})


def load_weights(path: str | Path, config: EncoderConfig) -> EncoderBundle:
    """Load a bundle and validate every shape against `config`, and against the file's own
    ``encoder`` config when it has one (a renamed third-party checkpoint has none)."""
    tensors, meta = wio.load_tensors(path)
    if "encoder" in meta and (stored := config_from_metadata(meta)) != config:
        differ = ", ".join(f"{k} {v!r} in the file, {getattr(config, k)!r} requested"
                           for k, v in asdict(stored).items() if v != getattr(config, k))
        raise ConfigError(f"{path}: encoder config differs: {differ}")
    return bundle_from_tensors(tensors, config)


def bundle_from_tensors(tensors: dict[str, np.ndarray],
                        config: EncoderConfig) -> EncoderBundle:
    """The bundle `config` describes; every spec tensor must be present with its shape.

    The optional patch projection loads when any of its tensors is present.
    Other names (an adapter's, a head's) are ignored.
    """
    with_patch = any(f.metadata["name"] in tensors
                     for f in _BUNDLE_SLOTS if f.default is not MISSING)
    bundle = _build(config, with_patch,
                    lambda name, shape, init: wio.require(tensors, name, shape))
    bundle._load_checksum = bundle.checksum()
    return bundle


def _fits(value, hint) -> bool:
    """Whether a JSON-read value is of the evaluated annotation `hint`.

    Exact types, so ``True`` is no ``int``; ``X | None`` admits None.
    """
    args = typing.get_args(hint)  # a union's members
    return any(_fits(value, a) for a in args) if args else type(value) is hint


def read_metadata(meta: dict[str, str], key: str, cls,
                  names: Iterable[str] | None = None) -> dict:
    """The JSON object under ``meta[key]``: exactly the fields `names` of dataclass `cls`.

    `names` defaults to all of its fields.
    Raises :class:`ConfigError` naming the key when the value is missing,
    is not a JSON object, has unknown or missing fields, or holds a value
    that is not of its field's annotated type (then naming the field too).
    """
    if key not in meta:
        raise ConfigError(f"metadata has no {key!r} entry")
    try:
        value = json.loads(meta[key])
    except json.JSONDecodeError as e:
        raise ConfigError(f"metadata {key!r} is not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"metadata {key!r} is not a JSON object: {meta[key]!r}")
    declared = {f.name: f for f in fields(cls)}
    names = set(declared if names is None else names)
    if value.keys() != names:
        raise ConfigError(f"metadata {key!r}: unknown fields {sorted(value.keys() - names)}, "
                          f"missing fields {sorted(names - value.keys())}")
    hints = typing.get_type_hints(cls)
    for name in sorted(names):
        if not _fits(value[name], hints[name]):
            raise ConfigError(f"metadata {key!r}: field {name!r} must be "
                              f"{declared[name].type}, got {value[name]!r}")
    return value


def read_config(meta: dict[str, str], key: str, cls):
    """The config dataclass `cls` stored as one JSON value under ``meta[key]``.

    A value its constructor refuses raises :class:`ConfigError` naming the key.
    """
    try:
        return cls(**read_metadata(meta, key, cls))
    except ContractError as e:
        raise ConfigError(f"metadata {key!r}: {e}") from None


def config_from_metadata(meta: dict[str, str]) -> EncoderConfig:
    """Rebuild an EncoderConfig from a container's metadata block."""
    return read_config(meta, "encoder", EncoderConfig)
