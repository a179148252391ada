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
only its input gradient. Every array a block makes is a fresh numpy array
(the C allocator settings in :mod:`vistab.tensor` let a step reuse the memory
the last one freed). Q, K and V stay three ``(D, D)`` products on purpose: on
``(272, 192)`` rows (batch 16, 17 tokens, ViT-Tiny width) one ``(D, 3D)`` product
took 0.87 ms against 0.97 ms for the three (best of 400, one OpenBLAS thread,
2-CPU x86-64 VM), about 1 % of a block's forward, too little to keep a second
weight layout beside the stored one.

A head that reads only the CLS row needs only that row of the slice's last
block, so :func:`encoder_forward` with ``cls_only`` runs that block on one
query row per sequence (the class attention of CaiT, Touvron et al. 2021):
LN1, K and V still cover every row, since the CLS query attends to all of
them, but Q, the scores, softmax, context, the output projection, the
residual, LN2 and the MLP cover the CLS rows alone. In the backward the other
rows' gradient flows through K and V only, and the weight gradients stay
exact. Every other block, and the last one without ``cls_only``, runs every
row.

A block may split its batch into k contiguous parts of whole sequences
and run them on as many threads: the calling thread runs the first,
worker threads run the others, and the backward splits the same way. The
workers start at whichever comes first: the first split, or the first
:meth:`EncoderBundle.checksum` on more than one CPU, which hashes its
tensors on them too. Attention mixes only the tokens of one sequence, so
each part's rows get the whole batch's arithmetic, bit for bit; only the
weight gradients, the sum of the parts', can differ in the last bit. The
split only pays where each thread has enough work and a CPU to itself, so
:func:`_parts` takes k from
what the block can observe, each time it runs: the CPUs in the process's
affinity mask, the threads the environment gives OpenBLAS, and the part's
size. k is at most 2, the only count measured, and 1 (the block runs
inline on the calling thread and starts no thread) on one CPU, as in a
process pinned with ``os.sched_setaffinity``; where OpenBLAS is not told
its thread count (it then runs one thread per CPU); or for a part below
the measured break-even. No part holds fewer than two query rows, which
bounds a CLS-only block to half its sequences' count of parts: numpy hands a
one-row product to BLAS's gemv, whose last bits differ from gemm's, while
from two rows up each row of a gemm comes out in the same bits whatever the
row count. Only the calling thread records the tape op and runs public
functions. The workers run the block's numpy arithmetic, the ``T._ln*``,
``T._gelu_*`` and ``T._softmax`` kernels and the checksum's ``hashlib``
digests, never a public :mod:`vistab` function (a tracer that wraps those
may keep one span stack for the process), and never give work to the
workers themselves, so no worker waits on another.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from . import weights as wio
from .errors import (CapacityError, ConfigError, ContractError, DimensionError,
                     seeded_rng)
from .tensor import Tensor


def require_sizes(config) -> None:
    """Raise :class:`ContractError` naming the first field of dataclass `config` that is
    not an ``int`` of at least 1 (a ``bool`` or a numpy integer is none, as in the
    checkpoint's JSON metadata); None passes only in a field whose default is None."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and f.default is None:
            continue
        if type(value) is not int:
            raise ContractError(f"{type(config).__name__}.{f.name} must be an int, "
                                f"got {value!r}")
        if value < 1:
            raise ContractError(f"{type(config).__name__}.{f.name} must be >= 1, got {value}")


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
        require_sizes(self)
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

    def __post_init__(self):
        for f in fields(self):
            if type(value := getattr(self, f.name)) is not int:
                raise ContractError(f"LayerRange.{f.name} must be an int, got {value!r}")

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
        """SHA-256, in sorted-name order, over each tensor's name followed by the
        SHA-256 digest of its bytes; bit-change sensitive.

        The tensor digests are split into ``min(_MAX_PARTS, _cpus())`` runs of sorted
        names of about equal bytes, run by :func:`_spread`: the first on this thread,
        the others on the worker threads, which ``hashlib`` runs without the GIL. The
        workers call only ``hashlib``. The digest does not depend on the split.
        """
        named = sorted(self.named_tensors().items())
        arrays = [np.ascontiguousarray(arr) for _, arr in named]  # a copy only when it must
        ends = np.cumsum([arr.nbytes for arr in arrays])
        k = min(_MAX_PARTS, _cpus(), len(arrays))
        cuts = np.searchsorted(ends, ends[-1] * np.arange(1, k) / k) + 1
        bounds = [0, *cuts.tolist(), len(arrays)]
        runs = _spread([functools.partial(_digests, arrays[lo:hi])
                        for lo, hi in zip(bounds, bounds[1:])])
        h = hashlib.sha256()
        for (name, _), digest in zip(named, itertools.chain.from_iterable(runs), strict=True):
            h.update(name.encode())
            h.update(digest)
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
    rng = seeded_rng(seed)
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


def assemble_sequence(tokens: Tensor, bundle: EncoderBundle) -> Tensor:
    """[CLS, t_1..t_n] for each of a batch of (patch or tabular view) tokens, plus the
    first n + 1 rows of the positional table (a truncation of the pre-trained table).

    Batch only: (B, n, D) -> (B, n + 1, D). The CLS row is then the one the encoder
    was pre-trained on; for tabular views each position row is a constant per view.
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
    pos = bundle.pos_embed
    if pos.shape[0] != n + 1:
        pos = T.narrow(pos, 0, 0, n + 1)
    return T.add(seq, pos)


def _linear(a: np.ndarray, w: Tensor, bias: Tensor) -> np.ndarray:
    """``a @ w + bias`` as one fresh array, the bias added in place."""
    out = a @ w.data
    out += bias.data
    return out


def _linear_grads(a: np.ndarray | None, g: np.ndarray, w: Tensor,
                  bias: Tensor) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(weight, bias) gradients of ``a @ w + bias``, each only when tracked.

    ``a`` may be None when ``w`` is not tracked: the inputs that only weight
    gradients need are recomputed in the backward, and only then.
    """
    return (np.matmul(a.T, g) if w.tracked else None,
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
    """The worker threads, made when a block first splits or a checksum first hashes on
    more than one CPU (no thread starts before)."""
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


def _digests(arrays: list[np.ndarray]) -> list[bytes]:
    """The SHA-256 digest of each array's bytes, each hashed in place."""
    return [hashlib.sha256(arr).digest() for arr in arrays]


def _sum_parts(parts: tuple) -> np.ndarray | None:
    """The parts' gradients of one weight summed into the first; None when untracked."""
    total = parts[0]
    if total is not None:
        for part in parts[1:]:
            total += part
    return total


def _block(x: Tensor, layer: EncoderLayer, cfg: EncoderConfig, sq: int) -> Tensor:
    """One pre-norm block, ``x + Attn(LN1(x))`` then ``+ MLP(LN2(.))``, as one tape op,
    on the first `sq` query rows of each sequence: ``(b, s, d)`` in, ``(b, sq, d)`` out.

    The batch splits into k = :func:`_parts` contiguous parts of whole
    sequences, run by :func:`_block_part` on as many threads (the module
    docstring says why that is exact), and no part holds fewer than two
    query rows. The output and the input gradient are fresh arrays that each
    part writes its rows of; the weight gradients are the sum of the parts'.
    """
    b, s, d = x.shape
    k = max(1, min(_parts(b, s, d), b * sq // 2))
    bounds = [b * i // k for i in range(k + 1)]
    parts = list(zip(bounds, bounds[1:]))
    out = np.empty((b, sq, d))
    backs = _spread([functools.partial(_block_part, x.data[lo:hi], layer, cfg, sq, out[lo:hi])
                     for lo, hi in parts])

    def vjp(g):
        gx = np.empty((b, s, d))
        grads = _spread([functools.partial(back, g[lo:hi], gx[lo:hi])
                         for back, (lo, hi) in zip(backs, parts)])
        return (gx, *map(_sum_parts, zip(*grads)))  # the order of (x, *layer.tensors())

    return T.custom(out, (x, *layer.tensors()), vjp)


def _block_part(x: np.ndarray, layer: EncoderLayer, cfg: EncoderConfig, sq: int,
                out: np.ndarray):
    """The block on a ``(b, s, d)`` part of the batch, for the first `sq` rows of each
    sequence (all s, or CLS alone): writes its ``(b, sq, d)`` output into `out` and
    returns its backward, ``back(g, gx)``, which writes the ``(b, s, d)`` input
    gradient into `gx` and returns the 16 weight gradients, fresh arrays, in the order
    of ``layer.tensors()``.

    Every product runs on 2-D ``(rows, D)`` arrays; only the per-head score
    and context products are batched. LN1, K and V cover all ``b * s`` rows;
    everything after them covers the ``b * sq`` query rows. The backward is
    written out by hand (the attention part as in FlashAttention's backward:
    dP = dO V^T, dS = P * (dP - rowsum(dP * P))) and computes a weight's
    gradient only when that weight is tracked, so a frozen block costs its
    input gradient alone.
    """
    L = layer
    b, s, d = x.shape
    heads, dh, rows, qrows = cfg.heads, cfg.head_dim, b * s, b * sq
    scale = 1.0 / math.sqrt(dh)

    def split(t, n):  # (b*n, d) -> (b, heads, n, dh), a view
        return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def queries(t):  # (b*s, d) -> its (b*sq, d) query rows, a view (sq is 1 or s)
        return t.reshape(b, s, d)[:, :sq].reshape(qrows, d)

    def per_head(a, c, n):  # a @ c per head, written straight into fresh (b*n, d) rows
        t = np.empty((b * n, d))
        np.matmul(a, c, out=split(t, n))
        return t

    x0 = x.reshape(rows, d)
    xhat1, inv1 = T._ln(x0)
    h1 = T._ln_affine(xhat1, L.ln1_gain, L.ln1_bias)
    q = split(_linear(queries(h1), L.wq, L.bq), sq)
    k = split(_linear(h1, L.wk, L.bk), s)
    v = split(_linear(h1, L.wv, L.bv), s)
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    p = T._softmax(scores)
    ctx = per_head(p, v, sq)
    x1 = queries(x0) + _linear(ctx, L.wo, L.bo)  # + the attention branch
    xhat2, inv2 = T._ln(x1)
    u = _linear(T._ln_affine(xhat2, L.ln2_gain, L.ln2_bias), L.w1, L.b1)
    cdf = T._gelu_gate(u)
    np.add(x1, _linear(u * cdf, L.w2, L.b2), out=out.reshape(qrows, d))  # + the MLP

    def back(g, gx):
        gy = g.reshape(qrows, d)
        gw2, gb2 = _linear_grads(u * cdf if L.w2.tracked else None, gy, L.w2, L.b2)
        gu = gy @ L.w2.data.T
        gu *= T._gelu_slope(u, cdf)
        h2 = T._ln_affine(xhat2, L.ln2_gain, L.ln2_bias) if L.w1.tracked else None
        gw1, gb1 = _linear_grads(h2, gu, L.w1, L.b1)
        gx1, gg2, gbb2 = T._ln_backward(gu @ L.w1.data.T, xhat2, inv2, L.ln2_gain,
                                        L.ln2_bias, np.empty((qrows, d)))
        gx1 += gy

        gwo, gbo = _linear_grads(ctx, gx1, L.wo, L.bo)
        gctx = split(gx1 @ L.wo.data.T, sq)
        gv = per_head(p.swapaxes(-1, -2), gctx, s)
        gs = gctx @ v.swapaxes(-1, -2)  # the scores' gradient, built in place
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = per_head(gs, k, sq)
        gk = per_head(gs.swapaxes(-1, -2), q, s)
        h1 = (T._ln_affine(xhat1, L.ln1_gain, L.ln1_bias)
              if L.wq.tracked or L.wk.tracked or L.wv.tracked else None)
        gwq, gbq = _linear_grads(None if h1 is None else queries(h1), gq, L.wq, L.bq)
        gwk, gbk = _linear_grads(h1, gk, L.wk, L.bk)
        gwv, gbv = _linear_grads(h1, gv, L.wv, L.bv)
        # K first, then Q on the query rows: with sq == s the sum of the three is the
        # same bits as Q + K + V, since IEEE addition commutes
        gh1 = gk @ L.wk.data.T
        gh1q = queries(gh1)
        gh1q += gq @ L.wq.data.T
        gh1 += gv @ L.wv.data.T
        dx, gg1, gbb1 = T._ln_backward(gh1, xhat1, inv1, L.ln1_gain, L.ln1_bias,
                                       gx.reshape(rows, d))
        dxq = queries(dx)
        dxq += gx1
        return (gg1, gbb1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gbb2, gw1, gb1, gw2, gb2)

    return back


def encoder_forward(t0: Tensor, bundle: EncoderBundle, layer_range: LayerRange,
                    cls_only: bool = False) -> Tensor:
    """Apply layers start..end-1 to a (B, S, D) batch of sequences; the final norm
    fires only when end == depth.

    Returns (B, S, D), or with `cls_only` the CLS row alone, (B, 1, D): the last
    block then computes only each sequence's first query row (the module docstring
    says what it still computes for the others).
    """
    cfg = bundle.config
    layer_range.validate(cfg.depth)
    if t0.data.ndim != 3 or t0.shape[2] != cfg.dim or t0.shape[1] < 1:
        raise DimensionError(f"expected (B, S, {cfg.dim}) sequences with S >= 1, "
                             f"got shape {t0.shape}")
    s = t0.shape[1]
    if s > cfg.max_seq:
        raise CapacityError(f"sequence length {s} exceeds max_seq {cfg.max_seq}")
    x = t0
    for i in range(layer_range.start, layer_range.end):
        x = _block(x, bundle.layers[i], cfg, 1 if cls_only and i == layer_range.end - 1 else s)
    if layer_range.end == cfg.depth:
        x = T.layer_norm(x, bundle.final_gain, bundle.final_bias)
    return x


def slice_parameters(bundle: EncoderBundle, layer_range: LayerRange) -> list[Tensor]:
    """Every tensor that :func:`assemble_sequence` and :func:`encoder_forward` read for
    tokens run through `layer_range`: its blocks, CLS, ``pos_embed``, and the final norm
    when the range reaches the last layer. Never the patch projection, which only
    :func:`patch_embed` reads. No gradient reaches any other tensor."""
    tensors = [t for layer in bundle.layers[layer_range.start:layer_range.end]
               for t in layer.tensors()]
    tensors += [bundle.cls_token, bundle.pos_embed]
    if layer_range.end == bundle.config.depth:
        tensors += [bundle.final_gain, bundle.final_bias]
    return tensors


def save_weights(bundle: EncoderBundle, path: str | Path) -> None:
    """Write the bundle; loading it back reproduces every tensor bit-exactly."""
    wio.save_tensors(path, bundle.named_tensors(),
                     metadata={"encoder": json.dumps(asdict(bundle.config))})


def load_weights(path: str | Path, config: EncoderConfig) -> EncoderBundle:
    """Load a bundle and validate every shape against `config`, and against the file's own
    ``encoder`` config when it has one (a renamed third-party checkpoint has none)."""
    tensors, meta = wio.load_tensors(path)
    if "encoder" in meta and (stored := read_config(meta, "encoder", EncoderConfig)) != config:
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


def read_metadata(meta: dict[str, str], key: str, names: Iterable[str]) -> dict:
    """The JSON object under ``meta[key]``, holding exactly the fields `names`.

    Raises :class:`ConfigError` naming the key when the value is missing, is not
    JSON, is not a JSON object, or has unknown or missing fields. It checks no
    field's value: a config's own constructor does (see :func:`read_config`).
    """
    if key not in meta:
        raise ConfigError(f"metadata has no {key!r} entry")
    try:
        value = json.loads(meta[key])
    except json.JSONDecodeError as e:
        raise ConfigError(f"metadata {key!r} is not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"metadata {key!r} is not a JSON object: {meta[key]!r}")
    names = set(names)
    if value.keys() != names:
        raise ConfigError(f"metadata {key!r}: unknown fields {sorted(value.keys() - names)}, "
                          f"missing fields {sorted(names - value.keys())}")
    return value


def read_config(meta: dict[str, str], key: str, cls):
    """The config dataclass `cls` stored as one JSON value under ``meta[key]``, an
    object holding exactly the fields of `cls`.

    `cls`'s constructor checks every value. A value it refuses raises
    :class:`ConfigError` naming the key and, as the constructor does, ``Class.field``.
    """
    try:
        return cls(**read_metadata(meta, key, (f.name for f in fields(cls))))
    except ContractError as e:
        raise ConfigError(f"metadata {key!r}: {e}") from None
