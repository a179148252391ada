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

Each block runs in plain numpy on 2-D ``(rows, D)`` arrays and records one
op on the tape (:func:`vistab.tensor.custom`), with a hand-written backward
that skips the gradients of untracked weights, so a frozen slice costs
only its input gradient. Q, K and V stay three ``(D, D)`` products on
purpose: on ``(272, 192)`` rows (batch 16, 17 tokens, ViT-Tiny width) one
``(D, 3D)`` product took 0.87 ms against 0.97 ms for the three (best of
400, one OpenBLAS thread, 2-CPU x86-64 VM), about 1 % of a block's
forward, too little to keep a second weight layout beside the stored one.

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
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import threading
import typing
import weakref
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import tensor as T
from . import weights as wio
from .errors import CapacityError, ConfigError, ContractError, DimensionError
from .tensor import Tensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EncoderConfig:
    depth: int
    dim: int
    heads: int
    mlp_ratio: int = 4
    max_seq: int = 2
    patch: int = 4
    channels: int = 1
    image_hw: tuple[int, int] = (8, 8)

    def __post_init__(self):
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
    """Fresh bundle with normal(0, scale) weights, unit LayerNorm gains."""
    rng = np.random.default_rng(seed)
    draw = {"normal": lambda shape: rng.normal(0.0, scale, shape),
            "zeros": np.zeros, "ones": np.ones}
    return _build(config, with_patch, lambda name, shape, init: draw[init](shape))


def zero_bundle(config: EncoderConfig) -> EncoderBundle:
    """All attention/MLP weights zero: the encoder becomes a residual identity."""
    b = random_bundle(config, seed=0, scale=0.0)
    b.pos_embed = Tensor(np.zeros((config.max_seq, config.dim)))
    b.cls_token = Tensor(np.zeros((1, config.dim)))
    return b


def patch_embed(image, bundle: EncoderBundle) -> Tensor:
    """Split an H x W x C image into P x P patches and project each to D.

    The image is input data (an array or a Tensor; no gradient flows back
    to it); its patches are :func:`flatten_patches` rows.
    """
    if bundle.patch_proj is None:
        raise ContractError("bundle has no patch projection weights")
    cfg = bundle.config
    img = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if img.ndim != 3:
        raise DimensionError(f"expected H x W x C image, got shape {img.shape}")
    h, w, c = img.shape
    p = cfg.patch
    if h % p or w % p:
        raise DimensionError(f"image {h}x{w} not divisible into {p}x{p} patches")
    if c != cfg.channels:
        raise DimensionError(f"expected {cfg.channels} channels, got {c}")
    tokens = T.matmul(Tensor(flatten_patches(img, p)), bundle.patch_proj)
    if bundle.patch_bias is not None:
        tokens = T.add(tokens, bundle.patch_bias)
    return tokens


def flatten_patches(image: np.ndarray, p: int) -> np.ndarray:
    """(H, W, C) -> (n, P*P*C) rows, patch grid walked row-major.

    Each patch flattens in row-major (row, column, channel) order.
    """
    h, w, c = image.shape
    gh, gw = h // p, w // p
    r = image.reshape(gh, p, gw, p, c)
    return np.ascontiguousarray(r.transpose(0, 2, 1, 3, 4)).reshape(gh * gw, p * p * c)


def assemble_sequence(tokens: Tensor, bundle: EncoderBundle, use_pos: bool = True) -> Tensor:
    """[CLS, t_1..t_n] for (n, D) or (B, n, D) tokens (patches or tabular views).

    With ``use_pos`` the first n + 1 rows of the positional table are added
    (a truncation of the pre-trained table).
    """
    n = tokens.shape[-2]
    cfg = bundle.config
    if n + 1 > cfg.max_seq:
        raise CapacityError(f"{n} tokens + CLS exceeds max_seq {cfg.max_seq}")
    if n < 1:
        raise CapacityError("need at least one token besides CLS")
    if tokens.data.ndim == 3:
        cls = T.expand_leading(bundle.cls_token, tokens.shape[0])
        seq = T.concat([cls, tokens], axis=1)
    else:
        seq = T.concat([bundle.cls_token, tokens], axis=0)
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
    set no longer used, is thus freed one to two windows later (25 to 50
    steps of a two-block slice), while a window still spans an evaluation
    pass of a few hundred rows between two training steps; a longer pass
    costs one step's page faults once.

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


def _ln(x: np.ndarray, xhat: np.ndarray, scratch: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Write x's standardized rows into `xhat`; return their inverse standard deviations.

    Population variance; `scratch` is a buffer of x's shape.
    """
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    inv_std = 1.0 / np.sqrt(np.multiply(xhat, xhat, out=scratch).mean(axis=-1, keepdims=True)
                            + eps)
    xhat *= inv_std
    return inv_std


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: Tensor,
                 bias: Tensor, dx: np.ndarray, scratch: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(input, gain, bias) gradients of ``xhat * gain + bias``; the last two when tracked.

    The input gradient is written into `dx`; `scratch` is a buffer of g's shape.
    """
    dxhat = np.multiply(g, gain.data, out=scratch)
    np.subtract(dxhat, dxhat.mean(axis=-1, keepdims=True), out=dx)
    dxhat *= xhat
    dx -= np.multiply(xhat, dxhat.mean(axis=-1, keepdims=True), out=scratch)
    dx *= inv_std
    return (dx, np.multiply(g, xhat, out=scratch).sum(axis=0) if gain.tracked else None,
            g.sum(axis=0) if bias.tracked else None)


def _linear_grads(a: np.ndarray | None, g: np.ndarray, w: Tensor,
                  bias: Tensor) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(weight, bias) gradients of ``a @ w + bias``, each only when tracked.

    ``a`` may be None when ``w`` is not tracked: the inputs that only weight
    gradients need are recomputed in the backward, and only then.
    """
    return (a.T @ g if w.tracked else None, g.sum(axis=0) if bias.tracked else None)


def _block(x: Tensor, layer: EncoderLayer, cfg: EncoderConfig) -> Tensor:
    """One pre-norm block, ``x + Attn(LN1(x))`` then ``+ MLP(LN2(.))``, as one tape op.

    Every product runs on 2-D ``(rows, D)`` arrays; only the per-head score
    and context products are batched. The backward is written out by hand
    (the attention part as in FlashAttention's backward: dP = dO V^T,
    dS = P * (dP - rowsum(dP * P))) and computes a weight's gradient only
    when that weight is tracked, so a frozen block costs its input gradient
    alone. Every large array but the output and the returned gradients is
    a pool buffer, leased as the module docstring describes.
    """
    L = layer
    shape = x.shape
    s, d, heads, dh = shape[-2], cfg.dim, cfg.heads, cfg.head_dim
    b = x.size // (s * d)
    rows, hidden = b * s, cfg.mlp_hidden
    scale = 1.0 / math.sqrt(dh)

    def split(t):  # (b*s, d) -> (b, heads, s, dh), a view
        return t.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

    keep, tmp = [], []  # leases: what the backward reads, the forward's temporaries
    xhat1, q, k, v, ctx, xhat2 = (_POOL.take(keep, rows, d) for _ in range(6))
    u, cdf = _POOL.take(keep, rows, hidden), _POOL.take(keep, rows, hidden)
    p = _POOL.take(keep, b, heads, s, s)
    x1, h = _POOL.take(tmp, rows, d), _POOL.take(tmp, rows, d)  # h: one temporary at a time

    x0 = x.data.reshape(rows, d)
    inv1 = _ln(x0, xhat1, h)
    np.multiply(xhat1, L.ln1_gain.data, out=h)  # h1
    h += L.ln1_bias.data
    for w, bias, t in ((L.wq, L.bq, q), (L.wk, L.bk, k), (L.wv, L.bv, v)):
        np.matmul(h, w.data, out=t)
        t += bias.data
    q, k, v = split(q), split(k), split(v)
    np.matmul(q, k.swapaxes(-1, -2), out=p)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    np.matmul(p, v, out=split(ctx))
    np.matmul(ctx, L.wo.data, out=h)  # the attention branch
    h += L.bo.data
    np.add(x0, h, out=x1)

    inv2 = _ln(x1, xhat2, h)
    np.multiply(xhat2, L.ln2_gain.data, out=h)  # h2
    h += L.ln2_bias.data
    np.matmul(h, L.w1.data, out=u)
    u += L.b1.data
    np.multiply(u, _INV_SQRT2, out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    np.matmul(np.multiply(u, cdf, out=_POOL.take(tmp, rows, hidden)), L.w2.data,
              out=h)  # the MLP branch
    h += L.b2.data
    out = x1 + h
    _POOL.give(tmp)

    def vjp(g):
        tmp = []  # the backward's temporaries
        wide, gu = _POOL.take(tmp, rows, hidden), _POOL.take(tmp, rows, hidden)
        h, gh, gx1, gq, gk, gv = (_POOL.take(tmp, rows, d) for _ in range(6))  # h, gh: reused
        gs, gsp = _POOL.take(tmp, b, heads, s, s), _POOL.take(tmp, b, heads, s, s)
        gy = g.reshape(rows, d)
        gw2, gb2 = _linear_grads(np.multiply(u, cdf, out=wide) if L.w2.tracked else None,
                                 gy, L.w2, L.b2)
        slope = np.multiply(u, u, out=wide)  # GELU'(u) = cdf + u * pdf, built in one buffer
        slope *= -0.5
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= u
        slope += cdf
        np.matmul(gy, L.w2.data.T, out=gu)
        gu *= slope
        h2 = None
        if L.w1.tracked:
            h2 = np.multiply(xhat2, L.ln2_gain.data, out=h)
            h2 += L.ln2_bias.data
        gw1, gb1 = _linear_grads(h2, gu, L.w1, L.b1)
        gx1, gg2, gbb2 = _ln_backward(np.matmul(gu, L.w1.data.T, out=gh), xhat2, inv2,
                                      L.ln2_gain, L.ln2_bias, gx1, h)
        gx1 += gy

        gwo, gbo = _linear_grads(ctx, gx1, L.wo, L.bo)
        gctx = split(np.matmul(gx1, L.wo.data.T, out=gh))
        np.matmul(p.swapaxes(-1, -2), gctx, out=split(gv))
        np.matmul(gctx, v.swapaxes(-1, -2), out=gs)
        gs -= np.multiply(gs, p, out=gsp).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        np.matmul(gs, k, out=split(gq))
        np.matmul(gs.swapaxes(-1, -2), q, out=split(gk))
        h1 = None
        if L.wq.tracked or L.wk.tracked or L.wv.tracked:
            h1 = np.multiply(xhat1, L.ln1_gain.data, out=h)
            h1 += L.ln1_bias.data
        gwq, gbq = _linear_grads(h1, gq, L.wq, L.bq)
        gwk, gbk = _linear_grads(h1, gk, L.wk, L.bk)
        gwv, gbv = _linear_grads(h1, gv, L.wv, L.bv)
        gh1 = np.matmul(gq, L.wq.data.T, out=gh)
        gh1 += np.matmul(gk, L.wk.data.T, out=h)
        gh1 += np.matmul(gv, L.wv.data.T, out=h)
        gx, gg1, gbb1 = _ln_backward(gh1, xhat1, inv1, L.ln1_gain, L.ln1_bias,
                                     np.empty((rows, d)), h)
        gx += gx1
        _POOL.give(tmp)
        # the order of (x, *L.tensors())
        return (gx.reshape(shape), gg1, gbb1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gbb2, gw1, gb1, gw2, gb2)

    weakref.finalize(vjp, _POOL.give, keep)
    return T.custom(out.reshape(shape), (x, *L.tensors()), vjp)


def encoder_forward(t0: Tensor, bundle: EncoderBundle, layer_range: LayerRange) -> Tensor:
    """Apply layers start..end-1; the final norm fires only when end == depth."""
    cfg = bundle.config
    layer_range.validate(cfg.depth)
    if t0.shape[-1] != cfg.dim:
        raise DimensionError(f"token width {t0.shape[-1]} != encoder dim {cfg.dim}")
    if t0.shape[-2] > cfg.max_seq:
        raise CapacityError(f"sequence length {t0.shape[-2]} exceeds max_seq {cfg.max_seq}")
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

    Exact types, so ``True`` is no ``int``; ``X | None`` admits None and a
    ``tuple[...]`` needs one element of each listed type.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    if args:  # a union
        return any(_fits(value, a) for a in args)
    return type(value) is hint


def read_metadata(meta: dict[str, str], key: str, cls,
                  names: Iterable[str] | None = None) -> dict:
    """The JSON object under ``meta[key]``: exactly the fields `names` of dataclass `cls`.

    `names` defaults to all of its fields. JSON lists come back as tuples.
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
    value = {k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}
    hints = typing.get_type_hints(cls)
    for name in sorted(names):
        if not _fits(value[name], hints[name]):
            raise ConfigError(f"metadata {key!r}: field {name!r} must be "
                              f"{declared[name].type}, got {value[name]!r}")
    return value


def read_config(meta: dict[str, str], key: str, cls):
    """The config dataclass `cls` stored as one JSON value under ``meta[key]``."""
    return cls(**read_metadata(meta, key, cls))


def config_from_metadata(meta: dict[str, str]) -> EncoderConfig:
    """Rebuild an EncoderConfig from a container's metadata block."""
    return read_config(meta, "encoder", EncoderConfig)
