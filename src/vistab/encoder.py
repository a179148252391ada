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
"""

from __future__ import annotations

import hashlib
import json
import math
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


def _ln(x: np.ndarray, eps: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Standardized rows and their inverse standard deviations (population variance)."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    return xhat, inv_std


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: Tensor,
                 bias: Tensor) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(input, gain, bias) gradients of ``xhat * gain + bias``; the last two when tracked."""
    dxhat = g * gain.data
    dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
    dxhat *= xhat
    dx -= xhat * dxhat.mean(axis=-1, keepdims=True)
    dx *= inv_std
    return (dx, (g * xhat).sum(axis=0) if gain.tracked else None,
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
    alone.
    """
    L = layer
    shape = x.shape
    s, d, heads, dh = shape[-2], cfg.dim, cfg.heads, cfg.head_dim
    b = x.size // (s * d)
    scale = 1.0 / math.sqrt(dh)

    def split(t):  # (b*s, d) -> (b, heads, s, dh), a view
        return t.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (b, heads, s, dh) -> (b*s, d)
        return t.transpose(0, 2, 1, 3).reshape(b * s, d)

    x0 = x.data.reshape(b * s, d)
    xhat1, inv1 = _ln(x0)
    h1 = xhat1 * L.ln1_gain.data + L.ln1_bias.data
    q, k, v = (split(h1 @ w.data + bias.data)
               for w, bias in ((L.wq, L.bq), (L.wk, L.bk), (L.wv, L.bv)))
    del h1
    p = q @ k.swapaxes(-1, -2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = merge(p @ v)
    x1 = x0 + (ctx @ L.wo.data + L.bo.data)

    xhat2, inv2 = _ln(x1)
    u = (xhat2 * L.ln2_gain.data + L.ln2_bias.data) @ L.w1.data + L.b1.data
    cdf = u * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x1 + ((u * cdf) @ L.w2.data + L.b2.data)
    del x1

    def vjp(g):
        gy = g.reshape(b * s, d)
        gw2, gb2 = _linear_grads(u * cdf if L.w2.tracked else None, gy, L.w2, L.b2)
        slope = u * u  # GELU'(u) = cdf + u * pdf, built in one buffer
        slope *= -0.5
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= u
        slope += cdf
        gu = gy @ L.w2.data.T
        gu *= slope
        del slope
        h2 = xhat2 * L.ln2_gain.data + L.ln2_bias.data if L.w1.tracked else None
        gw1, gb1 = _linear_grads(h2, gu, L.w1, L.b1)
        gx1, gg2, gbb2 = _ln_backward(gu @ L.w1.data.T, xhat2, inv2, L.ln2_gain, L.ln2_bias)
        gx1 += gy

        gwo, gbo = _linear_grads(ctx, gx1, L.wo, L.bo)
        gctx = split(gx1 @ L.wo.data.T)
        gv = merge(p.swapaxes(-1, -2) @ gctx)
        gs = gctx @ v.swapaxes(-1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq, gk = merge(gs @ k), merge(gs.swapaxes(-1, -2) @ q)
        h1 = (xhat1 * L.ln1_gain.data + L.ln1_bias.data
              if L.wq.tracked or L.wk.tracked or L.wv.tracked else None)
        gwq, gbq = _linear_grads(h1, gq, L.wq, L.bq)
        gwk, gbk = _linear_grads(h1, gk, L.wk, L.bk)
        gwv, gbv = _linear_grads(h1, gv, L.wv, L.bv)
        gh1 = gq @ L.wq.data.T
        gh1 += gk @ L.wk.data.T
        gh1 += gv @ L.wv.data.T
        gx, gg1, gbb1 = _ln_backward(gh1, xhat1, inv1, L.ln1_gain, L.ln1_bias)
        gx += gx1
        # the order of (x, *L.tensors())
        return (gx.reshape(shape), gg1, gbb1, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo,
                gg2, gbb2, gw1, gb1, gw2, gb2)

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
    """Load a bundle and validate every shape against `config`."""
    tensors, _meta = wio.load_tensors(path)
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
    """The JSON object stored under ``meta[key]``, which must hold exactly `names`.

    JSON lists come back as tuples. Raises :class:`ConfigError` naming the
    key when the value is missing, is not a JSON object, or has unknown or
    missing fields.
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
    return {k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}


def read_config(meta: dict[str, str], key: str, cls):
    """The config dataclass `cls` stored as one JSON value under ``meta[key]``."""
    return cls(**read_metadata(meta, key, [f.name for f in fields(cls)]))


def config_from_metadata(meta: dict[str, str]) -> EncoderConfig:
    """Rebuild an EncoderConfig from a container's metadata block."""
    return read_config(meta, "encoder", EncoderConfig)
