"""ViT-style transformer encoder with layer-range slicing.

Blocks are pre-norm: ``x + Attn(LN(x))`` then ``x + MLP(LN(x))``, with the
final LayerNorm owned by the encoder and applied only when the requested
layer range reaches the last layer. Weights load from / save to the flat
container in :mod:`vistab.weights` under the canonical names

    layers.{i}.ln1.weight|bias
    layers.{i}.attn.{q|k|v|proj}.weight|bias
    layers.{i}.ln2.weight|bias
    layers.{i}.mlp.{fc1|fc2}.weight|bias
    final_norm.weight|bias, pos_embed, cls_token
    patch_proj.weight|bias            (optional; pre-training path only)

so third-party checkpoints can be converted by renaming alone.

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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import tensor as T
from . import weights as wio
from .errors import CapacityError, ContractError, DimensionError
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


@dataclass
class EncoderLayer:
    ln1_gain: Tensor
    ln1_bias: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def tensors(self) -> list[Tensor]:
        return [self.ln1_gain, self.ln1_bias, self.wq, self.bq, self.wk, self.bk,
                self.wv, self.bv, self.wo, self.bo, self.ln2_gain, self.ln2_bias,
                self.w1, self.b1, self.w2, self.b2]


@dataclass
class EncoderBundle:
    """Encoder configuration plus every transferable weight tensor."""

    config: EncoderConfig
    layers: list[EncoderLayer]
    final_gain: Tensor
    final_bias: Tensor
    pos_embed: Tensor
    cls_token: Tensor
    patch_proj: Tensor | None = None
    patch_bias: Tensor | None = None
    _load_checksum: str | None = field(default=None, repr=False)

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.layers:
            params.extend(layer.tensors())
        params.extend([self.final_gain, self.final_bias, self.pos_embed, self.cls_token])
        if self.patch_proj is not None:
            params.append(self.patch_proj)
        if self.patch_bias is not None:
            params.append(self.patch_bias)
        return params

    def set_tracked(self, tracked: bool) -> None:
        for p in self.parameters():
            p.tracked = tracked

    def named_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            p = f"layers.{i}"
            out[f"{p}.ln1.weight"] = layer.ln1_gain.data
            out[f"{p}.ln1.bias"] = layer.ln1_bias.data
            out[f"{p}.attn.q.weight"] = layer.wq.data
            out[f"{p}.attn.q.bias"] = layer.bq.data
            out[f"{p}.attn.k.weight"] = layer.wk.data
            out[f"{p}.attn.k.bias"] = layer.bk.data
            out[f"{p}.attn.v.weight"] = layer.wv.data
            out[f"{p}.attn.v.bias"] = layer.bv.data
            out[f"{p}.attn.proj.weight"] = layer.wo.data
            out[f"{p}.attn.proj.bias"] = layer.bo.data
            out[f"{p}.ln2.weight"] = layer.ln2_gain.data
            out[f"{p}.ln2.bias"] = layer.ln2_bias.data
            out[f"{p}.mlp.fc1.weight"] = layer.w1.data
            out[f"{p}.mlp.fc1.bias"] = layer.b1.data
            out[f"{p}.mlp.fc2.weight"] = layer.w2.data
            out[f"{p}.mlp.fc2.bias"] = layer.b2.data
        out["final_norm.weight"] = self.final_gain.data
        out["final_norm.bias"] = self.final_bias.data
        out["pos_embed"] = self.pos_embed.data
        out["cls_token"] = self.cls_token.data
        if self.patch_proj is not None:
            out["patch_proj.weight"] = self.patch_proj.data
        if self.patch_bias is not None:
            out["patch_proj.bias"] = self.patch_bias.data
        return out

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


def _expected_shapes(config: EncoderConfig, with_patch: bool) -> dict[str, tuple[int, ...]]:
    d, hidden = config.dim, config.mlp_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(config.depth):
        p = f"layers.{i}"
        shapes[f"{p}.ln1.weight"] = (d,)
        shapes[f"{p}.ln1.bias"] = (d,)
        for nm in ("q", "k", "v", "proj"):
            shapes[f"{p}.attn.{nm}.weight"] = (d, d)
            shapes[f"{p}.attn.{nm}.bias"] = (d,)
        shapes[f"{p}.ln2.weight"] = (d,)
        shapes[f"{p}.ln2.bias"] = (d,)
        shapes[f"{p}.mlp.fc1.weight"] = (d, hidden)
        shapes[f"{p}.mlp.fc1.bias"] = (hidden,)
        shapes[f"{p}.mlp.fc2.weight"] = (hidden, d)
        shapes[f"{p}.mlp.fc2.bias"] = (d,)
    shapes["final_norm.weight"] = (d,)
    shapes["final_norm.bias"] = (d,)
    shapes["pos_embed"] = (config.max_seq, d)
    shapes["cls_token"] = (1, d)
    if with_patch:
        shapes["patch_proj.weight"] = (config.patch ** 2 * config.channels, d)
        shapes["patch_proj.bias"] = (d,)
    return shapes


def random_bundle(config: EncoderConfig, seed: int = 0, scale: float = 0.02,
                  with_patch: bool = False) -> EncoderBundle:
    """Fresh bundle with normal(0, scale) weights, unit LayerNorm gains."""
    rng = np.random.default_rng(seed)
    d, hidden = config.dim, config.mlp_hidden

    def w(*shape):
        return Tensor(rng.normal(0.0, scale, shape))

    def zeros(*shape):
        return Tensor(np.zeros(shape))

    def ones(*shape):
        return Tensor(np.ones(shape))

    layers = [
        EncoderLayer(
            ln1_gain=ones(d), ln1_bias=zeros(d),
            wq=w(d, d), bq=zeros(d), wk=w(d, d), bk=zeros(d),
            wv=w(d, d), bv=zeros(d), wo=w(d, d), bo=zeros(d),
            ln2_gain=ones(d), ln2_bias=zeros(d),
            w1=w(d, hidden), b1=zeros(hidden), w2=w(hidden, d), b2=zeros(d),
        )
        for _ in range(config.depth)
    ]
    bundle = EncoderBundle(
        config=config,
        layers=layers,
        final_gain=ones(d),
        final_bias=zeros(d),
        pos_embed=w(config.max_seq, d),
        cls_token=w(1, d),
    )
    if with_patch:
        bundle.patch_proj = w(config.patch ** 2 * config.channels, d)
        bundle.patch_bias = zeros(d)
    return bundle


def zero_bundle(config: EncoderConfig) -> EncoderBundle:
    """All attention/MLP weights zero: the encoder becomes a residual identity."""
    b = random_bundle(config, seed=0, scale=0.0)
    b.pos_embed = Tensor(np.zeros((config.max_seq, config.dim)))
    b.cls_token = Tensor(np.zeros((1, config.dim)))
    return b


def patch_embed(image: Tensor, bundle: EncoderBundle) -> Tensor:
    """Split an H x W x C image into P x P patches and project each to D.

    Patch order is row-major over the patch grid; each patch flattens in
    row-major (row, column, channel) order before projection.
    """
    if bundle.patch_proj is None:
        raise ContractError("bundle has no patch projection weights")
    cfg = bundle.config
    img = image if isinstance(image, Tensor) else Tensor(image)
    if img.data.ndim != 3:
        raise DimensionError(f"expected H x W x C image, got shape {img.shape}")
    h, w, c = img.shape
    p = cfg.patch
    if h % p or w % p:
        raise DimensionError(f"image {h}x{w} not divisible into {p}x{p} patches")
    if c != cfg.channels:
        raise DimensionError(f"expected {cfg.channels} channels, got {c}")
    gh, gw = h // p, w // p
    grid = T.reshape(img, (gh, p, gw, p, c))
    grid = T.swap_axes(grid, 1, 2)
    flat = T.reshape(grid, (gh * gw, p * p * c))
    tokens = T.matmul(flat, bundle.patch_proj)
    if bundle.patch_bias is not None:
        tokens = T.add(tokens, bundle.patch_bias)
    return tokens


def flatten_patches(image: np.ndarray, p: int) -> np.ndarray:
    """(H, W, C) -> (n, P*P*C) rows, patch grid walked row-major."""
    h, w, c = image.shape
    gh, gw = h // p, w // p
    r = image.reshape(gh, p, gw, p, c)
    return np.ascontiguousarray(r.transpose(0, 2, 1, 3, 4)).reshape(gh * gw, p * p * c)


def assemble_image_sequence(patch_tokens: Tensor, bundle: EncoderBundle) -> Tensor:
    """Prepend the CLS token and add positional embeddings row by row."""
    n = patch_tokens.shape[-2]
    cfg = bundle.config
    if n + 1 > cfg.max_seq:
        raise CapacityError(f"{n} patches + CLS exceeds max_seq {cfg.max_seq}")
    if n < 1:
        raise CapacityError("need at least one patch token besides CLS")
    if patch_tokens.data.ndim == 3:
        cls = T.expand_leading(bundle.cls_token, patch_tokens.shape[0])
        seq = T.concat([cls, patch_tokens], axis=1)
    else:
        seq = T.concat([bundle.cls_token, patch_tokens], axis=0)
    return T.add(seq, _pos_slice(bundle, n + 1))


def _pos_slice(bundle: EncoderBundle, length: int) -> Tensor:
    """First `length` positional rows (truncation of the pre-trained table)."""
    pos = bundle.pos_embed
    if pos.shape[0] == length:
        return pos
    return T.narrow(pos, 0, 0, length)


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
    cfg = bundle.config
    meta = {
        "depth": str(cfg.depth),
        "dim": str(cfg.dim),
        "heads": str(cfg.heads),
        "mlp_ratio": str(cfg.mlp_ratio),
        "max_seq": str(cfg.max_seq),
        "patch": str(cfg.patch),
        "channels": str(cfg.channels),
        "image_h": str(cfg.image_hw[0]),
        "image_w": str(cfg.image_hw[1]),
    }
    wio.save_tensors(path, bundle.named_tensors(), metadata=meta)


def load_weights(path: str | Path, config: EncoderConfig) -> EncoderBundle:
    """Load a bundle and validate every shape against `config`."""
    tensors, _meta = wio.load_tensors(path)
    return bundle_from_tensors(tensors, config)


def bundle_from_tensors(tensors: dict[str, np.ndarray],
                        config: EncoderConfig) -> EncoderBundle:
    with_patch = "patch_proj.weight" in tensors
    expected = _expected_shapes(config, with_patch)
    for name, shape in expected.items():
        arr = wio.require(tensors, name)
        if arr.shape != shape:
            raise DimensionError(
                f"tensor {name!r}: expected shape {shape}, found {arr.shape}")

    def t(name):
        return Tensor(tensors[name])

    layers = []
    for i in range(config.depth):
        p = f"layers.{i}"
        layers.append(EncoderLayer(
            ln1_gain=t(f"{p}.ln1.weight"), ln1_bias=t(f"{p}.ln1.bias"),
            wq=t(f"{p}.attn.q.weight"), bq=t(f"{p}.attn.q.bias"),
            wk=t(f"{p}.attn.k.weight"), bk=t(f"{p}.attn.k.bias"),
            wv=t(f"{p}.attn.v.weight"), bv=t(f"{p}.attn.v.bias"),
            wo=t(f"{p}.attn.proj.weight"), bo=t(f"{p}.attn.proj.bias"),
            ln2_gain=t(f"{p}.ln2.weight"), ln2_bias=t(f"{p}.ln2.bias"),
            w1=t(f"{p}.mlp.fc1.weight"), b1=t(f"{p}.mlp.fc1.bias"),
            w2=t(f"{p}.mlp.fc2.weight"), b2=t(f"{p}.mlp.fc2.bias"),
        ))
    bundle = EncoderBundle(
        config=config,
        layers=layers,
        final_gain=t("final_norm.weight"),
        final_bias=t("final_norm.bias"),
        pos_embed=t("pos_embed"),
        cls_token=t("cls_token"),
        patch_proj=t("patch_proj.weight") if with_patch else None,
        patch_bias=t("patch_proj.bias") if with_patch else None,
    )
    bundle._load_checksum = bundle.checksum()
    return bundle


def config_from_metadata(meta: dict[str, str]) -> EncoderConfig:
    """Rebuild an EncoderConfig from a container's metadata block."""
    return EncoderConfig(
        depth=int(meta["depth"]),
        dim=int(meta["dim"]),
        heads=int(meta["heads"]),
        mlp_ratio=int(meta["mlp_ratio"]),
        max_seq=int(meta["max_seq"]),
        patch=int(meta.get("patch", "4")),
        channels=int(meta.get("channels", "1")),
        image_hw=(int(meta.get("image_h", "8")), int(meta.get("image_w", "8"))),
    )
